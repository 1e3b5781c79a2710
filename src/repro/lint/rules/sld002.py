"""SLD002 — networked cache backends must fail open.

The deployment story leans on one promise: an unreachable, slow, or
corrupt cache server degrades a fleet to local rebuilds, never to request
errors.  That promise lives in ``remote.py`` / ``sharded.py`` /
``tiered.py``: no :class:`CacheBackend` protocol method there may let
``OSError`` (or any subclass: connection resets, timeouts), ``EOFError``,
or a wire-protocol exception escape to the caller.

The rule computes, for every project function, the set of watched
exceptions that can escape it (raise statements, socket primitives, callee
leaks, minus enclosing ``except`` clauses — including module-level tuples
like ``_FAIL_OPEN_ERRORS``), then requires the set to be empty for each
protocol method of every backend class in the checked modules.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import FileContext, Project
from repro.lint.registry import rule

#: Modules carrying the fail-open contract (networked / tiered backends).
CHECKED_BASENAMES = frozenset({"remote.py", "sharded.py", "tiered.py"})

#: CacheBackend protocol surface plus the observability probes callers use.
PROTOCOL_METHODS = frozenset({
    "get", "try_get", "put", "delete", "clear",
    "close", "ping", "server_stats", "extra_metrics",
    "__len__", "__contains__",
})


@rule(
    "SLD002",
    "fail-open-contract",
    "networked backends must not leak transport exceptions",
)
def check(ctx: FileContext, project: Project) -> Iterator[Finding]:
    if ctx.basename not in CHECKED_BASENAMES:
        return
    leaks = project.leaks
    for cls in ctx.symbols.classes.values():
        # Duck-typed backend: anything exposing the get/put storage pair.
        if "get" not in cls.methods or "put" not in cls.methods:
            continue
        for name in sorted(PROTOCOL_METHODS & set(cls.methods)):
            method = cls.methods[name]
            key = f"{ctx.symbols.module_name}::{cls.name}.{name}"
            escaped = leaks.get(key) or frozenset()
            if escaped:
                yield Finding(
                    path=ctx.rel_path,
                    line=method.node.lineno,
                    code="SLD002",
                    message=(
                        f"fail-open contract: '{cls.name}.{name}' may let "
                        f"{', '.join(sorted(escaped))} escape to callers"
                    ),
                )
