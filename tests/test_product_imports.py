"""The product never deserialises with pickle.

Cache payloads cross hosts (a shared SQLite file, the ``repro cached``
wire), so unpickling them would run whatever a peer sent.  This guard fails
when any module under ``src/repro`` imports a module that loads code-bearing
payloads, so such a reader cannot return to the serving path unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Standard-library modules whose loaders can execute or allocate whatever a
#: payload asks for.
FORBIDDEN = frozenset({"pickle", "marshal", "shelve"})


def imported_modules(path):
    """Top-level names of every module ``path`` imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_no_product_module_imports_a_code_bearing_deserialiser():
    assert (SRC / "engine" / "backends" / "wire.py").is_file()
    offenders = [
        (str(path.relative_to(SRC)), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in imported_modules(path)
        if name in FORBIDDEN
    ]
    assert offenders == []
