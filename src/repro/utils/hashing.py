"""Stable content digests for cache keys.

The batch planning engine keys its caches by *content fingerprints* of the
core model objects (task bin sets, crowdsourcing tasks, problems).  A
fingerprint must be stable across processes and Python invocations — unlike
``hash()``, which is salted per process — and must change whenever any value
that influences a solver's output changes.  Floats are rendered with
``float.hex()`` so two values collide only when they are bit-identical.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

#: Length of the hex digests produced by :func:`stable_digest`.  16 hex chars
#: (64 bits) keep keys readable in logs while making accidental collisions
#: vanishingly unlikely at any realistic cache size.
DIGEST_LENGTH = 16


def float_token(value: float) -> str:
    """Render a float so equal tokens imply bit-identical values."""
    return float(value).hex()


def stable_hasher(parts: Iterable[str]) -> "hashlib._Hash":
    """A sha256 hasher fed ``parts`` as :func:`stable_digest` feeds them.

    For callers that append the rest of the length-prefixed stream
    themselves, in bulk.
    """
    hasher = hashlib.sha256()
    for part in parts:
        encoded = part.encode("utf-8")
        hasher.update(str(len(encoded)).encode("ascii"))
        hasher.update(b":")
        hasher.update(encoded)
    return hasher


def stable_digest(parts: Iterable[str]) -> str:
    """Digest an ordered sequence of string tokens into a short hex key.

    Tokens are length-prefixed before hashing so no two distinct sequences
    can concatenate to the same byte stream.
    """
    return stable_hasher(parts).hexdigest()[:DIGEST_LENGTH]
