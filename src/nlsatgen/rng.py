"""Deterministic RNG streams derived from structured keys.

Every stochastic step in the package draws from a ``random.Random``
seeded by hashing a tuple of labels (master seed, purpose, instance
index, ...).  Streams for different keys are independent, and the same
key always yields the same stream, which is what makes parallel and
serial dataset generation produce identical bytes.  A part is hashed as
its type name and repr, so 1, 1.0 and True (or 0.0 and -0.0) key apart.
Keys that differ only in their last part can share a ``_seed_maker``.
"""

from __future__ import annotations

import hashlib
import random


def _label(part) -> str:
    return f"{type(part).__name__}:{part!r}"


def derive_seed(*parts) -> int:
    """Hash a key tuple into a 128-bit integer seed."""
    digest = hashlib.sha256("\x1f".join(map(_label, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def derive_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def _seed_maker(*prefix):
    """``last -> derive_seed(*prefix, last)``.  SHA-256 reads its input in
    order, so each seed updates a copy of the prefix's hash with the last
    label alone."""
    head = hashlib.sha256("".join(_label(p) + "\x1f" for p in prefix).encode("utf-8"))

    def seed(last) -> int:
        h = head.copy()
        h.update(_label(last).encode("utf-8"))
        return int.from_bytes(h.digest()[:16], "big")

    return seed
