"""Deterministic named RNG substreams derived from one master seed.

Every source of randomness in the project (env respawn, weight init,
teammate sampling, evaluation episodes) pulls its generator from
``substream(master_seed, "name", index, ...)`` so that runs are replayable
and individual streams can be audited in isolation.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream_seed(seed: int, *parts) -> np.random.SeedSequence:
    """SeedSequence for the (seed, *parts) substream; stable across runs."""
    return np.random.SeedSequence([int(seed) & _MASK64, *(_key_part(p) for p in parts)])


def substream(seed: int, *parts) -> np.random.Generator:
    """Fresh PCG64 generator for the named substream."""
    return np.random.default_rng(substream_seed(seed, *parts))


def substream_seed_int(seed: int, *parts) -> int:
    """A seed in [0, 2**63) drawn from the (seed, *parts) substream, for a
    callee that takes an int seed."""
    return int(substream(seed, *parts).integers(0, 2**63))
