"""Deterministic seed derivation built on numpy's SeedSequence."""
from __future__ import annotations

import numpy as np


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def child_sequence(parent: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Stateless child derivation: extends the spawn key instead of spawn().

    Unlike ``parent.spawn``, repeated calls with the same key always yield
    the same child, so callers may re-derive any stream independently.
    """
    spawn_key = tuple(parent.spawn_key) + tuple(int(k) for k in key)
    return np.random.SeedSequence(entropy=parent.entropy, spawn_key=spawn_key)


def generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(as_seed_sequence(seed)))
