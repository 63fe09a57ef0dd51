"""Seeded RNG streams.

All randomness in the toolkit flows through explicit ``numpy.random.Generator``
objects. ``child_rng`` derives independent, reproducible streams from an
integer seed plus a path of labels, so concurrent folds / grid candidates
never share or race on RNG state.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key_to_int(key: int | str) -> int:
    if isinstance(key, bool):  # bool is an int subclass; reject to avoid surprises
        raise TypeError("rng path keys must be int or str, not bool")
    if isinstance(key, int):
        return key & 0xFFFFFFFF
    return zlib.crc32(key.encode("utf-8"))


def child_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *path).

    The same (seed, path) always yields the same stream, and distinct paths
    yield statistically independent streams.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_key_to_int(k) for k in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))
