"""Small numpy helpers shared by the per-batch paths."""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(a) -> np.ndarray:
    """``np.unique(a)`` — sorted distinct values of the flattened input,
    same dtype — via one sort plus an adjacent-difference mask.

    Recent numpy answers a flag-less ``np.unique`` with a hash-based path
    that is about ten times slower than sorting on the integer id arrays a
    batch carries (numpy 2.4: ~40 ms vs ~4 ms on 200K int64 ids).  Meant
    for integer ids: unlike ``np.unique``, repeated NaNs are not merged.
    """
    flat = np.sort(np.asarray(a), axis=None)
    if len(flat) < 2:
        return flat
    keep = np.empty(len(flat), dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]
