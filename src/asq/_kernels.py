"""Hot numeric kernels, in numpy: pairwise meet sizes of membership
bitsets and difference counts over a multiplication table."""
from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "pairwise_disjoint", "difference_counts", "popcount16_table"]

BACKEND = "numpy"

# Popcounts of all 16-bit words.
popcount16_table = np.zeros(1 << 16, dtype=np.uint8)
for _i in range(16):
    popcount16_table[1 << _i :: 1 << (_i + 1)] += 1
for _i in range(1, 16):
    popcount16_table[1 << _i : 1 << (_i + 1)] += popcount16_table[: 1 << _i]


def pairwise_disjoint(masks: np.ndarray, meet: int = 1) -> np.ndarray:
    """masks: (N, w) uint64 membership masks (bit g set iff element g
    is in the set).  Returns the (N, N) bool matrix of pairs whose
    intersection has exactly `meet` elements; the default 1 tests
    subspaces or subgroups, which always contain bit 0, for meeting
    trivially.  Works in row chunks, so no (N, N) integer matrix is
    ever held."""
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    n = masks.shape[0]
    out = np.empty((n, n), dtype=bool)
    m16 = masks.view(np.uint16).reshape(n, -1)
    chunk = max(1, (1 << 24) // (m16.shape[1] * n + 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        ands = m16[lo:hi, None, :] & m16[None, :, :]
        counts = popcount16_table[ands].sum(axis=2, dtype=np.int64)
        out[lo:hi] = counts == meet
    return out


def difference_counts(mul: np.ndarray, inv: np.ndarray, delta) -> np.ndarray:
    """Number of representations g = s * t^{-1} with s, t in delta,
    for every group element g (indexing a multiplication table)."""
    delta = np.asarray(delta, dtype=np.int64)
    prods = mul[np.ix_(delta, inv[delta])]
    return np.bincount(prods.ravel(), minlength=mul.shape[0])
