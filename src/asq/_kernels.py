"""Hot numeric kernels, in numpy: XOR spans, membership bitsets, their
pairwise meet sizes, and difference counts over a multiplication table."""
from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "xor_span", "membership_words", "pairwise_disjoint", "difference_counts"]

BACKEND = "numpy"

# Bytes of uint64 ANDs held at once by pairwise_disjoint.
_CHUNK_BYTES = 1 << 21


def xor_span(cols: np.ndarray) -> np.ndarray:
    """cols: ints of shape (..., k).  Entry m of the (..., 2^k) result is
    the XOR of cols[..., i] over the set bits i of m: a span's vectors in
    subset order, or a matrix's image of every vector of F_2^k."""
    cols = np.asarray(cols, dtype=np.int64)
    k = cols.shape[-1]
    out = np.zeros(cols.shape[:-1] + (1 << k,), dtype=np.int64)
    for i in range(k):
        out[..., 1 << i:2 << i] = out[..., :1 << i] ^ cols[..., i:i + 1]
    return out


def membership_words(members: np.ndarray, n: int) -> np.ndarray:
    """Row i of members (an int array of shape (m, k), entries in
    0..n-1) as an n-bit membership mask in little-endian uint64 words,
    shape (m, (n + 63) // 64)."""
    out = np.zeros((len(members), (n + 63) // 64), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (members & 63).astype(np.uint64))
    np.bitwise_or.at(out, (np.arange(len(members))[:, None], members >> 6), bits)
    return out


def pairwise_disjoint(masks: np.ndarray, meet: int = 1) -> np.ndarray:
    """masks: (N, w) uint64 membership masks (bit g set iff element g
    is in the set).  Returns the (N, N) bool matrix of pairs whose
    intersection has exactly `meet` elements; the default 1 tests
    subspaces or subgroups, which always contain bit 0, for meeting
    trivially.  Works in row chunks of about 2 MB of ANDs, so no (N, N)
    integer matrix is ever held."""
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    n, words = masks.shape
    out = np.empty((n, n), dtype=bool)
    chunk = max(1, _CHUNK_BYTES // (8 * words * n + 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        counts = np.bitwise_count(masks[lo:hi, None, :] & masks[None, :, :])
        out[lo:hi] = counts.sum(axis=2, dtype=np.int32) == meet
    return out


def difference_counts(mul: np.ndarray, inv: np.ndarray, delta) -> np.ndarray:
    """Number of representations g = s * t^{-1} with s, t in delta,
    for every group element g (indexing a multiplication table)."""
    delta = np.asarray(delta, dtype=np.int64)
    prods = mul[np.ix_(delta, inv[delta])]
    return np.bincount(prods.ravel(), minlength=mul.shape[0])
