"""Hot numeric kernels, in numpy: XOR spans, difference counts over a
multiplication table, and the one bitset layout: a membership mask over
0..n-1 holds g at bit g & 63 of little-endian uint64 word g >> 6."""
from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "xor_span", "membership_words", "bit_rows", "meet_counts",
           "pairwise_disjoint", "difference_counts"]

BACKEND = "numpy"
_WORD = np.dtype("<u8")  # the word of every mask


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
    """Row i of members (ints of shape (m, k) in 0..n-1, repeats
    allowed) as mask row i, of shape (m, (n + 63) // 64)."""
    bits = np.zeros((len(members), (n + 63) // 64 * 64), dtype=bool)
    bits[np.arange(len(members))[:, None], members] = True
    return np.packbits(bits, axis=-1, bitorder="little").view(_WORD)


def bit_rows(bits: np.ndarray) -> np.ndarray:
    """Bool rows (..., n) as mask rows (..., (n + 63) // 64): member j
    of row i is bits[i, j]."""
    out = np.zeros(bits.shape[:-1] + ((bits.shape[-1] + 63) // 64 * 8,), dtype=np.uint8)
    out[..., :(bits.shape[-1] + 7) // 8] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(_WORD)


def meet_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The members shared by mask rows a and b, broadcast, in uint16."""
    return np.bitwise_count(a & b).sum(axis=-1, dtype=np.uint16)


def pairwise_disjoint(masks: np.ndarray, meet: int = 1) -> np.ndarray:
    """masks: (N, w) membership masks.  Returns the (N, N) bool matrix
    of pairs whose intersection has exactly `meet` elements; the default
    1 tests subspaces or subgroups, which always contain bit 0, for
    meeting trivially.  Works in row chunks of about 2 MB of ANDs, so no
    (N, N) integer matrix is ever held."""
    n, words = masks.shape
    out = np.empty((n, n), dtype=bool)
    chunk = max(1, (1 << 21) // (8 * words * n + 1))
    for lo in range(0, n, chunk):
        out[lo:lo + chunk] = meet_counts(masks[lo:lo + chunk, None], masks) == meet
    return out


def difference_counts(mul: np.ndarray, inv: np.ndarray, delta) -> np.ndarray:
    """Number of representations g = s * t^{-1} with s, t in delta,
    for every group element g (indexing a multiplication table)."""
    delta = np.asarray(delta, dtype=np.int64)
    prods = mul[np.ix_(delta, inv[delta])]
    return np.bincount(prods.ravel(), minlength=mul.shape[0])
