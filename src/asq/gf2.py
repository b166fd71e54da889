"""Exact linear algebra over GF(2) with bit-packed vectors.

A vector in F_2^d is an int with the low d bits used; bit i is the
coefficient of e_{i+1}.  A subspace is a tuple of basis vectors in
reduced row-echelon form, which doubles as a canonical key.

One row reduction (_reduce) serves rref, rank_of, meet (Zassenhaus),
kernel and linear_map; the last three reduce augmented rows, a low
block of bits for elimination and a high block carried along.
"""
from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "MAX_DIM",
    "Subspace",
    "rref",
    "span",
    "meet",
    "contains",
    "subspace_vectors",
    "rank_of",
    "complement_basis",
    "kernel",
    "linear_map",
    "format_vector",
    "parse_vector",
]

MAX_DIM = 16


def _check_dim(dim: int) -> None:
    if not 0 <= dim <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in 0..{MAX_DIM}, got {dim}")


def _check_vector(v: int, dim: int) -> None:
    if v < 0 or v >> dim:
        raise ValueError(f"vector {v} does not fit in dimension {dim}")


class Subspace:
    """A subspace of F_2^dim, stored as a reduced row-echelon basis."""

    __slots__ = ("dim", "basis")

    def __init__(self, dim: int, basis: Tuple[int, ...]):
        # Callers should construct through rref(); this trusts its input.
        self.dim = dim
        self.basis = basis

    @property
    def rank(self) -> int:
        return len(self.basis)

    def key(self) -> Tuple[int, ...]:
        """Canonical key: the RREF rows as an int tuple."""
        return self.basis

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.dim == other.dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.basis))

    def __repr__(self) -> str:
        rows = ", ".join(format_vector(v, self.dim) for v in self.basis)
        return f"Subspace(dim={self.dim}, [{rows}])"

    def __contains__(self, v: int) -> bool:
        return contains(self, v)

    def __iter__(self) -> Iterator[int]:
        return subspace_vectors(self)


def _reduce(rows: Iterable[int]) -> List[int]:
    """Reduced rows spanning the given ones: each row's pivot is its
    lowest set bit, and that bit is clear in every other row.  There is
    no dimension check, so augmented rows of any width reduce too."""
    out: List[int] = []
    for v in rows:
        for r in out:
            if v & (r & -r):
                v ^= r
        if v:
            low = v & -v
            out = [r ^ v if r & low else r for r in out]
            out.append(v)
    return out


def rref(vectors: Iterable[int], dim: int) -> Subspace:
    """Reduced row-echelon basis of the span of the given vectors."""
    _check_dim(dim)
    rows = _reduce(vectors)
    for r in rows:  # the rows span the input, so a stray bit shows here
        _check_vector(r, dim)
    rows.sort(key=lambda r: r & -r)
    return Subspace(dim, tuple(rows))


def rank_of(vectors: Iterable[int], dim: int) -> int:
    """Rank of a set of vectors: the number of reduced rows."""
    return len(_reduce(vectors))


def span(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both operands."""
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    return rref(a.basis + b.basis, a.dim)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces, via the Zassenhaus trick."""
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    d = a.dim
    # Rows (x|x) for x in a and (y|0) for y in b, the first block in the
    # low bits so that it wins the pivots: the reduced rows whose first
    # block vanished carry a basis of the intersection.
    rows = _reduce([v | v << d for v in a.basis] + list(b.basis))
    mask = (1 << d) - 1
    return rref([r >> d for r in rows if not r & mask], d)


def contains(s: Subspace, v: int) -> bool:
    """Membership of a vector in a subspace."""
    _check_vector(v, s.dim)
    for r in s.basis:
        if v & (r & -r):
            v ^= r
    return v == 0


def subspace_vectors(s: Subspace) -> Iterator[int]:
    """All 2^rank vectors of a subspace in subset order (vector m is the
    XOR of the basis rows at the set bits of m), zero first."""
    out = [0]
    for b in s.basis:
        out += [v ^ b for v in out]
    return iter(out)


def complement_basis(s: Subspace) -> Tuple[int, ...]:
    """Standard basis vectors completing s to the full space."""
    pivots = 0
    for r in s.basis:
        pivots |= r & -r
    return tuple(1 << i for i in range(s.dim) if not (pivots >> i) & 1)


def kernel(rows: List[int], dim: int) -> Subspace:
    """Kernel of the linear map x -> (x . row_i)_i given by bit rows."""
    _check_dim(dim)
    m = len(rows)
    images = [sum(((r >> i) & 1) << j for j, r in enumerate(rows)) for i in range(dim)]
    # Rows (image of e_i | e_i): those whose image block vanished carry
    # a basis of the kernel.
    aug = _reduce(img | 1 << (m + i) for i, img in enumerate(images))
    mask = (1 << m) - 1
    return rref([r >> m for r in aug if not r & mask], dim)


def linear_map(sources: Sequence[int], images: Sequence[int], dim: int) -> Tuple[int, ...]:
    """The matrix g (g[i] = image of e_{i+1}) sending each source to its
    image; the sources must be a basis of F_2^dim."""
    _check_dim(dim)
    # Reduced, the rows (s | t) become (e_i | g[i]) once the sources are
    # a basis.
    rows = _reduce(s | t << dim for s, t in zip(sources, images, strict=True))
    mask = (1 << dim) - 1
    if len(rows) < len(sources) or any(not r & mask for r in rows):
        raise ValueError("given vectors are dependent")
    if len(rows) != dim:
        raise ValueError("given vectors do not span the space")
    out = [0] * dim
    for r in rows:
        out[(r & -r).bit_length() - 1] = r >> dim
    return tuple(out)


def format_vector(v: int, dim: int) -> str:
    """Little-endian bit string; '10100000' is e1+e3 in d=8."""
    _check_vector(v, dim)
    return "".join("1" if (v >> i) & 1 else "0" for i in range(dim))


def parse_vector(s: str, dim: int | None = None) -> Tuple[int, int]:
    """Inverse of format_vector; returns (vector, dim)."""
    s = s.strip()
    if dim is None:
        dim = len(s)
    if len(s) != dim or set(s) - {"0", "1"}:
        raise ValueError(f"bad bit string {s!r} for dimension {dim}")
    v = 0
    for i, c in enumerate(s):
        if c == "1":
            v |= 1 << i
    return v, dim
