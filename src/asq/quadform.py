"""Quadratic forms on F_2^d: radicals, Witt type, singular subspaces,
isometry-group generators, equivalence, and the field-reduction arc.

A form is stored by its upper-triangular coefficient matrix M with
Q(x) = x^T M x; the polarisation B = M + M^T is alternating.  Matrices
acting on F_2^d are tuples g of d ints, g[i] = image of e_{i+1}, so the
action is apply_matrix(g, v) = XOR of g[i] over the set bits of v.

Each form owns two read-only whole-space tables, built on first use:
values[v] = Q(v) and polar[v] = bilinear_row(v) for every v in F_2^d.
Every scan over all vectors of the space or of a subspace reads them;
evaluate, bilinear and bilinear_row are the scalar definitions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import gf2
from ._kernels import xor_span
from .gf2 import Subspace

__all__ = [
    "QuadraticForm",
    "FormClass",
    "preset",
    "PRESETS",
    "load_form",
    "save_form",
    "radicals",
    "singular_subspaces",
    "isometry_generators",
    "isometry_order",
    "plane_group_order",
    "forms_equivalent",
    "field_reduction_arc",
    "gamma_forms",
    "FieldReductionArc",
    "apply_matrix",
    "mat_mul",
    "mat_inverse",
    "transvection",
]


def _parity(x: int) -> int:
    return x.bit_count() & 1


class QuadraticForm:
    """Q(x) = x^T M x over F_2 with M upper triangular."""

    __slots__ = ("dim", "coeff", "_brows", "_values", "_polar")

    def __init__(self, dim: int, coeff: Tuple[int, ...]):
        if len(coeff) != dim:
            raise ValueError("coefficient matrix must have dim rows")
        mask = (1 << dim) - 1
        self.dim = dim
        # Keep only the upper triangle (j >= i) of each row.
        self.coeff = tuple((row & mask) & ~((1 << i) - 1) for i, row in enumerate(coeff))
        # row i of B = M + M^T: row i of M plus column i, the diagonal cancelling
        self._brows = tuple(row ^ sum((self.coeff[j] >> i & 1) << j for j in range(dim))
                            for i, row in enumerate(self.coeff))
        self._values: Optional[np.ndarray] = None
        self._polar: Optional[np.ndarray] = None

    @property
    def values(self) -> np.ndarray:
        """Q(v) for every v in F_2^d, as parity(v & v^T M); read-only."""
        if self._values is None:
            v = np.arange(1 << self.dim)
            self._values = np.bitwise_count(v & xor_span(self.coeff)) & 1
            self._values.flags.writeable = False
        return self._values

    @property
    def polar(self) -> np.ndarray:
        """bilinear_row(v) for every v in F_2^d; read-only."""
        if self._polar is None:
            self._polar = xor_span(self._brows)
            self._polar.flags.writeable = False
        return self._polar

    def evaluate(self, v: int) -> int:
        """Q(v) = sum over i <= j of M_ij v_i v_j = parity(v & v^T M)."""
        if v >> self.dim:
            raise ValueError("vector outside ambient dimension")
        return _parity(apply_matrix(self.coeff, v) & v)

    def bilinear(self, u: int, v: int) -> int:
        """B(u, v) with B = M + M^T."""
        if (u | v) >> self.dim:
            raise ValueError("vector outside ambient dimension")
        return _parity(self.bilinear_row(u) & v)

    def bilinear_row(self, u: int) -> int:
        """The vector w with B(u, v) = parity(w & v) for all v."""
        return apply_matrix(self._brows, u)

    def key(self) -> Tuple[int, ...]:
        return self.coeff

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuadraticForm)
            and self.dim == other.dim
            and self.coeff == other.coeff
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.coeff))

    def __repr__(self) -> str:
        terms = []
        for i in range(self.dim):
            for j in range(i, self.dim):
                if (self.coeff[i] >> j) & 1:
                    terms.append(f"x{i + 1}x{j + 1}" if i != j else f"x{i + 1}^2")
        return f"QuadraticForm(d={self.dim}, {' + '.join(terms) or '0'})"


@dataclass(frozen=True)
class FormClass:
    """Equivalence invariants: induced Witt type and radical dimensions.

    tag is '+' or '-' when SRad(Q) = Rad(B) (the induced form on V/Rad is
    then nondegenerate and has a well-defined type) and 'mixed' when the
    radical carries an anisotropic vector, in which case the type of a
    complement is not an invariant.
    """

    tag: str
    rad_dim: int
    srad_dim: int


def _terms_to_coeff(dim: int, terms: List[Tuple[int, int]]) -> Tuple[int, ...]:
    rows = [0] * dim
    for i, j in terms:
        a, b = min(i, j), max(i, j)
        rows[a] ^= 1 << b
    return tuple(rows)


PRESETS: Dict[str, QuadraticForm] = {
    "plus8": QuadraticForm(8, _terms_to_coeff(8, [(0, 1), (2, 3), (4, 5), (6, 7)])),
    "minus8": QuadraticForm(
        8, _terms_to_coeff(8, [(0, 1), (2, 3), (4, 5), (6, 6), (6, 7), (7, 7)])
    ),
    "deg-hyp6": QuadraticForm(8, _terms_to_coeff(8, [(0, 1), (2, 3), (4, 5)])),
    "deg-c4": QuadraticForm(8, _terms_to_coeff(8, [(0, 1), (2, 3), (4, 5), (6, 6)])),
}


def preset(name: str) -> QuadraticForm:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown form preset {name!r}; have {sorted(PRESETS)}")


def load_form(text: str) -> QuadraticForm:
    """Parse the form file format: 'dim d' then d rows of d bits.  The
    dimension is bounded by 9, that of the forms of the cocycle groups
    load_group accepts."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "dim" or not head[1].isdigit():
        raise ValueError("form file must start with 'dim d'")
    d = int(head[1])
    if not 1 <= d <= 9:
        raise ValueError(f"dim must be between 1 and 9, got {d}")
    if len(lines) != d + 1:
        raise ValueError(f"expected {d} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        v, _ = gf2.parse_vector(ln, d)
        rows.append(v)
    return QuadraticForm(d, tuple(rows))


def save_form(q: QuadraticForm) -> str:
    out = [f"dim {q.dim}"]
    out += [gf2.format_vector(row, q.dim) for row in q.coeff]
    return "\n".join(out) + "\n"


def radicals(q: QuadraticForm) -> Tuple[Subspace, Subspace, FormClass]:
    """Rad(B), SRad(Q) and the classification invariants."""
    d = q.dim
    rad = gf2.kernel(list(q._brows), d)
    srad_basis = []
    aniso = None
    for r in rad.basis:
        if q.evaluate(r):
            if aniso is None:
                aniso = r
            else:
                srad_basis.append(r ^ aniso)
        else:
            srad_basis.append(r)
    srad = gf2.rref(srad_basis, d)
    zeros = np.count_nonzero(q.values[xor_span(gf2.complement_basis(rad))] == 0)
    if srad.rank == rad.rank:
        m2 = d - rad.rank  # = 2m, the nondegenerate part is even-dimensional
        if m2 == 0:
            tag = "+"
        else:
            plus_zeros = (1 << (m2 - 1)) + (1 << (m2 // 2 - 1))
            tag = "+" if zeros == plus_zeros else "-"
    else:
        tag = "mixed"
    return rad, srad, FormClass(tag, rad.rank, srad.rank)


def singular_subspaces(q: QuadraticForm, k: int) -> List[Subspace]:
    """All totally singular k-subspaces, in canonical key order.

    Whole-array levels: S is held by its least-vector basis v_1 < ... <
    v_j (v_i least in S outside <v_1..v_{i-1}>) and the mask T of the
    top bits of its vectors.  A singular c with B(c, S) = 0 spans a
    totally singular <S, c>; c is least in c + S iff c & T = 0, and c
    then extends the least-vector basis iff c > v_j, so each subspace
    arises once.  One gf2.rref per result gives its Subspace.
    """
    if k > q.dim:
        return []
    pts = np.flatnonzero(q.values[1:] == 0) + 1
    perp = (np.bitwise_count(q.polar[pts, None] & pts) & 1) == 0
    top = np.left_shift(1, np.frexp(pts)[1] - 1)
    basis = np.zeros((1, 0), dtype=np.intp)  # indices into pts
    tops = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        cand = (pts & tops[:, None]) == 0
        if basis.shape[1]:
            cand &= pts > pts[basis[:, -1:]]
        for col in basis.T:
            cand &= perp[col]
        parent, c = np.nonzero(cand)
        basis = np.column_stack([basis[parent], c])
        tops = tops[parent] | top[c]
    out = [gf2.rref(b, q.dim) for b in pts[basis].tolist()]
    out.sort(key=Subspace.key)
    return out


# ----------------------------------------------------------------------
# matrices acting on F_2^d


def apply_matrix(g: Tuple[int, ...], v: int) -> int:
    out = 0
    x = v
    while x:
        i = (x & -x).bit_length() - 1
        out ^= g[i]
        x &= x - 1
    return out


def mat_mul(g: Tuple[int, ...], h: Tuple[int, ...]) -> Tuple[int, ...]:
    """Composition: apply g first, then h."""
    return tuple(apply_matrix(h, gi) for gi in g)


def mat_inverse(g: Tuple[int, ...]) -> Tuple[int, ...]:
    d = len(g)
    return gf2.linear_map(g, [1 << i for i in range(d)], d)


def transvection(q: QuadraticForm, v: int) -> Tuple[int, ...]:
    """Orthogonal transvection x -> x + B(x, v) v; requires Q(v) = 1."""
    if v >> q.dim or q.values[v] != 1:
        raise ValueError("transvections need an anisotropic vector")
    row = int(q.polar[v])  # bit i is B(e_i, v)
    return tuple((1 << i) ^ (v if row >> i & 1 else 0) for i in range(q.dim))


def isometry_generators(q: QuadraticForm) -> List[Tuple[int, ...]]:
    """Generators of the stabiliser of Q in GL(d, 2).

    Nondegenerate case: all orthogonal transvections, and for O^+(4, 2),
    of which they generate half, the swap of the two hyperbolic pairs of
    the normal basis.  Degenerate case with SRad = Rad: their lifts plus
    GL(Rad) plus shears into the singular radical.  The mixed case
    (anisotropic radical vector) is excluded; group-level automorphisms
    handle it instead.
    """
    rad, srad, cls = radicals(q)
    if cls.tag == "mixed":
        raise ValueError("mixed-radical forms have no structural generator set here")
    d = q.dim
    gens = [transvection(q, v) for v in np.flatnonzero(q.values).tolist()]
    if cls.tag == "+" and d - rad.rank == 4:
        b = _normal_basis(q)[0]
        gens.append(gf2.linear_map(b, b[2:4] + b[:2] + b[4:], d))
    if rad.rank:
        comp = gf2.complement_basis(rad)
        rb = rad.basis
        m = len(rb)
        if m >= 2:
            # a cycle and one transvection of Rad generate GL(m, 2)
            gens.append(gf2.linear_map(comp + rb, comp + rb[1:] + rb[:1], d))
            gens.append(gf2.linear_map(comp + rb, comp + (rb[0] ^ rb[1],) + rb[1:], d))
        for c in comp:
            for s in srad.basis:
                sheared = tuple(x ^ s if x == c else x for x in comp)
                gens.append(gf2.linear_map(comp + rb, sheared + rb, d))
    return gens


def isometry_order(q: QuadraticForm) -> int:
    """|Isom(Q)|, the order of the group isometry_generators generates.

    Q = W + R, W nondegenerate of dimension 2m and type e, R = Rad(B) =
    SRad(Q) of dimension r.  An isometry keeps R, so it acts on V/R,
    keeping the induced form, and on R.  The map to O^e(2m, 2) x GL(r, 2)
    is onto, as Q(w + x) = Q(w) for x in R, and its kernel is the shears
    v -> v + phi(v) for phi in Hom(V/R, R): |Isom(Q)| = |O^e(2m, 2)|
    |GL(r, 2)| 2^(2mr), with |O^e(2m, 2)| = 2 2^(m(m-1)) (2^m - e)
    prod_{0<i<m} (4^i - 1), and 1 for m = 0 (D. E. Taylor, The Geometry
    of the Classical Groups, 1992).  Mixed forms are refused, as
    isometry_generators refuses them.
    """
    _, _, cls = radicals(q)
    if cls.tag == "mixed":
        raise ValueError("mixed-radical forms have no structural generator set here")
    r = cls.rad_dim
    m = (q.dim - r) // 2
    gl_r = math.prod((1 << r) - (1 << i) for i in range(r))
    if not m:
        return gl_r
    e = 1 if cls.tag == "+" else -1
    o_w = (2 << m * (m - 1)) * ((1 << m) - e) * math.prod(4 ** i - 1 for i in range(1, m))
    return o_w * gl_r << 2 * m * r


def plane_group_order(q: QuadraticForm) -> int:
    """The order of Isom(Q) acting on the totally singular planes.  With w
    the Witt index of V/R, a plane W has max(0, 3 - r) <= dim (W + R)/R <=
    min(w, 3): no plane if w + r < 3, only R if (w, r) = (0, 3); else each
    contains R if w + r = 3 (so GL(R) and the shears act trivially) or lies
    in R if w = 0 < m (so O^-(2, 2) and the shears do), or the action is
    faithful.  Mixed forms are refused, as by isometry_order."""
    order = isometry_order(q)
    _, _, cls = radicals(q)
    r = cls.rad_dim
    m = (q.dim - r) // 2
    w = m - (cls.tag == "-")
    if w + r < 3 or (w, r) == (0, 3):
        return 1
    if w + r == 3 and r:
        return order // (math.prod((1 << r) - (1 << i) for i in range(r)) << 2 * m * r)
    if w == 0 < m:
        return order // (6 << 2 * r)
    return order


# ----------------------------------------------------------------------
# equivalence


def _normal_basis(q: QuadraticForm) -> Tuple[List[int], FormClass]:
    """A basis b_1.. with Q(sum y_i b_i) in normal form.

    Layout: hyperbolic pairs, then an anisotropic pair for '-' type, then
    one anisotropic radical vector for mixed forms, then SRad.  Each pick
    is the first fitting nonzero vector of the current space in subset
    order.
    """
    rad, srad, cls = radicals(q)
    d = q.dim
    aniso_rad = next((r for r in rad.basis if q.values[r]), 0)
    # Work inside a complement of the radical, refining to hyperbolic pairs.
    space = list(gf2.complement_basis(rad))
    basis: List[int] = []
    while space:
        vecs = xor_span(gf2.rref(space, d).basis)[1:]
        sing = np.flatnonzero(q.values[vecs] == 0)
        u = int(vecs[sing[0]] if len(sing) else vecs[0])
        off_u = np.bitwise_count(vecs & q.polar[u]) & 1  # B(u, v) for each v
        w = int(vecs[np.argmax(off_u)])
        if not len(sing):  # an anisotropic plane; with an anisotropic r in the
            # radical, x^2 + xy + y^2 + r^2 rewrites hyperbolically via (x+r, y+r)
            basis += [u ^ aniso_rad, w ^ aniso_rad]
            break
        w ^= u if q.values[w] else 0
        basis += [u, w]
        # restrict to the perp of the pair inside the current space
        perp = vecs[(off_u | np.bitwise_count(vecs & q.polar[w]) & 1) == 0]
        space = list(gf2.rref(perp.tolist(), d).basis)
    basis += ([aniso_rad] if aniso_rad else []) + list(srad.basis)
    assert len(basis) == d and gf2.rank_of(basis, d) == d
    return basis, cls


def forms_equivalent(q1: QuadraticForm, q2: QuadraticForm) -> Optional[Tuple[int, ...]]:
    """An invertible g with Q2(x) = Q1(g x) for all x, or None."""
    if q1.dim != q2.dim:
        raise ValueError("ambient dimension mismatch")
    b1, c1 = _normal_basis(q1)
    b2, c2 = _normal_basis(q2)
    if c1 != c2:
        return None
    # A_i maps coordinate vectors to the normal basis: Q_i(A_i y) = N(y).
    g = mat_mul(mat_inverse(tuple(b2)), tuple(b1))  # x -> A1(A2^{-1} x)
    if not np.array_equal(q2.values, q1.values[xor_span(g)]):
        raise AssertionError("normal-form reduction produced a non-witness")
    return g


# ----------------------------------------------------------------------
# field reduction (F_8^3 -> F_2^9)

_F8_MUL = [[0] * 8 for _ in range(8)]
for _a in range(1, 8):
    for _b in range(1, 8):
        _p = 0
        _x, _y = _a, _b
        for _ in range(3):
            if _y & 1:
                _p ^= _x
            _y >>= 1
            _x <<= 1
            if _x & 8:
                _x ^= 0b1011  # alpha^3 = alpha + 1
        _F8_MUL[_a][_b] = _p


def f8_mul(a: int, b: int) -> int:
    return _F8_MUL[a][b]


def f8_pow(a: int, n: int) -> int:
    out = 1
    for _ in range(n):
        out = f8_mul(out, a)
    return out


def f8_trace(a: int) -> int:
    return (f8_pow(a, 1) ^ f8_pow(a, 2) ^ f8_pow(a, 4)) & 1


def _embed9(x: int, y: int, z: int) -> int:
    return x | (y << 3) | (z << 6)


def _form_of(dim: int, q: Callable[[int], int]) -> QuadraticForm:
    """The form with values q(v): M_ii = q(e_i) and, for i < j,
    M_ij = q(e_i + e_j) + q(e_i) + q(e_j)."""
    rows = [0] * dim
    for i in range(dim):
        for j in range(i, dim):
            b = q(1 << i | 1 << j) ^ (q(1 << i) ^ q(1 << j) if i < j else 0)
            rows[i] |= b << j
    return QuadraticForm(dim, tuple(rows))


def _gamma_form(gamma: int) -> QuadraticForm:
    """Q_gamma(x, y, z) = T(gamma (xy + z^2)) as a form on F_2^9."""

    def q(v: int) -> int:
        x, y, z = v & 7, (v >> 3) & 7, (v >> 6) & 7
        return f8_trace(f8_mul(gamma, f8_mul(x, y) ^ f8_mul(z, z)))

    return _form_of(9, q)


def gamma_forms() -> Dict[int, QuadraticForm]:
    """The seven forms Q_gamma, gamma in F_8 nonzero."""
    return {g: _gamma_form(g) for g in range(1, 8)}


@dataclass(frozen=True)
class FieldReductionArc:
    form: QuadraticForm  # Q on F_2^9 (explicit coordinates)
    planes: Tuple[Subspace, ...]  # 9 pairwise disjoint singular planes
    quotient_form: QuadraticForm  # induced form on F_2^8
    quotient_arc: Tuple[Subspace, ...]  # images of the planes
    quotient_radical: Subspace  # pi_0 = Rad of the induced bilinear form


def field_reduction_arc() -> FieldReductionArc:
    """The conic xy + z^2 = 0 over F_8, field-reduced and quotiented."""
    form = QuadraticForm(9, _terms_to_coeff(9, [(0, 3), (1, 5), (2, 4), (6, 6)]))
    # points of the conic: (1, y, y^4) for y in F_8, plus (0, 1, 0)
    pts = [(1, y, f8_pow(y, 4)) for y in range(8)] + [(0, 1, 0)]
    planes = [gf2.rref([_embed9(f8_mul(lam, x), f8_mul(lam, y), f8_mul(lam, z))
                        for lam in (1, 2, 4)], 9) for x, y, z in pts]
    # quotient by P = <(0,0,alpha)> = bit 7
    def project(v: int) -> int:
        return (v & 0x7F) | ((v >> 1) & 0x80)

    def lift(v: int) -> int:
        return (v & 0x7F) | ((v & 0x80) << 1)

    qform = _form_of(8, lambda v: form.evaluate(lift(v)))
    qarc = tuple(gf2.rref(map(project, p.basis), 8) for p in planes)  # project is linear
    qrad, _, _ = radicals(qform)
    return FieldReductionArc(form, tuple(planes), qform, qarc, qrad)
