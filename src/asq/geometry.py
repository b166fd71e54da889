"""Point-line incidence geometries: the two coset constructions and
full generalised-quadrangle verification.

A geometry of order (s, t) has s+1 points per line, t+1 lines per
point, and for every non-incident point-line pair exactly one point of
the line collinear with the point.  Both constructions take a verified
AS-configuration / Kantor family and hand the result to verify_gq,
which is the arbiter for all order claims.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from .asconfig import ASConfiguration, KantorFamily, check_as_axioms, check_kantor
from .groups import FiniteGroup

__all__ = [
    "IncidenceGeometry",
    "as_quadrangle",
    "kantor_quadrangle",
    "verify_gq",
    "collinearity_srg",
    "regular_point",
]


@dataclass(frozen=True)
class IncidenceGeometry:
    """Lines as sorted tuples of point indices.  The incidence and
    collinearity matrices are built once, on first use."""

    n_points: int
    lines: List[Tuple[int, ...]]

    @cached_property
    def incidence(self) -> np.ndarray:
        """Points by lines, True where the point lies on the line."""
        inc = np.zeros((self.n_points, len(self.lines)), dtype=bool)
        for j, ln in enumerate(self.lines):
            if len(set(ln)) != len(ln):
                raise ValueError(f"line {j} repeats a point")
            inc[list(ln), j] = True
        return inc

    @cached_property
    def common_lines(self) -> np.ndarray:
        """The number of lines through each pair of points (diagonal 0)."""
        inc = self.incidence.astype(np.int32)
        common = inc @ inc.T
        np.fill_diagonal(common, 0)
        return common

    @cached_property
    def collinearity(self) -> np.ndarray:
        """Adjacency matrix of the collinearity graph (diagonal False)."""
        return self.common_lines > 0


def _right_cosets(G: FiniteGroup, elements: Sequence[int]) -> np.ndarray:
    """The right cosets Ug of the subgroup U with these elements, one
    sorted row each, in order of their least elements.  Row g of the
    sorted table is Ug, and a coset is kept at the row of its least
    element, which is the only row whose least element is its index."""
    rows = np.sort(G.mul[np.asarray(elements, dtype=np.intp)].T, axis=1)
    return rows[rows[:, 0] == np.arange(G.n)]


def as_quadrangle(cfg: ASConfiguration) -> IncidenceGeometry:
    """Points: the q^3 group elements; lines: the right cosets U_i g of
    all q+2 subgroups (the coset count (q+2)q^2 = (t+1)(st+1) for order
    (q-1, q+1) requires including U_0's cosets)."""
    G = cfg.group
    rep = check_as_axioms(G, cfg)
    if not rep["ok"]:
        raise ValueError(f"not an AS-configuration: {rep}")
    lines = [tuple(row) for u in cfg.subgroups
             for row in _right_cosets(G, u.elements).tolist()]
    return IncidenceGeometry(G.n, lines)


def kantor_quadrangle(G: FiniteGroup, fam: KantorFamily, s: int, t: int) -> IncidenceGeometry:
    """The coset geometry of a Kantor family: points are the group
    elements, the cosets A*g, and a symbol infinity; lines are the
    cosets Ag and symbols [A]."""
    rep = check_kantor(G, fam, s, t)
    if not rep["ok"]:
        raise ValueError(f"not a Kantor family: {rep}")
    n_points = G.n
    star_of: List[np.ndarray] = []  # per A*: element -> point of its coset
    brackets: List[Tuple[int, ...]] = []
    for astar in fam.Fstar:
        cosets = _right_cosets(G, astar.elements)
        points = np.arange(n_points, n_points + len(cosets))
        point_of = np.empty(G.n, dtype=np.intp)
        point_of[cosets] = points[:, None]
        star_of.append(point_of)
        brackets.append(tuple(points.tolist()))
        n_points += len(cosets)
    infinity = n_points
    # Ag lies in the one coset of A* that contains g
    lines = [tuple(row) + (int(point_of[row[0]]),)
             for a, point_of in zip(fam.F, star_of)
             for row in _right_cosets(G, a.elements).tolist()]
    return IncidenceGeometry(infinity + 1, lines + [b + (infinity,) for b in brackets])


def verify_gq(geom: IncidenceGeometry) -> Tuple[int, int]:
    """Full generalised-quadrangle axiom scan; returns (s, t) or raises
    ValueError with the first violated axiom and a witness."""
    inc = geom.incidence
    line_sizes = inc.sum(axis=0)
    if line_sizes.min() != line_sizes.max():
        j = int(np.argmin(line_sizes))
        raise ValueError(f"line {j} has {line_sizes[j]} points, others differ")
    s = int(line_sizes[0]) - 1
    degrees = inc.sum(axis=1)
    if degrees.min() != degrees.max():
        p = int(np.argmin(degrees))
        raise ValueError(f"point {p} lies on {degrees[p]} lines, others differ")
    t = int(degrees[0]) - 1
    common = geom.common_lines
    if common.max() > 1:
        p, r = np.unravel_index(int(np.argmax(common)), common.shape)
        raise ValueError(f"points {p} and {r} lie on {common[p, r]} common lines")
    counts = geom.collinearity.astype(np.int32) @ inc.astype(np.int32)
    bad = (counts != 1) & ~inc
    if bad.any():
        p, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ValueError(
            f"point {p} sees {counts[p, j]} points of non-incident line {j}"
        )
    return s, t


def collinearity_srg(geom: IncidenceGeometry) -> Tuple[int, int, int, int]:
    """(v, k, lambda, mu) of the collinearity graph; raises if the
    graph is not strongly regular."""
    adj = geom.collinearity
    v = geom.n_points
    degs = adj.sum(axis=1)
    if degs.min() != degs.max():
        raise ValueError("collinearity graph is not regular")
    k = int(degs[0])
    common = adj.astype(np.int32) @ adj.astype(np.int32).T
    lam_vals = common[adj]
    off = ~adj
    np.fill_diagonal(off, False)
    mu_vals = common[off]
    if lam_vals.min() != lam_vals.max() or mu_vals.min() != mu_vals.max():
        raise ValueError("collinearity graph is not strongly regular")
    return v, k, int(lam_vals[0]), int(mu_vals[0])


def regular_point(geom: IncidenceGeometry, p: int) -> bool:
    """Is |{p, r}^{perp perp}| = t+1 for every r not collinear with p?

    perp sets follow the convention x in x^perp.  One matrix product
    tests every r: x lies in {p, r}^{perp perp} when it is collinear
    with or equal to each of the |{p, r}^perp| points of the perp.
    """
    closed = geom.collinearity | np.eye(geom.n_points, dtype=bool)
    # int32, not a faster float BLAS product: on the small commands that
    # would be the first BLAS call, whose buffers add about 0.2 MB of RSS
    perp = (closed[p] & closed[~closed[p]]).astype(np.int32)  # row per r
    hull = closed.astype(np.int32) @ perp.T == perp.sum(axis=1)
    return bool((hull.sum(axis=0) == geom.incidence[0].sum()).all())  # t + 1
