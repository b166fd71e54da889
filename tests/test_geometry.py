"""Coset geometries and generalised-quadrangle verification."""
import numpy as np
import pytest

from asq.asconfig import kantor_from_as
from asq.cli import _hyperoval_config
from asq.geometry import (
    IncidenceGeometry,
    _right_cosets,
    as_quadrangle,
    collinearity_srg,
    kantor_quadrangle,
    regular_point,
    verify_gq,
)
from asq.groups import HeisenbergGroup
from asq.search import brute_force_as_configs


@pytest.fixture(scope="module")
def heis_cfg():
    H = HeisenbergGroup(3)
    return H, brute_force_as_configs(H)[0]


def grid(s):
    """The (s, 1) grid GQ: rows and columns of an (s+1) x (s+1) array."""
    n = s + 1
    lines = [tuple(r * n + c for c in range(n)) for r in range(n)]
    lines += [tuple(r * n + c for r in range(n)) for c in range(n)]
    return IncidenceGeometry(n * n, lines)


def test_grid_is_gq():
    for s in (2, 3, 4):
        assert verify_gq(grid(s)) == (s, 1)


def test_verify_gq_rejects_broken():
    g = grid(2)
    with pytest.raises(ValueError):
        verify_gq(IncidenceGeometry(g.n_points, g.lines[:-1]))
    with pytest.raises(ValueError):
        # duplicating a line puts two lines through point pairs
        verify_gq(IncidenceGeometry(g.n_points, g.lines + [g.lines[0]]))


def test_as_quadrangle_heisenberg(heis_cfg):
    G, cfg = heis_cfg
    geom = as_quadrangle(cfg)
    assert geom.n_points == 27 and len(geom.lines) == 45
    assert verify_gq(geom) == (2, 4)
    assert collinearity_srg(geom) == (27, 10, 1, 5)


def test_kantor_quadrangle_heisenberg(heis_cfg):
    G, cfg = heis_cfg
    fam = kantor_from_as(cfg)
    kg = kantor_quadrangle(G, fam, 3, 3)
    assert verify_gq(kg) == (3, 3)
    assert collinearity_srg(kg) == (40, 12, 2, 4)
    assert regular_point(kg, 0)


def regular_point_loop(geom, p):
    """regular_point one r at a time."""
    adj = geom.collinearity
    expected = int(geom.incidence[0].sum())  # t + 1
    closed = adj | np.eye(geom.n_points, dtype=bool)
    for r in range(geom.n_points):
        if r == p or adj[p, r]:
            continue
        perp = closed[p] & closed[r]
        hull = np.all(closed[:, perp], axis=1)
        if int(hull.sum()) != expected:
            return False
    return True


def test_regular_points_match_loop(heis_cfg):
    # every point of the Kantor GQ(3, 3) and of a grid is regular, no
    # point of the AS GQ(2, 4) or of the pseudo-hyperoval's GQ(3, 5) is
    G, cfg = heis_cfg
    geoms = [(kantor_quadrangle(G, kantor_from_as(cfg), 3, 3), 40), (as_quadrangle(cfg), 0),
             (as_quadrangle(_hyperoval_config()), 0), (grid(3), 16)]
    for geom, regular in geoms:
        got = [regular_point(geom, p) for p in range(geom.n_points)]
        assert got == [regular_point_loop(geom, p) for p in range(geom.n_points)]
        assert sum(got) == regular, (geom.n_points, sum(got))


def test_srg_rejects_irregular():
    lines = [(0, 1, 2), (0, 3, 4), (2, 3, 5)]
    geom = IncidenceGeometry(6, lines)
    with pytest.raises(ValueError):
        collinearity_srg(geom)


def _cosets_by_loop(G, elements):
    """Slow oracle: the right cosets Ug, sorted, in first-seen order
    over g = 0, 1, ..."""
    seen = {}
    for g in range(G.n):
        seen.setdefault(tuple(sorted(G.mul[u, g] for u in elements)), None)
    return [tuple(int(x) for x in c) for c in seen]


def _kantor_lines_by_loop(G, fam):
    """Slow oracle for kantor_quadrangle: star points numbered from
    G.n per A* in first-seen order, each coset Ag extended by the A*
    coset holding g, then the lines [A] through infinity."""
    star = {}
    for i, astar in enumerate(fam.Fstar):
        for c in _cosets_by_loop(G, astar.elements):
            star[(i, c)] = G.n + len(star)
    infinity = G.n + len(star)
    lines = []
    for i, a in enumerate(fam.F):
        for c in _cosets_by_loop(G, a.elements):
            mine = next(p for (j, sc), p in star.items() if j == i and c[0] in sc)
            lines.append(c + (mine,))
    for i in range(len(fam.F)):
        lines.append(tuple(p for (j, _), p in star.items() if j == i) + (infinity,))
    return infinity + 1, lines


def test_cosets_match_oracle():
    H = HeisenbergGroup(3)
    cases = [(H, cfg, 3) for cfg in brute_force_as_configs(H)]
    hyperoval = _hyperoval_config()
    cases.append((hyperoval.group, hyperoval, 4))
    assert len(cases) == 10
    for G, cfg, q in cases:
        want = []
        for u in cfg.subgroups:
            cosets = _cosets_by_loop(G, u.elements)
            assert [tuple(r) for r in _right_cosets(G, u.elements).tolist()] == cosets
            want += cosets
        geom = as_quadrangle(cfg)
        assert (geom.n_points, geom.lines) == (G.n, want)
        fam = kantor_from_as(cfg)
        kg = kantor_quadrangle(G, fam, q, q)
        assert (kg.n_points, kg.lines) == _kantor_lines_by_loop(G, fam)
