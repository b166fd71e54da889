"""Seeded input generators for the pipeline benchmark.

Everything here runs before timing starts.  The same seed always gives
the same inputs; the program under test only ever sees the files and
values produced here, never the seed itself.
"""
from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

from asq import gf2
from asq.asconfig import ASConfiguration, save_config
from asq.groups import (
    FiniteGroup,
    HeisenbergGroup,
    Subgroup,
    TableGroup,
    elementary_abelian,
    save_group,
    subgroup_generate,
)
from asq.quadform import QuadraticForm, apply_matrix, preset, save_form, singular_subspaces
from asq.search import brute_force_as_configs

# minus8 planes lifted per order512 round (~0.27 s each, all in frattini).
PLANES_PER_ROUND = 16


def _rng(seed: int, *tags: object) -> random.Random:
    """An independent stream for each (seed, tags) pair."""
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def random_basis_change(d: int, rng: random.Random) -> Tuple[int, ...]:
    """A uniformly random invertible d x d matrix over F_2, in the
    column convention of asq.quadform (g[i] = image of e_i)."""
    while True:
        g = tuple(rng.randrange(1, 1 << d) for _ in range(d))
        if gf2.rank_of(g, d) == d:
            return g


def pulled_back_form(q: QuadraticForm, a: Tuple[int, ...]) -> QuadraticForm:
    """The form Q'(v) = Q(Av), checked on every vector."""
    d = q.dim
    cols = [apply_matrix(a, 1 << i) for i in range(d)]
    rows = []
    for i in range(d):
        row = q.evaluate(cols[i]) << i
        for j in range(i + 1, d):
            row |= q.bilinear(cols[i], cols[j]) << j
        rows.append(row)
    out = QuadraticForm(d, tuple(rows))
    for v in range(1 << d):
        if out.evaluate(v) != q.evaluate(apply_matrix(a, v)):
            raise AssertionError("pulled-back form disagrees with Q(Av)")
    return out


def arcs_form(seed: int, round_no: int) -> str:
    """plus8 after a seeded change of basis, in the form file format."""
    a = random_basis_change(8, _rng(seed, "arcs", round_no))
    return save_form(pulled_back_form(preset("plus8"), a))


def minus8_planes() -> List[gf2.Subspace]:
    return singular_subspaces(preset("minus8"), 3)


def minus8_plane_sample(planes: List[gf2.Subspace], seed: int, round_no: int,
                        k: int = PLANES_PER_ROUND) -> List[List[int]]:
    """Bases of k distinct planes drawn from minus8_planes()."""
    pick = _rng(seed, "planes", round_no).sample(range(len(planes)), k)
    return [list(planes[i].basis) for i in sorted(pick)]


def lemma53_seed(seed: int, round_no: int) -> int:
    """The integer behind the Random passed to lemma53_counts."""
    return _rng(seed, "lemma53", round_no).randrange(1 << 62)


def relabel_group(G: FiniteGroup, rng: random.Random) -> Tuple[TableGroup, np.ndarray]:
    """G with its non-identity elements renamed by a random permutation
    sigma (identity stays 0, as asq requires).  Returns (G', sigma)."""
    rest = list(range(1, G.n))
    rng.shuffle(rest)
    sigma = np.array([0] + rest, dtype=np.int64)
    mul = np.empty((G.n, G.n), dtype=np.int64)
    mul[np.ix_(sigma, sigma)] = sigma[np.asarray(G.mul, dtype=np.int64)]
    return TableGroup(mul, name=f"relabelled {G.name}"), sigma


def relabel_config(cfg: ASConfiguration, H: TableGroup,
                   sigma: np.ndarray) -> ASConfiguration:
    subs: List[Subgroup] = []
    for u in cfg.subgroups:
        gens = u.gens or u.elements[1:]
        img = subgroup_generate(H, [int(sigma[g]) for g in gens])
        if img.elements != tuple(sorted(int(sigma[e]) for e in u.elements)):
            raise AssertionError("relabelled subgroup is not the image")
        subs.append(img)
    return ASConfiguration(H, cfg.q, tuple(subs))


_F4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def hyperoval_config() -> ASConfiguration:
    """The pseudo-hyperoval of PG(5,2): field reduction of the regular
    hyperoval {(1, t, t^2)} + {(0,1,0), (0,0,1)} of PG(2,4), as q = 4
    subgroups of F_2^6.  asq builds the same object in a private CLI
    helper; the benchmark uses public API only, so that refactors of
    asq's internals cannot break it."""
    G = elementary_abelian(6)
    pts = [(1, t, _F4_MUL[t][t]) for t in range(4)] + [(0, 1, 0), (0, 0, 1)]
    subs = []
    for p in pts:
        gens = [_F4_MUL[lam][p[0]] | (_F4_MUL[lam][p[1]] << 2) | (_F4_MUL[lam][p[2]] << 4)
                for lam in (1, 2)]
        subs.append(subgroup_generate(G, gens))
    return ASConfiguration(G, 4, tuple(subs))


def verify_files(seed: int) -> Dict[str, Tuple[str, str]]:
    """Relabelled (group file, config file) texts for `asq verify`: a
    seeded choice among the Heisenberg(3) configurations, and the
    pseudo-hyperoval configuration."""
    rng = _rng(seed, "verify")
    h3 = HeisenbergGroup(3)
    bases = {"h3": rng.choice(brute_force_as_configs(h3)), "hyperoval": hyperoval_config()}
    out = {}
    for name, cfg in bases.items():
        H, sigma = relabel_group(cfg.group, rng)
        out[name] = (save_group(H), save_config(relabel_config(cfg, H, sigma)))
    return out
