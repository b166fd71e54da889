"""End-to-end acceptance gate: one test (and one printed pass/fail
line) per release criterion.  The heavy pipelines run once in fixtures
(deg-hyp6's in conftest.py) and are shared between criteria."""
import random

import pytest
from conftest import THREADS
from test_groups import abelian_type

from asq.asconfig import check_as_axioms, check_pds, delta
from asq.geometry import as_quadrangle, collinearity_srg, verify_gq
from asq.groups import (
    TABLE4_IDS,
    ProductMasks,
    center,
    frattini,
    order8_catalogue,
    order27_catalogue,
    table4_group,
)
from asq.quadform import QuadraticForm, preset, singular_subspaces
from asq.search import (
    arc_seeds,
    as_backtrack,
    brute_force_as_configs,
    extend_arcs,
    is_partial_pseudo_arc,
    lemma53_counts,
    lift_arc,
    plane_action,
)
from asq import cli


def _line(num, label, ok):
    print(f"\ncriterion {num} ({label}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({label}) failed"


# -- shared heavy pipelines --------------------------------------------


@pytest.fixture(scope="module")
def plus_pipeline(cat_plus):
    seeds = arc_seeds(cat_plus, 6)
    arcs = extend_arcs(cat_plus, seeds, 9, threads=THREADS)
    return cat_plus, seeds, arcs


@pytest.fixture
def backtrack_nodes(monkeypatch):
    """The nodes of every ProductMasks.backtrack call, in call order: the
    group-level node counts that a recast of the backtrack must keep."""
    calls = []
    backtrack = ProductMasks.backtrack

    def counted(self, *args, **kwargs):
        out = backtrack(self, *args, **kwargs)
        calls.append(sum(nodes for _, nodes in out))
        return out

    monkeypatch.setattr(ProductMasks, "backtrack", counted)
    return calls


# -- criteria ----------------------------------------------------------


def test_c1_table1_fingerprints():
    want = {"208a": (2, 2, 2), "210b": (4, 2), "211p": (2,), "212m": (2,)}
    ok = True
    for ident in TABLE4_IDS:
        G = table4_group(ident)
        z, f = center(G), frattini(G)
        ok &= abelian_type(G, z.elements) == want[ident]
        ok &= f.order == 2
    _line(1, "table-1 fingerprints", ok)


def test_c2_deghyp_ruleout(deghyp_pipeline, backtrack_nodes):
    cat, seeds, arcs = deghyp_pipeline
    G = table4_group("208a")
    ok = len(arcs) == 8
    families = 0
    for arc in arcs:
        pool, dropped = lift_arc(G, [cat.planes[i] for i in arc.members])
        ok &= len(pool) == 72 and not dropped
        families += len(as_backtrack(G, pool, 9))
    ok &= families == 0 and sum(backtrack_nodes) == 105104
    _line(2, "deg-hyp6: 8 arcs, 72 candidates, 0 families", ok)


def test_c3_plus_ruleout(plus_pipeline):
    cat, seeds, arcs = plus_pipeline
    ok = len(seeds) == 1402 and len(arcs) == 0
    _line(3, "plus form: 1402 seeds, 0 arcs", ok)


def test_c4_lemma53_counts(backtrack_nodes):
    G = table4_group("210b")
    ok = True
    # the size-6 search's nodes; seed None is how `asq ruleout 210b` runs
    for sd, nodes in ((None, 33690), (101, 33077), (202, 33140)):
        rng = None if sd is None else random.Random(sd)
        backtrack_nodes.clear()
        res = lemma53_counts(G, rng=rng)
        ok &= sum(backtrack_nodes) == nodes
        ok &= res["pool"] == 784
        ok &= res["distribution"] == {0: 112, 48: 672}
        ok &= res["size6_families"] == 0
    _line(4, "pool 784, distribution {0:112, 48:672}, no size 6", ok)


def test_c5_minus_obstruction():
    rep = cli.cmd_ruleout("212m", seed_size=6, threads=THREADS)
    ok = rep.passed and rep.counts["center_order"] == 2 and rep.counts["families"] == 0
    ok &= rep.counts["candidates"] == 6120 and rep.counts["dropped_planes"] == 0
    _line(5, "minus form: centraliser obstruction, 0 families", ok)


def test_c6_isometry_orders():
    want = {
        "plus8": 348364800,
        "minus8": 394813440,
        "deg-hyp6": 2**12 * 40320 * 6,
    }
    ok = True
    for name, order in want.items():
        form = preset(name)
        g = plane_action(form, singular_subspaces(form, 3))
        ok &= g.order() == order
    _line(6, "isometry-group orders", ok)


def test_c7_small_order_classification(backtrack_nodes):
    ok = True
    for _ in range(2):  # two independent oracle runs
        for G in order8_catalogue():
            n = len(brute_force_as_configs(G))
            ok &= (n == 28) if G.name == "C2^3" else (n == 0)
        ok &= sum(backtrack_nodes) == 48  # as `asq classify 8` runs it
        backtrack_nodes.clear()
        for G in order27_catalogue():
            n = len(brute_force_as_configs(G))
            ok &= (n == 9) if G.name == "Heisenberg(3)" else (n == 0)
        ok &= sum(backtrack_nodes) == 452  # as `asq classify 27` runs it
        backtrack_nodes.clear()
    _line(7, "order 8 -> C2^3 only, order 27 -> Heisenberg only", ok)


def test_c8_classical_demos():
    ok = True
    for name in ("w3q-3", "as35", "field-reduction"):
        rep = cli.cmd_demo(name)
        ok &= rep.passed
    _line(8, "classical demos", ok)


def test_c9_property_suites(plus_pipeline, deghyp_pipeline):
    ok = True
    # polarisation identity spot-check
    rng = random.Random(9)
    for _ in range(200):
        d = rng.randint(1, 10)
        q = QuadraticForm(d, tuple(rng.randrange(1 << d) for _ in range(d)))
        u, v = rng.randrange(1 << d), rng.randrange(1 << d)
        ok &= q.evaluate(u ^ v) ^ q.evaluate(u) ^ q.evaluate(v) == q.bilinear(u, v)
    # PDS parameters agree with the collinearity SRG
    from asq.groups import HeisenbergGroup
    H = HeisenbergGroup(3)
    cfg = brute_force_as_configs(H)[0]
    ok &= check_as_axioms(H, cfg)["ok"]
    lam, mu = check_pds(H, delta(cfg))
    geom = as_quadrangle(cfg)
    ok &= verify_gq(geom) == (2, 4)
    v, k, lam2, mu2 = collinearity_srg(geom)
    ok &= (lam, mu) == (lam2, mu2) == (1, 5)
    # every emitted search output revalidates from scratch
    for cat, seeds, arcs in (plus_pipeline, deghyp_pipeline):
        for s in seeds:
            ok &= is_partial_pseudo_arc(cat.form, [cat.planes[i] for i in s])
        for a in arcs:
            ok &= is_partial_pseudo_arc(cat.form, [cat.planes[i] for i in a.members])
    # thread-count determinism on the plus pipeline
    cat, seeds, arcs = plus_pipeline
    ok &= extend_arcs(cat, seeds, 9, threads=1) == arcs
    ok &= extend_arcs(cat, seeds, 9, threads=2) == arcs
    _line(9, "property suites", ok)
