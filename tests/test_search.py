"""The search engines: seeds, extensions, lifting and backtracking."""
import copy
import gc
import multiprocessing
import random
import tracemalloc
import weakref
from itertools import combinations, permutations

import numpy as np
import pytest
from test_permgroup import complete_degrees, node_children, prefix_chain
from test_quadform import plane_perms_oracle

from asq import asconfig, gf2, search
from asq._kernels import pairwise_disjoint
from asq.asconfig import check_as_axioms, clique_size_qplus1, good_subgroups
from asq.groups import (
    TABLE4_IDS,
    HeisenbergGroup,
    ProductMasks,
    Subgroup,
    center,
    centralizer,
    complements,
    dihedral8,
    direct_product,
    elementary_abelian,
    enumerate_elem_abelian_subgroups,
    frattini,
    is_normal,
    order8_catalogue,
    order27_catalogue,
    product_set,
    subgroup_generate,
    table4_group,
)
from asq.permgroup import PermGroup, is_min_image, min_image
from asq.quadform import (
    QuadraticForm,
    apply_matrix,
    isometry_generators,
    isometry_order,
    load_form,
    preset,
    singular_subspaces,
)
from asq.search import (
    PlaneCatalogue,
    SearchTrace,
    arc_seeds,
    as_backtrack,
    brute_force_as_configs,
    extend_arcs,
    is_partial_pseudo_arc,
    lemma53_counts,
    lift_arc,
    minus_type_obstruction,
    plane_action,
)


@pytest.fixture(scope="module")
def minus_pools():
    """Candidates lifted from two disjoint minus8 planes, and from three
    planes forming a partial pseudo-arc, in the group 212m."""
    G = table4_group("212m")
    planes = singular_subspaces(G.form, 3)
    p0 = planes[0]
    p1 = next(p for p in planes if gf2.meet(p0, p).rank == 0)
    p2 = next(p for p in planes if is_partial_pseudo_arc(G.form, [p0, p1, p]))
    return G, lift_arc(G, [p0, p1])[0], lift_arc(G, [p0, p1, p2])[0]


# the one pseudo-arc of 9 planes on the dim-7 form of cat_dim7
DIM7_ARC = (0, 39, 89, 177, 205, 248, 293, 331, 338)


def compatible_row(cat, row, s, x):
    """The (n,) bool compatibility row of s + [x] from that of s, where
    row[k] says whether s + [k] is a partial pseudo-arc and x must be in
    it: compatible_pairs on every plane of the row."""
    if not row[x]:
        raise ValueError("x is not compatible with s")
    ks = np.flatnonzero(row)
    sets = np.array(s, dtype=np.intp).reshape(1, -1)
    out = np.zeros_like(row)
    out[ks[cat.compatible_pairs(sets, np.array([x]), np.zeros(len(ks), dtype=np.intp), ks)]] = True
    return out


def _seeds_below(cat, seed_size, s, chain, row, out, sizes):
    """The recursion of seeds_oracle at the canonical set s: chain[d]
    is the stabiliser of s[:d]; row[k] is True iff s + [k] is a partial
    pseudo-arc (None once s has seed_size members)."""
    sizes[len(s)] += 1
    if len(s) == seed_size:
        out.append(tuple(s))
        return
    node = chain[-1]
    points = np.arange(cat.n)
    xs = np.flatnonzero((node.orbit_min == points) & (points > (s[-1] if s else -1)) & row)
    for x in xs[node_children(chain, s, xs)].tolist():
        if len(s) + 1 == seed_size:
            _seeds_below(cat, seed_size, s + [x], chain, None, out, sizes)
        else:
            _seeds_below(cat, seed_size, s + [x], prefix_chain(cat.group, s + [x]),
                         compatible_row(cat, row, s, x), out, sizes)


def seeds_oracle(cat, seed_size):
    """Slow oracle of arc_seeds: orderly generation depth first, one node
    at a time, each node's children tested by one canonical_children call
    and each child's row folded from its parent's full (n,) row by
    compatible_row.  Returns (seeds, per-size counts)."""
    out, sizes = [], [0] * (seed_size + 1)
    _seeds_below(cat, seed_size, [], [cat.group], np.ones(cat.n, dtype=bool), out, sizes)
    return out, sizes


def extend_oracle(cat, seed, target):
    """Slow oracle of one seed's extension: the seed's (n,) bool row
    folded member by member, then a depth-first search that clears each
    choice from its row before the next, so that a child's row holds the
    planes after it.  Returns (completions, nodes)."""
    row = np.ones(cat.n, dtype=bool)
    for i, x in enumerate(seed):
        row = compatible_row(cat, row, seed[:i], x)
    results, nodes = [], 0

    def dfs(cur, row):
        nonlocal nodes
        nodes += 1
        need = target - len(cur)
        if need == 0:
            results.append(tuple(sorted(cur)))
            return
        pool = np.flatnonzero(row).tolist()
        for pos, c in enumerate(pool):
            if len(pool) - pos < need:
                break
            child = None if need == 1 else compatible_row(cat, row, cur, c)
            row[c] = False
            dfs(cur + [c], child)

    dfs(list(seed), row)
    return results, nodes


def test_arc_seeds_against_depth_first_oracle(cat_minus, cat_plus, cat_dim7, monkeypatch):
    # the level-synchronous search against the depth-first one, at the
    # default bounds and at bounds that split blocks between nodes and
    # compatibility pairs between meet tests
    cases = [(cat_minus, size) for size in range(1, 7)]
    cases += [(cat_dim7, 9), (cat_plus, 6)]
    want = [seeds_oracle(cat, size) for cat, size in cases]
    assert sum(want[-2][1]) == 42 and want[-2][0] == [DIM7_ARC]
    assert (len(want[-1][0]), sum(want[-1][1])) == (1402, 2644)
    real = PlaneCatalogue.compatible_pairs

    def pairs_above(self, sets, xs, owner, ks):
        # a child's row holds only planes above its last member
        assert (ks > np.asarray(xs)[owner]).all()
        return real(self, sets, xs, owner, ks)

    monkeypatch.setattr(PlaneCatalogue, "compatible_pairs", pairs_above)
    for block, pairs in ((search._BLOCK, search._PAIRS), (1, 64), (3, 5)):
        monkeypatch.setattr(search, "_BLOCK", block)
        monkeypatch.setattr(search, "_PAIRS", pairs)
        for (cat, size), (seeds, sizes) in zip(cases, want):
            tr = SearchTrace(seed=None)
            assert arc_seeds(cat, size, trace=tr) == seeds, (block, size)
            assert (tr.sizes, tr.nodes, tr.solutions) == (sizes, sum(sizes), len(seeds))


def test_seed_extension_against_orderly_search(cat_minus, cat_dim7):
    # the two routes to the 9-arcs: canonical seeds of every size k
    # extended and deduplicated by min_image, and orderly generation
    # straight to size 9
    cat = cat_dim7
    assert arc_seeds(cat, 9) == [DIM7_ARC]
    for k in range(3, 9):
        assert [a.members for a in extend_arcs(cat, arc_seeds(cat, k), 9)] == [DIM7_ARC], k
    assert arc_seeds(cat_minus, 9) == []
    assert extend_arcs(cat_minus, arc_seeds(cat_minus, 6), 9) == []


def as2_families(G, subs, size):
    """Slow oracle: every size-subset of subs satisfying AS2 by its
    definition, every pair meeting trivially and U_i U_j cap U_k = 1
    for every ordered triple of distinct members."""
    sets = [u.element_set() for u in subs]
    prods = {(i, j): set(product_set(G, subs[i].elements, subs[j].elements))
             for i, j in permutations(range(len(subs)), 2)}
    out = set()
    for fam in combinations(range(len(subs)), size):
        if any(sets[i] & sets[j] != {0} for i, j in combinations(fam, 2)):
            continue
        if any(prods[i, j] & sets[k] != {0} for i, j, k in permutations(fam, 3)):
            continue
        out.add(frozenset(subs[i].elements for i in fam))
    return out


def order_q_subgroups(G, q):
    """The cyclic subgroups of prime order q."""
    orders = G.element_orders()
    pool = {}
    for g in range(1, G.n):
        if orders[g] == q:
            s = subgroup_generate(G, [g])
            pool[s.key()] = s
    return list(pool.values())


def family_keys(cfgs):
    """One canonical key per unordered family of subgroups."""
    return {
        (frozenset(u.elements for u in c.subgroups), c.subgroups[0].elements)
        for c in cfgs
    }


def test_brute_force_order8_run_twice():
    # run the oracle twice independently: only C2^3 admits configurations
    for _ in range(2):
        hits = {}
        for G in order8_catalogue():
            cfgs = brute_force_as_configs(G)
            if cfgs:
                hits[G.name] = cfgs
        assert set(hits) == {"C2^3"}
        cfgs = hits["C2^3"]
        assert len(cfgs) == 28
        assert len({frozenset(u.elements for u in c.subgroups) for c in cfgs}) == 7
        for c in cfgs:
            assert check_as_axioms(c.group, c)["ok"]


def test_brute_force_order27_run_twice():
    for _ in range(2):
        hits = {}
        for G in order27_catalogue():
            cfgs = brute_force_as_configs(G)
            if cfgs:
                hits[G.name] = cfgs
        assert set(hits) == {"Heisenberg(3)"}
        assert len(hits["Heisenberg(3)"]) == 9
        for c in hits["Heisenberg(3)"]:
            assert check_as_axioms(c.group, c)["ok"]


def test_brute_force_rejects_order64():
    # order 64 searches families of six among 651 subgroups with no
    # symmetry pruning: refused up front instead of running for hours
    with pytest.raises(ValueError, match="orders 8 and 27"):
        brute_force_as_configs(elementary_abelian(6))


def test_backtrack_agrees_with_brute_force():
    # as_backtrack's (q+2)-families with a normal member, each normal
    # member taken as U_0, are the oracle's configurations
    total = 0
    for G in order8_catalogue() + order27_catalogue():
        brute = family_keys(brute_force_as_configs(G))
        q = round(G.n ** (1 / 3))
        got = {(frozenset(u.elements for u in fam), u0.elements)
               for fam in as_backtrack(G, order_q_subgroups(G, q), q + 2)
               for u0 in fam if is_normal(G, u0)}
        assert got == brute, G.name
        total += len(got)
    assert total == 28 + 9


def test_minus_catalogue_counts(cat_minus):
    assert cat_minus.n == 765
    seeds = arc_seeds(cat_minus, 6)
    assert len(seeds) == 2
    assert extend_arcs(cat_minus, seeds, 9) == []


# Forms whose plane action is not faithful: (form file, planes, plane
# group order, isometry group order).  The isometry group's order only
# bounds the plane group's.
NON_FAITHFUL = {
    "dim-3 zero form": ("dim 3\n000\n000\n000\n", 1, 1, 168),
    "dim-4 x0x1": ("dim 4\n0100\n0000\n0000\n0000\n", 2, 2, 192),
}


@pytest.mark.parametrize("name", sorted(NON_FAITHFUL))
def test_non_faithful_plane_actions(name, monkeypatch):
    # the sift cannot reach the bound, and Schreier-Sims on the plane
    # chain gives the order
    text, planes, order, bound = NON_FAITHFUL[name]
    degrees = complete_degrees(monkeypatch)
    cat = PlaneCatalogue(load_form(text))
    assert (cat.n, isometry_order(cat.form), cat.group.order()) == (planes, bound, order)
    assert cat.n in degrees


def test_non_isometry_among_isometries_is_a_defect(cat_minus, monkeypatch):
    # one non-isometry amid the transvections enlarges the point group:
    # it overshoots the isometry group's order, or one of its strong
    # generators, all that plane_action maps, moves a plane off the
    # catalogue
    form = cat_minus.form
    gens = isometry_generators(form)
    swap = (1, 4, 2) + tuple(1 << i for i in range(3, 8))
    assert any(form.evaluate(apply_matrix(swap, v)) != form.evaluate(v) for v in range(256))
    monkeypatch.setattr(search, "isometry_generators", lambda f: gens[:5] + [swap] + gens[5:])
    with pytest.raises(AssertionError, match="isometry group's order|outside the catalogue"):
        plane_action(form, cat_minus.planes)


def test_isometry_generators_short_of_the_order_are_a_defect(cat_dim7_rad3, monkeypatch):
    # without the swap of the hyperbolic pairs, the generators of an
    # O^+(4, 2)-type form reach half the isometry group: the sift falls
    # back to Schreier-Sims, and the order it finds is refused
    form = cat_dim7_rad3.form
    gens = isometry_generators(form)
    swap = int(np.count_nonzero(form.values))  # after the transvections
    monkeypatch.setattr(search, "isometry_generators", lambda f: gens[:swap] + gens[swap + 1:])
    with pytest.raises(AssertionError, match="isometry group's order"):
        plane_action(form, cat_dim7_rad3.planes)


def test_o4_plus_form_counts(cat_dim7_rad3):
    # x0x1 + x2x3 on F_2^7: its whole isometry group prunes the search,
    # where the transvections alone found [1, 3, 3, 7, 7] canonical sets
    assert (cat_dim7_rad3.n, cat_dim7_rad3.group.order()) == (799, 49545216)
    trace = SearchTrace(seed=None)
    arc_seeds(cat_dim7_rad3, 4, trace=trace)
    assert trace.sizes == [1, 3, 3, 6, 7]


def test_plane_groups_keep_few_generators(cat_minus, cat_plus, deghyp_pipeline):
    # the strong generators of the point group, not its 120-136
    # transvections
    for cat in (cat_plus, cat_minus, deghyp_pipeline[0]):
        assert len(cat.group.gens) <= 24, cat.form


def transvection_group(cat):
    """The plane group generated by all the form's isometry generators,
    sifted up to the isometry group's order."""
    return PermGroup(plane_perms_oracle(cat.form, cat.planes), cat.n,
                     bound=isometry_order(cat.form))


def test_searches_agree_on_both_generating_sets(cat_minus, cat_dim7, cat_plus):
    # a catalogue whose group is generated by every isometry generator
    # gives the same seeds, node counts, arcs and minimal images as the
    # one generated by the point group's strong generators
    rng = random.Random(30)
    for cat, size in ((cat_minus, 6), (cat_dim7, 6), (cat_plus, 5)):
        slow = copy.copy(cat)
        slow.group = transvection_group(cat)
        assert len(slow.group.gens) > len(cat.group.gens)
        assert slow.group.order() == cat.group.order()
        runs = []
        for c in (cat, slow):
            tr = SearchTrace(seed=None)
            seeds = arc_seeds(c, size, trace=tr)
            runs.append((seeds, tr.sizes, tr.nodes, extend_arcs(c, seeds, size + 1)))
        assert runs[0] == runs[1], cat.form
        for _ in range(50):
            s = rng.sample(range(cat.n), rng.randint(1, 6))
            assert min_image(cat.group, s) == min_image(slow.group, s), s


def test_thread_determinism(cat_minus):
    seeds = arc_seeds(cat_minus, 5)
    results = [extend_arcs(cat_minus, seeds, 6, threads=t) for t in (1, 2, 4)]
    assert results[0] == results[1] == results[2]
    assert results[0]  # non-empty, so the comparison is meaningful


def test_extend_arcs_forks_no_idle_workers(cat_minus, monkeypatch):
    # at most one worker per seed: minus8 has two seeds of size 6, so four
    # threads fork two workers.  The fork context's Pool is replaced by a
    # recorder that maps in this process, so the test starts no process.
    forked = []

    class Recorder:
        def __init__(self, processes):
            forked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", Recorder)
    seeds = arc_seeds(cat_minus, 6)
    assert len(seeds) == 2
    assert extend_arcs(cat_minus, seeds, 9, threads=4) == []
    assert forked == [2]
    assert extend_arcs(cat_minus, seeds[:1], 9, threads=4) == []
    assert forked == [2]  # one seed: no pool
    # the blocks give the serial arcs and per-seed traces, in seed order
    seeds = arc_seeds(cat_minus, 4)
    serial, pooled = [], []
    want = extend_arcs(cat_minus, seeds, 6, traces=serial)
    assert extend_arcs(cat_minus, seeds, 6, threads=4, traces=pooled) == want
    assert forked == [2, 4]
    assert [(t.seed, t.nodes, t.solutions) for t in pooled] == \
        [(t.seed, t.nodes, t.solutions) for t in serial]


def extend_block_oracle(cat, seeds, target):
    """extend_oracle in the form of search._extend_block: the completions
    of the distinct seeds in sorted order, and each seed's (nodes,
    completions), in order."""
    per = {s: extend_oracle(cat, s, target) for s in set(seeds)}
    return ([c for s in sorted(per) for c in per[s][0]],
            [[per[s][1], len(per[s][0])] for s in seeds])


def test_extend_against_depth_first_oracle(cat_minus, cat_plus, cat_dim7, monkeypatch):
    # the level loop against the depth-first extension, per seed, at the
    # default run bound and at bounds that split runs between children
    seeds = arc_seeds(cat_minus, 4)
    shuffled = random.Random(37).sample(seeds * 2, 2 * len(seeds))
    cases = [(cat_minus, seeds, 6), (cat_minus, shuffled, 6), (cat_minus, seeds, 4)]
    cases += [(cat_dim7, arc_seeds(cat_dim7, k), 9) for k in range(3, 9)]
    cases += [(cat_plus, arc_seeds(cat_plus, 6), 9)]
    want = [extend_block_oracle(cat, block, target) for cat, block, target in cases]
    assert want[0][1] == [[14, 0], [20, 6], [25, 12], [30, 10], [24, 10]]
    assert want[2] == (seeds, [[1, 1]] * len(seeds))
    nodes = [n for n, _ in want[-1][1]]
    assert (len(nodes), sum(nodes), max(nodes)) == (1402, 1418, 5)
    for pairs in (search._PAIRS, 1, 5):
        monkeypatch.setattr(search, "_PAIRS", pairs)
        for (cat, block, target), w in zip(cases, want):
            completions, counts = search._extend_block(cat, block, target)
            assert (completions, counts.tolist()) == w, (pairs, target)


def test_extend_arcs_edge_cases(cat_minus):
    seeds = arc_seeds(cat_minus, 4)
    traces = []
    assert extend_arcs(cat_minus, [], 6, traces=traces) == [] and traces == []
    # target equal to the seed size: each seed is its own completion
    arcs = extend_arcs(cat_minus, seeds, 4, traces=traces)
    assert [a.members for a in arcs] == seeds
    assert [(t.seed, t.nodes, t.solutions) for t in traces] == [(s, 1, 1) for s in seeds]
    a, b, c, d = seeds[0]
    disjoint = pairwise_disjoint(cat_minus.words)
    meets = next(k for k in range(cat_minus.n) if k != a and not disjoint[a, k])
    no_span = next(k for k in range(cat_minus.n) if disjoint[a, k]
                   and disjoint[b, k] and not is_partial_pseudo_arc(
                       cat_minus.form, [cat_minus.planes[i] for i in (a, b, k)]))
    for bad in ((a, a, c, d), (a, meets, c, d), (a, b, no_span, d), (d, c, b, meets)):
        with pytest.raises(ValueError, match="not a partial pseudo-arc"):
            extend_arcs(cat_minus, [seeds[1], bad], 6)
    # no Klein-quadric plane is disjoint from two disjoint ones, so the
    # level below (x, y) holds no plane at all
    klein = PlaneCatalogue(QuadraticForm(6, (0b10, 0, 0b1000, 0, 0b100000, 0)))
    x, y = np.argwhere(pairwise_disjoint(klein.words))[0].tolist()
    with pytest.raises(ValueError, match="not a partial pseudo-arc"):
        extend_arcs(klein, [(x, y, 0)], 3)
    with pytest.raises(ValueError):  # seeds of mixed sizes
        extend_arcs(cat_minus, [seeds[0], seeds[1][:3]], 6)
    with pytest.raises(ValueError, match="below the seed size"):
        extend_arcs(cat_minus, seeds, 3)


def test_extend_fold_grows_each_prefix_once(cat_minus, cat_dim7, monkeypatch):
    # with the target one above the seed size, every row the extension
    # grows is the fold's: one per distinct prefix of the seeds, however
    # they are ordered or repeated
    cases = [(cat, k, arc_seeds(cat, k)) for cat, k in ((cat_minus, 4), (cat_dim7, 6))]
    grown = []
    real = search._grow

    def record(cat, sets, xs, *ranges):
        grown.extend(tuple(c) for c in np.column_stack([sets, xs]).tolist())
        return real(cat, sets, xs, *ranges)

    monkeypatch.setattr(search, "_grow", record)
    rng = random.Random(41)
    for cat, k, seeds in cases:
        prefixes = {s[:i] for s in seeds for i in range(1, k + 1)}
        assert len(prefixes) < k * len(seeds)
        for block in (seeds, rng.sample(seeds * 2, 2 * len(seeds))):
            grown.clear()
            search._extend_block(cat, block, k + 1)
            assert sorted(grown) == sorted(prefixes)


def test_seed_canonicity_random_images(cat_minus):
    rng = random.Random(17)
    group = cat_minus.group
    seeds = arc_seeds(cat_minus, 5)
    elems = []
    for _ in range(100):
        g = np.arange(group.n, dtype=np.int32)
        for _ in range(rng.randint(1, 6)):
            gen = group.gens[rng.randrange(len(group.gens))]
            g = gen[g]
        elems.append(g)
    for s in seeds:
        assert min_image(group, s) == s
        for g in rng.sample(elems, 20):
            img = tuple(sorted(int(g[x]) for x in s))
            assert min_image(group, img) == s


def test_canonical_children_along_random_arcs(cat_minus):
    # the batched test of arc_seeds against is_min_image on every
    # candidate of random canonical partial arcs
    rng = random.Random(23)
    cat = cat_minus
    checked = accepted = 0
    for _ in range(20):
        s, chain, row = [], [cat.group], np.ones(cat.n, dtype=bool)
        while len(s) < 6:
            node = chain[-1]
            points = np.arange(cat.n)
            xs = np.flatnonzero((node.orbit_min == points) & (points > (s[-1] if s else -1)) & row)
            got = node_children(chain, s, xs)
            assert got.tolist() == [is_min_image(cat.group, s + [x]) for x in xs.tolist()]
            checked += len(xs)
            accepted += int(got.sum())
            if not got.any():
                break
            x = int(rng.choice(xs[got]))
            row = compatible_row(cat, row, s, x)
            chain = prefix_chain(cat.group, s + [x])
            s.append(x)
    assert checked > 500 and accepted > 100


def test_canonical_children_wide_rows():
    # eight points of the 3215 deg-hyp6 planes, 12 bits each: rows wider
    # than one int64 key (no arc condition, only canonicity)
    cat = PlaneCatalogue(preset("deg-hyp6"))
    group = cat.group
    rng = random.Random(29)
    points = np.arange(cat.n)
    s, chain = [], [group]
    while len(s) < 8:
        node = chain[-1]
        xs = np.flatnonzero((node.orbit_min == points) & (points > (s[-1] if s else -1)))
        xs = np.array(sorted(rng.sample(xs.tolist(), min(len(xs), 25))), dtype=np.int64)
        got = node_children(chain, s, xs)
        assert got.tolist() == [is_min_image(group, s + [x]) for x in xs.tolist()]
        x = int(xs[got][0]) if got.any() else None
        assert x is not None
        chain.append(node.stabilizer(x))
        s.append(x)
    assert min_image(group, s) == tuple(s)


def test_trivial_stabilisers_share_one_group(cat_minus, monkeypatch):
    # every order-1 stabiliser that arc_seeds builds below the group is
    # one object without generators
    edges, trivial = 0, []

    def spy(self, point, stabilizer=PermGroup.stabilizer):
        nonlocal edges
        child = stabilizer(self, point)
        if self.gens and child.order() == 1:
            edges += 1
            trivial.append(child)
            assert child.gens == []
        return child

    monkeypatch.setattr(PermGroup, "stabilizer", spy)
    arc_seeds(cat_minus, 6)
    assert edges > 1 and len({id(g) for g in trivial}) == 1


def test_seeds_revalidate(cat_minus):
    for s in arc_seeds(cat_minus, 5):
        planes = [cat_minus.planes[i] for i in s]
        assert is_partial_pseudo_arc(cat_minus.form, planes)


def test_search_trace_accounting(cat_minus):
    # node counts pinned: a change to them is a change to the pruning
    for size, nodes, solutions in ((4, 9, 5), (5, 15, 6), (6, 17, 2)):
        tr = SearchTrace(seed=None)
        seeds = arc_seeds(cat_minus, size, trace=tr)
        assert (tr.nodes, tr.solutions, len(seeds)) == (nodes, solutions, solutions)
        assert tr.sizes == [1, 1, 1, 1, 5, 6, 2][:size + 1]
    seeds = arc_seeds(cat_minus, 4)
    trs = []
    arcs = extend_arcs(cat_minus, seeds, 6, traces=trs)
    assert [tr.seed for tr in trs] == seeds
    assert [tr.nodes for tr in trs] == [14, 20, 25, 30, 24]
    assert [tr.solutions for tr in trs] == [0, 6, 12, 10, 10]
    assert len(arcs) == 2


def test_compatible_pairs_matches_compatible(cat_minus, cat_dim7):
    # the rows both arc searches grow, against the slow oracle, along
    # random growing partial arcs from the empty set, whose first level
    # tests disjointness alone: on minus8, where each member's sum meets
    # a compatible plane in 2 vectors, and on the dim-7 form (4 vectors)
    rng = random.Random(31)
    for cat in (cat_minus, cat_dim7):
        checked = 0
        for _ in range(6):
            s, row = [], np.arange(cat.n)
            while True:
                planes = [cat.planes[i] for i in s]
                want = [is_partial_pseudo_arc(cat.form, planes + [p]) for p in cat.planes]
                assert row.tolist() == np.flatnonzero(want).tolist()
                checked += 1
                if len(row) == 0 or len(s) == 5:
                    break
                x = int(rng.choice(row))
                sets = np.array(s, dtype=np.intp).reshape(1, -1)
                row = row[cat.compatible_pairs(sets, np.array([x]),
                                               np.zeros(len(row), dtype=np.intp), row)]
                s.append(x)
        assert checked >= 24, cat.form


def orbit_least_members(sets, perms, n):
    """The least member of each orbit of the k-sets (sorted rows, in
    lexicographic order) under the plane permutations, by min-label
    propagation over each permutation's map of set indices: every set
    takes the least label among its images and then its label's label,
    until nothing changes.  A label only falls and stays in its set's
    orbit, so at the end each orbit carries its least index."""
    sets = np.asarray(sets, dtype=np.int32)
    assert n ** sets.shape[1] < 2 ** 31  # int32 keys
    weights = n ** np.arange(sets.shape[1], dtype=np.int32)[::-1]
    keys = sets @ weights
    maps = []
    for g in perms:
        image = np.asarray(g, dtype=np.int32)[sets]
        image.sort(axis=1)
        image = image @ weights
        at = np.searchsorted(keys, image)
        np.minimum(at, len(keys) - 1, out=at)
        assert np.array_equal(keys[at], image)  # an isometry keeps the sets
        maps.append(at.astype(np.int32))
    label = np.arange(len(sets), dtype=np.int32)
    while True:
        new = label
        for at in maps:
            new = np.minimum(new, new[at])
        new = new[new]
        if np.array_equal(new, label):
            return [tuple(sets[r].tolist()) for r in np.flatnonzero(label == np.arange(len(sets)))]
        label = new


def test_arc_seeds_against_orbit_oracle(cat_dim7):
    # the dim-7 form x0x1 + x2x3 + x4x5 (345 planes, group order
    # 2580480): the orbits of single planes and of disjoint pairs, from
    # the slow plane-action loop and union-find, share no code with
    # permgroup; arc_seeds returns exactly the least member of each
    form = cat_dim7.form
    planes = singular_subspaces(form, 3)
    n = len(planes)
    perms = plane_perms_oracle(form, planes)
    vectors = [set(gf2.subspace_vectors(p)) for p in planes]
    pairs = [(a, b) for a, b in combinations(range(n), 2) if len(vectors[a] & vectors[b]) == 1]
    assert (n, len(pairs)) == (345, 27840)
    singles = orbit_least_members([(a,) for a in range(n)], perms, n)
    doubles = orbit_least_members(pairs, perms, n)
    assert (len(singles), len(doubles)) == (2, 3)
    assert cat_dim7.group.order() == 2580480
    assert arc_seeds(cat_dim7, 1) == singles and arc_seeds(cat_dim7, 2) == doubles


def test_arc_seeds_size3_against_orbit_oracle(cat_dim7):
    # all partial pseudo-arcs of size 3 on the dim-7 form, from the plane
    # vectors alone: c > b disjoint from a and b with |(W_a + W_b) cap
    # W_c| = 2^(6 + 3 - 7), 3 nonzero vectors, so the three span the
    # space.  Their orbits under three seeded random subproducts of the
    # slow-loop generators are the canonical sets; a proper subgroup
    # would only split orbits.  The oracle's index maps and labels peak
    # at 24 MB traced; a union-find over every (set, image) edge took 65
    # MB
    form = cat_dim7.form
    planes = singular_subspaces(form, 3)
    n = len(planes)
    vecs = np.array([list(gf2.subspace_vectors(p)) for p in planes])
    member = np.zeros((n, 1 << form.dim), dtype=np.float32)
    member[np.arange(n)[:, None], vecs] = 1
    member[:, 0] = 0
    disjoint = member @ member.T == 0
    a, b = np.nonzero(np.triu(disjoint, 1))
    triples = []
    for lo in range(0, len(a), 4096):  # blocks of pairs, in lexicographic order
        pa, pb = a[lo:lo + 4096], b[lo:lo + 4096]
        span = np.zeros((len(pa), 1 << form.dim), dtype=np.float32)
        sums = vecs[pa, :, None] ^ vecs[pb, None, :]
        span[np.arange(len(pa))[:, None], sums.reshape(len(pa), -1)] = 1
        ok = (span @ member.T == 3) & disjoint[pa] & disjoint[pb] & (np.arange(n) > pb[:, None])
        pair, c = np.nonzero(ok)
        triples.append(np.stack([pa[pair], pb[pair], c], axis=1).astype(np.int32))
    triples = np.concatenate(triples)
    assert len(triples) == 645120
    rng = random.Random(3)
    gens = [np.asarray(g) for g in plane_perms_oracle(form, planes)]
    perms = []
    for _ in range(3):
        g = np.arange(n)
        for h in gens:
            if rng.random() < 0.5:
                g = h[g]
        perms.append(g)
    tracemalloc.start()
    try:
        orbits = orbit_least_members(triples, perms, n)
        assert tracemalloc.get_traced_memory()[1] <= 30e6
    finally:
        tracemalloc.stop()
    assert len(orbits) == 4
    assert arc_seeds(cat_dim7, 3) == orbits


def test_catalogue_memory_guard():
    # deg-hyp6 (3215 planes): the catalogue keeps its planes, their
    # vectors and membership words and the plane action, about 2.4 MB
    # traced.  With an (n, n) disjointness matrix it kept 12.7 MB.
    tracemalloc.start()
    try:
        cat = PlaneCatalogue(preset("deg-hyp6"))
        assert tracemalloc.get_traced_memory()[0] <= 4e6
    finally:
        tracemalloc.stop()
    assert cat.n == 3215


def test_chain_memory_guard(monkeypatch):
    # plus8 (2025 planes): neither the order's chain nor the stabiliser
    # chains of a fresh arc_seeds hold n-point transversals, and their
    # strong generators and inverses are int32.  With an
    # explicit transversal and its inverses they peaked at 33.5 MB and
    # 23.7 MB traced.  The level-synchronous search holds one level's
    # rows and one block of children beyond the depth-first search's
    # 2.4 MB; one unbounded batch per level peaked at 18 MB.  Once the
    # seeds are dropped the stabilisers go with them: with each one
    # cached on its parent group, 2.2 MB stayed traced.
    chains = []

    def int32_chain(G):
        # every chain, the order's and the stabilisers', is kept in int32
        for lv in G._chain.levels:
            assert all(g.dtype == np.int32 for g in lv.gens + lv.inv)
        chains.append(len(G._chain.levels))

    def spy(self, point, stabilizer=PermGroup.stabilizer):
        child = stabilizer(self, point)
        if child._chain is not None:
            int32_chain(child)
        return child

    monkeypatch.setattr(PermGroup, "stabilizer", spy)
    cat = PlaneCatalogue(preset("plus8"))
    tracemalloc.start()
    try:
        assert cat.group.order() == 348364800
        assert tracemalloc.get_traced_memory()[1] <= 5e6
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tr = SearchTrace(seed=None)
        seeds = arc_seeds(cat, 6, trace=tr)
        assert len(seeds) == 1402
        assert tracemalloc.get_traced_memory()[1] - start <= 4e6
        del seeds
        assert tracemalloc.get_traced_memory()[0] - start <= 1.6e6
    finally:
        tracemalloc.stop()
    assert tr.sizes == [1, 1, 2, 5, 104, 1129, 1402]
    int32_chain(cat.group)
    assert len(chains) > 5


def test_extension_memory_guard(cat_plus):
    # plus8's 1402 seeds to size 9: the fold holds one level's rows and
    # grows one run of pairs at a time.  The depth-first extension, with
    # one (n,) bool row per prefix, peaked at 0.2 MB traced.
    seeds = arc_seeds(cat_plus, 6)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert extend_arcs(cat_plus, seeds, 9) == []
        assert tracemalloc.get_traced_memory()[1] - start <= 1.5e6
    finally:
        tracemalloc.stop()


def test_searches_leave_no_reference_cycles(cat_minus, monkeypatch):
    # with the cyclic collector off, the catalogue and the group must be
    # freed as soon as the searches return
    gc.disable()
    try:
        cat = PlaneCatalogue(preset("minus8"))
        ref = weakref.ref(cat)
        arcs = extend_arcs(cat, arc_seeds(cat, 4), 5)
        assert [a.members for a in arcs] == arc_seeds(cat_minus, 5)
        del cat
        assert ref() is None
        G = HeisenbergGroup(3)
        gref = weakref.ref(G)
        assert as_backtrack(G, order_q_subgroups(G, 3), 4)
        del G
        assert gref() is None
        # the clique search drops its (m, m) adjacency on return
        adj, real = [], asconfig.pairwise_disjoint

        def disjoint(*args, **kwargs):
            out = real(*args, **kwargs)
            adj.append(weakref.ref(out))
            return out

        monkeypatch.setattr(asconfig, "pairwise_disjoint", disjoint)
        assert clique_size_qplus1(direct_product(dihedral8(), elementary_abelian(3)), 4)
        assert len(adj) == 1 and adj[0]() is None
    finally:
        gc.enable()


def test_backtrack_trace_and_empty_pool():
    G = HeisenbergGroup(3)
    assert as_backtrack(G, [], 4) == []


def test_backtrack_matches_as2_oracle(minus_pools):
    G212, pool2, pool3 = minus_pools
    cases = [(G, order_q_subgroups(G, round(G.n ** (1 / 3))))
             for G in order8_catalogue() + order27_catalogue()]
    cases += [(G212, pool2), (G212, pool3)]
    nonempty = 0
    for G, pool in cases:
        for size in (2, 3, 4, 5):
            want = as2_families(G, pool, size)
            got = {frozenset(u.elements for u in fam)
                   for fam in as_backtrack(G, pool, size)}
            assert got == want, (G.name, size)
            nonempty += bool(want) and size >= 3
    assert nonempty >= 3  # the comparison sees triples, not only pairs


def test_backtrack_rejects_pairwise_meets(minus_pools):
    # two candidates lifted from one plane meet in 4 elements, and
    # every triple of this pool holds such a pair
    G, pool2, _ = minus_pools
    for fam in as_backtrack(G, pool2, 3):
        for a, b in combinations(fam, 2):
            assert a.element_set() & b.element_set() == {0}


def lift_oracle(G, planes):
    """lift_arc one plane at a time: the preimage of each plane as a
    Subgroup, and its complements of Phi(G) by groups.complements."""
    frat = frattini(G)
    top = 1 << G.d
    pool, dropped = [], []
    for p in planes:
        elems = [v | t for v in gf2.subspace_vectors(p) for t in (0, top)]
        comps = complements(Subgroup(G, tuple(sorted(elems))), frat)
        if not comps:
            dropped.append(p)
        pool.extend(comps)
    pool.sort(key=lambda s: s.key())
    return pool, dropped


def obstruction_oracle(G, planes):
    """minus_type_obstruction one plane at a time: W^perp by a loop over
    the basis, and each candidate's centraliser by groups.centralizer."""
    top = 1 << G.d
    ok, n_candidates = True, 0
    for p in planes:
        perp = np.arange(top)
        for b in p.basis:  # keep the v with B(b, v) = parity(row & v) = 0
            perp = perp[np.bitwise_count(perp & G.form.bilinear_row(b)) & 1 == 0]
        pre_perp = np.concatenate([perp, perp | top])
        pool, dropped = lift_oracle(G, [p])
        ok &= not dropped
        for u in pool:
            n_candidates += 1
            ok &= np.array_equal(centralizer(G, u.elements).elements, pre_perp)
    return {"center_order": center(G).order, "n_candidates": n_candidates,
            "centralizer_is_perp_preimage": ok}


def random_planes(d, count, rng):
    planes = []
    while len(planes) < count:
        p = gf2.rref([rng.randrange(1, 1 << d) for _ in range(3)], d)
        if p.rank == 3:
            planes.append(p)
    return planes


def test_lift_matches_oracle(cat_minus):
    G = table4_group("212m")
    cases = [(G, cat_minus.planes), (G, [])]
    rng = random.Random(26)
    cases += [(table4_group(ident), random_planes(8, 200, rng)) for ident in TABLE4_IDS]
    sizes = []
    for H, planes in cases:
        pool, lost = lift_arc(H, planes)
        assert (pool, lost) == lift_oracle(H, planes)
        assert all(type(g) is int for u in pool for g in u.elements)
        assert [u.gens for u in pool] == [()] * len(pool)
        sizes.append((len(pool), len(lost)))
    assert sizes[:2] == [(6120, 0), (0, 0)]
    # random planes are mostly not totally singular
    assert sum(lost for _, lost in sizes[2:]) >= 600


def test_obstruction_matches_oracle(cat_minus):
    G = table4_group("212m")
    report = minus_type_obstruction(G, cat_minus.planes)
    assert report == obstruction_oracle(G, cat_minus.planes)
    assert report == {"center_order": 2, "n_candidates": 6120,
                      "centralizer_is_perp_preimage": True}
    G208 = table4_group("208a")
    planes = random.Random(4).sample(singular_subspaces(G208.form, 3), 400)
    assert minus_type_obstruction(G208, planes) == obstruction_oracle(G208, planes)
    assert minus_type_obstruction(G, []) == {"center_order": 2, "n_candidates": 0,
                                             "centralizer_is_perp_preimage": True}


def test_obstruction_fails_where_the_oracle_does(cat_minus):
    G = table4_group("212m")
    # a plane that is not totally singular has no complement: dropped
    bad = next(p for p in random_planes(8, 50, random.Random(1)) if lift_arc(G, [p])[1])
    planes = cat_minus.planes[:40] + [bad] + cat_minus.planes[40:80]
    assert lift_arc(G, planes)[1] == [bad]
    verdicts = []
    # plus8 shares minus8's polarisation, so the obstruction still holds
    # under it; deg-hyp6's has a radical, so the perps stop matching
    for name in ("plus8", "deg-hyp6"):
        swapped = copy.copy(G)
        swapped.form = preset(name)
        verdicts.append(minus_type_obstruction(swapped, cat_minus.planes[:80]))
        assert verdicts[-1] == obstruction_oracle(swapped, cat_minus.planes[:80])
    report = minus_type_obstruction(G, planes)
    assert report == obstruction_oracle(G, planes)
    assert [r["centralizer_is_perp_preimage"] for r in verdicts + [report]] == [True, False, False]


def test_lift_errors():
    plane = gf2.rref([1, 2, 4], 8)
    with pytest.raises(ValueError):
        lift_oracle(elementary_abelian(9), [plane])
    with pytest.raises(ValueError):
        lift_arc(elementary_abelian(9), [plane])
    assert lift_arc(elementary_abelian(9), []) == ([], [])
    G = table4_group("212m")
    line = gf2.rref([1, 2], 8)
    for fn in (lift_arc, minus_type_obstruction):
        with pytest.raises(ValueError, match="rank 3"):
            fn(G, [plane, line])


def lemma53_oracle(G, rng=None):
    """Lemma 5.3's pools by three enumerations, each avoiding the products
    of the base so far, and each third's fourths by product-set
    compatibility: U_1, U_2, the pool, and each third's fourths."""
    u0 = center(G).elements
    pool1 = enumerate_elem_abelian_subgroups(G, 8, avoid=[u0])
    u1 = (rng.choice(pool1) if rng is not None else pool1[0]).elements
    p01 = product_set(G, u0, u1)
    pool2 = enumerate_elem_abelian_subgroups(G, 8, avoid=[p01])
    u2 = (rng.choice(pool2) if rng is not None else pool2[0]).elements
    avoid = [p01, product_set(G, u0, u2), product_set(G, u1, u2)]
    pool = [u.elements for u in enumerate_elem_abelian_subgroups(G, 8, avoid=avoid)]
    fourths = []
    for third in pool:
        blocked = set().union(*(product_set(G, b, third) for b in (u0, u1, u2)))
        fourths.append([u for u in pool if blocked.isdisjoint(u[1:])])
    return u1, u2, pool, fourths


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_lemma53_pools_match_oracle(seed, monkeypatch):
    # the size-6 search, one batched call, is recorded, not run: each
    # root's fixed members (U_0, U_1, U_2 and the third) and its
    # fourths, as subgroup elements
    G = table4_group("210b")
    rng = None if seed is None else random.Random(seed)
    u1, u2, pool, fourths = lemma53_oracle(G, rng)
    calls = []

    def record(self, roots, target):
        assert target == 6 and not calls
        calls.extend((tuple(self.subs[i].elements for i in fixed),
                      [self.subs[i].elements for i in cands]) for fixed, cands in roots)
        return [([], 1)] * len(roots)

    monkeypatch.setattr(ProductMasks, "backtrack", record)
    rng = None if seed is None else random.Random(seed)
    res = lemma53_counts(G, rng)
    u0 = center(G).elements
    assert calls == [((u0, u1, u2, third), fs) for third, fs in zip(pool, fourths) if fs]
    sizes = [len(fs) for fs in fourths]
    assert res["pool"] == len(pool) == 784
    assert res["distribution"] == {k: sizes.count(k) for k in sorted(set(sizes))}
    assert res["size6_families"] == 0


def test_lemma53_memory_guard():
    # one ProductMasks over the 8641 subgroups and the size-6 search:
    # about 8.7 MB traced
    G = table4_group("210b")
    tracemalloc.start()
    try:
        assert lemma53_counts(G)["pool"] == 784
        assert tracemalloc.get_traced_memory()[1] <= 11e6
    finally:
        tracemalloc.stop()


def test_filters_memory_guard():
    # 212m's good subgroups stay on G as one family of 6120 rows: about
    # 0.14 MB (1.7 MB as Subgroup tuples); the clique over their 765
    # products peaks at about 3.1 MB with them (5.0 MB as tuples)
    G = table4_group("212m")
    frattini(G), center(G), G.element_orders()
    tracemalloc.start()
    try:
        assert len(good_subgroups(G, 8)) == 6120
        assert tracemalloc.get_traced_memory()[0] <= 0.5e6
        tracemalloc.reset_peak()
        assert clique_size_qplus1(G, 8)
        assert tracemalloc.get_traced_memory()[1] <= 4.5e6
    finally:
        tracemalloc.stop()
