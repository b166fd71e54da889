"""Stabiliser chains, orbits and minimal images against brute force."""
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from test_quadform import basis_change, class_form, form_classes, oracle_corpus, point_group, rebased

from asq import permgroup
from asq.permgroup import (
    PermGroup,
    canonical_children,
    compose,
    identity,
    inverse,
    is_min_image,
    min_image,
)
from asq.quadform import isometry_generators, isometry_order, plane_group_order, preset, radicals
from asq.search import PlaneCatalogue


def closure(gens, n):
    """All elements of <gens> as tuples, by BFS."""
    elems = {tuple(range(n))}
    frontier = list(elems)
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def brute_min_image(elems, points):
    return min(tuple(sorted(g[p] for p in points)) for g in elems)


def random_group(rng, n, k=2):
    gens = []
    for _ in range(k):
        p = list(range(n))
        rng.shuffle(p)
        gens.append(p)
    return gens


def random_small_group(rng, n):
    """Generators of a random subgroup of S_n with a small closure: the
    symmetric groups of a few blocks of at most four points, sometimes
    with a swap of two blocks of one size, or for n <= 6 any group."""
    if n <= 6 and rng.random() < 0.4:
        return random_group(rng, n, rng.randint(1, 3))
    pts = list(range(n))
    rng.shuffle(pts)
    blocks = []
    while pts:
        size = min(len(pts), rng.randint(1, 4))
        blocks.append(pts[:size])
        pts = pts[size:]
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = list(range(n))
        for b in blocks:
            for a, c in zip(b, rng.sample(b, len(b))):
                g[a] = c
        gens.append(g)
    pairs = [(a, b) for a in blocks for b in blocks if a < b and len(a) == len(b)]
    if pairs and rng.random() < 0.5:
        a, b = rng.choice(pairs)
        g = list(range(n))
        for u, v in zip(a, b):
            g[u], g[v] = v, u
        gens.append(g)
    return gens


class ExplicitChain:
    """The slow oracle: a deterministic Schreier-Sims chain that keeps
    every transversal element and its inverse as a full permutation,
    completed after every growth (with target, it stops once the order
    reaches it)."""

    def __init__(self, gens, n, target=None):
        self.n = n
        self.levels = []  # [base, strong gens, {x: u_x}, {x: u_x^-1}, checked]
        for g in gens:
            if self.order() == target:
                break
            r, lvl = self.sift(np.asarray(g, dtype=np.int32))
            if r is not None:
                self.install(r, 0, lvl)
                self.complete()

    def order(self):
        out = 1
        for lv in self.levels:
            out *= len(lv[2])
        return out

    def sift(self, g, start=0):
        for i in range(start, len(self.levels)):
            base, _, _, inverses, _ = self.levels[i]
            x = int(g[base])
            if x not in inverses:
                return g, i
            g = compose(g, inverses[x])
        return (None if np.array_equal(g, identity(self.n)) else g), len(self.levels)

    def install(self, r, first, last):
        if last == len(self.levels):
            base = int(np.nonzero(r != identity(self.n))[0][0])
            self.levels.append([base, [], {base: identity(self.n)},
                                {base: identity(self.n)}, set()])
        for lv in self.levels[first:last + 1]:
            _, gens, tr, inv, _ = lv
            gens.append(r)
            queue = list(tr)
            while queue:
                x = queue.pop()
                for g in gens:
                    y = int(g[x])
                    if y not in tr:
                        tr[y] = compose(tr[x], g)
                        inv[y] = inverse(tr[y])
                        queue.append(y)

    def complete(self):
        i = len(self.levels) - 1
        while i >= 0:
            _, gens, tr, inv, checked = self.levels[i]
            failed = None
            for x in sorted(tr):
                for gi, g in enumerate(gens):
                    if (x, gi) in checked:
                        continue
                    checked.add((x, gi))
                    r, lvl = self.sift(compose(compose(tr[x], g), inv[int(g[x])]), i + 1)
                    if r is not None:
                        failed = (r, lvl)
                        break
                if failed:
                    break
            if failed:
                self.install(failed[0], i + 1, failed[1])
                i = min(failed[1], len(self.levels) - 1)
            else:
                i -= 1

    @staticmethod
    def stabiliser_gens(gens, n, point, target):
        """Generators of the stabiliser of point: Schreier generators
        from an explicit transversal of its orbit, closed up to target."""
        tr = {point: identity(n)}
        queue = [point]
        while queue:
            x = queue.pop()
            for g in gens:
                y = int(g[x])
                if y not in tr:
                    tr[y] = compose(tr[x], g)
                    queue.append(y)
        sgens = (compose(compose(tr[x], g), inverse(tr[int(g[x])]))
                 for x in sorted(tr) for g in gens)
        chain = ExplicitChain(sgens, n, target)
        assert chain.order() == target
        return chain.levels[0][1] if chain.levels else []


def stabiliser_path(parent, child):
    """How PermGroup.stabilizer read child's chain off parent's: the
    next level, or a new chain."""
    p, c = parent._chain, child._chain
    if len(c.levels) == len(p.levels) - 1 and all(
            a is b for a, b in zip(c.levels, p.levels[1:])):
        return "first base point"
    return "new chain"


def prefix_chain(G, s):
    """[G, G_(s0), G_(s0, s1), ...]: the stabilisers of the prefixes of s,
    kept with min_image's on the group, so that the chains of one group's
    sets share their prefixes as arc_seeds' do."""
    chain = [G]
    for i, x in enumerate(s):
        prefix = tuple(s[:i + 1])
        if prefix not in G._prefixes:
            G._prefixes[prefix] = chain[-1].stabilizer(x)
        chain.append(G._prefixes[prefix])
    return chain


def complete_degrees(monkeypatch):
    """The degree of each chain _Chain.complete runs on, appended to the
    returned list as the calls come."""
    degrees = []

    def spy(self, complete=permgroup._Chain.complete):
        degrees.append(self.n)
        return complete(self)

    monkeypatch.setattr(permgroup._Chain, "complete", spy)
    return degrees


def node_children(chain, s, xs):
    """canonical_children on a batch of one node: the set s, its chain
    and the candidates xs."""
    return canonical_children([chain], [s], np.zeros(len(xs), dtype=np.intp), xs)


def test_compose_inverse():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 12)
        p = np.asarray(random_group(rng, n, 1)[0], dtype=np.int32)
        q = np.asarray(random_group(rng, n, 1)[0], dtype=np.int32)
        # compose(p, q)[x] = q[p[x]] (p first)
        pq = compose(p, q)
        for x in range(n):
            assert pq[x] == q[p[x]]
        assert np.array_equal(compose(p, inverse(p)), identity(n))


def test_order_against_closure():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(3, 8)
        gens = random_group(rng, n, rng.randint(1, 5))
        G = PermGroup(gens, n)
        assert G.order() == len(closure(gens, n))


def test_symmetric_group_order():
    n = 9
    cyc = list(range(1, n)) + [0]
    swap = [1, 0] + list(range(2, n))
    assert PermGroup([cyc, swap], n).order() == 362880
    assert PermGroup([cyc, swap], n, bound=362880).order() == 362880


def test_stabilizer_orders():
    n = 7
    cyc = list(range(1, n)) + [0]
    swap = [1, 0] + list(range(2, n))
    G = PermGroup([cyc, swap], n)
    H = G.stabilizer(0)
    assert H.order() == 720
    assert all(int(g[0]) == 0 for g in H.gens)
    assert H.stabilizer(1).order() == 120


def test_nested_stabilisers_against_closure():
    # pointwise stabilisers of random point sequences, each child read off
    # its parent's chain by both paths, at points that are their orbit's
    # minimum and at points that are not, against the brute-force
    # closure: the generators, not only the recorded orders
    rng = random.Random(11)
    paths, kinds = Counter(), Counter()
    for _ in range(40):
        n = rng.randint(3, 8)
        gens = random_small_group(rng, n) if rng.random() < 0.7 else random_group(rng, n)
        G = PermGroup(gens, n)
        elems = closure(gens, n)
        assert G.order() == len(elems)
        for _ in range(3):
            points = rng.sample(range(n), rng.randint(1, n))
            chain = prefix_chain(G, points)
            for i, x in enumerate(points):
                H, K, fixed = chain[i], chain[i + 1], points[:i + 1]
                want = {g for g in elems if all(g[p] == p for p in fixed)}
                assert closure(K.gens, n) == want, (gens, fixed)
                assert K.order() == len(want)
                if K.order() > 1 and K is not H and K._chain.levels:
                    path = stabiliser_path(H, K)
                    paths[path] += 1
                    if path == "new chain":
                        # its elements walk to x's orbit minimum and back
                        # to x, which for a minimum is no move
                        kinds[bool(x == H.orbit_min[x])] += 1
    assert min(paths[k] for k in ("first base point", "new chain")) >= 10, paths
    assert min(kinds[True], kinds[False]) >= 10, kinds


def test_order_against_explicit_chain():
    # larger random groups than the closure can take: block groups and
    # random pairs of degree 8 to 24, each order and the order of one
    # point stabiliser against the explicit-transversal oracle
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(8, 24)
        gens = random_group(rng, n, rng.randint(1, 3)) if rng.random() < 0.3 \
            else random_small_group(rng, n)
        G = PermGroup(gens, n)
        assert G.order() == ExplicitChain(gens, n).order(), gens
        H = G.stabilizer(rng.randrange(n))
        assert ExplicitChain(H.gens, n).order() == H.order()


def test_chain_against_explicit_schreier_sims():
    # the minus8 plane group and that of plus8 relabelled by a basis
    # change: their orders, sifted to the isometry group's, and the orders
    # of nested point stabilisers, against the explicit-transversal
    # oracle
    for form, order in ((preset("minus8"), 394813440),
                        (rebased(preset("plus8"), basis_change(8, 11)), 348364800)):
        G = PlaneCatalogue(form).group
        n = G.n
        assert G.order() == ExplicitChain(G.gens, n).order() == order
        base = G._chain.levels[0].base
        paths = Counter()
        for points in ([base, 1, 400], [17, 300], [500, 2, 3]):
            H, oracle = G, G.gens
            for x in points:
                K = H.stabilizer(x)
                orbit = int(np.count_nonzero(H.orbit_min == H.orbit_min[x]))
                target = H.order() // orbit
                oracle = ExplicitChain.stabiliser_gens(oracle, n, x, target)
                assert K.order() == ExplicitChain(oracle, n).order() == target
                assert ExplicitChain(K.gens, n).order() == target
                paths[stabiliser_path(H, K)] += 1
                H = K
        assert len(paths) == 2, paths


def test_plane_order_needs_no_schreier_sims(monkeypatch, class_catalogues):
    # the point and plane groups of the arc searches reach their orders,
    # given by formula, by sifting alone: no Schreier-Sims pass at either
    # degree, in the paper's catalogues built afresh and in one catalogue
    # of each class with d <= 7 and of (+, 1, 6), (-, 1, 6) and (-, 1, 7),
    # faithful or not.  The plane-group orders are checked against oracles
    # free of plane_group_order: Schreier-Sims with no bound up to 155
    # planes; for (-, 1, r), whose planes all lie in the radical, the
    # zero form of dimension r, on which GL(r, 2) acts faithfully on the
    # same number of planes; and isometry_order for the faithful rest, as
    # the plane group's order is at most |Isom(Q)| and at least the
    # sifted chain's.
    degrees = complete_degrees(monkeypatch)
    for form, order in ((preset("plus8"), 348364800), (preset("minus8"), 394813440),
                        (preset("deg-hyp6"), 990904320),
                        (rebased(preset("plus8"), basis_change(8, 11)), 348364800)):
        G = PlaneCatalogue(form).group
        assert G.order() == plane_group_order(form) == isometry_order(form) == order
        assert degrees == [], form
    for (eps, m, r), (cat, ran) in class_catalogues.items():
        assert ran == [], (eps, m, r)
        order = cat.group.order()
        assert order == plane_group_order(cat.form), (eps, m, r)
        if cat.n <= 155:
            oracle = PermGroup(cat.group.gens, cat.n).order()
        elif (eps, m) == ("-", 1):
            zero = class_catalogues[("+", 0, r)][0]
            assert cat.n == zero.n
            oracle = isometry_order(zero.form)
        else:
            oracle = isometry_order(cat.form)
        assert order == oracle, (eps, m, r)


def test_stalled_sift_draws_again(monkeypatch):
    # the 8 random subproducts of the (+, 2, 2) plane group's first
    # product-replacement state generate a subgroup of index 36: the sift
    # misses 200 times in a row, draws a fresh state and reaches the order
    draws = []
    fresh = permgroup._product_replacement
    monkeypatch.setattr(permgroup, "_product_replacement",
                        lambda gens, n, rng: draws.append(n) or fresh(gens, n, rng))
    cat = PlaneCatalogue(class_form("+", 2, 2))
    assert (cat.n, cat.group.order()) == (81, 110592)
    assert draws == [64, 81, 81]
    first = permgroup._random_subproducts(cat.group.gens, cat.n, 8, random.Random(0))
    assert PermGroup(first, cat.n).order() == 110592 // 36


def test_isometry_order_against_schreier_sims():
    # the formula against the order of the group the isometry generators
    # generate, found with no bound: by the explicit-transversal oracle
    # up to dimension 5 and by PermGroup's deterministic Schreier-Sims
    # above it; on one rebased form of every class with d <= 8, then on
    # the accepted forms of the oracle corpus up to dimension 7
    forms = [rebased(class_form(eps, m, r), basis_change(2 * m + r, 8))
             for eps, m, r in form_classes(8)]
    forms += [q for q in oracle_corpus() if q.dim <= 7 and radicals(q)[2].tag != "mixed"]
    for q in forms:
        G = point_group(q, isometry_generators(q))
        order = ExplicitChain(G.gens, G.n).order() if q.dim <= 5 else G.order()
        assert order == isometry_order(q), q


def test_stabilizer_generates_point_stabiliser():
    # the child's generators, not only its recorded order, give the
    # whole stabiliser
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(3, 7)
        gens = random_group(rng, n, rng.randint(1, 3))
        G = PermGroup(gens, n)
        p = rng.randrange(n)
        H = G.stabilizer(p)
        want = {g for g in closure(gens, n) if g[p] == p}
        assert closure(H.gens, n) == want
        assert H.order() == len(want)


def test_walk_to_orbit_min_against_closure():
    # the one walk along the orbit forest, of a whole element and of a
    # list of points, for random groups and for stabilisers, whose
    # forests are over strong generators
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(4, 8)
        gens = random_group(rng, n, rng.randint(1, 3))
        G = PermGroup(gens, n)
        H = G.stabilizer(rng.randrange(n))
        for K in (G, H):
            elems = closure(K.gens, n) if K.gens else {tuple(range(n))}
            for x in range(n):
                orb = {g[x] for g in elems}
                assert int(K.orbit_min[x]) == min(orb)
                t = K.walk(x, identity(n))
                assert t.dtype == np.int32
                assert int(t[x]) == min(orb)
                assert tuple(int(v) for v in t) in elems
                pts = np.array(rng.sample(range(n), rng.randint(0, n)), dtype=np.intp)
                assert K.walk(x, pts).tolist() == t[pts].tolist()


def test_trace_rows_match_walk():
    # the batched walk of canonical_children against the single walk,
    # row by row
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 12)
        G = PermGroup(random_group(rng, n, rng.randint(1, 3)), n)
        for K in (G, G.stabilizer(rng.randrange(n))):
            starts = np.array([rng.randrange(n) for _ in range(2 * n)])
            rows = np.array([rng.sample(range(n), min(n, 3)) for _ in starts], dtype=np.int32)
            moved = K._trace_rows(starts, rows)
            for x, row, got in zip(starts.tolist(), rows, moved):
                assert got.tolist() == K.walk(x, row).tolist()


def test_min_image_against_brute_force():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(4, 7)
        gens = random_group(rng, n)
        G = PermGroup(gens, n)
        elems = closure(gens, n)
        k = rng.randint(1, n - 1)
        pts = tuple(sorted(rng.sample(range(n), k)))
        want = brute_min_image(elems, pts)
        assert min_image(G, pts) == want
        assert is_min_image(G, pts) == (pts == want)
        # the canonical form is a fixed point of canonisation
        assert min_image(G, want) == want


def test_min_image_upper_cutoff():
    n = 6
    cyc = list(range(1, n)) + [0]
    swap = [1, 0] + list(range(2, n))
    G = PermGroup([cyc, swap], n)
    pts = (2, 4)
    # under S_6 the minimum of any 2-set is (0, 1)
    assert min_image(G, pts) == (0, 1)
    # upper acts as an early-abort bound: None once the minimum is
    # proven strictly below it, the minimum itself when it is not
    assert min_image(G, pts, upper=(0, 1)) == (0, 1)
    assert min_image(G, pts, upper=(1, 2)) is None


def test_min_image_builds_no_stabiliser_for_the_last_point(monkeypatch):
    built = []

    def spy(self, point, stabilizer=PermGroup.stabilizer):
        built.append((self, point))
        return stabilizer(self, point)

    monkeypatch.setattr(PermGroup, "stabilizer", spy)
    n = 6
    cyc = list(range(1, n)) + [0]
    G = PermGroup([cyc], n)
    assert min_image(G, (2,)) == (0,)
    assert built == []
    # (1, 3) -> (0, 2) fixes 0 first; 2 is the last point
    assert min_image(G, (1, 3)) == (0, 2)
    assert built == [(G, 0)]
    # the prefix (0,) is walked again without a new stabiliser
    assert min_image(G, (2, 5)) == (0, 3)
    assert is_min_image(G, (0, 3))
    assert built == [(G, 0)]


def test_canonical_children_against_oracles():
    # every child of every canonical set, by orderly generation, against
    # is_min_image and the minimum over the brute-force closure
    rng = random.Random(7)
    children = accepted = 0
    for _ in range(40):
        n = rng.randint(3, 10)
        gens = random_small_group(rng, n)
        G = PermGroup(gens, n)
        elems = closure(gens, n)
        assert G.order() == len(elems)
        todo = [[]]
        while todo:
            s = todo.pop()
            xs = list(range(s[-1] + 1 if s else 0, n))
            got = node_children(prefix_chain(G, s), s, xs)
            want = [is_min_image(G, s + [x]) for x in xs]
            brute = [brute_min_image(elems, s + [x]) == tuple(s + [x]) for x in xs]
            assert got.tolist() == want == brute, (gens, s)
            todo += [s + [x] for x, ok in zip(xs, want) if ok]
            children += len(xs)
            accepted += sum(want)
    assert accepted > 500 and children - accepted > 500


def test_canonical_children_batches_nodes():
    # all children of all canonical sets of one size in one call, against
    # is_min_image: the nodes' chains share non-trivial prefix
    # stabilisers, and at some depth some nodes' stabiliser is trivial
    # while others' is not
    rng = random.Random(11)
    mixed = children = accepted = 0
    for _ in range(30):
        n = rng.randint(5, 10)
        G = PermGroup(random_small_group(rng, n), n)
        level = [[]]
        for m in range(n - 1):
            chains = [prefix_chain(G, s) for s in level]
            pairs = [(j, x) for j, s in enumerate(level) for x in range(s[-1] + 1 if s else 0, n)]
            if not pairs:
                break
            node, xs = np.array(pairs).T
            got = canonical_children(chains, np.array(level).reshape(len(level), m), node, xs)
            want = [is_min_image(G, level[j] + [x]) for j, x in pairs]
            assert got.tolist() == want, (G.gens, m)
            mixed += any(len({c[d].order() == 1 for c in chains}) == 2 for d in range(m + 1))
            children += len(xs)
            accepted += sum(want)
            level = [level[j] + [x] for (j, x), ok in zip(pairs, want) if ok]
    assert mixed > 20 and accepted > 300 and children - accepted > 300
    with pytest.raises(ValueError):  # a chain short of the set's size
        canonical_children([[G]], [[0]], [0], [1])


def test_canonical_children_traces_each_image_once(monkeypatch):
    # the batch is a set per child: one candidate at a time, no (start,
    # row) pair reaches the forest twice
    traced = []

    def spy(self, starts, rows, trace=PermGroup._trace_rows):
        pairs = list(zip(starts.tolist(), map(tuple, rows.tolist())))
        assert len(set(pairs)) == len(pairs)
        traced.append(len(pairs))
        return trace(self, starts, rows)

    monkeypatch.setattr(PermGroup, "_trace_rows", spy)
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(4, 9)
        G = PermGroup(random_small_group(rng, n), n)
        todo = [[]]
        while todo:
            s = todo.pop()
            chain = prefix_chain(G, s)
            for x in range(s[-1] + 1 if s else 0, n):
                ok = node_children(chain, s, [x])
                assert ok.tolist() == [is_min_image(G, s + [x])]
                if ok[0]:
                    todo.append(s + [x])
    assert sum(traced) > 1000


def test_unique_rows_any_width():
    rng = np.random.default_rng(9)
    for width in (1, 3, 5, 8, 11):
        owner = rng.integers(0, 4, 400)
        rows = rng.integers(0, 3, (400, width)) * 1500
        got_owner, got_rows = permgroup._unique_rows(owner, rows)
        want = sorted(set(zip(owner.tolist(), map(tuple, rows.tolist()))))
        assert list(zip(got_owner.tolist(), map(tuple, got_rows.tolist()))) == want


def test_trivial_stabilisers_are_one_group():
    n = 5
    G = PermGroup([[1, 0, 2, 3, 4], [0, 1, 3, 2, 4]], n)
    T = G.stabilizer(0)
    assert T.order() == 2
    assert G.stabilizer(2).stabilizer(0) is T.stabilizer(2) is T.stabilizer(3)
    one = T.stabilizer(2)
    assert one.order() == 1 and one.gens == [] and one.stabilizer(4) is one
