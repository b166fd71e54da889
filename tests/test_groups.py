"""Group tables, subgroup machinery and the cocycle constructions."""
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from asq import groups
from asq.groups import (
    TABLE4_IDS,
    HeisenbergGroup,
    ProductMasks,
    Subgroup,
    SubgroupRows,
    agemo,
    center,
    centralizer,
    complements,
    cyclic,
    derived,
    dihedral8,
    direct_product,
    elementary_abelian,
    enumerate_elem_abelian_subgroups,
    exponent,
    frattini,
    is_normal,
    load_group,
    modular_c9_c3,
    order8_catalogue,
    order27_catalogue,
    product_set,
    quaternion8,
    quotient,
    save_group,
    subgroup_generate,
    table4_group,
)
from asq.search import _order_q_subgroups, lemma53_counts, lift_arc


# ----------------------------------------------------------------------
# element arithmetic one product at a time, for the oracles


def op(G, a, b):
    return int(G.mul[a, b])


def power(G, a, k):
    """a^k for k >= 0, by repeated squaring."""
    out, base = 0, a
    while k:
        if k & 1:
            out = op(G, out, base)
        base = op(G, base, base)
        k >>= 1
    return out


def conjugate(G, a, g):
    """g^{-1} a g"""
    return op(G, op(G, int(G.inv[g]), a), g)


def order_histogram(G):
    out = {}
    for o in G.element_orders().tolist():
        out[o] = out.get(o, 0) + 1
    return out


def abelian_type(G, elements):
    """Invariant factors of an abelian subgroup of prime-power order,
    recovered from the element-order histogram."""
    elems = list(elements)
    for a in elems:
        for b in elems:
            if G.mul[a, b] != G.mul[b, a]:
                raise ValueError("subgroup is not abelian")
    n = len(elems)
    if n == 1:
        return ()
    p = groups._prime_of(n)
    orders = G.element_orders()[elems]
    # counts[k] = number of x with x^{p^k} = 1; the number of cyclic
    # factors of order >= p^k is log_p(counts[k] / counts[k-1]).
    counts = [1]
    while counts[-1] < n:
        counts.append(int((orders <= p ** len(counts)).sum()))
    ranks = [round(np.log(counts[k] / counts[k - 1]) / np.log(p)) for k in range(1, len(counts))]
    factors = []
    for k, r in enumerate(ranks):
        nxt = ranks[k + 1] if k + 1 < len(ranks) else 0
        factors += [p ** (k + 1)] * (r - nxt)
    return tuple(sorted(factors, reverse=True))


def test_identity_and_inverses():
    for G in order8_catalogue() + order27_catalogue():
        assert op(G, 0, 3) == 3
        for g in range(G.n):
            assert op(G, g, int(G.inv[g])) == 0
        G.check_associativity()


def test_catalogues():
    o8 = order8_catalogue()
    o27 = order27_catalogue()
    assert len(o8) == 5 and all(G.n == 8 for G in o8)
    assert len(o27) == 5 and all(G.n == 27 for G in o27)
    # the five order-8 types are distinguished by element-order histograms
    # except Q8 vs C8... check pairwise non-isomorphism via (histogram,
    # abelianness) which does separate all five
    sigs = {(tuple(sorted(order_histogram(G).items())), G.is_abelian())
            for G in o8}
    assert len(sigs) == 5


def test_heisenberg_structure():
    H = HeisenbergGroup(3)
    assert H.n == 27 and not H.is_abelian() and exponent(H) == 3
    z = center(H)
    assert z.order == 3
    assert derived(H).elements == z.elements
    assert frattini(H).elements == z.elements


def test_subgroup_generate_and_normality():
    H = HeisenbergGroup(3)
    z = center(H)
    assert is_normal(H, z)
    one = subgroup_generate(H, [])
    assert one.elements == (0,)
    full = subgroup_generate(H, list(range(1, 5)))
    assert full.order in (3, 9, 27)


def test_product_set_sizes():
    H = HeisenbergGroup(3)
    z = center(H)
    a = subgroup_generate(H, [z.elements[1]])
    nonc = next(g for g in range(1, H.n) if g not in z)
    b = subgroup_generate(H, [nonc])
    ab = product_set(H, a.elements, b.elements)
    # |AB| = |A||B|/|A cap B|
    meet = set(a.elements) & set(b.elements)
    assert len(ab) == a.order * b.order // len(meet)


def test_quotient_and_complements():
    G = elementary_abelian(4)
    n = subgroup_generate(G, [1])
    Q, proj = quotient(G, n)
    assert Q.n == 8 and Q.is_abelian()
    comps = complements(Subgroup(G, tuple(range(16))), n)
    # hyperplanes of F_2^4 avoiding the vector 1: 15 - 7 = 8
    assert len(comps) == 8
    for c in comps:
        assert c.order == 8 and set(c.elements) & set(n.elements) == {0}


def test_direct_product():
    G = direct_product(dihedral8(), cyclic(2))
    assert G.n == 16 and not G.is_abelian()
    G.check_associativity()


def test_table1_fingerprints():
    # centres C2^3 / C4xC2 / C2 / C2, Frattini subgroup C2 throughout
    want = {
        "208a": (2, 2, 2),
        "210b": (4, 2),
        "211p": (2,),
        "212m": (2,),
    }
    for ident in TABLE4_IDS:
        G = table4_group(ident)
        assert G.n == 512
        z = center(G)
        assert abelian_type(G, z.elements) == want[ident], ident
        f = frattini(G)
        assert f.order == 2 and abelian_type(G, f.elements) == (2,), ident


def test_table4_rejects_unknown():
    with pytest.raises((KeyError, ValueError)):
        table4_group("999z")


def cocycle_mul_oracle(d, coeff):
    """Slow oracle for CocycleGroup.mul: f[v] = M v one row of M at a
    time, beta(u, v) = parity(u & f[v])."""
    nvec = 1 << d
    f = np.zeros(nvec, dtype=np.int64)
    for i in range(d):
        v = np.arange(nvec, dtype=np.int64)
        f |= (np.bitwise_count(v & coeff[i]).astype(np.int64) & 1) << i
    u = np.arange(nvec, dtype=np.int64)
    beta = np.bitwise_count(u[:, None] & f[None, :]).astype(np.int64) & 1
    x = np.arange(nvec << 1, dtype=np.int64)
    uu, aa = x & (nvec - 1), x >> d
    return (uu[:, None] ^ uu[None, :]) | ((aa[:, None] ^ aa[None, :] ^ beta[np.ix_(uu, uu)]) << d)


def test_cocycle_tables_match_oracle():
    rng = random.Random(20)
    cases = [table4_group(ident) for ident in TABLE4_IDS]
    for _ in range(40):
        d = rng.randrange(1, 7)
        cases.append(groups.CocycleGroup(d, tuple(rng.randrange(1 << d) for _ in range(d))))
    for G in cases:
        assert np.array_equal(G.mul, cocycle_mul_oracle(G.d, G.form.coeff)), G.name or G.form


def test_enumerate_elem_abelian():
    G = elementary_abelian(3)
    subs = enumerate_elem_abelian_subgroups(G, 4)
    # 2-dim subspaces of F_2^3: Gaussian coefficient [3 choose 2]_2 = 7
    assert len(subs) == 7
    # avoiding a single nonzero vector leaves the 2-spaces missing it:
    # 7 - [2 choose 1]_2 = 4
    fewer = enumerate_elem_abelian_subgroups(G, 4, avoid=[(0, 1)])
    assert len(fewer) == 4


def test_centralizer_quaternion():
    Q = quaternion8()
    z = center(Q)
    assert z.order == 2
    for g in range(Q.n):
        c = centralizer(Q, [g])
        assert c.order in (4, 8)
        assert set(z.elements) <= set(c.elements)


def test_modular_c9_c3():
    G = modular_c9_c3()
    assert G.n == 27 and not G.is_abelian() and exponent(G) == 9


def test_save_load_roundtrip():
    for G in [HeisenbergGroup(3), dihedral8(), table4_group("211p")]:
        G2 = load_group(save_group(G))
        assert G2.n == G.n
        assert np.array_equal(np.asarray(G2.mul), np.asarray(G.mul))


def test_load_group_rejects_garbage():
    with pytest.raises(ValueError):
        load_group("nonsense\n")
    with pytest.raises(ValueError):
        load_group("kind: table\nn: 2\n0 1\n1 1\n")  # not a group


# ----------------------------------------------------------------------
# slow oracles for the whole-table structure passes and the enumeration

ORACLE_GROUPS = order8_catalogue() + order27_catalogue() + [elementary_abelian(4)]
ORACLE_TABLE4 = ("210b", "212m")


def elem_abelian_oracle(G, order, avoid=()):
    """Every subgroup generated by a set of commuting involutions outside
    the avoid sets, grown one involution at a time and deduplicated by
    element set; gens is the first sorted combination of its elements
    that generates it."""
    bad = set().union(*map(set, avoid)) - {0} if avoid else set()
    invol = [g for g in range(1, G.n) if power(G, g, 2) == 0 and g not in bad]
    commuting = {h: {0} | {x for x in invol if op(G, h, x) == op(G, x, h)} for h in invol}
    level = {frozenset([0])}
    while level and len(next(iter(level))) < order:
        grown = set()
        for elems in level:
            for h in invol:
                if h in elems or not elems <= commuting[h]:
                    continue
                new = elems | {op(G, e, h) for e in elems}
                if not new & bad:
                    grown.add(new)
        level = grown
    rank = order.bit_length() - 1
    out = []
    for elems in sorted(tuple(sorted(s)) for s in level):
        gens = next(c for c in itertools.combinations(elems[1:], rank)
                    if subgroup_generate(G, c).elements == elems)
        out.append((elems, gens))
    return out


def bitset(mask):
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def elem_abelian_recursive(G, order, avoid=()):
    """The depth-first enumerator that the level-wise one replaced: the
    same greedy-basis rule (E grows by a commuting involution h above
    the last generator that is the least element of hE), one coset at a
    time over Python-int bitsets, as (elements, gens) pairs."""
    bad = np.zeros(G.n, dtype=bool)
    for a in avoid:
        bad[np.asarray(a, dtype=np.intp)] = True
    bad[0] = False
    usable = (G.element_orders() == 2) & ~bad
    invol = np.flatnonzero(usable)
    sub = G.mul[np.ix_(invol, invol)]
    commuting = np.zeros((len(invol), G.n), dtype=bool)
    commuting[:, invol] = sub == sub.T
    peers = {int(h): bitset(row) for h, row in zip(invol, commuting)}
    rows = {h: G.mul[h].tolist() for h in peers}
    badbits = bitset(bad)
    found = []

    def extend(elems, ebits, gens, pool):
        if len(elems) == order:
            found.append((tuple(sorted(elems)), gens))
            return
        above = gens[-1] + 1 if gens else 1
        cand = (pool >> above << above) & ~ebits
        while cand:
            low = cand & -cand
            cand ^= low
            h = low.bit_length() - 1
            coset = [rows[h][e] for e in elems]
            cbits = 0
            for x in coset:
                cbits |= 1 << x
            cand &= ~cbits  # the rest of hE has the same least element
            if min(coset) == h and not cbits & badbits:
                extend(elems + coset, ebits | cbits, gens + (h,), pool & peers[h])

    extend([0], 1, (), bitset(usable))
    return sorted(found)


def avoid_sets(G):
    yield ()
    if G.n % 2 == 0 and G.n > 2:
        yield [center(G).elements]
        yield [frattini(G).elements, (0, G.n - 1)]


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda G: G.name)
def test_enumerate_elem_abelian_matches_oracle(G):
    for order in (1, 2, 4, 8, 16):
        for avoid in avoid_sets(G):
            got = [(s.elements, s.gens)
                   for s in enumerate_elem_abelian_subgroups(G, order, avoid=avoid)]
            assert got == elem_abelian_oracle(G, order, avoid), (order, avoid)


@pytest.mark.parametrize("ident", ORACLE_TABLE4)
def test_enumerate_elem_abelian_matches_oracle_table4(ident):
    G = table4_group(ident)
    avoid = [frattini(G).elements]
    for order in (2, 4):
        got = [(s.elements, s.gens) for s in enumerate_elem_abelian_subgroups(G, order)]
        assert got == elem_abelian_oracle(G, order), order
    got = [(s.elements, s.gens)
           for s in enumerate_elem_abelian_subgroups(G, 8, avoid=avoid)]
    assert got == elem_abelian_oracle(G, 8, avoid)


@pytest.mark.parametrize("ident, order, avoid", [
    ("210b", 8, center), ("210b", 8, frattini),
    ("212m", 8, center), ("212m", 8, frattini),
    ("211p", 16, frattini),
])
def test_enumerate_elem_abelian_matches_recursive(ident, order, avoid):
    G = table4_group(ident)
    avoid = [avoid(G).elements]
    got = [(s.elements, s.gens)
           for s in enumerate_elem_abelian_subgroups(G, order, avoid=avoid)]
    assert got == elem_abelian_recursive(G, order, avoid)


def test_enumerate_elem_abelian_blocks_agree(monkeypatch):
    # a block of one coset entry takes one parent at a time
    G = table4_group("212m")
    avoid = [frattini(G).elements]
    want = enumerate_elem_abelian_subgroups(G, 4, avoid=avoid)
    monkeypatch.setattr(groups, "_CELLS", 1)
    assert enumerate_elem_abelian_subgroups(G, 4, avoid=avoid) == want


def test_enumerate_elem_abelian_memory_guard():
    # the 8640 returned subgroups take about 0.2 MB traced as one family
    # (2.4 MB as Subgroup tuples) and the level arrays about 1.4 MB more
    # at their peak
    G = table4_group("210b")
    avoid = [center(G).elements]
    G.element_orders()
    tracemalloc.start()
    try:
        assert len(enumerate_elem_abelian_subgroups(G, 8, avoid=avoid)) == 8640
        assert tracemalloc.get_traced_memory()[1] <= 4e6
    finally:
        tracemalloc.stop()


def family_cases():
    """(G, order, avoid): the Table-4 groups at orders 4 and 8 avoiding
    Phi(G) (good_subgroups) or Z(G) (lemma 5.3), and an order-64 group
    at orders 2, 4 and 8 with the avoid sets of the oracle tests."""
    for ident in TABLE4_IDS:
        G = table4_group(ident)
        for order in (4, 8):
            for avoid in (frattini, center):
                yield G, order, [avoid(G).elements]
    G = direct_product(dihedral8(), elementary_abelian(3))
    for order in (2, 4, 8):
        for avoid in avoid_sets(G):
            yield G, order, avoid


def test_family_matches_subgroup_list():
    # the family's items, built one at a time, and its selections are the
    # Subgroup list the enumeration used to return (the depth-first
    # enumerator's (elements, gens) pairs); ProductMasks.fits reads the
    # family's rows as it reads the list's packed rows
    rng = np.random.default_rng(29)
    for G, order, avoid in family_cases():
        fam = enumerate_elem_abelian_subgroups(G, order, avoid=avoid)
        want = [Subgroup(G, e, g) for e, g in elem_abelian_recursive(G, order, avoid)]
        assert isinstance(fam, SubgroupRows) and len(fam) == len(want)
        assert fam.elements.shape == (len(want), order)
        assert fam.gens.shape == (len(want), order.bit_length() - 1)
        assert list(fam) == want and fam == want
        if not want:  # every order-4 or -8 subgroup of D8 x C2^3 meets Z(G)
            continue
        at = rng.integers(-len(want), len(want), 50)
        assert [fam[int(i)] for i in at] == [want[i] for i in at]
        assert [fam[i] for i in at] == [want[i] for i in at]  # numpy ints
        mask = rng.random(len(want)) < 0.3
        assert fam[mask] == [w for w, keep in zip(want, mask) if keep]
        assert fam[5::7] == want[5::7] and fam[at] == [want[i] for i in at]
        assert fam[mask] == SubgroupRows(G, fam.elements[mask], fam.gens[mask])
        pm, slow = ProductMasks(G, fam), ProductMasks(G, want)
        assert pm.subs is fam and pm._rows is fam.elements
        for _ in range(3):
            xs = rng.integers(0, len(want), (20, 2))
            cs, cols = rng.integers(0, len(want), 20), rng.integers(0, len(want), (20, 30))
            assert np.array_equal(pm.fits(xs, cs, cols), slow.fits(xs, cs, cols))
            assert np.array_equal(pm.fits(xs[:, :1], cs, cols[0]), slow.fits(xs[:, :1], cs, cols[0]))


def test_family_selection_and_equality():
    G = elementary_abelian(3)
    fam = enumerate_elem_abelian_subgroups(G, 4)
    assert len(fam) == 7 and fam[0] == Subgroup(G, (0, 1, 2, 3), (1, 2))
    assert fam == enumerate_elem_abelian_subgroups(G, 4) and fam != fam[1:]
    assert fam != enumerate_elem_abelian_subgroups(elementary_abelian(3), 4)  # another parent
    assert len(fam[np.zeros(7, dtype=bool)]) == 0 and list(fam[:0]) == []
    assert fam[2:4] == [fam[2], fam[3]] and fam[-1] == list(fam)[-1]
    with pytest.raises(IndexError):
        fam[7]
    # without gens, items carry Subgroup's default gens ()
    bare = SubgroupRows(G, fam.elements, fam.elements[:, :0])
    assert bare.gens.shape == (7, 0) and bare[3] == Subgroup(G, fam[3].elements)


@pytest.mark.parametrize("G", [table4_group("210b"), HeisenbergGroup(3)], ids=lambda G: G.name)
def test_batched_products_match_product_set(G, monkeypatch):
    # fits() tests each subgroup against U_x U_c as product_set forms
    # it, with shared or per-row columns and in blocks of any size, and
    # as the Python-int masks of backtrack_oracle do
    rng = random.Random(5)
    subs = [subgroup_generate(G, rng.sample(range(1, G.n), rng.randint(1, 2)))
            for _ in range(40)]
    pm = ProductMasks(G, subs)
    masks = int_masks(subs)
    every = range(len(subs))
    for _ in range(5):
        i = rng.randrange(len(subs))
        js = rng.sample(every, 12)
        want = [[set(product_set(G, subs[i].elements, subs[j].elements)).isdisjoint(d.elements[1:])
                 for d in subs] for j in js]
        assert pm.fits([[i]] * 12, js, every).tolist() == want
        assert pm.fits([[i]] * 12, js, [every] * 12).tolist() == want
        with monkeypatch.context() as m:
            m.setattr(groups, "_BLOCK", 1)
            assert pm.fits([[i]] * 12, js, [every] * 12).tolist() == want
        for j, row in zip(js, want):
            assert [d & int_product(G, subs[i], subs[j]) == 1 for d in masks] == row


def int_masks(subs):
    """Each subgroup as a Python int with bit g set for each element g:
    two meet trivially when a & b == 1."""
    return [sum(1 << g for g in s.elements) for s in subs]


def int_product(G, a, b):
    """AB, for subgroups a and b, as a Python-int mask."""
    return sum(1 << g for g in product_set(G, a.elements, b.elements))


def backtrack_oracle(pm, cands, target, fixed=(), masks=None):
    """The recursive depth-first search that ProductMasks.backtrack runs
    a level at a time: the target-sized subsets of cands extending the
    fixed members to an AS2 family, in the order found, and the nodes.
    Python-int masks (int_masks(pm.subs) unless given), one product
    U_a U_b (a <= b) at a time."""
    masks = int_masks(pm.subs) if masks is None else masks
    products = {}

    def product(a, b):
        a, b = sorted((a, b))
        if (a, b) not in products:
            products[a, b] = int_product(pm.G, pm.subs[a], pm.subs[b])
        return products[a, b]

    found, nodes = [], 0

    def dfs(cur, pool):
        nonlocal nodes
        nodes += 1
        need = target - len(cur)
        if need == 0:
            found.append(cur)
            return
        for pos in range(len(pool) - need + 1):
            c = pool[pos]
            blocked = masks[c]
            for x in (*fixed, *cur):
                blocked |= product(x, c)
            rest = [d for d in pool[pos + 1:] if masks[d] & blocked == 1]
            if 1 < need and len(rest) < need - 1:
                nodes += 1  # the child could place nothing: visited, not expanded
            else:
                dfs(cur + (c,), rest)

    dfs((), list(cands))
    return found, nodes


@pytest.mark.parametrize("G", order8_catalogue() + order27_catalogue(), ids=lambda G: G.name)
def test_backtrack_matches_oracle(G):
    # one root with every order-q subgroup, at every target; then roots
    # fixing one member (the others above it that meet it trivially),
    # and fixing U_0 beside it, in one call
    subs = _order_q_subgroups(G, round(G.n ** (1 / 3)))
    pm = ProductMasks(G, subs)
    every = range(len(subs))
    for target in range(len(subs) + 2):
        assert pm.backtrack([((), every)], target) == [backtrack_oracle(pm, every, target)]
    meets = [[j for j in every if j > i and set(subs[i].elements) & set(subs[j].elements) == {0}]
             for i in every]
    for target in (1, 2, 3):
        for base in ((), (0,)):
            roots = [((*base, i), js) for i, js in enumerate(meets) if i not in base]
            got = pm.backtrack(roots, target)
            assert got == [backtrack_oracle(pm, js, target, fixed) for fixed, js in roots]


def test_backtrack_edge_cases():
    # target 0 places nothing; no candidates, or fewer than the target,
    # give the root alone; candidates that all meet give every child
    # the DFS tries and no grandchild
    G = table4_group("210b")
    subs = [s for s in enumerate_elem_abelian_subgroups(G, 4) if 1 in s.elements][:6]
    pm = ProductMasks(G, subs)
    assert pm.backtrack([((), range(6))], 0) == [([()], 1)]
    assert pm.backtrack([((), [])], 2) == [([], 1)]
    assert pm.backtrack([((), [0, 1])], 3) == [([], 1)]
    assert pm.backtrack([((), range(6))], 3) == [([], 5)] == [backtrack_oracle(pm, range(6), 3)]
    assert pm.backtrack([((), []), ((), [0, 1]), ((), range(6))], 2) == [([], 1), ([], 2), ([], 6)]
    assert pm.backtrack([], 2) == []


def test_backtrack_matches_oracle_on_208a_pools(deghyp_pipeline):
    cat, _, arcs = deghyp_pipeline
    G = table4_group("208a")
    families = 0
    for arc in arcs:
        pool, _ = lift_arc(G, [cat.planes[i] for i in arc.members])
        pm = ProductMasks(G, pool)
        for target in (2, 9):
            got = pm.backtrack([((), range(len(pool)))], target)
            assert got == [backtrack_oracle(pm, range(len(pool)), target)]
            families += len(got[0][0])
    assert families > 0  # the order of found families is compared too


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_backtrack_matches_oracle_on_lemma53_roots(seed, monkeypatch):
    # lemma53_counts makes one call with a root per third
    calls, backtrack = [], ProductMasks.backtrack

    def record(self, roots, target):
        calls.append((self, roots, target, backtrack(self, roots, target)))
        return calls[-1][-1]

    monkeypatch.setattr(ProductMasks, "backtrack", record)
    lemma53_counts(table4_group("210b"), random.Random(seed))
    [(pm, roots, target, got)] = calls
    assert len(roots) == 672
    masks = int_masks(pm.subs)  # once for the 672 roots
    assert got == [backtrack_oracle(pm, js, target, fixed, masks) for fixed, js in roots]


def commutator(G, a, b):
    """a^{-1} b^{-1} a b, one product at a time."""
    return op(G, op(G, int(G.inv[a]), int(G.inv[b])), op(G, a, b))


def structure_oracle(G):
    n = G.n
    p = groups._prime_of(n)
    comms = {commutator(G, a, b) for a in range(n) for b in range(n)}
    powers = {power(G, g, p) for g in range(n)}
    return {
        "frattini": subgroup_generate(G, powers | comms).elements,
        "derived": subgroup_generate(G, comms).elements,
        "center": tuple(g for g in range(n)
                        if all(op(G, g, x) == op(G, x, g) for x in range(n))),
        "agemo": subgroup_generate(G, powers).elements,
        "agemo2": subgroup_generate(G, {power(G, g, p * p) for g in range(n)}).elements,
    }


def normal_oracle(G, H):
    hs = H.element_set()
    return all(conjugate(G, h, g) in hs for h in H.elements for g in range(G.n))


def centralizer_oracle(G, S):
    return tuple(g for g in range(G.n) if all(op(G, g, s) == op(G, s, g) for s in S))


@pytest.mark.parametrize("G", ORACLE_GROUPS + [table4_group(i) for i in ORACLE_TABLE4],
                         ids=lambda G: G.name)
def test_structure_matches_oracle(G):
    want = structure_oracle(G)
    got = {
        "frattini": frattini(G).elements,
        "derived": derived(G).elements,
        "center": center(G).elements,
        "agemo": agemo(G, 1).elements,
        "agemo2": agemo(G, 2).elements,
    }
    assert got == want
    assert list(G.commutators()) == sorted(
        {commutator(G, a, b) for a in range(G.n) for b in range(G.n)})
    for k in (0, 1, 2, 3, 4, 9):
        assert list(G.powers(k)) == sorted({power(G, g, k) for g in range(G.n)})
    assert list(G.element_orders()) == [
        next(k for k in range(1, G.n + 1) if power(G, g, k) == 0) for g in range(G.n)]
    rng = random.Random(G.n)
    S = rng.sample(range(G.n), 3)
    assert list(G.commutators(S)) == sorted(
        {commutator(G, a, b) for a in S for b in range(G.n)})
    subs = [center(G), frattini(G), derived(G), Subgroup(G, tuple(range(G.n)))]
    subs += [subgroup_generate(G, rng.sample(range(G.n), k)) for k in (1, 1, 2, 2, 3)]
    for H in subs:
        assert is_normal(G, H) == normal_oracle(G, H), H
        # gens-free copies take the element path
        assert is_normal(G, Subgroup(G, H.elements)) == normal_oracle(G, H), H
    for k in (0, 1, 2, 3, 5):
        S = rng.sample(range(G.n), k)
        assert centralizer(G, S).elements == centralizer_oracle(G, S), S


def test_structure_is_cached():
    G = table4_group("212m")
    assert frattini(G) is frattini(G)
    assert center(G) is center(G) and derived(G) is derived(G)
    assert G.commutators() is G.commutators() and G.powers(2) is G.powers(2)


def complements_oracle(H, N):
    """The sorted element tuples of every subgroup reached by adjoining
    increasing elements of H one at a time while the order stays at most
    |H|/2 and c stays out."""
    G = H.parent
    c, target = N.elements[1], H.order // 2
    found = set()

    def extend(sub):
        if sub.order == target:
            found.add(sub.elements)
            return
        for h in H.elements[1:]:
            if h > max(sub.gens, default=0) and h not in sub.element_set():
                new = subgroup_generate(G, sub.gens + (h,))
                if new.order <= target and c not in new.element_set():
                    extend(new)

    extend(Subgroup(G, (0,), ()))
    return sorted(found)


def test_complements_match_oracle():
    cases = []
    for G in [dihedral8(), quaternion8(), direct_product(dihedral8(), cyclic(2)),
              direct_product(quaternion8(), cyclic(2)), direct_product(cyclic(4), cyclic(4)),
              elementary_abelian(4)]:
        full = Subgroup(G, tuple(range(G.n)))
        cases += [(full, Subgroup(G, (0, c))) for c in center(G).elements
                  if G.element_orders()[c] == 2]
    G = table4_group("212m")
    c = frattini(G).elements[1]
    rng = random.Random(3)
    while len(cases) < 40:
        H = subgroup_generate(G, [c] + rng.sample(range(G.n), rng.randint(1, 3)))
        if H.order <= 32:
            cases.append((H, frattini(G)))
    sizes = set()
    for H, N in cases:
        got = [s.elements for s in complements(H, N)]
        assert got == complements_oracle(H, N), (H, N)
        sizes.add(len(got))
    assert 0 in sizes and len(sizes) >= 3  # with and without complements
