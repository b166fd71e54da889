"""AS-axioms, the derived invariants, PDS/Kantor checks and filters."""
import json
import random
from itertools import combinations, permutations

import numpy as np

import pytest

from asq import asconfig
from asq.asconfig import (
    ASConfiguration,
    _cube_root,
    _validate,
    KantorFamily,
    check_as_axioms,
    check_kantor,
    check_pds,
    clique_size_qplus1,
    delta,
    enough_subgroups,
    extraspecial_quotient_exists,
    good_subgroups,
    kantor_from_as,
    lemma41_invariants,
    parse_config,
    save_config,
    structural_filter,
)
from asq.groups import (
    CocycleGroup,
    HeisenbergGroup,
    Subgroup,
    TableGroup,
    _prime_of,
    agemo,
    center,
    conjugation_table,
    cyclic,
    dihedral8,
    direct_product,
    elementary_abelian,
    enumerate_elem_abelian_subgroups,
    exponent,
    frattini,
    is_normal,
    order8_catalogue,
    order27_catalogue,
    product_set,
    quaternion8,
    quotient,
    subgroup_generate,
    table4_group,
)
from asq.cli import _hyperoval_config
from asq.search import _order_q_subgroups, brute_force_as_configs


@pytest.fixture(scope="module")
def heis_cfg():
    H = HeisenbergGroup(3)
    cfgs = brute_force_as_configs(H)
    assert cfgs
    return H, cfgs[0]


def test_axioms_on_known_config(heis_cfg):
    G, cfg = heis_cfg
    rep = check_as_axioms(G, cfg)
    assert rep["ok"] and rep["witness"] is None
    assert rep["as1_normal"] and rep["pairwise_trivial"] and rep["as2_triple"]


def test_axioms_reject_perturbation(heis_cfg):
    # swap the last member for an order-3 subgroup outside the family
    G, cfg = heis_cfg
    keys = {u.key() for u in cfg.subgroups}
    orders = G.element_orders()
    other = next(
        s for g in range(1, G.n) if orders[g] == 3
        for s in [subgroup_generate(G, [g])] if s.key() not in keys
    )
    bad = ASConfiguration(G, cfg.q, cfg.subgroups[:-1] + (other,))
    rep = check_as_axioms(G, bad)
    assert not rep["ok"] and rep["pairwise_trivial"] and not rep["as2_triple"]
    assert rep["witness"] == {"triple": [0, 1, 4]}


def test_axioms_pair_witness():
    # the pseudo-hyperoval with U_5 replaced by a subgroup sharing an
    # element with U_1 and one with U_3: the first failing pair is (1, 5)
    cfg = _hyperoval_config()
    G, subs = cfg.group, cfg.subgroups
    shared = subgroup_generate(G, [subs[1].elements[1], subs[3].elements[1]])
    rep = check_as_axioms(G, ASConfiguration(G, 4, subs[:5] + (shared,)))
    assert not rep["ok"] and not rep["pairwise_trivial"] and rep["as2_triple"]
    assert rep["witness"] == {"pair": [1, 5]}


def test_orientation_reduction(heis_cfg):
    # with pairwise trivial meets, U_iU_j cap U_k = 1 for one ordering
    # of {i,j,k} forces all six orderings
    G, cfg = heis_cfg
    subs = cfg.subgroups
    for i in range(len(subs)):
        for j in range(len(subs)):
            for k in range(len(subs)):
                if len({i, j, k}) < 3:
                    continue
                prod = set(product_set(G, subs[i].elements, subs[j].elements))
                assert prod & subs[k].element_set() == {0}, (i, j, k)


def test_lemma41_invariants(heis_cfg):
    G, cfg = heis_cfg
    rep = lemma41_invariants(G, cfg)
    assert rep["ok"], rep
    # D8 is the extension by the form x1 x2: (u, a) at index u + 4a,
    # centre {0, 4}, and the non-central involutions 1, 5 (u = e1) and
    # 2, 6 (u = e2).  With U_0 = <1> and U_2 = <2>, 1 and 2 do not
    # commute, so U_2^1 = <6> leaves U_0 U_2 = {0, 1, 2, 7}.
    D = dihedral8()
    subs = tuple(Subgroup(D, (0, x)) for x in (1, 5, 2, 6))
    rep = lemma41_invariants(D, ASConfiguration(D, 2, subs))
    assert not rep["conjugates_in_u0ui"] and not rep["ok"]
    assert rep["witness"] == {"conjugate": 1}


def unique_factorisation_oracle(G, subs):
    """Lemma 4.1 (v) by direct count over every j >= 1: the first
    [g, i, count] with g in U_0 U_j off U_0 and U_j, i >= 1 and i != j,
    and count != 1 products u_i u_k = g (u_k nontrivial, k != i), or
    None."""
    members = [u.element_set() for u in subs]
    for j in range(1, len(subs)):
        star = set(product_set(G, subs[0].elements, subs[j].elements))
        for g in sorted(star - members[0] - members[j]):
            for i in range(1, len(subs)):
                if i == j:
                    continue
                count = sum(G.mul[a, b] == g for a in subs[i].elements
                            for k, u in enumerate(subs) if k != i for b in u.elements[1:])
                if count != 1:
                    return [g, i, count]
    return None


def test_lemma41_factorisation_matches_direct_count(heis_cfg):
    # configurations with one or two members swapped for other subgroups
    # of order q, and every 4-tuple of distinct order-2 subgroups of C2^3
    H, cfg = heis_cfg
    rng = random.Random(5)
    cases = [(H, cfg.subgroups)]
    others = [subgroup_generate(H, [g]) for g in range(1, H.n) if H.element_orders()[g] == 3]
    for _ in range(40):
        subs = list(cfg.subgroups)
        for pos in rng.sample(range(len(subs)), rng.randint(1, 2)):
            subs[pos] = rng.choice(others)
        if len({u.elements for u in subs}) == len(subs):
            cases.append((H, tuple(subs)))
    C = elementary_abelian(3)
    cases += [(C, t) for t in permutations([Subgroup(C, (0, g)) for g in range(1, 8)], 4)]
    failing = witnessed = 0
    for G, subs in cases:
        want = unique_factorisation_oracle(G, subs)
        rep = lemma41_invariants(G, ASConfiguration(G, len(subs) - 2, subs))
        assert rep["unique_factorisation"] == (want is None), subs
        if "factorisation" in (rep["witness"] or {}):
            assert rep["witness"]["factorisation"] == want
            witnessed += 1
        failing += want is not None
    assert 0 < witnessed <= failing < len(cases)


def lemma41_oracle(G, cfg):
    """Lemma 4.1's six invariants element by element: product sets as
    Python sets, the factorisations g = u_i u_k counted one at a time,
    and |U_0 U_j U_k| as the length of a product set.  Same report keys,
    verdicts and witness as asconfig.lemma41_invariants."""
    _validate(G, cfg)
    q = cfg.q
    p = _prime_of(q)
    subs = cfg.subgroups
    members = [u.element_set() for u in subs]
    u0set = members[0]
    report = {"witness": None}
    report["phi_in_u0"] = frattini(G).element_set() <= u0set

    def elem_abelian(elems):
        orders = G.element_orders()
        if any(int(orders[g]) > p for g in elems):
            return False
        return all(G.mul[a, b] == G.mul[b, a] for a in elems for b in elems)

    report["ui_elementary_abelian"] = all(elem_abelian(u.elements) for u in subs[1:])

    stars = [set(product_set(G, subs[0].elements, u.elements)) for u in subs[1:]]
    conj_ok = True
    for u, star in zip(subs[1:], stars):
        inside = np.zeros(G.n, dtype=bool)
        inside[list(star)] = True
        kept = inside[conjugation_table(G, u.elements)].all(axis=1)
        if not kept.all():
            conj_ok = False
            report["witness"] = {"conjugate": int(np.argmin(kept))}
            break
    report["conjugates_in_u0ui"] = conj_ok

    cover = set()
    for star in stars:
        cover |= star
    report["cover"] = len(cover) == G.n

    unique_fact = True
    nsubs = len(subs)
    for j in range(1, nsubs):
        star = stars[j - 1]
        for g in sorted(star - u0set - members[j]):
            for i in range(1, nsubs):
                if i == j:
                    continue
                count = 0
                for ui in subs[i].elements:
                    rest = int(G.mul[G.inv[ui], g])  # u_i * rest = g
                    if rest == 0:
                        continue
                    for k in range(nsubs):
                        if k != i and rest in members[k]:
                            count += 1
                if count != 1:
                    unique_fact = False
                    report["witness"] = report["witness"] or {"factorisation": [g, i, count]}
                    break
            if not unique_fact:
                break
        if not unique_fact:
            break
    report["unique_factorisation"] = unique_fact

    triple_prod = True
    for j in range(1, nsubs):
        for k in range(j + 1, nsubs):
            if len(product_set(G, sorted(stars[j - 1]), subs[k].elements)) != G.n:
                triple_prod = False
                report["witness"] = report["witness"] or {"triple_product": [0, j, k]}
    report["triple_products"] = triple_prod

    report["ok"] = all(report[k] for k in (
        "phi_in_u0", "ui_elementary_abelian", "conjugates_in_u0ui", "cover",
        "unique_factorisation", "triple_products"))
    return report


def lemma41_corpus():
    """(G, cfg) pairs: the nine Heisenberg(3) configurations with random
    member swaps, every ordered 4-tuple of order-2 subgroups of each
    order-8 group and random ones of sets {1, g} in C8 and C4xC2, random
    5-tuples of order-3 subgroups at order 27, the pseudo-hyperoval with
    swaps among the order-4 subgroups of C2^6, and random 6-tuples of
    order-4 subgroups of C4^3, cyclic ones included."""
    rng = random.Random(41)
    cases = []

    def add(G, subs):
        if len({u.elements for u in subs}) == len(subs):
            cases.append((G, ASConfiguration(G, len(subs) - 2, tuple(subs))))

    def swaps(G, subs, pool, count):
        add(G, subs)
        for _ in range(count):
            subs2 = list(subs)
            for pos in rng.sample(range(len(subs2)), rng.randint(1, 2)):
                subs2[pos] = rng.choice(pool)
            add(G, subs2)

    H = HeisenbergGroup(3)
    for cfg in brute_force_as_configs(H):
        swaps(H, cfg.subgroups, _order_q_subgroups(H, 3), 60)
    for G in order8_catalogue():
        for subs in permutations(_order_q_subgroups(G, 2), 4):
            add(G, subs)
        # sets {1, g} that need not be subgroups: the only cases found
        # whose first failure is (vi)
        for _ in range(150 if G.name in ("C8", "C4xC2") else 0):
            add(G, [Subgroup(G, (0, g)) for g in rng.sample(range(1, 8), 4)])
    for G in order27_catalogue():
        pool = _order_q_subgroups(G, 3)
        for _ in range(150 if len(pool) >= 5 else 0):
            add(G, rng.sample(pool, 5))
    hyper = _hyperoval_config()
    swaps(hyper.group, hyper.subgroups, enumerate_elem_abelian_subgroups(hyper.group, 4), 200)
    C = direct_product(direct_product(cyclic(4), cyclic(4)), cyclic(4))
    pool = _order_q_subgroups(C, 4) + list(enumerate_elem_abelian_subgroups(C, 4))
    for _ in range(300):
        add(C, rng.sample(pool, 6))
    return cases


def test_lemma41_matches_oracle():
    # whole reports, witness and key order included, on configurations
    # that fail each of the six clauses
    cases = lemma41_corpus()
    fails = dict.fromkeys(["phi_in_u0", "ui_elementary_abelian", "conjugates_in_u0ui",
                           "cover", "unique_factorisation", "triple_products"], 0)
    witnesses = dict.fromkeys(["conjugate", "factorisation", "triple_product"], 0)
    for G, cfg in cases:
        want = lemma41_oracle(G, cfg)
        assert json.dumps(lemma41_invariants(G, cfg)) == json.dumps(want), cfg.subgroups
        for key in fails:
            fails[key] += not want[key]
        for key in want["witness"] or ():
            witnesses[key] += 1
    assert len(cases) >= 2000, len(cases)
    assert all(fails.values()) and all(witnesses.values()), (fails, witnesses)


def int_masks(subs):
    """Each member as a Python int with bit g set for each element g."""
    return [sum(1 << g for g in u.elements) for u in subs]


def int_product(G, a, b):
    """AB, for members a and b, as a Python-int mask."""
    return sum(1 << g for g in product_set(G, a.elements, b.elements))


def as_axioms_oracle(G, cfg):
    """check_as_axioms on Python-int masks: two sets meet trivially when
    a & b == 1, and a triple fails when U_i U_j & U_k != 1."""
    _validate(G, cfg)
    subs = cfg.subgroups
    masks, index = int_masks(subs), range(len(subs))
    pair = next(([i, j] for i, j in combinations(index, 2) if masks[i] & masks[j] != 1), None)
    triple = None
    if pair is None:
        triple = next(([i, j, k] for i, j, k in combinations(index, 3)
                       if int_product(G, subs[i], subs[j]) & masks[k] != 1), None)
    report = {
        "as1_normal": is_normal(G, subs[0]),
        "pairwise_trivial": pair is None,
        "as2_triple": triple is None,
        "witness": {"pair": pair} if pair else {"triple": triple} if triple else None,
    }
    report["ok"] = bool(
        report["as1_normal"] and report["pairwise_trivial"] and report["as2_triple"]
    )
    return report


def kantor_oracle(G, fam, s, t):
    """check_kantor on Python-int masks, with A lying in B when
    a & ~b == 0; K3 is scanned whatever K2 finds."""
    report = {"sizes": True, "k1": True, "k2": True, "k3": True, "witness": None}
    m = len(fam.F)
    f, star = int_masks(fam.F), int_masks(fam.Fstar)
    bad = next((i for i, (a, astar) in enumerate(zip(fam.F, fam.Fstar))
                if a.order != s or astar.order != s * t or f[i] & ~star[i]), None)
    if m != t + 1 or len(fam.Fstar) != t + 1:
        report["witness"] = {"family_size": m}
    elif bad is not None:
        report["witness"] = {"index": bad}
    if report["witness"] is not None:
        report["sizes"] = report["ok"] = False
        return report
    index = range(m)
    inside = [[j for j in index if not f[j] & ~a] for a in star]
    k1 = next(([i, js] for i, js in enumerate(inside) if js != [i]), None)
    k2 = next(([i, j] for i, j in permutations(index, 2) if star[i] & f[j] != 1), None)
    k3 = next(([i, j, k] for i, j, k in combinations(index, 3)
               if int_product(G, fam.F[i], fam.F[j]) & f[k] != 1), None)
    for key, wit in (("k1", k1), ("k2", k2), ("k3", k3)):
        report[key] = wit is None
        if wit is not None and report["witness"] is None:
            report["witness"] = {key: wit}
    report["ok"] = k1 is None and k2 is None and k3 is None
    return report


def test_as_axioms_matches_oracle():
    # whole reports, witness and key order included
    witnesses = dict.fromkeys(["pair", "triple"], 0)
    for G, cfg in lemma41_corpus():
        want = as_axioms_oracle(G, cfg)
        assert json.dumps(check_as_axioms(G, cfg)) == json.dumps(want), cfg.subgroups
        for key in want["witness"] or ():
            witnesses[key] += 1
    assert all(witnesses.values()), witnesses


def test_kantor_matches_oracle():
    # the family of each corpus entry whose members all have order q, at
    # its own parameters and at two wrong ones, which fail the sizes
    witnesses = dict.fromkeys(["family_size", "index", "k1", "k2", "k3"], 0)
    k2_and_k3 = 0
    for G, cfg in lemma41_corpus():
        if any(u.order != cfg.q for u in cfg.subgroups):
            continue
        fam = kantor_from_as(cfg)
        for s, t in ((cfg.q, cfg.q), (cfg.q - 1, cfg.q), (cfg.q, cfg.q + 1)):
            want = kantor_oracle(G, fam, s, t)
            assert json.dumps(check_kantor(G, fam, s, t)) == json.dumps(want), cfg.subgroups
            for key in want["witness"] or ():
                witnesses[key] += 1
            k2_and_k3 += not want["k2"] and not want["k3"]
    assert all(witnesses.values()) and k2_and_k3, (witnesses, k2_and_k3)


def test_delta_and_pds(heis_cfg):
    G, cfg = heis_cfg
    d = delta(cfg)
    # (q+2) subgroups of order q sharing only the identity
    assert len(d) == (cfg.q + 2) * (cfg.q - 1)
    assert all(int(G.inv[x]) in set(d) for x in d)
    lam, mu = check_pds(G, d)
    assert (lam, mu) == (cfg.q - 2, cfg.q + 2)


def test_pds_rejects_non_pds():
    G = cyclic(8)
    with pytest.raises(ValueError):
        check_pds(G, (1, 7, 2, 6))
    # neither lambda nor mu is defined when the set or its complement in
    # G minus the identity is empty
    for elems in ((), range(1, 8)):
        with pytest.raises(ValueError, match="complement"):
            check_pds(elementary_abelian(3), elems)


def test_kantor_family(heis_cfg):
    G, cfg = heis_cfg
    fam = kantor_from_as(cfg)
    assert len(fam.F) == cfg.q + 1
    rep = check_kantor(G, fam, cfg.q, cfg.q)
    assert rep["ok"], rep
    # wrong parameters must fail the size axioms
    assert not check_kantor(G, fam, cfg.q - 1, cfg.q + 1)["ok"]


def test_kantor_first_failures(heis_cfg):
    # perturbed Heisenberg(3) families with the sizes intact, failing
    # K1, K2 and K3 in turn; each report keeps its first failure
    G, cfg = heis_cfg
    u0, u1, u2, u3, u4 = cfg.subgroups
    fam = kantor_from_as(cfg)

    def report(F, Fstar):
        rep = check_kantor(G, KantorFamily(tuple(F), tuple(Fstar)), 3, 3)
        return [rep[k] for k in ("sizes", "k1", "k2", "k3", "ok")], rep["witness"]

    # K1: U_0 lies in every A*, so A*_0 = U_0 U_1 holds F_0 and F_1 (and
    # meets F_1, so K2 fails too)
    assert report((u1, u0, u3, u4), fam.Fstar) == (
        [True, False, False, True, False], {"k1": [0, [0, 1]]})
    # K2: A*_0 swaps an element of U_0 U_1 outside U_1 for one of U_2
    a = set(fam.Fstar[0].elements) - set(u1.elements)
    star0 = Subgroup(G, tuple(sorted(set(fam.Fstar[0].elements) - {min(a)}
                                     | {u2.elements[1]})))
    assert report(fam.F, (star0,) + fam.Fstar[1:]) == (
        [True, True, False, True, False], {"k2": [0, 1]})
    # K3: V, a fourth order-3 subgroup of U_0 U_1, meets U_0, U_1 and U_2
    # trivially but lies in U_0 U_1; each A* is its F plus six elements
    # outside every member of F
    u01 = set(product_set(G, u0.elements, u1.elements))
    v = next(subgroup_generate(G, [g]) for g in sorted(u01 - {0})
             if g not in u0.elements and g not in u1.elements)
    F = (u0, u1, u2, v)
    rest = sorted(set(range(G.n)) - set().union(*(f.elements for f in F)))[:6]
    Fstar = [Subgroup(G, tuple(sorted(set(f.elements) | set(rest)))) for f in F]
    assert report(F, Fstar) == ([True, True, True, False, False], {"k3": [0, 1, 3]})


def test_config_roundtrip(heis_cfg):
    G, cfg = heis_cfg
    cfg2 = parse_config(save_config(cfg), G)
    assert [u.elements for u in cfg2.subgroups] == [u.elements for u in cfg.subgroups]


def test_parse_config_errors(heis_cfg):
    G, _ = heis_cfg
    with pytest.raises(ValueError):
        parse_config("nope", G)
    with pytest.raises(ValueError):
        parse_config("q: 3\nU0: 1\n", G)  # wrong line count
    # semantic failure is deferred with validate=False
    text = "q: 3\n" + "\n".join(f"U{i}: 0" for i in range(5))
    cfg = parse_config(text, G, validate=False)
    with pytest.raises(ValueError):
        parse_config(text, G)
    assert cfg.q == 3


def test_structural_filter_passes_candidates():
    for ident in ("208a", "210b", "211p", "212m"):
        rep = structural_filter(table4_group(ident))
        assert rep.passed and rep.conditions["u0_candidate"] is True, (ident, rep)


def u0_conditions_oracle(G, u0):
    """Conditions (i)-(iii) of structural_filter's docstring at one
    candidate U_0, from element sets."""
    z, u0 = set(center(G).elements), set(u0)

    def elem_ab(S):
        return all(G.element_orders()[a] <= 2 and G.mul[a, b] == G.mul[b, a]
                   for a in S for b in S)

    exp4 = exponent(G) == 4
    squares = subgroup_generate(G, {int(G.mul[g, g]) for g in range(G.n)}).elements
    ok = True
    if u0 <= z:  # (i)
        u0_squares = subgroup_generate(G, {int(G.mul[g, g]) for g in u0}).elements
        ok = exp4 and u0 == z and u0_squares == squares == frattini(G).elements
    if not elem_ab(z):  # (ii)
        ok = ok and z <= u0
    if elem_ab(u0):  # (iii)
        ok = ok and exp4 and elem_ab(z) and not u0 <= z
    return ok


def test_structural_filter_u0_candidate():
    # |Phi| = 2 < q = 4: the candidate loop runs, and no U_0 of order q
    # above Phi meets (i)-(iii)
    G = CocycleGroup(5, (28, 30, 24, 13, 6))
    phi = frattini(G)
    assert phi.order == 2 and not structural_filter(G).conditions["u0_candidate"]
    above = {subgroup_generate(G, phi.gens + (g,)) for g in range(G.n)}
    above = [u for u in above if u.order == 4]
    assert above and not any(u0_conditions_oracle(G, u.elements) for u in above)
    # |Phi| = 4 = q forces U_0 = Phi; (i)-(iii) fail there too
    D, Q, C = dihedral8(), quaternion8(), order8_catalogue()[1]
    for G in (direct_product(D, C), direct_product(Q, C), direct_product(D, D),
              direct_product(Q, Q), direct_product(D, Q)):
        phi = frattini(G)
        assert G.n == 64 and phi.order == 4, G
        assert structural_filter(G).conditions["u0_candidate"] is False, G
        assert not u0_conditions_oracle(G, phi.elements), G


def test_structural_filter_negative_control():
    # D8 x C2^6 has an extraspecial image of order 8 and must fail
    D = direct_product(dihedral8(), elementary_abelian(6))
    rep = structural_filter(D)
    assert not rep.passed
    assert rep.conditions["no_extraspecial_image"] is False
    wit = extraspecial_quotient_exists(D)
    assert wit is not None and D.n // wit.order in (8, 32)


def test_structural_filter_abelian_fails():
    rep = structural_filter(elementary_abelian(9))
    assert not rep.passed and rep.conditions["nonabelian"] is False


def test_extraspecial_quotient_small():
    # D8 and Q8 are their own extraspecial images
    for G in (dihedral8(), quaternion8()):
        wit = extraspecial_quotient_exists(G)
        assert wit is not None and wit.order == 1
    assert extraspecial_quotient_exists(elementary_abelian(3)) is None


def test_enough_subgroups_and_clique():
    # C2^3 admits configurations at q = 2, D8 and Q8 do not
    C = elementary_abelian(3)
    assert enough_subgroups(C, 2) and clique_size_qplus1(C, 2)
    for G in (dihedral8(), quaternion8()):
        assert not enough_subgroups(G, 2)
        assert not clique_size_qplus1(G, 2)
        # built once per group, and shared by both predicates
        assert good_subgroups(G, 2) is good_subgroups(G, 2)


@pytest.mark.parametrize("ident", ["212m", "210b"])
def test_clique_stars_match_product_sets(ident, monkeypatch):
    # the stars Phi H come from one gather; the clique runs on the same
    # sorted list of distinct product sets as one product_set per H gives
    G = table4_group(ident)
    frat = frattini(G)
    want = sorted({product_set(G, frat.elements, s.elements) for s in good_subgroups(G, 8)})
    seen = []
    words = asconfig.membership_words
    monkeypatch.setattr(asconfig, "membership_words",
                        lambda rows, n: seen.append(rows) or words(rows, n))
    clique_size_qplus1(G, 8)
    assert [tuple(r) for r in seen[0].tolist()] == want


# ----------------------------------------------------------------------
# the filters on Subgroup objects, one at a time: the oracles of the
# family-row code


def elem_ab_oracle(G, elems):
    table = G.mul[np.ix_(elems, elems)]
    return bool((G.element_orders()[list(elems)] <= 2).all() and (table == table.T).all())


def good_subgroups_oracle(G, q):
    frat = frattini(G)
    subs = list(enumerate_elem_abelian_subgroups(G, q, avoid=[frat.elements]))
    zset = center(G).element_set()
    if zset.issuperset(frat.elements):
        return [s for s in subs if not zset.issuperset(s.elements)]
    return [s for s in subs if not is_normal(G, s)]


def enough_subgroups_oracle(G, q, subs):
    seen, classes = set(), 0
    for s in subs:
        if s.key() in seen:
            continue
        seen |= set(map(tuple, np.sort(conjugation_table(G, s.elements), axis=1).tolist()))
        classes += 1
        if classes >= q + 1:
            return True
    return False


def clique_oracle(G, q, subs):
    """Distinct products Phi H by product_set, adjacency by their meets
    (Phi H cap Phi K = Phi, counted by one float product of member
    rows), and a plain clique search over adjacency sets: (found, the
    number of distinct products)."""
    frat = frattini(G)
    stars = sorted({product_set(G, frat.elements, s.elements) for s in subs})
    member = np.zeros((len(stars), G.n), dtype=np.float32)
    for i, st in enumerate(stars):
        member[i, list(st)] = 1
    meets = member @ member.T
    adj = [set(np.flatnonzero(row == frat.order).tolist()) - {i} for i, row in enumerate(meets)]

    def extend(size, cand):
        if size == q + 1:
            return True
        return any(size + len(cand) >= q + 1 and extend(size + 1, {u for u in cand if u > v} & adj[v])
                   for v in sorted(cand))

    return len(subs) >= q + 1 and extend(0, set(range(len(stars)))), len(stars)


def u0_search_oracle(G):
    """structural_filter's U_0 search with a Subgroup and an np.isin
    preimage per candidate: (u0_candidate, candidates tested)."""
    q, frat = _cube_root(G.n), frattini(G)
    if G.is_abelian() or frat.order > q:
        return False, 0
    z = center(G)
    zset = z.element_set()
    if frat.order == q:
        flag = zset < frat.element_set()
        return flag and (not elem_ab_oracle(G, frat.elements) or exponent(G) == 4), 1
    Q, proj = quotient(G, frat)
    exp, z_elem_ab = exponent(G), elem_ab_oracle(G, z.elements)
    g2, fratset = agemo(G, 1).element_set(), frat.element_set()
    tested = 0
    for sub in list(enumerate_elem_abelian_subgroups(Q, q // frat.order)):
        tested += 1
        u0 = Subgroup(G, tuple(int(x) for x in np.nonzero(np.isin(proj, list(sub.elements)))[0]))
        u0set = u0.element_set()
        in_z = u0set <= zset
        flag = (not in_z) or (exp == 4 and u0set == zset)
        flag = flag and (z_elem_ab or zset <= u0set)
        if flag and elem_ab_oracle(G, u0.elements):
            flag = exp == 4 and z_elem_ab and not in_z
        if flag and in_z:
            sq = subgroup_generate(G, {int(G.mul[g, g]) for g in u0.elements})
            flag = sq.element_set() == g2 == fratset
        if flag:
            return True, tested
    return False, tested


def dihedral16():
    """r^a s^b at index a + 8b: Phi = <r^2> is not central."""
    b, a = np.divmod(np.arange(16), 8)
    sign = np.where(b[:, None] == 1, -1, 1)
    return TableGroup((a[:, None] + sign * a) % 8 + 8 * (b[:, None] ^ b), name="D16")


def filter_cases():
    """The four Table-4 groups, order-64 direct products (|Phi| = q =
    4, and Phi non-central in D16 x C2^2) and cocycle groups over F_2^5
    (|Phi| = 2 < q), and D8 and Q8."""
    out = [table4_group(ident) for ident in ("208a", "210b", "211p", "212m")]
    D, Q, C = dihedral8(), quaternion8(), order8_catalogue()[1]
    out += [direct_product(D, C), direct_product(Q, C), direct_product(D, D),
            direct_product(D, Q), direct_product(dihedral16(), elementary_abelian(2))]
    rng = random.Random(29)
    out += [CocycleGroup(5, (28, 30, 24, 13, 6))]
    out += [CocycleGroup(5, tuple(rng.randrange(32) >> i << i for i in range(5)))
            for _ in range(6)]
    return out + [dihedral8(), quaternion8()]


@pytest.mark.parametrize("G", filter_cases(), ids=lambda G: G.name or repr(G.form.coeff))
def test_filters_match_subgroup_oracles(G):
    q = _cube_root(G.n)
    rep = structural_filter(G)
    assert (rep.conditions["u0_candidate"], rep.counts["u0_candidates_tested"]) \
        == u0_search_oracle(G)
    if G.is_abelian():
        return
    want = good_subgroups_oracle(G, q)
    assert good_subgroups(G, q) == want
    assert enough_subgroups(G, q) == enough_subgroups_oracle(G, q, want)
    counts = {}
    found = clique_size_qplus1(G, q, counts=counts)
    fast = (found, counts.get("phi_products", len({product_set(G, frattini(G).elements,
                                                               s.elements) for s in want})))
    assert fast == clique_oracle(G, q, want)


def test_filter_oracle_cases_reach_every_branch():
    central = {True: 0, False: 0}
    branches = {"equal": 0, "below": 0}
    verdicts = set()
    for G in filter_cases():
        q, frat = _cube_root(G.n), frattini(G)
        central[set(frat.elements) <= set(center(G).elements)] += 1
        if frat.order == q:
            branches["equal"] += 1
        elif frat.order < q and not G.is_abelian():
            branches["below"] += 1
        verdicts.add(u0_search_oracle(G)[0])
    assert all(central.values()) and all(branches.values()) and verdicts == {True, False}
