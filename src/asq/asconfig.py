"""AS-configuration and Kantor-family verification, partial difference
sets, and the structural filters that rule candidate groups in or out.

An AS-configuration in a group G of order q^3 is a tuple of subgroups
U_0, ..., U_{q+1} of order q with U_0 normal (AS1) and U_i U_j cap U_k
trivial for distinct i, j, k (AS2).  This module verifies those axioms,
derives the associated Kantor family and partial difference set, and
implements the group-theoretic filter predicates used to cut the
order-512 candidate list down to four groups.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._kernels import difference_counts, membership_words, pairwise_disjoint
from .groups import (
    FiniteGroup,
    ProductMasks,
    Subgroup,
    SubgroupRows,
    _generated,
    _prime_of,
    agemo,
    center,
    conjugation_table,
    derived,
    enumerate_elem_abelian_subgroups,
    exponent,
    frattini,
    index2_subgroups,
    is_normal,
    product_set,
    quotient,
    subgroup_generate,
)

__all__ = [
    "ASConfiguration",
    "KantorFamily",
    "FilterReport",
    "check_as_axioms",
    "delta",
    "check_pds",
    "kantor_from_as",
    "check_kantor",
    "lemma41_invariants",
    "structural_filter",
    "extraspecial_quotient_exists",
    "good_subgroups",
    "enough_subgroups",
    "clique_size_qplus1",
    "parse_config",
    "save_config",
]


@dataclass(frozen=True)
class ASConfiguration:
    """Subgroups U_0, ..., U_{q+1} of order q in a group of order q^3."""

    group: FiniteGroup
    q: int
    subgroups: Tuple[Subgroup, ...]

    @property
    def u0(self) -> Subgroup:
        return self.subgroups[0]

    def __repr__(self) -> str:
        return f"ASConfiguration(q={self.q}, |G|={self.group.n})"


@dataclass(frozen=True)
class KantorFamily:
    """(F, F*) with the containment pairing F[i] <= Fstar[i]."""

    F: Tuple[Subgroup, ...]
    Fstar: Tuple[Subgroup, ...]


def _validate(G: FiniteGroup, cfg: ASConfiguration) -> None:
    q = cfg.q
    if G.n != q**3:
        raise ValueError(f"group order {G.n} is not q^3 for q={q}")
    if len(cfg.subgroups) != q + 2:
        raise ValueError(f"expected q+2={q + 2} subgroups, got {len(cfg.subgroups)}")
    keys = set()
    for i, u in enumerate(cfg.subgroups):
        if u.order != q:
            raise ValueError(f"subgroup U{i} has order {u.order}, expected {q}")
        if u.key() in keys:
            raise ValueError(f"duplicate subgroup U{i}")
        keys.add(u.key())


def check_as_axioms(G: FiniteGroup, cfg: ASConfiguration) -> Dict[str, object]:
    """Verify (AS1) and (AS2): pairs, then unordered triples, by
    groups.ProductMasks.fits.  The witness is the first failure in
    index order.

    Once all pairwise intersections are trivial, one orientation per
    unordered triple suffices: u_i u_j = u_k with nontrivial factors
    rearranges to a nontrivial membership witness in every orientation.
    """
    _validate(G, cfg)
    subs = cfg.subgroups
    pm = ProductMasks(G, subs)
    m = len(subs)
    pair = _first(np.triu(~pm.fits(np.zeros((m, 0)), range(m), range(m)), 1))
    triple = _first_triple(pm) if pair is None else None
    report: Dict[str, object] = {
        "as1_normal": is_normal(G, subs[0]),
        "pairwise_trivial": pair is None,
        "as2_triple": triple is None,
        "witness": {"pair": pair} if pair else {"triple": triple} if triple else None,
    }
    report["ok"] = report["as1_normal"] and pair is None and triple is None
    return report


def _first_triple(pm: ProductMasks) -> Optional[List[int]]:
    """The first i < j < k in index order with U_i U_j cap U_k
    nontrivial, over the subgroups of pm, or None."""
    m = len(pm.subs)
    i, j = np.triu_indices(m, 1)
    hit = _first(~pm.fits(i[:, None], j, range(m)) & (np.arange(m) > j[:, None]))
    return None if hit is None else [int(i[hit[0]]), int(j[hit[0]]), hit[1]]


def delta(cfg: ASConfiguration) -> Tuple[int, ...]:
    """The union of the U_i minus the identity."""
    return tuple(sorted(set().union(*(u.elements for u in cfg.subgroups)) - {0}))


def check_pds(G: FiniteGroup, delta_elems: Sequence[int]) -> Tuple[int, int]:
    """Partial-difference-set check: counts of g = s t^{-1} over s, t in
    the set must be one constant on the set and another off it.

    Returns (lambda, mu); raises ValueError with a witness otherwise.
    """
    d = [int(x) for x in delta_elems]
    ds = set(d)
    if 0 in ds:
        raise ValueError("difference set contains the identity")
    if any(int(G.inv[x]) not in ds for x in d):
        raise ValueError("difference set is not inverse-closed")
    counts = difference_counts(G.mul, G.inv, np.asarray(d, dtype=np.int64)).tolist()
    const: Dict[bool, int] = {}  # the count on the set (True) and off it
    for g in range(1, G.n):
        want = const.setdefault(g in ds, counts[g])
        if counts[g] != want:
            raise ValueError(f"non-constant count {counts[g]} != {want} at element {g}")
    if len(const) < 2:
        raise ValueError("the set or its complement in G minus the identity is empty")
    return const[True], const[False]


def kantor_from_as(cfg: ASConfiguration) -> KantorFamily:
    """F = {U_i : i >= 1}, F* = {U_0 U_i : i >= 1}."""
    G, u0, F = cfg.group, cfg.subgroups[0], tuple(cfg.subgroups[1:])
    return KantorFamily(F, tuple(Subgroup(G, product_set(G, u0.elements, u.elements)) for u in F))


def check_kantor(G: FiniteGroup, fam: KantorFamily, s: int, t: int) -> Dict[str, object]:
    """Kantor-family axioms for an order-(s, t) coset geometry, on bool
    member rows over the group and, for K3, groups.ProductMasks.fits.
    Each witness is the first failure in index order, and the report
    keeps the first of sizes, K1, K2, K3.

    Each A lies in its A*, so K2 makes the members of F meet pairwise
    trivially and K3 needs one orientation per unordered triple, as in
    check_as_axioms; when K2 fails, ok is False whatever K3 finds."""
    report: Dict[str, object] = {"sizes": True, "k1": True, "k2": True, "k3": True,
                                 "witness": None}
    m = len(fam.F)
    f, star = np.zeros((2, m, G.n), dtype=bool)
    for i, (a, astar) in enumerate(zip(fam.F, fam.Fstar)):
        f[i, list(a.elements)] = star[i, list(astar.elements)] = True
    inside = ~(f[None] & ~star[:, None]).any(axis=2)  # [i, j]: F_j lies in A*_i
    bad = next((i for i, (a, astar) in enumerate(zip(fam.F, fam.Fstar))
                if a.order != s or astar.order != s * t or not inside[i, i]), None)
    if m != t + 1 or len(fam.Fstar) != t + 1:
        report["witness"] = {"family_size": m}
    elif bad is not None:
        report["witness"] = {"index": bad}
    if report["witness"] is not None:
        report["sizes"] = report["ok"] = False
        return report
    # K1: each A* contains exactly one member of F.
    k1 = _first(inside != np.eye(m, dtype=bool))
    if k1 is not None:
        k1 = [k1[0], np.flatnonzero(inside[k1[0]]).tolist()]
    # K2: A* meets every member of F outside it trivially.
    k2 = _first(((star[:, None] & f[None]) != (np.arange(G.n) == 0)).any(axis=2)
                & ~np.eye(m, dtype=bool))
    # K3: AB cap C trivial for distinct A, B, C in F.
    k3 = _first_triple(ProductMasks(G, fam.F))
    for key, wit in (("k1", k1), ("k2", k2), ("k3", k3)):
        report[key] = wit is None
        if wit is not None and report["witness"] is None:
            report["witness"] = {key: wit}
    report["ok"] = k1 is None and k2 is None and k3 is None
    return report


def lemma41_invariants(G: FiniteGroup, cfg: ASConfiguration) -> Dict[str, object]:
    """The six structural consequences of the AS axioms, read off the
    membership rows of the members U_i and of the products U_0 U_i.

    (i) Phi(G) <= U_0; (ii) each U_i (i > 0) elementary abelian;
    (iii) U_i^g <= U_0 U_i; (iv) the U_0 U_i cover G; (v) unique
    factorisation g = u_i u_k for g in U_0 U_j off U_0 and U_j;
    (vi) G = U_0 U_j U_k for 0 < j < k.  The witness is the first
    failure of (iii) by (i, g), else of (v) by (j, g, i), else of (vi)
    by (j, k).
    """
    _validate(G, cfg)
    subs, n, m = cfg.subgroups, G.n, cfg.q + 1
    elems = np.array([u.elements for u in subs], dtype=np.intp)
    rows = np.zeros((m + 1, n), dtype=bool)  # row i: U_i
    rows[np.arange(m + 1)[:, None], elems] = True
    stars = np.zeros((m, n), dtype=bool)  # row i - 1: U_0 U_i
    stars[np.arange(m)[:, None, None], G.mul[elems[0][:, None], elems[1:, None]]] = True

    # (iii): [i - 1, g] is set when U_i^g leaves U_0 U_i
    conj = conjugation_table(G, elems[1:].ravel()).reshape(n, m, -1)
    moved = _first(~stars[np.arange(m)[:, None], conj].all(axis=2).T)

    # (v): counts[i - 1, g] = #{u_i u_k = g : u_i in U_i, k != i, u_k in
    # U_k nontrivial}, which must be 1 for g in U_0 U_j off U_0 and U_j
    # and each i >= 1 other than j; bad[j - 1, g, i - 1] marks a failure.
    counts = np.zeros((m, n), dtype=np.int64)
    for i in range(1, m + 1):
        rest = np.delete(elems, i, axis=0)
        counts[i - 1] = np.bincount(G.mul[elems[i][:, None], rest[rest != 0]].ravel(),
                                    minlength=n)
    off = stars & ~rows[0] & ~rows[1:]
    bad = off[:, :, None] & (counts.T != 1) & ~np.eye(m, dtype=bool)[:, None, :]
    fact = _first(bad)

    # (vi): G = U_0 U_j U_k.  U_0 U_j is a subgroup meeting U_k trivially,
    # so the product has order q^3.  (For three positive indices the
    # middle product is not a subgroup and the count can genuinely drop:
    # at q = 3 every configuration gives |U_i U_j U_k| = 18, so the
    # clause is only sound with U_0 involved.)  g lies in U_0 U_j U_k
    # when g u^-1 lies in U_0 U_j for some u in U_k.
    right = G.mul[np.arange(n)[:, None, None], G.inv[elems[1:]]]  # [g, k - 1, b]
    short = _first(np.triu(~stars[:, right].any(axis=3).all(axis=1), 1))

    if moved:
        witness: Optional[Dict[str, object]] = {"conjugate": moved[1]}
    elif fact:
        j, g, i = fact
        witness = {"factorisation": [g, i + 1, int(counts[i, g])]}
    elif short:
        witness = {"triple_product": [0, short[0] + 1, short[1] + 1]}
    else:
        witness = None
    report: Dict[str, object] = {
        "witness": witness,
        "phi_in_u0": bool(rows[0][np.asarray(frattini(G).elements)].all()),
        "ui_elementary_abelian": all(_is_elem_abelian(G, u.elements, _prime_of(cfg.q))
                                     for u in subs[1:]),
        "conjugates_in_u0ui": moved is None,
        "cover": bool(stars.any(axis=0).all()),
        "unique_factorisation": fact is None,
        "triple_products": short is None,
    }
    report["ok"] = all(v for k, v in report.items() if k != "witness")
    return report


def _first(mask: np.ndarray) -> Optional[List[int]]:
    """The first set index of mask in C order, or None."""
    hit = np.argwhere(mask)
    return hit[0].tolist() if len(hit) else None


# ----------------------------------------------------------------------
# structural filters


@dataclass
class FilterReport:
    """Outcome of the candidate-group filter predicates."""

    passed: bool
    conditions: Dict[str, bool]
    notes: Dict[str, object] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)


def _cube_root(n: int) -> int:
    q = round(n ** (1 / 3))
    for cand in (q - 1, q, q + 1):
        if cand > 0 and cand**3 == n:
            return cand
    raise ValueError(f"group order {n} is not a cube")


def _is_elem_abelian(G: FiniteGroup, elems: Sequence[int], p: int) -> bool:
    e = np.asarray(elems, dtype=np.intp)
    table = G.mul[e[:, None], e]
    return bool((G.element_orders()[e] <= p).all() and (table == table.T).all())


def _cosets(proj: np.ndarray) -> np.ndarray:
    """Row c: the sorted elements that the projection maps to coset c."""
    return np.argsort(proj, kind="stable").reshape(int(proj.max()) + 1, -1)


def _lifted(G: FiniteGroup, N: Subgroup) -> Optional[Subgroup]:
    """extraspecial_quotient_exists on G/N, its witness's preimage in G."""
    Q, proj = quotient(G, N)
    wit = extraspecial_quotient_exists(Q)
    if wit is None:
        return None
    return Subgroup(G, tuple(np.sort(_cosets(proj)[np.asarray(wit.elements)], axis=None).tolist()))


def structural_filter(G: FiniteGroup) -> FilterReport:
    """The necessary conditions a group of order q^3 must satisfy to
    admit an AS-configuration, quantified over candidate subgroups
    U_0/Phi of the Frattini quotient.

    For odd q only the Frattini-size bound applies.  For 2-groups the
    conditions are: nonabelian; |Phi| <= q; some index-q candidate U_0
    containing Phi satisfies (i) U_0 <= Z(G) implies exponent 4 and
    U_0 = Z(G) with U_0^2 = G^2 = Phi(G); (ii) Z(G) not elementary
    abelian implies Z(G) <= U_0; (iii) U_0 elementary abelian implies
    exponent 4, Z(G) elementary abelian, U_0 not inside Z(G); and no
    extraspecial epimorphic image of order 8 or 32.  counts: the U_0
    tested, up to the first that passes.
    """
    q = _cube_root(G.n)
    p = _prime_of(G.n)
    conditions: Dict[str, bool] = {}
    notes: Dict[str, object] = {}
    counts = {"u0_candidates_tested": 0}
    frat = frattini(G)
    conditions["frattini_small"] = frat.order <= q
    if p != 2:
        return FilterReport(conditions["frattini_small"], conditions, notes, counts)

    conditions["nonabelian"] = not G.is_abelian()
    if not conditions["nonabelian"]:
        notes["abelian_bypass"] = True
    if not (conditions["nonabelian"] and conditions["frattini_small"]):
        conditions["u0_candidate"] = False
    elif frat.order == q:
        # U_0 is forced to be the Frattini subgroup itself (Phi <= U_0:
        # Lemma 4.1(i), clause (i) of lemma41_invariants).
        counts["u0_candidates_tested"] = 1
        # Z(G) < U_0 strictly: unsourced (see ROADMAP item 8)
        flag = center(G).element_set() < frat.element_set()
        conditions["u0_candidate"] = flag and (
            not _is_elem_abelian(G, frat.elements, 2) or exponent(G) == 4)
    else:
        # the candidates U_0 >= Phi (Lemma 4.1(i)), off one coset table
        Q, proj = quotient(G, frat)
        cosets = _cosets(proj)
        z = center(G)
        zset, exp, z_elem_ab = z.element_set(), exponent(G), _is_elem_abelian(G, z.elements, 2)
        g2, fratset = agemo(G, 1).element_set(), frat.element_set()
        conditions["u0_candidate"] = False
        for row in enumerate_elem_abelian_subgroups(Q, q // frat.order).elements:
            counts["u0_candidates_tested"] += 1
            u0 = np.sort(cosets[row], axis=None)
            u0set = frozenset(u0.tolist())
            in_z = u0set <= zset
            # (i)-(iii): the paper's result (i); PAPER.md names no lemma
            flag = (not in_z) or (exp == 4 and u0set == zset)  # (i)
            flag = flag and (z_elem_ab or zset <= u0set)  # (ii)
            if flag and _is_elem_abelian(G, u0, 2):  # (iii)
                flag = exp == 4 and z_elem_ab and not in_z
            if flag and in_z:  # (i): U_0^2 = G^2 = Phi
                sq = subgroup_generate(G, {int(G.mul[g, g]) for g in u0.tolist()})
                flag = sq.element_set() == g2 == fratset
            if flag:
                conditions["u0_candidate"] = True
                break

    wit = extraspecial_quotient_exists(G)
    conditions["no_extraspecial_image"] = wit is None
    if wit is not None:
        notes["extraspecial_kernel_order"] = wit.order
    return FilterReport(all(conditions.values()), conditions, notes, counts)


def _is_extraspecial(G: FiniteGroup) -> bool:
    z = center(G)
    return z.order == 2 and derived(G).elements == z.elements == frattini(G).elements


def extraspecial_quotient_exists(G: FiniteGroup) -> Optional[Subgroup]:
    """A normal subgroup N of index 8 or 32 with extraspecial quotient,
    or None.

    Every extraspecial image of order 8 or 32 has class 2 and exponent
    4, so it factors through G / <g^4, [[G,G],G]>; inside a class-2
    exponent-4 group with |G'| = 2, the kernel of such an image meets
    G' trivially, hence is central and of index 2 in Z(G).  Larger G'
    reduces to that case by quotienting an index-2 subgroup of G'.
    """
    if G.n < 8 or _prime_of(G.n) != 2:
        return None
    der = derived(G)
    if der.order == 1:
        return None
    K = _generated(G, G.powers(4), G.commutators(der.elements))
    if K.order > 1:
        return _lifted(G, K)
    # G now has class <= 2 and exponent <= 4.
    if der.order > 2:  # G' is central, so each M is normal
        return next(filter(None, (_lifted(G, M) for M in index2_subgroups(der))), None)
    c, z = der.elements[1], center(G)
    for index in (8, 32):
        # N central with N cap G' = 1 forces N of index 2 in Z(G) (N = 1
        # when G itself is extraspecial)
        if G.n % index or z.order != 2 * G.n // index:
            continue
        for N in index2_subgroups(z):
            if c not in N.elements and _is_extraspecial(quotient(G, N)[0]):
                return N
    return None


# ----------------------------------------------------------------------
# subgroup counting and the compatibility clique


def good_subgroups(G: FiniteGroup, q: int) -> SubgroupRows:
    """Non-normal subgroups of order q meeting Phi(G) trivially, as one
    family kept on G: a second call returns the same family.

    In a 2-group, H cap Phi = 1 forces H elementary abelian (squares
    and commutators land in Phi), so the elementary abelian enumeration
    is exhaustive.
    """
    key = ("good_subgroups", q)
    if key not in G._cache:
        frat = frattini(G)
        subs = enumerate_elem_abelian_subgroups(G, q, avoid=[frat.elements])
        in_z = np.zeros(G.n, dtype=bool)
        in_z[np.asarray(center(G).elements)] = True
        if in_z[np.asarray(frat.elements)].all():
            # Normal iff central: h^g = h [h, g] with [h, g] in G' <= Phi
            # central, and H cap Phi = 1 (standard; Phi(G) = G' G^2).
            G._cache[key] = subs[~in_z[subs.elements].all(axis=1)]
        else:
            G._cache[key] = subs[np.array([not is_normal(G, s) for s in subs], dtype=bool)]
    return G._cache[key]


def enough_subgroups(G: FiniteGroup, q: int) -> bool:
    """At least q+1 pairwise non-conjugate non-normal subgroups of
    order q meeting Phi(G) trivially (vacuously true for abelian G,
    which is settled separately)."""
    if G.is_abelian():
        return True
    seen, classes = set(), 0
    for row in good_subgroups(G, q).elements:
        if tuple(row.tolist()) in seen:
            continue
        seen |= set(map(tuple, np.sort(conjugation_table(G, row), axis=1).tolist()))
        classes += 1
        if classes >= q + 1:
            return True
    return False


def clique_size_qplus1(G: FiniteGroup, q: int, counts: Optional[dict] = None) -> bool:
    """Is there a set of q+1 good subgroups pairwise satisfying
    Phi cap HK = Phi cap KH = K cap Phi H = H cap Phi K = 1?

    All four conditions are equivalent to Phi H cap Phi K = Phi, which
    depends only on the products Phi H; subgroups sharing a product are
    never adjacent, so the search runs on the distinct products.  As H
    meets Phi trivially, the sorted row of products phi h is Phi H.
    counts, when given, gets phi_products: the distinct Phi H.
    """
    if G.is_abelian():
        return True
    subs = good_subgroups(G, q)
    if len(subs) < q + 1:
        return False
    frat = frattini(G)
    # Dedekind's modular law: Phi H cap Phi K = Phi (H cap Phi K), which
    # is Phi iff H cap Phi K = 1, as H cap Phi = 1; and so for the rest
    stars = G.mul[np.asarray(frat.elements)[:, None], subs.elements[:, None]]
    stars = stars.reshape(len(subs), -1)
    stars.sort(axis=1)
    stars = stars[np.lexsort(stars.T[::-1])]
    stars = stars[np.r_[True, (stars[1:] != stars[:-1]).any(axis=1)]]  # the distinct rows
    m = len(stars)
    if counts is not None:
        counts["phi_products"] = m
    adj = pairwise_disjoint(membership_words(stars, G.n), meet=frat.order)
    np.fill_diagonal(adj, False)

    def extend(clique_len: int, cand: np.ndarray) -> bool:
        if clique_len == q + 1:
            return True
        for v in np.nonzero(cand)[0]:  # bounded before each branch
            if clique_len + int(cand.sum()) < q + 1:
                return False
            nxt = cand & adj[v]
            nxt[: v + 1] = False
            if extend(clique_len + 1, nxt):
                return True
            cand[v] = False
        return False

    found = extend(0, np.ones(m, dtype=bool))
    del extend  # the closure refers to itself and to the (m, m) adjacency
    return found


# ----------------------------------------------------------------------
# configuration file format


def parse_config(text: str, G: FiniteGroup, validate: bool = True) -> ASConfiguration:
    """Line 1 'q: <n>', then q+2 lines 'U<i>: g1 g2 ...'.

    With validate=False only the syntax is enforced, so a caller can
    report semantic problems (wrong orders, duplicates) as verdicts
    rather than parse errors."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("q:"):
        raise ValueError("configuration file must start with 'q: <n>'")
    q = int(lines[0].split(":", 1)[1])
    body = lines[1:]
    if len(body) != q + 2:
        raise ValueError(f"expected {q + 2} subgroup lines, found {len(body)}")
    subs = []
    for i, ln in enumerate(body):
        label, _, rest = ln.partition(":")
        if label.strip() != f"U{i}":
            raise ValueError(f"line {i + 2}: expected label U{i}, got {label!r}")
        gens = [int(x) for x in rest.split()]
        subs.append(subgroup_generate(G, gens))
    cfg = ASConfiguration(G, q, tuple(subs))
    if validate:
        _validate(G, cfg)
    return cfg


def save_config(cfg: ASConfiguration) -> str:
    out = [f"q: {cfg.q}"]
    for i, u in enumerate(cfg.subgroups):
        gens = u.gens or u.elements[1:]
        out.append(f"U{i}: " + " ".join(str(g) for g in gens))
    return "\n".join(out) + "\n"
