"""Finite group arithmetic for orders up to 1024.

Every group carries a full multiplication table over element indices
0..n-1 with identity at 0.  Cocycle groups (central extensions of F_2^d
by F_2) encode the element (u, a) as the integer u | (a << d); Heisenberg
groups encode (a, b, c) over F_p as a*p^2 + b*p + c.  The built-in
groups of order 8 other than C8 are the cocycle groups over F_2^2.

Structure is computed once per group, by whole-table numpy passes, and
kept on the group: the element orders, the sorted distinct commutators
[a, b] and k-th powers g^k (never an n x n table), and the subgroups
frattini, center and derived return.  Repeated calls return the same
objects.

enumerate_elem_abelian_subgroups works one rank at a time on arrays:
the subgroups of a rank are element rows, and their children come from
blocked mul-table gathers; it returns them as a SubgroupRows family.
ProductMasks tests many subgroups (a family's rows as they stand, or a
list's, packed) against products of two at once, for lemma 5.3's pools
and fourths and for its level-wise backtrack, which is every group-level
search (asq.search), and for the AS2 and Kantor-family checks of
asq.asconfig.
"""
from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from ._kernels import bit_rows, xor_span
from .quadform import QuadraticForm

__all__ = [
    "FiniteGroup",
    "CocycleGroup",
    "HeisenbergGroup",
    "TableGroup",
    "Subgroup",
    "SubgroupRows",
    "subgroup_generate",
    "product_set",
    "ProductMasks",
    "is_normal",
    "centralizer",
    "conjugation_table",
    "index2_subgroups",
    "center",
    "derived",
    "agemo",
    "exponent",
    "frattini",
    "quotient",
    "direct_product",
    "complements",
    "enumerate_elem_abelian_subgroups",
    "table4_group",
    "TABLE4_IDS",
    "cyclic",
    "elementary_abelian",
    "dihedral8",
    "quaternion8",
    "modular_c9_c3",
    "order8_catalogue",
    "order27_catalogue",
    "load_group",
    "save_group",
]


class FiniteGroup:
    """Base: a finite group as a multiplication table with identity 0."""

    def __init__(self, mul: np.ndarray, name: str = ""):
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise ValueError("multiplication table must be square")
        self.n = n
        self.mul = np.ascontiguousarray(mul, dtype=np.int16 if n < 2**15 else np.int32)
        self.name = name
        ar = np.arange(n)
        if not (np.array_equal(self.mul[0], ar) and np.array_equal(self.mul[:, 0], ar)):
            raise ValueError("identity must be the element of index 0")
        inv = np.full(n, -1, dtype=self.mul.dtype)
        rows, cols = np.nonzero(self.mul == 0)
        inv[rows] = cols
        if np.any(inv < 0):
            raise ValueError("table has no inverses; not a group")
        self.inv = inv
        # structure computed once: see the module docstring
        self._cache: Dict[object, object] = {}

    def element_orders(self) -> np.ndarray:
        orders = self._cache.get("orders")
        if orders is None:
            ar = np.arange(self.n)
            orders = np.zeros(self.n, dtype=np.int32)
            x, k = ar, 1  # x[g] = g^k
            while True:
                orders[(x == 0) & (orders == 0)] = k
                if orders.all():
                    break
                x, k = self.mul[x, ar], k + 1
            self._cache["orders"] = orders
        return orders

    def commutators(self, of: Optional[Sequence[int]] = None) -> np.ndarray:
        """The sorted distinct commutators [a, b] for a in `of` and b in
        G, from one whole-table pass; `of` defaults to every element,
        and that set is cached."""
        if of is None:
            out = self._cache.get("commutators")
            if out is None:
                out = self._cache["commutators"] = self.commutators(range(self.n))
            return out
        a, m, inv = np.asarray(of, dtype=np.intp), self.mul, self.inv
        return _distinct(m[m[inv[a, None], inv[None, :]], m[a]], self.n)

    def powers(self, k: int) -> np.ndarray:
        """The sorted distinct k-th powers g^k (k >= 0) over all g, by
        repeated squaring of the whole element array."""
        key = ("powers", k)
        out = self._cache.get(key)
        if out is None:
            acc, base = np.zeros(self.n, dtype=np.intp), np.arange(self.n)
            e = k
            while e:
                if e & 1:
                    acc = self.mul[acc, base]
                base = self.mul[base, base]
                e >>= 1
            out = self._cache[key] = _distinct(acc, self.n)
        return out

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def check_associativity(self) -> None:
        """Full n^3 check; used on file import."""
        m = self.mul
        for a in range(self.n):
            if not np.array_equal(m[m[a]], m[a][m]):
                raise ValueError(f"associativity fails at element {a}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.n}{', ' + self.name if self.name else ''})"


class CocycleGroup(FiniteGroup):
    """Central extension of F_2^d by F_2 via beta(u, v) = u^T M v
    (M upper triangular): (u,a)(v,b) = (u+v, a+b+beta(u,v)).

    Squares and commutators recover the quadratic form Q(u) = beta(u,u)
    and its polarisation B."""

    def __init__(self, d: int, coeff: Tuple[int, ...], name: str = ""):
        if d > 9:
            raise ValueError("cocycle groups limited to order <= 1024")
        self.d = d
        self.form = QuadraticForm(d, coeff)
        nvec = 1 << d
        # xor_span(M)[u] = u^T M, so beta(u, v) = parity(xor_span(M)[u] & v)
        u = np.arange(nvec, dtype=np.int64)
        beta = np.bitwise_count(xor_span(self.form.coeff)[:, None] & u) & 1
        n = nvec << 1
        x = np.arange(n, dtype=np.int64)
        uu, aa = x & (nvec - 1), x >> d
        mul = (uu[:, None] ^ uu[None, :]) | (
            (aa[:, None] ^ aa[None, :] ^ beta[np.ix_(uu, uu)]) << d
        )
        super().__init__(mul, name=name)


def _distinct(values: np.ndarray, n: int) -> np.ndarray:
    """The sorted distinct entries of an array over 0..n-1, by a bool
    mask (np.unique costs a lazy set-up on its first call)."""
    mask = np.zeros(n, dtype=bool)
    mask[values.ravel()] = True
    return np.flatnonzero(mask)


class HeisenbergGroup(FiniteGroup):
    """Triples over F_p with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab')."""

    def __init__(self, p: int):
        self.p = p
        n = p**3
        x = np.arange(n)
        a, b, c = x // (p * p), (x // p) % p, x % p
        aa = (a[:, None] + a[None, :]) % p
        bb = (b[:, None] + b[None, :]) % p
        cc = (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p
        super().__init__(aa * p * p + bb * p + cc, name=f"Heisenberg({p})")


class TableGroup(FiniteGroup):
    """A generic small group given by its table."""


# ----------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a sorted element-index tuple of its parent group."""

    parent: FiniteGroup
    elements: Tuple[int, ...]
    gens: Tuple[int, ...] = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def key(self) -> Tuple[int, ...]:
        return self.elements

    def __contains__(self, g: int) -> bool:
        return g in self.element_set()

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, gens={list(self.gens)})"


class SubgroupRows(SequenceABC):
    """Subgroups of one group as arrays in its mul dtype: elements (k,
    order), rows sorted, and gens (k, rank), or (k, 0) for Subgroup's
    default ().  An int index builds one Subgroup; a slice, an index
    array or a bool mask selects a family."""

    def __init__(self, parent: FiniteGroup, elements: np.ndarray, gens: np.ndarray):
        self.parent, self.elements, self.gens = parent, elements, gens

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return Subgroup(self.parent, tuple(self.elements[i].tolist()),
                            tuple(self.gens[i].tolist()))
        return SubgroupRows(self.parent, self.elements[i], self.gens[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, SequenceABC) and list(self) == list(other)


def subgroup_generate(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    gens = tuple(int(g) for g in gens)
    for g in gens:
        if not 0 <= g < G.n:
            raise ValueError(f"element {g} outside group of order {G.n}")
    elems = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = int(G.mul[x, g])
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    # closure under the generating set on the right is the subgroup for
    # finite groups (inverses are powers)
    return Subgroup(G, tuple(sorted(elems)), gens)


def product_set(G: FiniteGroup, A: Sequence[int], B: Sequence[int]) -> Tuple[int, ...]:
    """The sorted element set AB."""
    prods = G.mul[np.asarray(A, dtype=np.intp)[:, None], np.asarray(B, dtype=np.intp)]
    return tuple(sorted(set(prods.ravel().tolist())))


# Bytes that one block of fit tests gathers.
_BLOCK = 1 << 19
# Triple rows a backtrack makes up front, not as its levels need them:
# this halves the small searches' time (at most 169 rows); 208a's pools
# (5184 rows, about 1790 needed) take 0.16 s up front, 0.11 s as needed.
_TRIPLES = 1 << 10


class ProductMasks:
    """Subgroups of one group, with the membership test (fits) and the
    one backtrack that test AS2 on them.  A list's element rows are
    padded with the identity, which every product holds anyway.

    Once the members of a family meet pairwise trivially, U_a U_b cap
    U_c = 1 holds for one orientation of a triple iff it holds for all:
    u_a u_b = u_c with nontrivial factors rearranges to a nontrivial
    membership witness in every orientation.  So the backtrack tests a
    triple once, when its last member d is placed: U_x U_c against d,
    for its newest member c and each fixed or earlier member x."""

    def __init__(self, G: FiniteGroup, subs: Sequence[Subgroup]):
        self.G = G
        if isinstance(subs, SubgroupRows):
            self.subs, self._rows = subs, subs.elements
            return
        self.subs = list(subs)
        sizes = np.array([s.order for s in self.subs], dtype=np.intp)
        self._rows = np.zeros((len(sizes), sizes.max(initial=1)), dtype=np.intp)
        self._rows[np.arange(self._rows.shape[1]) < sizes[:, None]] = np.fromiter(
            chain.from_iterable(s.elements for s in self.subs), np.intp, sizes.sum())

    def fits(self, xs, cs, cols) -> np.ndarray:
        """out[k, j]: subgroup cols[k, j] (cols[j] when cols is one row)
        meets U_c and U_x U_c trivially for c = cs[k] and every x in the
        row xs[k], all indices into subs.  Tests membership in bool rows
        over the group, which cost less than packing them, in blocks of
        about _BLOCK bytes."""
        xs, cs, cols = (np.asarray(a, dtype=np.intp) for a in (xs, cs, cols))
        rows, mul, n = self._rows, self.G.mul, self.G.n
        # each subgroup's other members, padded with the identity to whole
        # words of bytes: a word of the gathered bools is 0 iff none is hit
        pick = np.arange(1, (rows.shape[1] + 6) // 8 * 8 + 1)
        others = rows[:, np.where(pick < rows.shape[1], pick, 0)]
        out = np.empty((len(cs), cols.shape[-1]), dtype=bool)
        step = max(1, _BLOCK // (n + 9 * others.shape[1] * cols.shape[-1]))
        for lo in range(0, len(cs), step):
            c = rows[cs[lo:lo + step]]
            at = np.arange(len(c))[:, None]
            hit = np.zeros((len(c), n), dtype=bool)
            hit[at, c] = True
            for x in xs[lo:lo + step].T:
                hit[at, mul[rows[x][:, :, None], c[:, None, :]].reshape(len(c), -1)] = True
            hit[:, 0] = False
            if cols.ndim == 1:
                got = np.take(hit, others[cols].ravel(), axis=1)
            else:
                got = hit.ravel().take(others[cols[lo:lo + step]] + at[..., None] * n)
            got = got.reshape(len(c), out.shape[1], others.shape[1])
            out[lo:lo + step] = ~got.view(np.uint64).any(axis=2)
        return out

    def backtrack(self, roots: Sequence[Tuple[Sequence[int], Sequence[int]]], target: int
                  ) -> List[Tuple[List[Tuple[int, ...]], int]]:
        """For each root (fixed, cands), indices into subs: every
        target-sized subset of cands that extends the fixed members to a
        family satisfying AS2, lexicographic by candidate position, and
        the nodes visited.  The cands must meet their root's fixed
        members trivially; all roots fix as many.  Nodes count as in a
        depth-first search: one per root, and under a node whose pool
        holds p candidates and that needs k more, one for each of the
        first p - k + 1, whether or not its own pool can hold k - 1.

        A level's pools are word rows over candidate positions, and its
        children come from one np.nonzero.  A child's pool is its
        parent's after it, met with local, the candidates that fit it
        and the fixed members all roots share (one fits() over the
        union of the candidates), and with a triple row (the d with
        U_x U_c cap U_d = 1) for each other fixed or earlier member x."""
        R = len(roots)
        sizes = np.array([len(c) for _, c in roots], dtype=np.intp)
        m, S = int(sizes.max(initial=0)), len(self.subs)
        if target == 0 or target > m:  # no root has a child
            return [([()] if target == 0 else [], 1) for _ in roots]
        fixed = np.array([tuple(f) for f, _ in roots], dtype=np.intp).reshape(R, -1)
        cand = np.zeros((R, m), dtype=np.intp)
        cand[np.arange(m) < sizes[:, None]] = np.concatenate(
            [np.asarray(c, dtype=np.intp) for _, c in roots])
        union = _distinct(cand, S)
        slot = np.searchsorted(union, cand)
        shared = (fixed == fixed[0]).all(axis=0)
        pair = self.fits(np.tile(fixed[0, shared], (len(union), 1)), union, union)
        local = bit_rows(pair[slot[:, :, None], slot[:, None, :]])
        del pair, slot
        # triple row (r * span + x) * m + c, for slot x of root r: its
        # other fixed members, then its candidates
        e = int((~shared).sum())
        span, members = e + m, np.hstack([fixed[:, ~shared], cand])

        def triples(keys: np.ndarray) -> np.ndarray:
            r, x, c = keys // (span * m), keys // m % span, keys % m
            cols = cand[r] if R > 1 else cand[0]  # one root's: fits gathers them once
            return bit_rows(self.fits(members[r, x, None], cand[r, c], cols))

        keys = np.arange(R * span * m if R * span * m <= _TRIPLES else 0)
        rows = triples(keys)
        after = bit_rows(np.arange(m) > np.arange(m)[:, None])
        pool = bit_rows(np.arange(m) < sizes[:, None])
        nodes = np.ones(R, dtype=np.intp)
        root, fam = np.arange(R), np.tile(np.arange(e), (R, 1))  # fam holds slots
        for need in range(target, 0, -1):
            # every pool entry with need - 1 after it is a child
            bits = np.unpackbits(pool.view(np.uint8), axis=1, count=m, bitorder="little")
            par, pos = np.nonzero(bits & (np.cumsum(bits[:, ::-1], axis=1)[:, ::-1] >= need))
            root, fam = root[par], np.column_stack([fam[par], e + pos])
            nodes += np.bincount(root, minlength=R)
            if need == 1 or not len(root):
                break
            root, fam, pool = _fill(pool[par] & after[pos] & local[root, pos], need, root, fam)
            want = (root[:, None] * span + fam[:, :-1]) * m + fam[:, -1:] - e
            if len(keys) < R * span * m:  # make the rows first needed here
                new = np.sort(want, axis=None)
                new = new[np.diff(new, prepend=-1) != 0]
                new = new[np.append(keys, -1)[np.searchsorted(keys, new)] != new]
                at = np.searchsorted(keys, new)
                keys, rows = np.insert(keys, at, new), np.insert(rows, at, triples(new), axis=0)
            pool &= np.bitwise_and.reduce(rows[np.searchsorted(keys, want)], axis=1)
            root, fam, pool = _fill(pool, need, root, fam)
        found = [tuple(f) for f in members[root[:, None], fam[:, e:]].tolist()]
        ends = np.cumsum(np.bincount(root, minlength=R)).tolist()
        return [(found[lo:hi], n) for lo, hi, n in zip([0] + ends, ends, nodes.tolist())]


def _fill(pool: np.ndarray, need: int, root: np.ndarray, fam: np.ndarray):
    """root, fam and pool of the nodes whose pools hold need - 1."""
    live = np.bitwise_count(pool).sum(axis=1) >= need - 1
    return root[live], fam[live], pool[live]


def conjugation_table(G: FiniteGroup, elems: Sequence[int]) -> np.ndarray:
    """The (n, len(elems)) table of g^-1 h g, row g, column h."""
    m, hs = G.mul, np.asarray(elems, dtype=np.intp)
    return m[m[G.inv[:, None], hs[None, :]], np.arange(G.n)[:, None]]


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    """One pass over the conjugation table of the generators."""
    member = np.zeros(G.n, dtype=bool)
    member[np.asarray(H.elements, dtype=np.intp)] = True
    return bool(member[conjugation_table(G, H.gens or H.elements)].all())


def centralizer(G: FiniteGroup, S: Sequence[int]) -> Subgroup:
    s = np.asarray(S, dtype=np.intp)
    commutes = (G.mul[:, s] == G.mul[s, :].T).all(axis=1)
    return Subgroup(G, tuple(np.flatnonzero(commutes).tolist()))


def _cached_subgroup(G: FiniteGroup, key: str, make) -> Subgroup:
    sub = G._cache.get(key)
    if sub is None:
        sub = G._cache[key] = make()
    return sub


def _generated(G: FiniteGroup, *parts: np.ndarray) -> Subgroup:
    """The subgroup generated by the union of sorted element arrays."""
    gens = _distinct(np.concatenate(parts), G.n)
    return subgroup_generate(G, gens[gens != 0].tolist())


def center(G: FiniteGroup) -> Subgroup:
    def make() -> Subgroup:
        central = (G.mul == G.mul.T).all(axis=1)
        return Subgroup(G, tuple(np.flatnonzero(central).tolist()))
    return _cached_subgroup(G, "center", make)


def derived(G: FiniteGroup) -> Subgroup:
    return _cached_subgroup(G, "derived", lambda: _generated(G, G.commutators()))


def agemo(G: FiniteGroup, k: int = 1) -> Subgroup:
    """The subgroup generated by p^k-th powers (p from |G|)."""
    return _generated(G, G.powers(_prime_of(G.n) ** k))


def exponent(G: FiniteGroup) -> int:
    out = 1
    for o in G.element_orders():
        out = out * int(o) // gcd(out, int(o))
    return out


def frattini(G: FiniteGroup) -> Subgroup:
    """For p-groups: the closure of p-th powers and commutators."""
    return _cached_subgroup(
        G, "frattini", lambda: _generated(G, G.powers(_prime_of(G.n)), G.commutators()))


def _prime_of(n: int) -> int:
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            q = n
            while q % p == 0:
                q //= p
            if q == 1:
                return p
            raise ValueError(f"order {n} is not a prime power")
    raise ValueError(f"order {n} is not a small prime power")


def quotient(G: FiniteGroup, N: Subgroup) -> Tuple[TableGroup, np.ndarray]:
    """Quotient group and the element -> coset-index projection."""
    if not is_normal(G, N):
        raise ValueError("subgroup is not normal")
    nels = np.asarray(N.elements, dtype=np.intp)
    coset_min = np.min(G.mul[:, nels], axis=1)  # least element of gN
    reps = _distinct(coset_min, G.n)  # identity coset holds 0, so reps[0] = 0
    proj = np.searchsorted(reps, coset_min).astype(np.int32)
    Q = TableGroup(proj[G.mul[np.ix_(reps, reps)]], name=f"{G.name or 'G'}/{len(N.elements)}")
    return Q, proj


def direct_product(G: FiniteGroup, H: FiniteGroup) -> TableGroup:
    n, m = G.n, H.n
    a = np.arange(n * m)
    ga, ha = a // m, a % m
    table = G.mul[np.ix_(ga, ga)].astype(np.int64) * m + H.mul[np.ix_(ha, ha)]
    return TableGroup(table, name=f"{G.name or 'G'}x{H.name or 'H'}")


def index2_subgroups(H: Subgroup) -> List[Subgroup]:
    """The kernels of the nonzero characters of the elementary abelian
    quotient H / <h^2 : h in H>, i.e. the index-2 subgroups of H.  A
    character is a bit mask w over a greedy basis of the quotient (taken
    in element order), and the kernels come in the order of w."""
    G = H.parent
    elems = sorted(H.elements)
    squares = subgroup_generate(G, {int(G.mul[h, h]) for h in elems})
    # coord[h]: the image of h in H / <h^2> over the greedy basis
    coord = dict.fromkeys(squares.elements, 0)
    rank = 0
    for h in elems:
        if h not in coord:
            for x, v in list(coord.items()):
                coord[int(G.mul[x, h])] = v | 1 << rank
            rank += 1
    return [Subgroup(G, tuple(h for h in elems if (coord[h] & w).bit_count() % 2 == 0))
            for w in range(1, 1 << rank)]


def complements(H: Subgroup, N: Subgroup) -> List[Subgroup]:
    """All K <= H with K meeting N trivially and KN = H (N central of
    order 2 inside H), sorted by elements.

    Such a K has index 2 in H, so it is one of the index2_subgroups of
    H that avoid the generator c of N.  The slow oracle of search.lift_arc."""
    G = H.parent
    if N.order != 2 or not set(N.elements) <= set(H.elements):
        raise ValueError("N must have order 2 inside H")
    c = N.elements[1]
    if any(G.mul[c, h] != G.mul[h, c] for h in H.elements):
        raise ValueError("N must be central in H")
    return sorted((K for K in index2_subgroups(H) if c not in K.elements),
                  key=lambda s: s.elements)


# Coset entries (pairs times 2^rank) gathered per block of parents.  On
# 210b at order 8 avoiding Z(G) (2 cores), blocks of 2^13 to 2^17 entries
# take the same 0.06-0.09 s; the peak traced above the returned subgroups
# is 1.0 MB at 2^15 and 1.4 MB at 2^17 (2.0 MB on 212m avoiding Phi(G)).
_CELLS = 1 << 15


def enumerate_elem_abelian_subgroups(
    G: FiniteGroup, order: int, avoid: Sequence[Sequence[int]] = ()
) -> SubgroupRows:
    """All elementary abelian subgroups of the given 2-power order whose
    intersection with each avoid product-set is trivial, sorted by
    elements, as one family: gens holds each greedy basis.

    Each subgroup is built once, from its greedy basis: E grows by an
    involution h commuting with it only when h exceeds the last generator
    and is the least element of its coset hE.  Along such a path every
    coset of the final subgroup that a later step adds lies above that
    step's generator, so each generator is the least element outside the
    E before it: the path is the greedy basis, which is also the
    lexicographically first increasing basis.

    One rank is one level: element rows, gens and pools (the usable
    involutions above the last generator commuting with every generator,
    as bits over invol).  Per block of parents, one mul[h, E] gather forms
    the coset hE for every h in E's pool; min(hE) == h rules out h in E."""
    rank = order.bit_length() - 1
    if 1 << rank != order or order > 16:
        raise ValueError("order must be a 2-power <= 16")
    bad = np.zeros(G.n, dtype=bool)
    for a in avoid:
        bad[np.asarray(a, dtype=np.intp)] = True
    bad[0] = False
    invol = np.flatnonzero((G.element_orders() == 2) & ~bad).astype(G.mul.dtype)
    sub = G.mul[np.ix_(invol, invol)]
    # peers[j]: the involutions above invol[j] commuting with it
    peers = np.packbits(np.triu(sub == sub.T, k=1), axis=1, bitorder="little")
    elems = np.zeros((1, 1), dtype=G.mul.dtype)
    gens = np.zeros((1, 0), dtype=G.mul.dtype)
    pools = np.packbits(np.ones((1, len(invol)), dtype=bool), axis=1, bitorder="little")
    for k in range(rank):
        # blocks of parents with about _CELLS coset entries each
        cells = np.cumsum(np.bitwise_count(pools).sum(axis=1, dtype=np.intp)) << k
        parts = []
        for block in np.split(np.arange(len(elems)), np.flatnonzero(np.diff(cells // _CELLS)) + 1):
            # (parent, involution) pairs, unpacked one nonzero byte at a time
            par, byte = np.nonzero(pools[block])
            bits = np.unpackbits(pools[block[par], byte, None], axis=1, bitorder="little")
            at, bit = np.nonzero(bits)
            par, j = block[par[at]], byte[at] * 8 + bit
            h = invol[j]
            coset = G.mul[h[:, None], elems[par]]  # h commutes with E: eh = he
            keep = (coset.min(axis=1) == h) & ~bad[coset].any(axis=1)
            par, j = par[keep], j[keep]
            parts.append((np.hstack([elems[par], coset[keep]]),
                          np.hstack([gens[par], h[keep, None]]),
                          pools[par] & peers[j]))
        elems, gens, pools = (np.concatenate(p) for p in zip(*parts))
        del parts  # the blocks would double the level
    elems.sort(axis=1)
    first = np.lexsort(elems.T[::-1])
    return SubgroupRows(G, elems[first], gens[first])


# ----------------------------------------------------------------------
# built-in groups


def cyclic(n: int) -> TableGroup:
    a = np.arange(n)
    return TableGroup((a[:, None] + a[None, :]) % n, name=f"C{n}")


def elementary_abelian(k: int) -> CocycleGroup:
    """C_2^{k}: the zero-cocycle extension of F_2^{k-1}."""
    if k < 1:
        raise ValueError("rank must be positive")
    return CocycleGroup(k - 1, (0,) * (k - 1), name=f"C2^{k}")


def dihedral8() -> CocycleGroup:
    """D8, the extension by x1 x2: its non-central involutions are 1, 2, 5, 6."""
    return CocycleGroup(2, (0b10, 0), name="D8")


def quaternion8() -> CocycleGroup:
    """Q8 as the extension by the anisotropic form x1^2 + x1 x2 + x2^2."""
    return CocycleGroup(2, (0b11, 0b10), name="Q8")


def modular_c9_c3() -> TableGroup:
    """The nonabelian group of order 27 and exponent 9:
    (a, b)(a', b') = (a + 4^b a' mod 9, b + b' mod 3), at index 9b + a."""
    b, a = np.divmod(np.arange(27), 9)
    table = (b[:, None] + b) % 3 * 9 + (a[:, None] + np.array([1, 4, 7])[b[:, None]] * a) % 9
    return TableGroup(table, name="C9:C3")


def order8_catalogue() -> List[FiniteGroup]:
    """C8 and the extensions of F_2^2 by x1^2, 0, x1 x2 and x1^2 + x1 x2 + x2^2."""
    return [cyclic(8), CocycleGroup(2, (0b01, 0), name="C4xC2"),
            elementary_abelian(3), dihedral8(), quaternion8()]


def order27_catalogue() -> List[FiniteGroup]:
    return [cyclic(27), direct_product(cyclic(9), cyclic(3)),
            direct_product(direct_product(cyclic(3), cyclic(3)), cyclic(3)),
            HeisenbergGroup(3), modular_c9_c3()]


TABLE4_IDS = ("208a", "210b", "211p", "212m")

_TABLE4_FORMS = {
    "208a": "deg-hyp6",
    "210b": "deg-c4",
    "211p": "plus8",
    "212m": "minus8",
}


def table4_group(ident: str) -> CocycleGroup:
    """The four order-512 groups that survive all structural filters,
    realised as cocycle extensions of the four squaring forms."""
    from .quadform import preset

    try:
        form = preset(_TABLE4_FORMS[ident])
    except KeyError:
        raise ValueError(f"unknown group id {ident!r}; have {TABLE4_IDS}")
    return CocycleGroup(form.dim, form.coeff, name=ident)


# ----------------------------------------------------------------------
# file format


def save_group(G: FiniteGroup) -> str:
    if isinstance(G, CocycleGroup):
        lines = ["kind: cocycle", f"dim: {G.d}"]
        lines += [gf2.format_vector(r, G.d) for r in G.form.coeff]
        return "\n".join(lines) + "\n"
    if isinstance(G, HeisenbergGroup):
        return f"kind: heisenberg\np: {G.p}\n"
    lines = ["kind: table", f"n: {G.n}"]
    lines += [" ".join(str(int(x)) for x in row) for row in G.mul]
    return "\n".join(lines) + "\n"


def _header(lines: List[str], key: str, lo: int, hi: int) -> int:
    """The value of the second line, which must read '<key>: <int>'
    with lo <= int <= hi."""
    name, sep, value = lines[1].partition(":") if len(lines) > 1 else ("", "", "")
    if not sep or name.strip() != key:
        raise ValueError(f"line 2 must read '{key}: <integer>'")
    v = int(value)
    if not lo <= v <= hi:
        raise ValueError(f"{key} must be between {lo} and {hi}, got {v}")
    return v


def load_group(text: str) -> FiniteGroup:
    """Parse the format of save_group.  Orders are bounded by 1024, the
    limit of this module's arithmetic."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("kind:"):
        raise ValueError("group file must start with 'kind:'")
    kind = lines[0].split(":", 1)[1].strip()
    if kind == "cocycle":
        d = _header(lines, "dim", 1, 9)
        rows = [gf2.parse_vector(ln, d)[0] for ln in lines[2 : 2 + d]]
        if len(rows) != d:
            raise ValueError("cocycle matrix row count mismatch")
        return CocycleGroup(d, tuple(rows))
    if kind == "heisenberg":
        p = _header(lines, "p", 2, 10)
        if any(p % k == 0 for k in range(2, p)):
            raise ValueError(f"p must be prime, got {p}")
        return HeisenbergGroup(p)
    if kind == "table":
        n = _header(lines, "n", 1, 1024)
        rows = [[int(x) for x in ln.split()] for ln in lines[2 : 2 + n]]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("table size mismatch")
        if any(not 0 <= x < n for r in rows for x in r):
            raise ValueError(f"table entries must lie in 0..{n - 1}")
        G = TableGroup(np.array(rows, dtype=np.int32))
        G.check_associativity()
        return G
    raise ValueError(f"unknown group kind {kind!r}")
