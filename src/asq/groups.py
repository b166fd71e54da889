"""Finite group arithmetic for orders up to 1024.

Every group carries a full multiplication table over element indices
0..n-1 with identity at 0.  Cocycle groups (central extensions of F_2^d
by F_2) encode the element (u, a) as the integer u | (a << d); Heisenberg
groups encode (a, b, c) over F_p as a*p^2 + b*p + c.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .quadform import QuadraticForm

__all__ = [
    "FiniteGroup",
    "CocycleGroup",
    "HeisenbergGroup",
    "TableGroup",
    "Subgroup",
    "subgroup_generate",
    "product_set",
    "is_normal",
    "centralizer",
    "conjugate_subgroup",
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
    "order_histogram",
    "abelian_type",
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
        self._orders: Optional[np.ndarray] = None

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conjugate(self, a: int, g: int) -> int:
        """g^{-1} a g"""
        return int(self.mul[self.mul[self.inv[g], a], g])

    def commutator(self, a: int, b: int) -> int:
        """a^{-1} b^{-1} a b"""
        return int(self.mul[self.mul[self.inv[a], self.inv[b]], self.mul[a, b]])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(int(self.inv[a]), -k)
        out, base = 0, a
        while k:
            if k & 1:
                out = int(self.mul[out, base])
            base = int(self.mul[base, base])
            k >>= 1
        return out

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            orders = np.zeros(self.n, dtype=np.int32)
            for g in range(self.n):
                x, k = g, 1
                while x != 0:
                    x = int(self.mul[x, g])
                    k += 1
                orders[g] = k
            self._orders = orders
        return self._orders

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
        # f[v] has bit i = parity(M_i & v), so beta(u, v) = parity(u & f[v]).
        f = np.zeros(nvec, dtype=np.int64)
        for i in range(d):
            row = self.form.coeff[i]
            v = np.arange(nvec, dtype=np.int64)
            par = _parity_arr(v & row)
            f |= par << i
        u = np.arange(nvec, dtype=np.int64)
        beta = _parity_arr(u[:, None] & f[None, :])
        n = nvec << 1
        x = np.arange(n, dtype=np.int64)
        uu, aa = x & (nvec - 1), x >> d
        mul = (uu[:, None] ^ uu[None, :]) | (
            (aa[:, None] ^ aa[None, :] ^ beta[np.ix_(uu, uu)]) << d
        )
        super().__init__(mul, name=name)

    def vector(self, g: int) -> int:
        """Image in the Frattini quotient F_2^d (the low d bits)."""
        return g & ((1 << self.d) - 1)


def _parity_arr(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    shift = 32
    while shift:
        x ^= x >> shift
        shift >>= 1
    return x & 1


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

    def triple(self, g: int) -> Tuple[int, int, int]:
        p = self.p
        return g // (p * p), (g // p) % p, g % p


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
    prods = G.mul[np.ix_(np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.intp))]
    return tuple(sorted(set(int(x) for x in prods.ravel())))


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    hs = H.element_set()
    return all(G.conjugate(h, g) in hs for h in H.gens or H.elements for g in range(G.n))


def centralizer(G: FiniteGroup, S: Sequence[int]) -> Subgroup:
    out = [g for g in range(G.n) if all(G.mul[g, s] == G.mul[s, g] for s in S)]
    return Subgroup(G, tuple(out))


def conjugate_subgroup(H: Subgroup, g: int) -> Subgroup:
    G = H.parent
    return Subgroup(G, tuple(sorted(G.conjugate(h, g) for h in H.elements)),
                    tuple(G.conjugate(h, g) for h in H.gens))


def center(G: FiniteGroup) -> Subgroup:
    out = [g for g in range(G.n) if np.array_equal(G.mul[g], G.mul[:, g])]
    return Subgroup(G, tuple(out))


def derived(G: FiniteGroup) -> Subgroup:
    comms = {G.commutator(a, b) for a in range(G.n) for b in range(G.n)}
    return subgroup_generate(G, comms)


def agemo(G: FiniteGroup, k: int = 1) -> Subgroup:
    """The subgroup generated by p^k-th powers (p from |G|)."""
    p = _prime_of(G.n)
    powers = {G.power(g, p**k) for g in range(G.n)}
    return subgroup_generate(G, powers)


def exponent(G: FiniteGroup) -> int:
    out = 1
    for o in G.element_orders():
        out = out * int(o) // gcd(out, int(o))
    return out


def frattini(G: FiniteGroup) -> Subgroup:
    """For p-groups: the closure of p-th powers and commutators."""
    p = _prime_of(G.n)
    gens = {G.power(g, p) for g in range(G.n)}
    gens |= {G.commutator(a, b) for a in range(G.n) for b in range(G.n)}
    return subgroup_generate(G, gens)


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
    reps = np.unique(coset_min)  # identity coset holds 0, so reps[0] = 0
    index_of = {int(r): i for i, r in enumerate(reps)}
    proj = np.array([index_of[int(coset_min[g])] for g in range(G.n)], dtype=np.int32)
    m = len(reps)
    table = np.zeros((m, m), dtype=np.int32)
    for i, r in enumerate(reps):
        table[i] = proj[G.mul[int(r), reps]]
    Q = TableGroup(table, name=f"{G.name or 'G'}/{len(N.elements)}")
    return Q, proj


def direct_product(G: FiniteGroup, H: FiniteGroup) -> TableGroup:
    n, m = G.n, H.n
    a = np.arange(n * m)
    ga, ha = a // m, a % m
    table = G.mul[np.ix_(ga, ga)].astype(np.int64) * m + H.mul[np.ix_(ha, ha)]
    return TableGroup(table, name=f"{G.name or 'G'}x{H.name or 'H'}")


def complements(H: Subgroup, N: Subgroup) -> List[Subgroup]:
    """All K <= H with K meeting N trivially and KN = H (N central of
    order 2 inside H)."""
    G = H.parent
    if N.order != 2 or not set(N.elements) <= set(H.elements):
        raise ValueError("N must have order 2 inside H")
    c = N.elements[1]
    if any(G.mul[c, h] != G.mul[h, c] for h in H.elements):
        raise ValueError("N must be central in H")
    target = H.order // 2
    found: Dict[Tuple[int, ...], Subgroup] = {}
    elems = [h for h in H.elements if h != 0]

    def extend(sub: Subgroup) -> None:
        if sub.order == target:
            if c not in sub.element_set():
                found[sub.key()] = sub
            return
        last = max(sub.gens) if sub.gens else 0
        for h in elems:
            if h <= last or h in sub.element_set():
                continue
            new = subgroup_generate(G, sub.gens + (h,))
            if new.order <= target and c not in new.element_set() and \
                    set(new.elements) <= set(H.elements):
                extend(new)

    extend(Subgroup(G, (0,), ()))
    return [found[k] for k in sorted(found)]


def enumerate_elem_abelian_subgroups(
    G: FiniteGroup, order: int, avoid: Sequence[Sequence[int]] = ()
) -> List[Subgroup]:
    """All elementary abelian subgroups of the given 2-power order whose
    intersection with each avoid product-set is trivial, built by
    extending commuting involution sets."""
    rank = order.bit_length() - 1
    if 1 << rank != order or order > 16:
        raise ValueError("order must be a 2-power <= 16")
    avoid_sets = [frozenset(a) - {0} for a in avoid]
    orders = G.element_orders()
    invol = [g for g in range(1, G.n) if orders[g] == 2]
    bad = set().union(*avoid_sets) if avoid_sets else set()
    invol = [g for g in invol if g not in bad]
    comm = {g: frozenset(h for h in invol if G.mul[g, h] == G.mul[h, g]) for g in invol}
    found: Dict[Tuple[int, ...], Subgroup] = {}

    def extend(elems: frozenset, gens: Tuple[int, ...], pool: frozenset) -> None:
        if len(elems) == order:
            key = tuple(sorted(elems))
            found.setdefault(key, Subgroup(G, key, gens))
            return
        for h in sorted(pool):
            if h in elems or h <= gens[-1]:
                continue
            new = frozenset(int(G.mul[e, h]) for e in elems) | elems
            if len(new) != 2 * len(elems):
                continue
            if bad and (new & bad):
                continue
            extend(new, gens + (h,), pool & comm[h])

    for g in invol:
        extend(frozenset((0, g)), (g,), comm[g])
    return [found[k] for k in sorted(found)]


def order_histogram(G: FiniteGroup, elements: Optional[Sequence[int]] = None) -> Dict[int, int]:
    orders = G.element_orders()
    idx = range(G.n) if elements is None else elements
    out: Dict[int, int] = {}
    for g in idx:
        out[int(orders[g])] = out.get(int(orders[g]), 0) + 1
    return out


def abelian_type(G: FiniteGroup, elements: Sequence[int]) -> Tuple[int, ...]:
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
    p = _prime_of(n)
    orders = G.element_orders()
    hist: Dict[int, int] = {}
    for g in elems:
        o = int(orders[g])
        hist[o] = hist.get(o, 0) + 1
    # counts[k] = number of x with x^{p^k} = 1; the number of cyclic
    # factors of order >= p^k is log_p(counts[k] / counts[k-1]).
    factors: List[int] = []
    counts = []
    k = 0
    while p**k <= max(hist):
        counts.append(sum(c for o, c in hist.items() if o <= p**k))
        k += 1
    counts.append(n)
    ranks = [
        int(round(np.log(counts[k] / counts[k - 1]) / np.log(p)))
        for k in range(1, len(counts))
    ]
    for k, r in enumerate(ranks):
        nxt = ranks[k + 1] if k + 1 < len(ranks) else 0
        factors += [p ** (k + 1)] * (r - nxt)
    return tuple(sorted(factors, reverse=True))


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


def dihedral8() -> TableGroup:
    # elements r^a s^b, index a + 4b; (a,b)(a',b') = (a + a'*(-1)^b, b+b')
    table = np.zeros((8, 8), dtype=np.int32)
    for a in range(4):
        for b in range(2):
            for a2 in range(4):
                for b2 in range(2):
                    na = (a + (a2 if b == 0 else -a2)) % 4
                    nb = (b + b2) % 2
                    table[a + 4 * b, a2 + 4 * b2] = na + 4 * nb
    return TableGroup(table, name="D8")


def quaternion8() -> TableGroup:
    # 0:1, 1:-1, 2:i, 3:-i, 4:j, 5:-j, 6:k, 7:-k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mulq = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul1(x: str, y: str) -> str:
        sign = 1
        if x.startswith("-"):
            sign, x = -sign, x[1:]
        if y.startswith("-"):
            sign, y = -sign, y[1:]
        if x == "1":
            out = y
        elif y == "1":
            out = x
        elif x == y:
            out = "-1"
        else:
            out = mulq[(x, y)]
        if out.startswith("-"):
            sign, out = -sign, out[1:]
        return out if sign > 0 else ("-" + out if out != "1" else "-1")

    table = np.zeros((8, 8), dtype=np.int32)
    for i, x in enumerate(names):
        for j, y in enumerate(names):
            table[i, j] = names.index(mul1(x, y))
    return TableGroup(table, name="Q8")


def modular_c9_c3() -> TableGroup:
    """The nonabelian group of order 27 and exponent 9:
    (a, b)(a', b') = (a + 4^b a' mod 9, b + b' mod 3)."""
    table = np.zeros((27, 27), dtype=np.int32)
    for a in range(9):
        for b in range(3):
            for a2 in range(9):
                for b2 in range(3):
                    na = (a + pow(4, b, 9) * a2) % 9
                    nb = (b + b2) % 3
                    table[b * 9 + a, b2 * 9 + a2] = nb * 9 + na
    return TableGroup(table, name="C9:C3")


def order8_catalogue() -> List[FiniteGroup]:
    return [cyclic(8), direct_product(cyclic(4), cyclic(2)),
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
