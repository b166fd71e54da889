"""Permutation groups on 0..n-1: stabiliser chains, orbits, and
lexicographically minimal images of point sets.

Permutations are numpy int32 arrays p with p[i] = image of i.  compose(p, q)
applies p first, then q.  The minimal-image routine is the isomorph
rejector behind all symmetry-pruned searches: min_image(G, S) returns the
lexicographically least sorted tuple in the orbit of the set S under G,
computed by stabiliser-chain backtracking (never by materialising the
orbit of S).

Minimal images move points, not permutations.  Each group keeps its
orbit minima, a Schreier forest rooted at them (pred[x] and the index
edge[x] of the generator mapping pred[x] to x) and its inverse
generators as int32 array('i') buffers, indexed from Python as plain
ints.  To map a point s to its orbit minimum, min_image walks s's path
in the forest and applies each inverse generator only to the other
points of the candidate set; to_orbit_min, which composes the whole
element, is kept as the reference.  Stabiliser-chain transversals store
each element's inverse once, when it is inserted, so sifting and the
Schreier-generator checks never invert a permutation.  A chain is
completed after every growth, so its order is exact at each step: the
group order starts from two random subproducts of the generators, and a
point stabiliser, whose order is known, stops at the first Schreier
generators that reach it.
"""
from __future__ import annotations

import random
from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["compose", "inverse", "identity", "PermGroup", "min_image", "is_min_image"]


def identity(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int32)


def compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p followed by q."""
    return q[p]


def inverse(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


def _is_identity(p: np.ndarray) -> bool:
    return bool(np.all(p == np.arange(len(p), dtype=p.dtype)))


def _int32_buffer(p: np.ndarray) -> array:
    """An int32 numpy array as an array('i'), whose items index as ints."""
    return array("i", np.ascontiguousarray(p, dtype=np.int32).tobytes())


def _perm_key(p: np.ndarray) -> bytes:
    return p.tobytes()


class _Level:
    """One level of a stabiliser chain: a base point, the strong
    generators fixing all earlier base points, and a transversal with
    the inverse of each of its elements.

    Transversal entries, once computed, are never replaced; this keeps
    previously verified Schreier generators verified (membership proofs
    do not expire), so the `checked` cache stays sound.
    """

    __slots__ = ("base", "gens", "transversal", "inverses", "checked")

    def __init__(self, base: int):
        self.base = base
        self.gens: List[np.ndarray] = []
        self.transversal: Dict[int, np.ndarray] = {}
        self.inverses: Dict[int, np.ndarray] = {}
        self.checked: set = set()

    def extend_orbit(self, n: int) -> None:
        tr, inv = self.transversal, self.inverses
        if self.base not in tr:
            tr[self.base] = inv[self.base] = identity(n)
        queue = list(tr.keys())
        while queue:
            x = queue.pop()
            ux = tr[x]
            for g in self.gens:
                y = int(g[x])
                if y not in tr:
                    tr[y] = compose(ux, g)
                    inv[y] = inverse(tr[y])
                    queue.append(y)


class StabChain:
    """Deterministic Schreier-Sims stabiliser chain (provably complete
    after complete(); order() of a partial chain never overestimates)."""

    def __init__(self, n: int):
        self.n = n
        self.levels: List[_Level] = []

    def order(self) -> int:
        out = 1
        for lv in self.levels:
            out *= len(lv.transversal)
        return out

    def sift(self, p: np.ndarray, start: int = 0) -> Tuple[Optional[np.ndarray], int]:
        """Factor p through transversals; returns (residue, level) where
        residue is None iff p factors completely (membership proof)."""
        g = p
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            x = int(g[lv.base])
            if x == lv.base:
                continue
            u_inv = lv.inverses.get(x)
            if u_inv is None:
                return g, i
            g = compose(g, u_inv)
        if _is_identity(g):
            return None, len(self.levels)
        return g, len(self.levels)

    def _install(self, r: np.ndarray, first: int, last: int) -> None:
        """Add the sift residue r, which fixes base[0..last-1], to the
        generator sets of levels first..last (extending the base when
        last is one past the end)."""
        if last == len(self.levels):
            moved = int(np.nonzero(r != np.arange(self.n, dtype=np.int32))[0][0])
            self.levels.append(_Level(moved))
        for i in range(first, last + 1):
            lv = self.levels[i]
            lv.gens.append(r)
            lv.extend_orbit(self.n)

    def add_gen(self, p: np.ndarray) -> bool:
        """Sift an external generator and install its residue.  Returns
        True if the chain grew."""
        r, lvl = self.sift(p)
        if r is None:
            return False
        self._install(r, 0, lvl)
        return True

    def complete(self) -> None:
        """Classic Schreier-Sims closure: verify that every Schreier
        generator of every level sifts to identity through the levels
        below it; install failures and re-verify downward."""
        i = len(self.levels) - 1
        while i >= 0:
            lv = self.levels[i]
            dirty = False
            for x in sorted(lv.transversal):
                ux = lv.transversal[x]
                for gi in range(len(lv.gens)):
                    if (x, gi) in lv.checked:
                        continue
                    g = lv.gens[gi]
                    y = int(g[x])
                    s = compose(compose(ux, g), lv.inverses[y])
                    r, lvl = self.sift(s, i + 1)
                    lv.checked.add((x, gi))
                    if r is not None:
                        self._install(r, i + 1, lvl)
                        i = min(lvl, len(self.levels) - 1)
                        dirty = True
                        break
                if dirty:
                    break
            if not dirty:
                i -= 1


def _random_subproducts(gens: Sequence[np.ndarray], n: int, count: int) -> List[np.ndarray]:
    """Products of random subsets of the generators (seeded, so runs
    repeat); a couple of them usually generate the whole group."""
    rng = random.Random(0)
    out = []
    for _ in range(count):
        w = identity(n)
        for g in gens:
            if rng.random() < 0.5:
                w = compose(w, g)
        out.append(w)
    return out


def _build_chain(gens: Iterable[np.ndarray], n: int,
                 target: Optional[int] = None) -> StabChain:
    """A complete chain for the group the gens generate.  The chain is
    completed after every growth, so its order is exact at each step
    and generators that add nothing are skipped after one sift; with
    target given, it stops once the order reaches it."""
    chain = StabChain(n)
    for g in gens:
        if chain.order() == target:
            break
        if chain.add_gen(g):
            chain.complete()
    return chain


class PermGroup:
    """A permutation group given by generators, with cached stabiliser
    structure for orbit/transversal/minimal-image queries."""

    def __init__(self, gens: Iterable[Sequence[int]], degree: int,
                 order: Optional[int] = None):
        arrs = []
        seen = set()
        for g in gens:
            a = np.asarray(g, dtype=np.int32)
            if len(a) != degree:
                raise ValueError("generator degree mismatch")
            k = _perm_key(a)
            if k not in seen and not _is_identity(a):
                seen.add(k)
                arrs.append(a)
        self.gens = arrs
        self.n = degree
        self._order = order
        self._inv_gens: Optional[List[array]] = None
        self._orbmin: Optional[array] = None
        self._pred: Optional[array] = None
        self._edge: Optional[array] = None
        self._children: Dict[int, "PermGroup"] = {}

    # -- order ---------------------------------------------------------

    def order(self) -> int:
        if self._order is None:
            # Random subproducts first keep the top level's strong
            # generators, and so its Schreier generators, few; every
            # generator is still sifted, so the order is exact.
            starts = _random_subproducts(self.gens, self.n, 2)
            self._order = _build_chain(starts + self.gens, self.n).order()
        return self._order

    # -- orbit structure (BFS forests rooted at orbit minima) ----------

    def _ensure_orbits(self) -> None:
        if self._orbmin is not None:
            return
        n, gens = self.n, self.gens
        inv_gens = [inverse(g) for g in gens]
        # Orbit minima: propagate the least label along every generator
        # and its inverse, with pointer jumping, until nothing changes.
        orbmin = np.arange(n, dtype=np.int32)
        while True:
            lab = orbmin
            for g in gens + inv_gens:
                lab = np.minimum(lab, lab[g])
            lab = lab[lab]
            if np.array_equal(lab, orbmin):
                break
            orbmin = lab
        # One breadth-first search from all orbit minima at once; within
        # a level the generators are tried in order, first hit wins.
        pred = np.full(n, -1, dtype=np.int32)
        edge = np.full(n, -1, dtype=np.int32)
        frontier = np.flatnonzero(orbmin == np.arange(n))
        seen = np.zeros(n, dtype=bool)
        seen[frontier] = True
        while gens and frontier.size:
            found = []
            for gi, g in enumerate(gens):
                ys = g[frontier]
                fresh = ~seen[ys]
                ys = ys[fresh]
                seen[ys] = True
                pred[ys] = frontier[fresh]
                edge[ys] = gi
                found.append(ys)
            frontier = np.concatenate(found)
        self._orbmin = _int32_buffer(orbmin)
        self._pred = _int32_buffer(pred)
        self._edge = _int32_buffer(edge)
        self._inv_gens = [_int32_buffer(g) for g in inv_gens]

    @property
    def orbit_min(self) -> np.ndarray:
        """orbit_min[x] = least point in the orbit of x (read-only)."""
        self._ensure_orbits()
        view = np.frombuffer(self._orbmin, dtype=np.int32)
        view.flags.writeable = False
        return view

    def to_orbit_min(self, x: int) -> np.ndarray:
        """A group element t with t[x] = orbit_min[x]: the product of the
        inverse generators along x's path in the Schreier forest."""
        self._ensure_orbits()
        t = identity(self.n)
        while self._pred[x] != -1:
            t = compose(t, np.asarray(self._inv_gens[self._edge[x]]))
            x = self._pred[x]
        return t

    def trace_to_orbit_min(self, x: int, points: Iterable[int]) -> List[int]:
        """[to_orbit_min(x)[p] for p in points], moving only the points."""
        self._ensure_orbits()
        pred, edge, inv_gens = self._pred, self._edge, self._inv_gens
        pts = list(points)
        while pred[x] != -1:
            step = inv_gens[edge[x]]
            pts = [step[p] for p in pts]
            x = pred[x]
        return pts

    # -- point stabiliser (known-order Schreier generators) ------------

    def stabilizer(self, point: int) -> "PermGroup":
        child = self._children.get(point)
        if child is not None:
            return child
        n = self.n
        tr: Dict[int, np.ndarray] = {point: identity(n)}
        order_here = self.order()
        frontier = [point]
        orbit_list = [point]
        while frontier:
            nxt = []
            for x in frontier:
                ux = tr[x]
                for g in self.gens:
                    y = int(g[x])
                    if y not in tr:
                        tr[y] = compose(ux, g)
                        nxt.append(y)
                        orbit_list.append(y)
            frontier = nxt
        target, rem = divmod(order_here, len(tr))
        if rem:
            raise AssertionError("orbit size does not divide the group order")

        def schreier_generators():
            for x in orbit_list:
                for g in self.gens:
                    yield compose(compose(tr[x], g), inverse(tr[int(g[x])]))

        chain = _build_chain(schreier_generators(), n, target)
        if chain.order() != target:  # pragma: no cover
            raise AssertionError("stabiliser closure missed the target order")
        gens = chain.levels[0].gens if chain.levels else []
        child = PermGroup(gens, n, order=target)
        self._children[point] = child
        return child

    def __repr__(self) -> str:
        o = self._order if self._order is not None else "?"
        return f"PermGroup(degree={self.n}, gens={len(self.gens)}, order={o})"


def min_image(group: PermGroup, points: Sequence[int],
              upper: Optional[Sequence[int]] = None) -> Optional[Tuple[int, ...]]:
    """Lexicographically least sorted tuple in the orbit of the set.

    With `upper` given (a sorted tuple), returns None as soon as the
    minimum is proven strictly smaller than `upper` - the fast path for
    canonicity testing during orderly generation.
    """
    node = group
    cands: set[FrozenSet[int]] = {frozenset(int(x) for x in points)}
    res: List[int] = []
    k = len(next(iter(cands)))
    if k != len(points):
        raise ValueError("duplicate points in set")
    for depth in range(k):
        if node.order() == 1:
            best = min(tuple(sorted(t)) for t in cands)
            out = tuple(res) + best
            if upper is not None and out < tuple(upper):
                return None
            return out
        node._ensure_orbits()
        om = node._orbmin
        least = [(min(om[x] for x in t), t) for t in cands]
        mu = min(m for m, _ in least)
        res.append(mu)
        if upper is not None:
            if mu < upper[depth]:
                return None
        new: set[FrozenSet[int]] = set()
        for m, t in least:
            if m != mu:
                continue
            for s in t:
                if om[s] == mu:
                    new.add(frozenset(node.trace_to_orbit_min(s, (x for x in t if x != s))))
        node = node.stabilizer(mu)
        cands = new
    return tuple(res)


def is_min_image(group: PermGroup, points: Sequence[int]) -> bool:
    """True iff sorted(points) is the minimal image of its own orbit."""
    srt = tuple(sorted(int(x) for x in points))
    return min_image(group, srt, upper=srt) is not None
