"""Permutation groups on 0..n-1: stabiliser chains, orbits, and
lexicographically minimal images of point sets.

Permutations are numpy int32 arrays p with p[i] = image of i.  compose(p, q)
applies p first, then q.  The minimal-image routines are the isomorph
rejectors behind all symmetry-pruned searches: min_image(G, S) returns the
lexicographically least sorted tuple in the orbit of the set S under G,
computed by stabiliser-chain backtracking (never by materialising the
orbit of S).

Minimal images move points, not permutations.  Each group keeps its
orbit minima, a Schreier forest rooted at them (pred[x] and the index
edge[x] of the generator mapping pred[x] to x, an orbit minimum being
its own predecessor by the identity) and each point's depth in it as
int32 arrays, and its inverse generators, then the identity, stacked as
one (gens + 1, n) int32 array.  To map a point s to its orbit minimum,
the images walk s's path in the forest and apply each inverse generator
only to the points of the candidate set; to_orbit_min, which composes
the whole element, is kept as the reference.

canonical_children is the test of orderly generation: for a canonical
set s and every candidate x of one search node at once, whether s + [x]
is its own minimal image.  All of a node's children walk the same chain
of stabilisers of the prefixes of s, so it runs as whole arrays: one
(rows, k) array of candidate images with an owner per row, traced
through the forest together and deduplicated per owner at each depth.
min_image and is_min_image, which trace one candidate set at a time,
are its slow oracle.

Stabiliser-chain transversals store each element's inverse once, when
it is inserted, so sifting and the Schreier-generator checks never
invert a permutation.  A chain is completed after every growth, so its
order is exact at each step: the group order starts from two random
subproducts of the generators, and a point stabiliser, whose order is
known, stops at the first Schreier generators that reach it.  Every
order-1 stabiliser below a group is one shared generator-free group,
which keeps no per-point buffers of its own.
"""
from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["compose", "inverse", "identity", "PermGroup", "min_image", "is_min_image",
           "canonical_children"]


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
        self._inv_gens: Optional[np.ndarray] = None  # (gens + 1, n) int32
        self._orbmin: Optional[np.ndarray] = None
        self._pred: Optional[np.ndarray] = None
        self._edge: Optional[np.ndarray] = None
        self._depth: Optional[np.ndarray] = None
        self._children: Dict[int, "PermGroup"] = {}
        # the one order-1 group that every trivial stabiliser below is
        self._trivial: Optional["PermGroup"] = None

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
        # a level the generators are tried in order, first hit wins.  An
        # orbit minimum is its own predecessor, by the identity, which
        # follows the inverse generators as their last row.
        points = np.arange(n, dtype=np.int32)
        pred = points.copy()
        edge = np.full(n, len(gens), dtype=np.int32)
        depth = np.zeros(n, dtype=np.int32)
        frontier = np.flatnonzero(orbmin == points)
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
            depth[frontier] = depth[pred[frontier]] + 1
        orbmin.flags.writeable = False
        self._orbmin, self._pred, self._edge, self._depth = orbmin, pred, edge, depth
        self._inv_gens = np.array(inv_gens + [points], dtype=np.int32)

    @property
    def orbit_min(self) -> np.ndarray:
        """orbit_min[x] = least point in the orbit of x (read-only)."""
        self._ensure_orbits()
        return self._orbmin

    def to_orbit_min(self, x: int) -> np.ndarray:
        """A group element t with t[x] = orbit_min[x]: the product of the
        inverse generators along x's path in the Schreier forest."""
        self._ensure_orbits()
        t = identity(self.n)
        while self._pred[x] != x:
            t = compose(t, self._inv_gens[self._edge[x]])
            x = self._pred[x]
        return t

    def trace_to_orbit_min(self, x: int, points: Iterable[int]) -> List[int]:
        """[to_orbit_min(x)[p] for p in points], moving only the points."""
        self._ensure_orbits()
        pred, edge = memoryview(self._pred), memoryview(self._edge)
        pts = np.array(list(points), dtype=np.intp)
        while pred[x] != x:
            pts = self._inv_gens[edge[x], pts]
            x = pred[x]
        return pts.tolist()

    def _trace_rows(self, starts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row i of rows moved by to_orbit_min(starts[i]), for every row
        at once: each step applies to each row the next inverse generator
        on its start's path, or the identity once the start is at its
        orbit minimum."""
        self._ensure_orbits()
        pred, edge, inv_gens = self._pred, self._edge, self._inv_gens
        for _ in range(int(self._depth[starts].max(initial=0))):
            rows = inv_gens[edge[starts][:, None], rows]
            starts = pred[starts]
        return rows

    # -- point stabiliser (known-order Schreier generators) ------------

    def stabilizer(self, point: int) -> "PermGroup":
        """The stabiliser of point, cached.  A group with no generators
        is its own stabiliser; every order-1 stabiliser below a group is
        one shared group with no generators."""
        if not self.gens:
            return self
        child = self._children.get(point)
        if child is not None:
            return child
        n = self.n
        om = self.orbit_min
        target, rem = divmod(self.order(), int(np.count_nonzero(om == om[point])))
        if rem:
            raise AssertionError("orbit size does not divide the group order")
        if self._trivial is None:
            self._trivial = PermGroup([], n, order=1)
        if target == 1:
            self._children[point] = self._trivial
            return self._trivial
        tr: Dict[int, np.ndarray] = {point: identity(n)}
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

        def schreier_generators():
            for x in orbit_list:
                for g in self.gens:
                    yield compose(compose(tr[x], g), inverse(tr[int(g[x])]))

        chain = _build_chain(schreier_generators(), n, target)
        if chain.order() != target:  # pragma: no cover
            raise AssertionError("stabiliser closure missed the target order")
        gens = chain.levels[0].gens if chain.levels else []
        child = PermGroup(gens, n, order=target)
        child._trivial = self._trivial
        self._children[point] = child
        return child

    def __repr__(self) -> str:
        o = self._order if self._order is not None else "?"
        return f"PermGroup(degree={self.n}, gens={len(self.gens)}, order={o})"


def min_image(group: PermGroup, points: Sequence[int],
              upper: Optional[Sequence[int]] = None) -> Optional[Tuple[int, ...]]:
    """Lexicographically least sorted tuple in the orbit of the set.

    With `upper` given (a sorted tuple), returns None as soon as the
    minimum is proven strictly smaller than `upper`: the early exit of
    is_min_image.  The slow oracle of canonical_children, and the
    canonical form that extend_arcs deduplicates by.
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
        om = memoryview(node.orbit_min)
        least = [(min(om[x] for x in t), t) for t in cands]
        mu = min(m for m, _ in least)
        res.append(mu)
        if upper is not None:
            if mu < upper[depth]:
                return None
        if depth == k - 1:
            break  # the last point needs no images and no stabiliser
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


def _rows_below(rows: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per row, whether rows[i] < bound[i] lexicographically."""
    differ = rows != bound
    first = differ.argmax(axis=1)
    at = np.arange(len(rows))
    return differ[at, first] & (rows[at, first] < bound[at, first])


def _unique_rows(owner: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct (owner, row) pairs, ordered by owner and then row.
    Each pair is one byte string of big-endian int32s, whose byte order
    is the numeric order, so rows of any width sort as one key."""
    keys = np.empty((len(rows), rows.shape[1] + 1), dtype=">i4")
    keys[:, 0] = owner
    keys[:, 1:] = rows
    _, first = np.unique(keys.view(np.dtype((np.void, keys.shape[1] * 4))).ravel(),
                         return_index=True)
    return owner[first], rows[first]


def canonical_children(chain: Sequence[PermGroup], s: Sequence[int],
                       xs: Sequence[int]) -> np.ndarray:
    """For every candidate x in xs, whether s + [x] is its own minimal
    image under chain[0]: is_min_image for all children of one node of
    orderly generation at once.

    s is sorted and its own minimal image, chain[d] is the stabiliser of
    s[:d] for d = 0..len(s), and each x is above max(s).  A child that
    survives depth d has the prefix s[:d], so all children walk the
    same chain.  At depth d the batch holds every image of each child
    (its owner) that starts with s[:d], one sorted row of the remaining
    points each, up to chain[d].  An owner whose least orbit minimum is
    below its own point at d (s[d], or x at the last depth) is rejected;
    the rows at that minimum are traced to it through chain[d]'s
    Schreier forest, the moved point is dropped, and the rows are
    sorted and deduplicated per owner.  Once chain[d] is trivial the
    rows are all the images, and a row below the owner's tail rejects
    it."""
    xs = np.asarray(xs, dtype=np.int32)
    m = len(s)
    if len(chain) != m + 1:
        raise ValueError("chain must hold the stabiliser of every prefix of s")
    tails = np.empty((len(xs), m + 1), dtype=np.int32)
    tails[:, :m] = s
    tails[:, m] = xs
    keep = np.ones(len(xs), dtype=bool)
    owner, rows = np.arange(len(xs)), tails
    for d, node in enumerate(chain):
        if not rows.size:
            break
        if node.order() == 1:
            keep[owner[_rows_below(rows, tails[owner, d:])]] = False
            break
        orbit = node.orbit_min[rows]
        # an owner's least orbit minimum is below its point at d iff one
        # of its rows is
        keep[owner[orbit.min(axis=1) < tails[owner, d]]] = False
        if d == m:
            break
        at, col = np.nonzero((orbit == s[d]) & keep[owner, None])
        # the other points of a traced row have orbit minima of at least
        # s[d] and are not mapped to it, so after sorting s[d] is first
        moved = node._trace_rows(rows[at, col], rows[at])
        moved.sort(axis=1)
        owner, rows = _unique_rows(owner[at], moved[:, 1:])
    return keep
