"""Permutation groups on 0..n-1: stabiliser chains, orbits, and
lexicographically minimal images of point sets.

Permutations are numpy int32 arrays p with p[i] = image of i.  compose(p, q)
applies p first, then q.  The minimal-image routines are the isomorph
rejectors behind all symmetry-pruned searches: min_image(G, S) returns the
lexicographically least sorted tuple in the orbit of the set S under G,
computed by stabiliser-chain backtracking (never by materialising the
orbit of S).

Every transversal is a Schreier forest over a list of generators: each
point's predecessor pred[x] (a root is its own) and the index edge[x] of
the generator mapping pred[x] to x, as int32 arrays, with pred[x] = -1
off the roots' orbits.  The inverse generators along x's path map x to
its root, so no transversal element is ever stored.  One walk applies
them, to a whole element or only to a list of points: the sifts, the
minimal images and the stabilisers all move by it.

Each group's orbit minima root one forest over its generators, which
also keeps each point's depth; the inverse generators, then the
identity, are stacked as one (gens + 1, n) int32 array.  Minimal images
move points, not permutations: to map a point s to its orbit minimum,
the walk applies each inverse generator on s's path only to the points
of the candidate set.

canonical_children is the test of orderly generation: for every
candidate x of many search nodes s at once, whether s + [x] is its own
minimal image.  Each child walks its node's chain of stabilisers of the
prefixes of s, so it runs as whole arrays: one (rows, k) array of
candidate images with an owner per row.  At each depth the rows are
grouped by their node's stabiliser, which a node's chain shares with
its parent's; each group's rows are traced through its forest together
and deduplicated per owner, and the owners whose stabiliser is trivial
take one lexicographic test together.
min_image and is_min_image, which trace one candidate set at a time,
are its slow oracle.

Each level of a stabiliser chain is a tree rooted at its base point,
over the level's strong generators.  Sifting walks the tree.  A sifted
chain's order is at most that of the group its strong generators
generate, so a chain sifted up to the group's order is complete
(known-order randomised Schreier-Sims, Seress, Permutation Group
Algorithms, 2003, 4.5).  A group built with a bound, its exact order,
sifts product-replacement elements up to it, with a fresh
product-replacement state after 200 sifts in a row that miss, and raises
AssertionError unless it lands on the bound: a form's group on the 2^d
points is bounded by quadform.isometry_order and its group on the planes
by quadform.plane_group_order, both known by formula, and the plane
group is generated by the images of the point group's strong generators
(strong_generators, the union over its chain's levels): a dozen or so,
where the form has over a hundred transvections.  Only a group with no
bound runs a deterministic Schreier-Sims: every Schreier generator u_x s
u_{s(x)}^-1 of a level, with u_x formed from its parent's while the tree
is walked depth first, sifts through the levels below.  A group keeps
its complete chain, and a point stabiliser is read off it.  For the
first base point it is the next level and the levels below, shared.  For
any other point, a new chain is sifted from uniform random elements of
the group, drawn through its chain and moved to fix the point, until the
stabiliser's known order |G|/|x^G| is reached.  Each element g is moved
to fix x along the group's own orbit forest: the walk of g[x] to its
orbit minimum, then one element, fixed per stabiliser, from the minimum
back to x.  No stabiliser is cached, but every order-1 stabiliser below
a group is one shared generator-free group, which keeps no per-point
buffers of its own.
"""
from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def _walk(pred: np.ndarray, edge: np.ndarray, inv: Sequence[np.ndarray], x: int,
          g: np.ndarray) -> np.ndarray:
    """g followed by the inverse labels along x's path in a Schreier
    forest, which map x to its root: g is a whole element, or only the
    points to move."""
    pred, edge = memoryview(pred), memoryview(edge)
    while pred[x] != x:
        g = inv[edge[x]].take(g)
        x = pred[x]
    return g


def _grow_forest(labels: Sequence[np.ndarray], pred: np.ndarray, edge: np.ndarray,
                 depth: Optional[np.ndarray], frontier: np.ndarray) -> None:
    """Grow a Schreier forest breadth first from frontier, points already
    in it: within a level the labels are tried in order, first hit wins.
    Entries already made are kept; depths are kept when depth is given."""
    seen = pred >= 0
    while labels and frontier.size:
        found = []
        for li, g in enumerate(labels):
            ys = g[frontier]
            fresh = ~seen[ys]
            ys = ys[fresh]
            seen[ys] = True
            pred[ys] = frontier[fresh]
            edge[ys] = li
            found.append(ys)
        frontier = np.concatenate(found)
        if depth is not None:
            depth[frontier] = depth[pred[frontier]] + 1


class _Level:
    """One level of a stabiliser chain: a base point, the strong
    generators fixing all earlier base points, each one's inverse, and
    the Schreier tree of the base orbit over the strong generators.

    While Schreier generators are verified the tree only grows: entries,
    once made, are never replaced, so u_x never changes and the pairs
    that `checked` marks (checked[generator][x]) stay verified.  A
    complete level drops its marks."""

    __slots__ = ("base", "gens", "inv", "pred", "edge", "size", "checked", "_orbit")

    def __init__(self, base: int, n: int):
        self.base = base
        self.gens: List[np.ndarray] = []
        self.inv: List[np.ndarray] = []
        self.pred = np.full(n, -1, dtype=np.int32)
        self.edge = np.zeros(n, dtype=np.int32)
        self.pred[base] = base
        self.size = 1
        self.checked: Optional[List[bytearray]] = []
        self._orbit: Optional[np.ndarray] = None

    @property
    def orbit(self) -> np.ndarray:
        if self._orbit is None:
            self._orbit = np.flatnonzero(self.pred >= 0)
        return self._orbit

    def add(self, g: np.ndarray, g_inv: np.ndarray) -> None:
        """Add a strong generator and grow the tree by it."""
        self.gens.append(g)
        self.inv.append(g_inv)
        self.checked.append(bytearray(len(g)))
        _grow_forest(self.gens, self.pred, self.edge, None, self.orbit)
        self.size = int(np.count_nonzero(self.pred >= 0))
        self._orbit = None

    def transversal(self) -> Iterator[Tuple[int, np.ndarray]]:
        """(x, u_x) for every point x of the orbit, u_x mapping the base
        point to x, depth first: each u_x is its parent's followed by one
        generator, and only the u of one root path are held at a time."""
        pred, edge = self.pred, self.edge
        kids: Dict[int, List[int]] = {}
        for y in self.orbit.tolist():
            if y != self.base:
                kids.setdefault(int(pred[y]), []).append(y)
        stack: List[Tuple[int, Optional[np.ndarray]]] = [(self.base, None)]
        while stack:
            x, up = stack.pop()
            ux = np.arange(len(pred)) if up is None else self.gens[edge[x]].take(up)
            yield x, ux
            stack.extend((y, ux) for y in kids.get(x, ()))


class _Chain:
    """A stabiliser chain: its levels.  Completed chains are never
    changed, so chains share their levels."""

    def __init__(self, n: int, levels: Optional[List[_Level]] = None):
        self.n = n
        self.levels: List[_Level] = levels if levels is not None else []

    def order(self) -> int:
        out = 1
        for lv in self.levels:
            out *= lv.size
        return out

    def sift(self, g: np.ndarray, start: int = 0) -> Tuple[Optional[np.ndarray], int]:
        """Factor g through the levels from start; returns (residue,
        level), where residue is None iff g factors completely."""
        levels = self.levels
        for i in range(start, len(levels)):
            lv = levels[i]
            x = int(g[lv.base])
            if lv.pred[x] < 0:
                return g, i
            g = _walk(lv.pred, lv.edge, lv.inv, x, g)
        if _is_identity(g):
            return None, len(levels)
        return g, len(levels)

    def install(self, r: np.ndarray, first: int, last: int) -> None:
        """Add the sift residue r, which fixes the base points of levels
        0..last-1, to the strong generators of levels first..last (a new
        level, at r's least moved point, when last is one past the end)."""
        if last == len(self.levels):
            self.levels.append(_Level(int(np.flatnonzero(r != np.arange(self.n))[0]), self.n))
        r_inv = inverse(r)
        for i in range(first, last + 1):
            self.levels[i].add(r, r_inv)

    def add_gen(self, g: np.ndarray) -> bool:
        """Sift g and install its residue.  Returns True if the chain grew."""
        r, lvl = self.sift(g)
        if r is None:
            return False
        self.install(r, 0, lvl)
        return True

    def complete(self) -> None:
        """Schreier-Sims closure, bottom up: every Schreier generator of a
        level must sift through the levels below it.  A failure is
        installed below, and those levels are completed again before the
        level's pass goes on; the levels above it, whose passes wait,
        are unchanged."""
        passes: Dict[int, Iterator[Tuple[np.ndarray, int]]] = {}
        i = len(self.levels) - 1
        while i >= 0:
            if i not in passes:
                passes[i] = self._failures(i)
            failure = next(passes[i], None)
            if failure is None:
                del passes[i]
                i -= 1
            else:
                self.install(failure[0], i + 1, failure[1])
                i = len(self.levels) - 1

    def _failures(self, i: int) -> Iterator[Tuple[np.ndarray, int]]:
        """One verification pass of level i: the (residue, level) of each
        Schreier generator not yet verified that fails to sift through
        the levels below."""
        lv = self.levels[i]
        pred, edge = memoryview(lv.pred), memoryview(lv.edge)
        marks = list(enumerate(lv.checked))
        for x, ux in lv.transversal():
            for li, done in marks:
                if done[x]:
                    continue
                done[x] = 1
                s = lv.gens[li]
                y = int(s[x])
                if pred[y] == x and edge[y] == li:
                    continue  # a tree edge: u_x s = u_y
                r, lvl = self.sift(_walk(lv.pred, lv.edge, lv.inv, y, s.take(ux)), i + 1)
                if r is not None:
                    yield r, lvl

    def random_element(self, rng: random.Random) -> np.ndarray:
        """A uniformly random element of the group: the inverse of
        u_{x_k} ... u_{x_0} for uniform orbit points x_i, one walk per
        level."""
        g = identity(self.n)
        for lv in self.levels:
            orbit = lv.orbit
            g = _walk(lv.pred, lv.edge, lv.inv, int(orbit[rng.randrange(len(orbit))]), g)
        return g


def _finished(levels: List[_Level]) -> None:
    """Drop what only verifying a level needs."""
    for lv in levels:
        lv.checked = None


def _random_subproducts(gens: Sequence[np.ndarray], n: int, count: int,
                        rng: random.Random) -> List[np.ndarray]:
    """Products of random subsets of the generators (seeded, so runs
    repeat); a couple of them usually generate the whole group."""
    out = []
    for _ in range(count):
        w = np.arange(n)
        for g in gens:
            if rng.random() < 0.5:
                w = g.take(w)
        out.append(w)
    return out


def _product_replacement(gens: Sequence[np.ndarray], n: int,
                         rng: random.Random) -> Iterator[np.ndarray]:
    """Random elements of the group the gens generate, by product
    replacement on 8 random subproducts, with an accumulator, seeded."""
    state = [w.astype(np.intp) for w in _random_subproducts(gens, n, 8, rng)]
    acc = np.arange(n)
    for step in itertools.count():
        i, j = rng.sample(range(len(state)), 2)
        s = state[j] if rng.random() < 0.5 else inverse(state[j])
        state[i] = s.take(state[i]) if rng.random() < 0.5 else state[i].take(s)
        acc = state[i].take(acc)
        if step >= 16:
            yield acc


def _sift_to(chain: _Chain, draws: Iterator[Iterator[np.ndarray]], target: int) -> None:
    """Sift elements into chain until its order is target, the group's,
    taking the next of at most 8 draws after 200 misses in a row (each
    has probability at most 1/2 for uniform elements while the chain is
    short); AssertionError if the order misses target or passes it."""
    for elements in itertools.islice(draws, 8):
        misses = 0
        while chain.order() < target and misses < 200:
            r, lvl = chain.sift(next(elements))
            if r is None:
                misses += 1
            else:
                chain.install(r, 0, lvl)
                misses = 0
        if chain.order() >= target:
            break
    if chain.order() != target:
        raise AssertionError(f"the chain missed the group's order {target}: {chain.order()}")


def _build_chain(gens: Sequence[np.ndarray], n: int, bound: Optional[int]) -> _Chain:
    """A complete chain for the group the gens generate: sifted to bound,
    its exact order, from product replacement (_sift_to).  With no
    bound, two random subproducts keep the first level's strong
    generators few, Schreier-Sims completes the chain, and each
    generator is sifted in."""
    # The chain is built in intp, whose gathers are the fastest, and kept
    # in int32, the dtype of the stabilisers' chains and generators.
    rng = random.Random(0)
    chain = _Chain(n)
    if bound is None:
        for g in _random_subproducts(gens, n, 2, rng):
            chain.add_gen(g.astype(np.intp))
        chain.complete()
        for g in gens:
            if chain.add_gen(g.astype(np.intp)):
                chain.complete()
    else:
        _sift_to(chain, (_product_replacement(gens, n, rng) for _ in itertools.count()), bound)
    small = {id(g): g.astype(np.int32)
             for lv in chain.levels for g in lv.gens + lv.inv}
    for lv in chain.levels:
        lv.gens = [small[id(g)] for g in lv.gens]
        lv.inv = [small[id(g)] for g in lv.inv]
    _finished(chain.levels)
    return chain


class PermGroup:
    """A permutation group given by generators, with its stabiliser chain
    and orbit forest built on demand for orbit/minimal-image queries.
    Given a bound, which must be its exact order, the chain is sifted to
    it; with none, Schreier-Sims builds it."""

    def __init__(self, gens: Iterable[Sequence[int]], degree: int,
                 bound: Optional[int] = None):
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
        self._bound = bound
        self._chain: Optional[_Chain] = None
        self._inv_gens: Optional[np.ndarray] = None  # (gens + 1, n) int32
        self._orbmin: Optional[np.ndarray] = None
        self._pred: Optional[np.ndarray] = None
        self._edge: Optional[np.ndarray] = None
        self._depth: Optional[np.ndarray] = None
        # the one order-1 group that every trivial stabiliser below is
        self._trivial: Optional["PermGroup"] = None
        # min_image's stabilisers of the minimal-image prefixes it walked
        self._prefixes: Dict[Tuple[int, ...], "PermGroup"] = {}

    # -- order ---------------------------------------------------------

    def _ensure_chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _build_chain(self.gens, self.n, self._bound)
        return self._chain

    def order(self) -> int:
        return self._ensure_chain().order()

    def strong_generators(self) -> List[np.ndarray]:
        """The distinct strong generators of the complete chain, level by
        level: they generate the group, since every element factors
        through the level transversals."""
        return list({_perm_key(g): g for lv in self._ensure_chain().levels
                     for g in lv.gens}.values())

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
        # One breadth-first search from all orbit minima at once.  An
        # orbit minimum is its own predecessor, by the identity, which
        # follows the inverse generators as their last row.
        points = np.arange(n, dtype=np.int32)
        roots = np.flatnonzero(orbmin == points)
        pred = np.full(n, -1, dtype=np.int32)
        edge = np.full(n, len(gens), dtype=np.int32)
        depth = np.zeros(n, dtype=np.int32)
        pred[roots] = roots
        _grow_forest(gens, pred, edge, depth, roots)
        orbmin.flags.writeable = False
        self._orbmin, self._pred, self._edge, self._depth = orbmin, pred, edge, depth
        self._inv_gens = np.array(inv_gens + [points], dtype=np.int32)

    @property
    def orbit_min(self) -> np.ndarray:
        """orbit_min[x] = least point in the orbit of x (read-only)."""
        self._ensure_orbits()
        return self._orbmin

    def walk(self, x: int, g: np.ndarray) -> np.ndarray:
        """g followed by the group element that maps x to orbit_min[x]:
        the inverse generators along x's path in the orbit forest."""
        self._ensure_orbits()
        return _walk(self._pred, self._edge, self._inv_gens, x, g)

    def _trace_rows(self, starts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row i of rows moved by walk(starts[i], rows[i]), for every row
        at once: each step applies to each row the next inverse generator
        on its start's path, or the identity once the start is at its
        orbit minimum."""
        self._ensure_orbits()
        pred, edge, inv_gens = self._pred, self._edge, self._inv_gens
        for _ in range(int(self._depth[starts].max(initial=0))):
            rows = inv_gens[edge[starts][:, None], rows]
            starts = pred[starts]
        return rows

    # -- point stabiliser (read off the chain) -------------------------

    def stabilizer(self, point: int) -> "PermGroup":
        """The stabiliser of point, with its chain read off this group's;
        computed on every call.  A group with no generators is its own
        stabiliser; every order-1 stabiliser below a group is one shared
        group with no generators."""
        if not self.gens:
            return self
        om = self.orbit_min
        target, rem = divmod(self.order(), int(np.count_nonzero(om == om[point])))
        if rem:
            raise AssertionError("orbit size does not divide the group order")
        if self._trivial is None:
            self._trivial = PermGroup([], self.n)
            self._trivial._chain = _Chain(self.n)
        if target == 1:
            return self._trivial
        chain = self._ensure_chain()
        if point == chain.levels[0].base:
            chain = _Chain(self.n, chain.levels[1:])
        else:
            chain = self._fixing(point, target)
        if chain.order() != target:  # pragma: no cover
            raise AssertionError("stabiliser chain missed the target order")
        child = PermGroup(chain.levels[0].gens, self.n)
        child._chain = chain
        child._trivial = self._trivial
        return child

    def _fixing(self, y: int, target: int) -> _Chain:
        """The chain of the stabiliser of y, sifted from uniform random
        elements of the group (seeded, so runs repeat) until its order is
        target.  Each element g is moved to fix y by the walk of g[y] to
        its orbit minimum, then by one element that maps the minimum back
        to y."""
        back = inverse(self.walk(y, identity(self.n)))
        rng = random.Random(y)
        elements = (back.take(self.walk(int(g[y]), g))
                    for g in map(self._chain.random_element, itertools.repeat(rng)))
        out = _Chain(self.n)
        _sift_to(out, itertools.repeat(elements), target)
        _finished(out.levels)
        return out

    def __repr__(self) -> str:
        o = self._chain.order() if self._chain is not None else "?"
        return f"PermGroup(degree={self.n}, gens={len(self.gens)}, order={o})"


def min_image(group: PermGroup, points: Sequence[int],
              upper: Optional[Sequence[int]] = None) -> Optional[Tuple[int, ...]]:
    """Lexicographically least sorted tuple in the orbit of the set.

    With `upper` given (a sorted tuple), returns None as soon as the
    minimum is proven strictly smaller than `upper`: the early exit of
    is_min_image.  The slow oracle of canonical_children, and the
    canonical form that extend_arcs deduplicates by.  The stabilisers of
    the minimal-image prefixes it walks are kept on the group.
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
                    rest = np.array([x for x in t if x != s], dtype=np.intp)
                    new.add(frozenset(node.walk(s, rest).tolist()))
        if tuple(res) not in group._prefixes:
            group._prefixes[tuple(res)] = node.stabilizer(mu)
        node = group._prefixes[tuple(res)]
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


def canonical_children(chains: Sequence[Sequence[PermGroup]], sets: np.ndarray,
                       node: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """For every candidate i, whether sets[node[i]] + [xs[i]] is its own
    minimal image under chains[node[i]][0]: is_min_image for all the
    children of many nodes of orderly generation at once.

    Each row of sets (shape (nodes, m)) is sorted and its own minimal
    image, chains[j][d] is the stabiliser of sets[j, :d] for d = 0..m,
    and each x is above max(sets[node]).  A child that survives depth d
    has its node's prefix sets[j, :d], so it walks its node's chain.  At
    depth d the batch holds every image of each child (its owner) that
    starts with that prefix, one sorted row of the remaining points
    each, up to the node's chain[d].  The rows are grouped by that
    group: the chains of nodes with one prefix share it, and every
    order-1 stabiliser is one group.  Within a non-trivial group, an
    owner whose least orbit minimum is below its own point at d
    (sets[j, d], or x at the last depth) is rejected; the rows at that
    minimum are traced to it through the group's Schreier forest, the
    moved point is dropped, and the rows are sorted and deduplicated per
    owner.  Once an owner's chain[d] is trivial its rows are all its
    images, and a row below the owner's tail rejects it: one
    lexicographic test for all such owners of a depth."""
    xs = np.asarray(xs, dtype=np.int32)
    node = np.asarray(node, dtype=np.intp)
    sets = np.asarray(sets, dtype=np.int32)
    m = sets.shape[1]
    if len(sets) != len(chains) or any(len(c) != m + 1 for c in chains):
        raise ValueError("each node's chain must hold the stabiliser of every prefix of its set")
    tails = np.empty((len(xs), m + 1), dtype=np.int32)
    tails[:, :m] = sets[node]
    tails[:, m] = xs
    keep = np.ones(len(xs), dtype=bool)
    owner, rows = np.arange(len(xs)), tails
    which = np.empty(len(chains), dtype=np.intp)  # a node's group at d
    for d in range(m + 1):
        if not rows.size:
            break
        groups: Dict[int, int] = {}
        found: List[PermGroup] = []
        # the distinct live nodes; np.unique would import numpy.ma on its
        # first call
        live = np.zeros(len(chains), dtype=bool)
        live[node[owner]] = True
        for j in np.flatnonzero(live).tolist():
            g = chains[j][d]
            which[j] = groups.setdefault(id(g), len(found))
            if which[j] == len(found):
                found.append(g)
        at_group = which[node[owner]]
        by_group = np.argsort(at_group)
        bounds = np.searchsorted(at_group[by_group], np.arange(len(found) + 1))
        owners, traced = [], []
        for k, g in enumerate(found):
            sel = by_group[bounds[k]:bounds[k + 1]]
            o, r = owner[sel], rows[sel]
            if g.order() == 1:
                # the rows are all the owners' images
                keep[o[_rows_below(r, tails[o, d:])]] = False
                continue
            point = tails[o, d]
            orbit = g.orbit_min[r]
            # an owner's least orbit minimum is below its point at d iff
            # one of its rows is
            keep[o[orbit.min(axis=1) < point]] = False
            if d == m:
                continue
            at, col = np.nonzero((orbit == point[:, None]) & keep[o, None])
            # the other points of a traced row have orbit minima of at
            # least the point and are not mapped to it, so after sorting
            # the point is first
            moved = g._trace_rows(r[at, col], r[at])
            moved.sort(axis=1)
            owners.append(o[at])
            traced.append(moved[:, 1:])
        if not owners:
            break
        owner, rows = _unique_rows(np.concatenate(owners), np.concatenate(traced))
    return keep
