"""Symmetry-pruned exhaustive searches: singular pseudo-arc enumeration
over the plane catalogue of a quadratic form, lifting arcs to candidate
subgroups, and AS-configuration backtracking at group level.

Pipeline shape: arc_seeds finds one canonical representative per orbit
of partial pseudo-arcs (orderly generation with minimal-image
rejection, one size at a time: the children of a block of nodes are
tested by one batched permgroup.canonical_children call), extend_arcs
completes them by the same level loop without the canonicity test and
deduplicates the completions by min_image, lift_arc lifts all arc
planes at once into Frattini-complement pools, and as_backtrack searches
those pools for (q+1)-families.  Every group-level search (as_backtrack,
the size-6 search of lemma53_counts and brute_force_as_configs) is the
backtrack of groups.ProductMasks; lemma53_counts also filters its pools
and fourths by that object's fits().

The plane catalogue is built as whole arrays: singular_subspaces emits
each plane once, from its least-vector basis, and reduces it with one
gf2.rref; plane_action sifts the isometry group on the 2^d points to
quadform.isometry_order, maps only its strong generators, about a dozen,
onto the planes by their images' packed least-vector keys, with no row
reduction, and sifts those to quadform.plane_group_order.  Both arc
searches run one level at a time and carry, per node, its row: the
sorted indices of the planes that keep the node's set a partial
pseudo-arc.  Both grow a level's children the same way, by _grow:
PlaneCatalogue.compatible_pairs derives the children's rows from ranges
of their parents' rows, in runs of (child, plane) pairs.
"""
from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from ._kernels import meet_counts, membership_words, xor_span
from .asconfig import ASConfiguration, _cube_root
from .groups import (
    CocycleGroup,
    FiniteGroup,
    ProductMasks,
    Subgroup,
    SubgroupRows,
    center,
    enumerate_elem_abelian_subgroups,
    frattini,
    is_normal,
    subgroup_generate,
)
from .permgroup import PermGroup, canonical_children, min_image
from .quadform import (QuadraticForm, isometry_generators, isometry_order, plane_group_order,
                       singular_subspaces)

__all__ = [
    "PseudoArc",
    "SearchTrace",
    "PlaneCatalogue",
    "plane_action",
    "is_partial_pseudo_arc",
    "arc_seeds",
    "extend_arcs",
    "lift_arc",
    "as_backtrack",
    "lemma53_counts",
    "minus_type_obstruction",
    "brute_force_as_configs",
]


@dataclass(frozen=True)
class PseudoArc:
    """m totally singular n-spaces, every three spanning the ambient
    space; members index into a PlaneCatalogue."""

    form: QuadraticForm
    members: Tuple[int, ...]


@dataclass
class SearchTrace:
    seed: Optional[Tuple[int, ...]]
    nodes: int = 0
    solutions: int = 0
    # arc_seeds: the number of canonical sets of each size 0..seed_size
    sizes: List[int] = field(default_factory=list)


def _plane_vectors(planes: Sequence[gf2.Subspace]) -> np.ndarray:
    """The 8 vectors of each plane, shape (n, 8), zero first, from the
    bases in one XOR pass."""
    return xor_span(np.array([p.basis for p in planes], dtype=np.int64).reshape(-1, 3))


def _least_vector_keys(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Each row of 8 plane vectors keyed by its least-vector basis: the
    least nonzero vector, the next, and the least outside their span,
    packed into one int64."""
    s = np.sort(vectors, axis=1)
    third = np.where(s[:, 3] == s[:, 1] ^ s[:, 2], s[:, 4], s[:, 3])
    return (s[:, 1] << 2 * dim) | (s[:, 2] << dim) | third


def plane_action(form: QuadraticForm, planes: Sequence[gf2.Subspace]) -> PermGroup:
    """The isometry group as a permutation group of the plane catalogue.

    The isometry generators generate the group on the 2^d points, whose
    chain is sifted to isometry_order.  Its strong generators, the union
    over the chain's levels, generate it too, and only they are mapped
    onto the planes: a plane's image is found by its least-vector key
    among the catalogue's sorted keys.  The plane group is sifted to
    plane_group_order.  A chain that misses its order, or an image
    outside the catalogue, raises AssertionError."""
    d = form.dim
    vectors = _plane_vectors(planes)
    keys = _least_vector_keys(vectors, d)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    points = PermGroup(xor_span(np.array(isometry_generators(form), dtype=np.int64)
                                .reshape(-1, d)), 1 << d, isometry_order(form))
    point_images = points.strong_generators()
    # int32 rows, which PermGroup keeps without a copy
    perms = np.empty((len(point_images), len(planes)), dtype=np.int32)
    for perm, point_image in zip(perms, point_images):
        image_keys = _least_vector_keys(point_image[vectors], d)
        pos = np.minimum(np.searchsorted(sorted_keys, image_keys), len(keys) - 1)
        if not np.array_equal(sorted_keys[pos], image_keys):
            raise AssertionError("a generator maps a plane outside the catalogue")
        perm[:] = order[pos]
    return PermGroup(perms, len(planes), plane_group_order(form))


# Pairs per run of PlaneCatalogue.compatible_pairs, which holds about 100
# bytes per pair and 1.5 KB per child and member (the words of its sums),
# so _grow counts 16 pairs for each.  Unbounded, one plus8 arc_seeds block
# (14000 pairs) raised the peak RSS of a two-command plus8 run by 0.5 MB;
# at 16 per child, one deg-hyp6 run took 1.4 MB traced.
_PAIRS = 2048


class PlaneCatalogue:
    """Immutable search context: the totally singular planes of a form
    (one gf2.rref per plane), their vectors as an (n, 8) array and
    bit-packed membership masks as an (n, words) uint64 array, and the
    plane action of the form's isometry group (plane_action: the point
    group's strong generators mapped onto the planes, sifted to
    plane_group_order; a ValueError for a form with no structural
    generator set).
    compatible_pairs is the one test of whether a set of planes stays a
    partial pseudo-arc; is_partial_pseudo_arc is its slow oracle."""

    def __init__(self, form: QuadraticForm):
        self.form = form
        self.planes: List[gf2.Subspace] = singular_subspaces(form, 3)
        self.n = len(self.planes)
        self.vectors = _plane_vectors(self.planes)
        self.words = membership_words(self.vectors, 1 << form.dim)
        self.group: PermGroup = plane_action(form, self.planes)

    def compatible_pairs(self, sets: np.ndarray, xs: np.ndarray, owner: np.ndarray,
                         ks: np.ndarray) -> np.ndarray:
        """The pairs i, with c = owner[i], for which sets[c] + [xs[c],
        ks[i]] is a partial pseudo-arc, given that sets[c] + [xs[c]] and
        sets[c] + [ks[i]] are (sets has shape (children, m)), as sorted
        indices: the planes k disjoint from x with W_a + W_x + W_k
        filling the space for every a in the set.  W_a and W_x meet
        trivially, so W_a + W_x is the 64 XORs of their vectors, of
        dimension 6, and by the dimension formula |(W_a + W_x) cap W_k|
        = 2^(9 - dim).  The pairs still alive are met with each member's
        sum in turn (the words formed at once), then with W_x, the only
        test at the first level.  Callers bound the pairs and children
        of one call."""
        m, w = sets.shape[1], self.words.shape[1]
        sums = self.vectors[sets, :, None] ^ self.vectors[xs, None, None, :]
        words = membership_words(sums.reshape(-1, 64), 1 << self.form.dim).reshape(len(sets), m, w)
        # row c * (m + 1) + j: child c's sum with member j, then W_x
        words = np.concatenate([words, self.words[xs, None]], axis=1).reshape(-1, w)
        live = np.arange(len(ks))
        for j, size in enumerate([1 << (9 - self.form.dim)] * m + [1]):
            counts = meet_counts(np.take(self.words, ks[live], axis=0),
                                 np.take(words, owner[live] * (m + 1) + j, axis=0))
            live = live[counts == size]
        return live


def is_partial_pseudo_arc(form: QuadraticForm, planes: Sequence[gf2.Subspace]) -> bool:
    """Every pair meets trivially and every triple spans the space."""
    planes = list(planes)
    d = form.dim
    for i in range(len(planes)):
        for j in range(i + 1, len(planes)):
            if gf2.meet(planes[i], planes[j]).rank != 0:
                return False
            for k in range(j + 1, len(planes)):
                vecs = planes[i].basis + planes[j].basis + planes[k].basis
                if gf2.rank_of(vecs, d) != d:
                    return False
    return True


# Candidates (planes of the parents' rows) per block of a level.  A block
# holds whole nodes, and the images that canonical_children traces grow
# with it.  On deg-hyp6 to size 9, blocks of 32 candidates take 1.4 times
# as long as blocks of 128; blocks of 512 save about a tenth of the time
# but raise the peak RSS of a two-command plus8 run by nearly 1 MB.
_BLOCK = 128


def _ranges(starts: np.ndarray, stops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, index) for every index in range(starts[c], stops[c]), in
    order of c then index."""
    lens = stops - starts
    owner = np.repeat(np.arange(len(lens)), lens)
    return owner, np.arange(len(owner)) + np.repeat(starts - np.cumsum(lens) + lens, lens)


def _grow(cat: PlaneCatalogue, sets: np.ndarray, xs: np.ndarray, cols: np.ndarray,
          starts: np.ndarray, stops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of the children sets[c] + [xs[c]], each from the planes of
    cols[starts[c]:stops[c]], a range of its parent's row, given that
    sets[c] + [k] is a partial pseudo-arc for each of them: the rows
    concatenated and their lengths.  compatible_pairs runs on runs of
    children whose pairs, with 16 counted per child and member, stay
    within _PAIRS."""
    run = np.cumsum(stops - starts + 16 * sets.shape[1]) // _PAIRS
    cuts = (np.flatnonzero(np.diff(run)) + 1).tolist()
    rows, counts = [], []
    for lo, hi in zip([0] + cuts, cuts + [len(xs)]):
        child, pos = _ranges(starts[lo:hi], stops[lo:hi])
        ks = cols[pos]
        ok = cat.compatible_pairs(sets[lo:hi], xs[lo:hi], child, ks)
        rows.append(ks[ok])
        counts.append(np.bincount(child[ok], minlength=hi - lo))
    return np.concatenate(rows), np.concatenate(counts)


def arc_seeds(cat: PlaneCatalogue, seed_size: int,
              trace: Optional[SearchTrace] = None) -> List[Tuple[int, ...]]:
    """One canonical representative (lexicographic orbit minimum) per
    orbit of partial pseudo-arcs of the given size.

    Orderly generation, one size at a time: a canonical set is only ever
    extended by a point larger than its maximum that is minimal in its
    orbit under the pointwise stabiliser (a non-minimal extension is
    never canonical), and the extension is kept iff it is its own minimal
    image.  The canonical sets of one size are one level, held as an
    (nodes, m) array in lexicographic order, each node with its chain of
    prefix stabilisers and its row: the sorted planes above its maximum
    that keep it a partial pseudo-arc, so candidates are never re-tested
    against the members.  The children of a block of whole nodes are
    tested by one permgroup.canonical_children call and their rows formed
    by _grow.  trace.sizes counts the canonical sets of each size."""
    sets = np.zeros((1, 0), dtype=np.int32)
    chains: List[Tuple[PermGroup, ...]] = [(cat.group,)]
    # the rows of the level, concatenated: node j's is cols[ptr[j]:ptr[j + 1]]
    ptr = np.array([0, cat.n])
    cols = np.arange(cat.n, dtype=np.int32)
    sizes = [1]
    for m in range(seed_size):
        last = m + 1 == seed_size
        new_sets, new_chains, new_counts, new_cols = [], [], [], []
        cuts = (np.flatnonzero(np.diff(ptr[:-1] // _BLOCK)) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [len(sets)]):
            base = ptr[lo]
            node, at = _ranges(ptr[lo:hi] - base, ptr[lo + 1:hi + 1] - base)
            cand = cols[base:ptr[hi]]
            # a candidate that is not an orbit minimum is never canonical;
            # dropping it keeps 36-39% of the candidates out of canonical_children
            # (size 6: 10317 of 16051 on plus8, 40912 of 67483 on deg-hyp6)
            minimal = np.ones(len(cand), dtype=bool)
            for j in range(lo, hi):
                if chains[j][-1].gens:
                    mine = slice(ptr[j] - base, ptr[j + 1] - base)
                    minimal[mine] = chains[j][-1].orbit_min[cand[mine]] == cand[mine]
            at = at[minimal]
            block = chains[lo:hi]
            at = at[canonical_children(block, sets[lo:hi], node[at], cand[at])]
            parent, xs = node[at], cand[at]
            members = sets[lo:hi][parent]
            new_sets.append(np.concatenate([members, xs[:, None]], axis=1))
            if last:
                continue
            new_chains += [block[p] + (block[p][-1].stabilizer(x),)
                           for p, x in zip(parent.tolist(), xs.tolist())]
            # each child's row: from the planes after x in its parent's row
            row, counts = _grow(cat, members, xs, cols, base + at + 1, ptr[lo + 1 + parent])
            new_cols.append(row)
            new_counts.append(counts)
        sets = np.concatenate(new_sets)
        sizes.append(len(sets))
        if not last:
            chains = new_chains
            ptr = np.concatenate([[0], np.cumsum(np.concatenate(new_counts))])
            cols = np.concatenate(new_cols)
    out = [tuple(s) for s in sets.tolist()]
    if trace is not None:
        trace.nodes += sum(sizes)
        trace.sizes = sizes
        trace.solutions = len(out)
    return out


def _extend_block(cat: PlaneCatalogue, seeds: Sequence[Tuple[int, ...]],
                  target: int) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
    """The sorted completions of the distinct seeds to size target, not
    deduplicated, and (nodes, completions) of each seed, in order, by
    arc_seeds' level loop without the canonicity test.  The sorted seeds
    are folded first: each distinct prefix p + [x] grows its row once from
    the whole row of p, which must hold x.  Below the seeds, the children
    of a node of m members are the planes of its row with at least
    target - m - 1 after them, each growing its row from those, as a
    depth-first search that drops each choice from the row would."""
    order = np.array(sorted(range(len(seeds)), key=seeds.__getitem__), dtype=np.intp)
    seed_sets = np.array(seeds, dtype=np.int32)[order]
    k = seed_sets.shape[1]
    if target < k:
        raise ValueError(f"target {target} is below the seed size {k}")
    # the fold: the member at which each seed first differs from the one
    # before it (k for a repeat), and each seed's prefix in the level
    differ = seed_sets[1:] != seed_sets[:-1]
    first = np.concatenate([[0], np.where(differ.any(axis=1), differ.argmax(axis=1), k)])
    prefix = np.zeros(len(seeds), dtype=np.intp)
    sets = seed_sets[:1, :0]
    ptr = np.array([0, cat.n])
    cols = np.arange(cat.n, dtype=np.int32)
    # the search below the seeds: each node's seed, and each seed's nodes
    owner = np.arange(1 + np.count_nonzero(first[1:] < k))
    nodes = np.ones(len(owner), dtype=np.int64)
    for m in range(target):
        if m < k:
            firsts = np.flatnonzero(first <= m)
            parent, xs = prefix[firsts], seed_sets[firsts, m]
            # the level's rows as keys (node << 32) + plane, sorted as the
            # rows are (np.isin would import numpy.ma)
            keys = np.repeat(np.arange(len(sets)) << 32, np.diff(ptr)) + cols
            probe = (parent << 32) + xs
            at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
            if not len(keys) or not np.array_equal(keys[at], probe):
                raise ValueError("a seed is not a partial pseudo-arc")
            starts = ptr[parent]
            prefix = np.cumsum(first <= m) - 1
        else:
            parent, at = _ranges(ptr[:-1], np.maximum(ptr[1:] - (target - m - 1), ptr[:-1]))
            xs, starts = cols[at], at + 1
            owner = owner[parent]
            nodes += np.bincount(owner, minlength=len(nodes))
        members = sets[parent]
        sets = np.concatenate([members, xs[:, None]], axis=1)
        if m + 1 < target:
            cols, counts = _grow(cat, members, xs, cols, starts, ptr[parent + 1])
            ptr = np.concatenate([[0], np.cumsum(counts)])
    counts = np.stack([nodes, np.bincount(owner, minlength=len(nodes))], axis=1)
    return [tuple(c) for c in np.sort(sets, axis=1).tolist()], counts[prefix[np.argsort(order)]]


def extend_arcs(cat: PlaneCatalogue, seeds: Sequence[Tuple[int, ...]],
                target: int, threads: int = 1,
                traces: Optional[List[SearchTrace]] = None) -> List[PseudoArc]:
    """All completions of the seeds to size target, deduplicated up to
    the catalogue symmetry by minimal image.  With threads > 1, at most
    one thread per seed takes one contiguous block of seeds, block 0 on
    the calling thread; the first failed block's error is raised once
    every helper thread has finished."""
    seeds = [tuple(s) for s in seeds]
    if not seeds:
        return []
    if len({len(s) for s in seeds}) > 1:
        raise ValueError("seeds of mixed sizes")
    workers = min(threads, len(seeds))
    cuts = [len(seeds) * i // workers for i in range(workers + 1)]
    parts: List = [None] * workers

    def run(i: int) -> None:
        try:
            parts[i] = _extend_block(cat, seeds[cuts[i]:cuts[i + 1]], target)
        except Exception as e:  # raised by the caller after the join
            parts[i] = e
    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, workers)]
    for t in helpers:
        t.start()
    run(0)
    for t in helpers:
        t.join()
    for part in parts:
        if isinstance(part, Exception):
            raise part
    if traces is not None:
        counts = np.concatenate([part[1] for part in parts]).tolist()
        traces += [SearchTrace(seed=s, nodes=n, solutions=c) for s, (n, c) in zip(seeds, counts)]
    canon = {min_image(cat.group, comp) for comp in {c for part in parts for c in part[0]}}
    return [PseudoArc(cat.form, members) for members in sorted(canon)]


# ----------------------------------------------------------------------
# lifting to group level


def _lift(G: CocycleGroup, planes: Sequence[gf2.Subspace]) -> Tuple[np.ndarray, np.ndarray]:
    """lift_arc's pool as sorted rows of sorted elements, and the mask of
    its dropped planes.  A complement projects onto its plane, so it is
    spanned by one lift b | a z of each basis vector b; a choice of the
    3 bits a spans one iff its 8 subset products are involutions or 1."""
    if len(planes) and frattini(G).order != 2:
        raise ValueError("lifting needs Phi(G) of order 2")
    if any(p.rank != 3 for p in planes):
        raise ValueError("lift_arc lifts planes (rank 3) only")
    basis = np.array([p.basis for p in planes], dtype=np.intp).reshape(-1, 3)
    # lifts[i, a, j]: basis vector j of plane i, times z if bit j of a is set
    lifts = basis[:, None, :] | (np.arange(8)[:, None] >> np.arange(3) & 1) << G.d
    # elems[i, a, s]: the product of the lifts in subset s
    elems = np.zeros(lifts.shape[:2] + (1,), dtype=G.mul.dtype)
    for j in range(3):
        elems = np.concatenate([elems, G.mul[elems, lifts[..., j, None]]], axis=2)
    ok = (G.mul[elems, elems] == 0).all(axis=2)
    comps = np.sort(elems[ok], axis=1)
    return comps[np.lexsort(comps.T[::-1])], ~ok.any(axis=1)


def lift_arc(G: CocycleGroup, planes: Sequence[gf2.Subspace]
             ) -> Tuple[List[Subgroup], List[gf2.Subspace]]:
    """Every complement of Phi(G) = <z> (order 2) in the preimage of each
    plane: the pool, sorted by elements, and the planes with none
    (dropped), in order.  Its slow oracle is groups.complements."""
    comps, lost = _lift(G, planes)
    return ([Subgroup(G, tuple(c)) for c in comps.tolist()],
            [planes[i] for i in np.flatnonzero(lost).tolist()])


def as_backtrack(G: FiniteGroup, candidates: Sequence[Subgroup], target: int,
                 trace: Optional[SearchTrace] = None
                 ) -> List[Tuple[Subgroup, ...]]:
    """All target-sized subsets of the candidates satisfying AS2: every
    two members meet trivially and U_a U_b cap U_c = 1 for every
    triple.  Pairwise meets are tested separately, since the triple
    condition cannot see the first two members placed."""
    search = ProductMasks(G, sorted(candidates, key=lambda s: s.key()))
    [(families, nodes)] = search.backtrack([((), range(len(search.subs)))], target)
    out = [tuple(search.subs[i] for i in fam) for fam in families]
    if trace is not None:
        trace.nodes += nodes
        trace.solutions = len(out)
    return out


def _order_q_subgroups(G: FiniteGroup, q: int) -> List[Subgroup]:
    """The subgroups of prime order q, sorted by elements."""
    orders = G.element_orders()
    found: Dict[Tuple[int, ...], Subgroup] = {}
    for g in range(1, G.n):
        if orders[g] == q:
            s = subgroup_generate(G, (g,))
            found.setdefault(s.key(), s)
    return [found[k] for k in sorted(found)]


# ----------------------------------------------------------------------
# the order-512 rule-out computations that do not go through arcs


def lemma53_counts(G: FiniteGroup, rng=None) -> Dict[str, object]:
    """The orbit-free counting argument for the mixed-radical group:
    fix U_0 = Z(G) and any valid (U_1, U_2); count the pool of
    elementary abelian order-8 subgroups meeting U_0U_1, U_0U_2, U_1U_2
    trivially, then for each third choice the compatible fourth pool,
    and finally search the pool for families of size 6 (three pool
    members beyond U_0, U_1, U_2).

    Everything runs on one ProductMasks over U_0 and the order-8
    subgroups meeting it trivially, one family (index 0 is U_0).  U_0U_1 contains
    U_0, and so on, so each later pool is the earlier one filtered by
    one fits() call, in the enumeration's order, and so are the fourths
    of all thirds.  The size-6 searches are one backtrack with a root
    per third.  Also returns the seconds of three stages, the nodes and
    the order-8 subgroups enumerated."""
    u0 = center(G)
    if u0.order != 8:
        raise ValueError("expected |Z(G)| = 8")
    t0 = time.monotonic()
    fam = enumerate_elem_abelian_subgroups(G, 8, avoid=[u0.elements])
    rows = np.vstack([np.array(u0.elements, dtype=fam.elements.dtype), fam.elements])
    search = ProductMasks(G, SubgroupRows(G, rows, rows[:, :0]))  # Z(G) = C4 x C2: no gens
    t1 = time.monotonic()
    pool1 = np.arange(1, len(search.subs))
    u1 = int(rng.choice(pool1) if rng is not None else pool1[0])
    pool2 = pool1[search.fits([[0]], [u1], pool1)[0]]
    u2 = int(rng.choice(pool2) if rng is not None else pool2[0])
    pool = pool2[search.fits([[0, u1]], [u2], pool2)[0]]
    # the fourths left by third i: the j with U_b U_i cap U_j = 1 for
    # every base member b
    fourths = [pool[row] for row in search.fits(np.tile([0, u1, u2], (len(pool), 1)), pool, pool)]
    t2 = time.monotonic()
    distribution = Counter(map(len, fourths))
    # no six fourths can join (U_0, U_1, U_2, U_i): that would complete
    # the configuration
    roots = [((0, u1, u2, i), js) for i, js in zip(pool.tolist(), fourths) if len(js)]
    found = search.backtrack(roots, 6)
    t3 = time.monotonic()
    return {
        "pool": len(pool),
        "distribution": dict(sorted(distribution.items())),
        "size6_families": sum(len(families) for families, _ in found),
        "stage_s": {"enumeration": t1 - t0, "pools": t2 - t1, "size6": t3 - t2},
        "nodes": sum(nodes for _, nodes in found),
        "order8_subgroups": len(fam),
    }


def minus_type_obstruction(G: CocycleGroup, planes: Sequence[gf2.Subspace]
                           ) -> Dict[str, object]:
    """The centraliser obstruction for the minus-type group: for every
    totally singular plane W of its form (the planes given) and every
    lifted candidate U over it, C_G(U) is exactly the preimage of
    W^perp; since Z(G) has order 2, three pairwise-compatible
    candidates cannot coexist.  A dropped plane fails it.  C_G(U) is
    the AND of U's rows of the commute table, and U projects onto W,
    so the preimage of W^perp is the AND of U's rows of B = 0."""
    elems, lost = _lift(G, planes)
    g = np.arange(G.n, dtype=G.mul.dtype)
    commute = G.mul == G.mul.T
    # perp[h, g]: B(h mod z, g mod z) = 0; polar rows have no z bit
    perp = np.bitwise_count(G.form.polar.astype(g.dtype)[g % (G.n // 2), None] & g) & 1 == 0
    # blocks of 64 candidates gather 0.5 MB of rows at order 512
    ok = all(np.array_equal(commute[block].all(axis=1), perp[block].all(axis=1))
             for block in np.split(elems, range(64, len(elems), 64)))
    return {
        "center_order": center(G).order,
        "n_candidates": len(elems),
        "centralizer_is_perp_preimage": ok and not lost.any(),
    }


def brute_force_as_configs(G: FiniteGroup) -> List[ASConfiguration]:
    """Ground-truth oracle at orders 8 and 27: enumerate every order-q
    subgroup, search all (q+2)-families by plain backtracking (no
    symmetry), then emit one configuration per normal member acting as
    U_0.  The backtrack proves AS2 and a normal U_0 gives AS1, so no
    configuration is checked again.  Order 64 is refused: its families of six among hundreds of
    subgroups are out of reach without symmetry pruning."""
    if G.n not in (8, 27):
        raise ValueError("brute force supports orders 8 and 27 only")
    q = _cube_root(G.n)
    subs = _order_q_subgroups(G, q)
    [(families, _)] = ProductMasks(G, subs).backtrack([((), range(len(subs)))], q + 2)
    return [ASConfiguration(G, q, (subs[u0i],) + tuple(subs[i] for i in fam if i != u0i))
            for fam in families for u0i in fam if is_normal(G, subs[u0i])]
