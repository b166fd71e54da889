"""Stabiliser chains, orbits and minimal images against brute force."""
import itertools
import random

import numpy as np
import pytest

from asq.permgroup import (
    PermGroup,
    compose,
    identity,
    inverse,
    is_min_image,
    min_image,
)


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
    assert PermGroup([cyc, swap], n, order=362880).order() == 362880


def test_stabilizer_orders():
    n = 7
    cyc = list(range(1, n)) + [0]
    swap = [1, 0] + list(range(2, n))
    G = PermGroup([cyc, swap], n)
    H = G.stabilizer(0)
    assert H.order() == 720
    assert all(int(g[0]) == 0 for g in H.gens)
    assert H.stabilizer(1).order() == 120


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


def test_orbits_and_to_orbit_min():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(4, 8)
        gens = random_group(rng, n)
        G = PermGroup(gens, n)
        elems = closure(gens, n)
        for x in range(n):
            orb = {g[x] for g in elems}
            assert int(G.orbit_min[x]) == min(orb)
            t = G.to_orbit_min(x)
            assert int(t[x]) == min(orb)
            assert tuple(int(v) for v in t) in elems


def test_trace_matches_to_orbit_min():
    # point tracing along the Schreier forest against the composed element
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 12)
        G = PermGroup(random_group(rng, n, rng.randint(1, 3)), n)
        for x in range(n):
            pts = rng.sample(range(n), rng.randint(0, n))
            t = G.to_orbit_min(x)
            assert G.trace_to_orbit_min(x, pts) == [int(t[p]) for p in pts]
        H = G.stabilizer(0)
        for x in range(n):
            t = H.to_orbit_min(x)
            assert H.trace_to_orbit_min(x, range(n)) == [int(v) for v in t]


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
