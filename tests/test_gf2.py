"""Tests for bit-packed GF(2) linear algebra."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asq import gf2
from asq.quadform import apply_matrix, mat_inverse, mat_mul


def exhaustive_span(vectors, dim):
    """Oracle: the span as a frozenset, by enumerating all combinations."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return frozenset(out)


def test_rref_small():
    # {110, 011} in d=3 reduces to pivots e1 and e2.
    s = gf2.rref([0b011, 0b110], 3)
    assert s.basis == (0b101, 0b110)
    assert exhaustive_span(s.basis, 3) == exhaustive_span([0b011, 0b110], 3)


def test_rref_empty():
    s = gf2.rref([], 8)
    assert s.rank == 0 and s.basis == ()


def test_rref_canonical_under_generating_set():
    rng = random.Random(7)
    base = [0b10010001, 0b01100000, 0b00011100, 0b00000011]
    target = gf2.rref(base, 8)
    vecs = sorted(exhaustive_span(base, 8) - {0})
    for _ in range(100):
        gens = rng.sample(vecs, rng.randint(4, 9))
        if gf2.rank_of(gens, 8) < 4:
            continue
        assert gf2.rref(gens, 8) == target


@given(st.lists(st.integers(0, 255), max_size=6), st.lists(st.integers(0, 255), max_size=6))
@settings(max_examples=200)
def test_dimension_formula(avecs, bvecs):
    a = gf2.rref(avecs, 8)
    b = gf2.rref(bvecs, 8)
    s = gf2.span(a, b)
    m = gf2.meet(a, b)
    assert s.rank + m.rank == a.rank + b.rank
    # Meet/span agree with the exhaustive membership oracle.
    sa = exhaustive_span(avecs, 8)
    sb = exhaustive_span(bvecs, 8)
    assert exhaustive_span(m.basis, 8) == sa & sb
    assert exhaustive_span(s.basis, 8) == exhaustive_span(list(sa | sb), 8)


@given(st.lists(st.integers(0, 1023), max_size=10), st.integers(0, 1023))
@settings(max_examples=200)
def test_membership_matches_exhaustive(vecs, v):
    s = gf2.rref(vecs, 10)
    assert gf2.contains(s, v) == (v in exhaustive_span(vecs, 10))


def test_meet_with_full_space():
    full = gf2.rref([1 << i for i in range(8)], 8)
    a = gf2.rref([0b00001011, 0b11000000], 8)
    assert gf2.meet(a, full) == a


def test_meet_planes_in_common_4space():
    # Two distinct planes of a common 4-space intersect in rank >= 2.
    four = [1, 2, 4, 8]
    a = gf2.rref([1, 2, 4], 8)
    b = gf2.rref([1, 2, 8], 8)
    assert gf2.meet(a, b).rank >= 2 * 3 - 4


def test_subspace_vectors():
    s = gf2.rref([3, 5], 4)
    assert sorted(gf2.subspace_vectors(s)) == sorted(exhaustive_span([3, 5], 4))


def test_format_parse_roundtrip():
    v, d = gf2.parse_vector("10100000")
    assert (v, d) == (0b00000101, 8)
    assert gf2.format_vector(v, d) == "10100000"
    for x in range(256):
        w, _ = gf2.parse_vector(gf2.format_vector(x, 8))
        assert w == x


def test_kernel_and_solve():
    rng = random.Random(3)
    for _ in range(50):
        rows = [rng.randrange(256) for _ in range(rng.randint(1, 6))]
        ker = gf2.kernel(rows, 8)
        for v in gf2.subspace_vectors(ker):
            assert all(bin(v & r).count("1") % 2 == 0 for r in rows)
        # Kernel dimension complements the row rank.
        assert ker.rank == 8 - gf2.rank_of(rows, 8)


def test_complement_basis():
    a = gf2.rref([0b011, 0b101], 4)
    comp = gf2.complement_basis(a)
    assert gf2.rank_of(list(a.basis) + list(comp), 4) == 4
    assert len(comp) == 4 - a.rank


def test_dimension_errors():
    with pytest.raises(ValueError):
        gf2.rref([256], 8)
    with pytest.raises(ValueError):
        gf2.span(gf2.rref([1], 4), gf2.rref([1], 5))


def all_spans(d):
    """Oracle: every subspace of F_2^d as a frozenset, by closing each
    known subspace under one more vector."""
    found = {frozenset({0})}
    todo = list(found)
    while todo:
        s = todo.pop()
        for v in range(1 << d):
            if v not in s:
                t = s | {x ^ v for x in s}
                if t not in found:
                    found.add(t)
                    todo.append(t)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def parity(x):
    return bin(x).count("1") & 1


@pytest.mark.parametrize("d", range(7))
def test_reduction_against_enumerated_spans(d):
    """rank_of, rref, meet, kernel, linear_map and mat_inverse checked
    by brute force against every subspace of F_2^d."""
    rng = random.Random(d)
    spans = all_spans(d)
    gens = []
    for s in spans:
        g = []  # a greedy basis of s, then redundant members, shuffled
        for v in sorted(s):
            if v not in exhaustive_span(g, d):
                g.append(v)
        g += rng.sample(sorted(s), min(len(s), 3))
        rng.shuffle(g)
        gens.append(g)
        assert 1 << gf2.rank_of(g, d) == len(s)
        assert exhaustive_span(gf2.rref(g, d).basis, d) == s
        # the kernel of the rows is the perp of their span
        perp = {x for x in range(1 << d) if all(parity(x & r) == 0 for r in g)}
        assert exhaustive_span(gf2.kernel(g, d).basis, d) == perp
    pairs = [(rng.randrange(len(spans)), rng.randrange(len(spans))) for _ in range(300)]
    for i, j in pairs:
        m = gf2.meet(gf2.rref(gens[i], d), gf2.rref(gens[j], d))
        assert exhaustive_span(m.basis, d) == spans[i] & spans[j]
    for _ in range(100):
        k = rng.randint(0, d + 1)
        sources = [rng.randrange(1 << d) for _ in range(k)]
        images = [rng.randrange(1 << d) for _ in range(k)]
        size = len(exhaustive_span(sources, d))
        if size < 1 << k:
            with pytest.raises(ValueError, match="dependent"):
                gf2.linear_map(sources, images, d)
        elif k < d:
            with pytest.raises(ValueError, match="span"):
                gf2.linear_map(sources, images, d)
        else:
            g = gf2.linear_map(sources, images, d)
            assert [apply_matrix(g, s) for s in sources] == images
        g = tuple(rng.randrange(1 << d) for _ in range(d))
        if len(exhaustive_span(g, d)) < 1 << d:
            with pytest.raises(ValueError):
                mat_inverse(g)
        else:
            identity = tuple(1 << i for i in range(d))
            assert mat_mul(g, mat_inverse(g)) == mat_mul(mat_inverse(g), g) == identity
