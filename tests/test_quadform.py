"""Quadratic forms over F_2, their singular planes and isometries."""
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asq import gf2
from asq._kernels import xor_span
from asq.permgroup import PermGroup
from asq.quadform import (
    PRESETS,
    QuadraticForm,
    _normal_basis,
    _parity,
    apply_matrix,
    field_reduction_arc,
    forms_equivalent,
    isometry_generators,
    isometry_order,
    load_form,
    mat_inverse,
    mat_mul,
    preset,
    radicals,
    gamma_forms,
    save_form,
    singular_subspaces,
    transvection,
)
from asq.search import plane_action


def preserves_form(q, g):
    """Exhaustive check that Q(gx) = Q(x) for all x."""
    return all(q.evaluate(apply_matrix(g, v)) == q.evaluate(v) for v in range(1 << q.dim))


DIMS = st.integers(min_value=1, max_value=10)


@st.composite
def form_and_vectors(draw, n_vectors=2):
    d = draw(DIMS)
    coeff = tuple(draw(st.integers(0, (1 << d) - 1)) for _ in range(d))
    vs = [draw(st.integers(0, (1 << d) - 1)) for _ in range(n_vectors)]
    return QuadraticForm(d, coeff), vs


@settings(max_examples=200)
@given(form_and_vectors())
def test_polarisation_identity(fv):
    q, (u, v) = fv
    assert q.evaluate(u ^ v) ^ q.evaluate(u) ^ q.evaluate(v) == q.bilinear(u, v)


@settings(max_examples=100)
@given(form_and_vectors(1))
def test_evaluate_matches_definition(fv):
    q, (v,) = fv
    bits = [(v >> i) & 1 for i in range(q.dim)]
    want = sum((q.coeff[i] >> j) & 1 and bits[i] and bits[j]
               for i in range(q.dim) for j in range(i, q.dim)) & 1
    assert q.evaluate(v) == want


@settings(max_examples=100)
@given(form_and_vectors(3))
def test_bilinear_is_symmetric_alternating(fv):
    q, (u, v, w) = fv
    assert q.bilinear(u, v) == q.bilinear(v, u)
    assert q.bilinear(u, u) == 0
    assert q.bilinear(u ^ v, w) == q.bilinear(u, w) ^ q.bilinear(v, w)


def assert_tables_match(q):
    vs = range(1 << q.dim)
    assert q.values.tolist() == [q.evaluate(v) for v in vs]
    assert q.polar.tolist() == [q.bilinear_row(v) for v in vs]


@settings(max_examples=60)
@given(form_and_vectors(0))
def test_tables_match_scalar_definitions(fv):
    assert_tables_match(fv[0])


def test_preset_tables_match_and_are_read_only():
    for q in PRESETS.values():
        assert_tables_match(q)
        for table in (q.values, q.polar):
            with pytest.raises(ValueError):
                table[1] = 0


def test_preset_radical_types():
    # (tag, rad dim, srad dim) pins each of the four squaring forms.
    want = {
        "plus8": ("+", 0, 0),
        "minus8": ("-", 0, 0),
        "deg-hyp6": ("+", 2, 2),
        "deg-c4": ("mixed", 2, 1),
    }
    for name, (tag, rd, sd) in want.items():
        rad, srad, cls = radicals(preset(name))
        assert (cls.tag, cls.rad_dim, cls.srad_dim) == (tag, rd, sd), name
        assert rad.rank == rd and srad.rank == sd


def test_plane_counts():
    counts = {"plus8": 2025, "minus8": 765, "deg-hyp6": 3215, "deg-c4": 1395}
    for name, n in counts.items():
        assert len(singular_subspaces(preset(name), 3)) == n, name


def test_singular_vectors_counts():
    # nondegenerate O^+/O^- nonzero counts in dim 8: 2^7 +- 2^3 - 1.
    for name, want in (("plus8", 128 + 8 - 1), ("minus8", 128 - 8 - 1)):
        q = preset(name)
        assert sum(q.evaluate(v) == 0 for v in range(1, 1 << q.dim)) == want
        assert len(singular_subspaces(q, 1)) == want


def test_save_load_roundtrip():
    for name in PRESETS:
        q = preset(name)
        assert load_form(save_form(q)) == q


def test_transvections_preserve_form():
    rng = random.Random(3)
    for name in PRESETS:
        q = preset(name)
        nonsingular = [v for v in range(1, 1 << q.dim) if q.evaluate(v) == 1]
        for v in rng.sample(nonsingular, 10):
            t = transvection(q, v)
            assert preserves_form(q, t)
            assert mat_mul(t, t) == tuple(1 << i for i in range(q.dim))


def test_isometry_generators_preserve_form():
    for name in ("plus8", "minus8", "deg-hyp6"):
        q = preset(name)
        for g in isometry_generators(q):
            assert preserves_form(q, g)
            # invertibility
            gi = mat_inverse(g)
            assert mat_mul(g, gi) == tuple(1 << i for i in range(q.dim))


def test_isometry_generators_refuse_mixed_radical():
    with pytest.raises(ValueError):
        isometry_generators(preset("deg-c4"))
    with pytest.raises(ValueError):
        isometry_order(preset("deg-c4"))


def class_form(eps, m, r):
    """x0x1 + x2x3 + ... over m hyperbolic pairs, the last one x^2 + xy
    + y^2 when eps is '-', then r radical coordinates."""
    d = 2 * m + r
    rows = [0] * d
    for i in range(m):
        rows[2 * i] |= 1 << (2 * i + 1)
    if eps == "-":
        rows[2 * m - 2] |= 1 << (2 * m - 2)
        rows[2 * m - 1] |= 1 << (2 * m - 1)
    return QuadraticForm(d, tuple(rows))


def form_classes(max_dim):
    """(eps, m, r) for every class of accepted form with 1 <= d <= max_dim."""
    return [(eps, m, d - 2 * m) for d in range(1, max_dim + 1) for m in range(d // 2 + 1)
            for eps in (("+", "-") if m else ("+",))]


def point_group(q, gens, bound=None):
    """The group the matrices gens generate on the 2^d points."""
    return PermGroup(xor_span(np.array(gens, dtype=np.int64).reshape(-1, q.dim)), 1 << q.dim,
                     bound)


def isometry_count_oracle(q):
    """|Isom(Q)| by brute force: the d-tuples of basis images whose
    matrices keep Q and are invertible."""
    d = q.dim
    images = xor_span(np.array(list(itertools.product(range(1 << d), repeat=d))))
    images = np.sort(images[(q.values[images] == q.values).all(axis=1)], axis=1)
    return int(np.count_nonzero((np.diff(images, axis=1) != 0).all(axis=1)))


def test_isometry_groups_against_brute_force():
    # every class with d <= 4, in a rebased basis: the isometries counted
    # over GL(d, 2), the order of the group the generators generate and
    # the formula agree.  On x0x1 + x2x3, of type O^+(4, 2), the
    # transvections alone generate 36 of the 72 isometries.
    for eps, m, r in form_classes(4):
        q = rebased(class_form(eps, m, r), basis_change(2 * m + r, 4))
        count = isometry_count_oracle(q)
        assert point_group(q, isometry_generators(q)).order() == isometry_order(q) == count
    q = class_form("+", 2, 0)
    transvections = [transvection(q, v) for v in range(16) if q.evaluate(v)]
    assert (isometry_count_oracle(q), point_group(q, transvections).order()) == (72, 36)


def test_forms_equivalent_orientation():
    # forms_equivalent(q1, q2) returns g with q2(x) = q1(g x).
    qs = gamma_forms()
    base = list(qs.values())[0]
    for q2 in qs.values():
        g = forms_equivalent(base, q2)
        assert g is not None
        for v in range(1 << base.dim):
            assert q2.evaluate(v) == base.evaluate(apply_matrix(g, v))


def test_forms_inequivalent_types():
    assert forms_equivalent(preset("plus8"), preset("minus8")) is None


def test_field_reduction_arc():
    arc = field_reduction_arc()
    assert len(arc.planes) == 9
    d = arc.form.dim
    for p in arc.planes:
        assert p.rank == 3
        for v in gf2.subspace_vectors(p):
            assert arc.form.evaluate(v) == 0
    # pairwise trivial meets
    for i in range(9):
        for j in range(i + 1, 9):
            assert gf2.meet(arc.planes[i], arc.planes[j]).rank == 0
    # quotient data: 8-dimensional degenerate form carrying the 9 images
    assert arc.quotient_form.dim == 8
    assert len(arc.quotient_arc) == 9
    assert radicals(arc.quotient_form)[2].rad_dim > 0


# ----------------------------------------------------------------------
# the whole-array plane catalogue against the per-plane code it replaced


def singular_subspaces_oracle(q, k):
    """Slow oracle for singular_subspaces: extend singular subspaces a
    point at a time through the B-perp filter, one rref per extension."""
    if k > q.dim:
        return []
    if k == 0:
        return [gf2.rref([], q.dim)]
    points = [v for v in range(1, 1 << q.dim) if q.evaluate(v) == 0]
    level = {}
    for v in points:
        s = gf2.rref([v], q.dim)
        level[s.key()] = s
    for _ in range(k - 1):
        nxt = {}
        for s in level.values():
            perp_rows = [q.bilinear_row(b) for b in s.basis]
            for v in points:
                if gf2.contains(s, v):
                    continue
                if any(_parity(row & v) for row in perp_rows):
                    continue
                t = gf2.rref(list(s.basis) + [v], q.dim)
                nxt[t.key()] = t
        level = nxt
    return [level[kk] for kk in sorted(level)]


def plane_perms_oracle(form, planes, matrices=None):
    """The matrices, by default the isometry generators, as lists of
    plane images: each matrix applied to every point by apply_matrix, and
    each plane's image found by the sorted tuple of its 8 vectors."""
    vectors = np.array([sorted(gf2.subspace_vectors(p)) for p in planes])
    index = {tuple(v): i for i, v in enumerate(vectors.tolist())}
    out = []
    for g in isometry_generators(form) if matrices is None else matrices:
        points = np.array([apply_matrix(g, v) for v in range(1 << form.dim)])
        out.append([index[tuple(v)] for v in np.sort(points[vectors], axis=1).tolist()])
    return out


def rebased(q, a):
    """The form x -> Q(a x) for an invertible matrix a."""
    d = q.dim
    f = lambda v: q.evaluate(apply_matrix(a, v))  # noqa: E731
    rows = [sum((f(1 << i | 1 << j) ^ (f(1 << i) ^ f(1 << j) if i < j else 0)) << j
                for j in range(i, d)) for i in range(d)]
    out = QuadraticForm(d, tuple(rows))
    assert all(out.evaluate(v) == f(v) for v in range(1 << d))
    return out


def basis_change(d, seed):
    """A seeded random invertible matrix on F_2^d."""
    rng = random.Random(seed)
    while True:
        a = tuple(rng.randrange(1, 1 << d) for _ in range(d))
        if gf2.rank_of(a, d) == d:
            return a


CATALOGUE_FORMS = {
    "plus8": lambda: preset("plus8"),
    "minus8": lambda: preset("minus8"),
    "deg-hyp6": lambda: preset("deg-hyp6"),
    "deg-c4": lambda: preset("deg-c4"),
    "field-reduction-9": lambda: field_reduction_arc().form,
    "plus8-rebased": lambda: rebased(preset("plus8"), basis_change(8, 11)),
}


@pytest.mark.parametrize("name", sorted(CATALOGUE_FORMS))
def test_singular_planes_match_oracle(name):
    q = CATALOGUE_FORMS[name]()
    fast = singular_subspaces(q, 3)
    assert [p.key() for p in fast] == [p.key() for p in singular_subspaces_oracle(q, 3)]
    if name not in ("deg-c4", "field-reduction-9"):  # no structural generator set
        # each plane generator is the action of a strong generator of the
        # point group, which the same bound rebuilds with the same seeded
        # chain: the linear map whose column i is the image of the point
        # 1 << i
        G = plane_action(q, fast)
        points = point_group(q, isometry_generators(q), isometry_order(q)).strong_generators()
        matrices = [tuple(int(p[1 << i]) for i in range(q.dim)) for p in points]
        assert all(preserves_form(q, g) for g in matrices)
        assert [g.tolist() for g in G.gens] == plane_perms_oracle(q, fast, matrices)
        # and every isometry generator's plane permutation sifts through
        # the chain, so the two generating sets give one group
        chain = G._ensure_chain()
        for perm in plane_perms_oracle(q, fast):
            assert chain.sift(np.array(perm, dtype=np.int32))[0] is None


def test_singular_subspaces_random_forms_match_oracle():
    rng = random.Random(2014)
    for d in range(3, 8):
        forms = [QuadraticForm(d, (0,) * d)]
        forms += [QuadraticForm(d, tuple(rng.randrange(1 << d) for _ in range(d)))
                  for _ in range(3)]
        for q in forms:
            for k in (0, 1, 2, 3, d + 1):
                got = [p.key() for p in singular_subspaces(q, k)]
                assert got == [p.key() for p in singular_subspaces_oracle(q, k)], (q, k)


# ----------------------------------------------------------------------
# normal bases, witnesses and isometry generators against the per-vector
# scans they replaced


def normal_basis_oracle(q):
    """Slow oracle for _normal_basis: each pick by a scan of the current
    space with the scalar evaluate and bilinear."""
    rad, srad, cls = radicals(q)
    d = q.dim
    aniso_rad = None
    if cls.tag == "mixed":
        aniso_rad = next(r for r in rad.basis if q.evaluate(r))
    space = list(gf2.complement_basis(rad))
    pairs, aniso_pair = [], None
    while space:
        vecs = [v for v in gf2.subspace_vectors(gf2.rref(space, d)) if v]
        sing = next((v for v in vecs if q.evaluate(v) == 0), None)
        if sing is None:
            assert len(space) == 2
            aniso_pair = (vecs[0], next(v for v in vecs if q.bilinear(vecs[0], v)))
            break
        u = sing
        w = next(v for v in vecs if q.bilinear(u, v))
        w ^= u if q.evaluate(w) else 0
        pairs.append((u, w))
        perp = [v for v in vecs if not q.bilinear(u, v) and not q.bilinear(w, v)]
        space = list(gf2.rref(perp, d).basis)
    if aniso_pair is not None and aniso_rad is not None:
        a, b = aniso_pair
        pairs.append((a ^ aniso_rad, b ^ aniso_rad))
        aniso_pair = None
    basis = [x for pair in pairs for x in pair]
    basis += list(aniso_pair or ()) + ([aniso_rad] if aniso_rad is not None else [])
    return basis + list(srad.basis), cls


def forms_equivalent_oracle(q1, q2):
    """Slow oracle for forms_equivalent: the witness checked vector by
    vector with evaluate and apply_matrix."""
    b1, c1 = normal_basis_oracle(q1)
    b2, c2 = normal_basis_oracle(q2)
    if c1 != c2:
        return None
    g = mat_mul(mat_inverse(tuple(b2)), tuple(b1))
    assert all(q2.evaluate(v) == q1.evaluate(apply_matrix(g, v)) for v in range(1 << q1.dim))
    return g


def isometry_generators_oracle(q):
    """Slow oracle for isometry_generators: the transvections by a scan
    of every vector with the scalar evaluate and bilinear, and for
    O^+(4, 2) the swap of the hyperbolic pairs of the oracle's normal
    basis."""
    rad, srad, cls = radicals(q)
    d = q.dim
    gens = [tuple((1 << i) ^ (v if q.bilinear(1 << i, v) else 0) for i in range(d))
            for v in range(1, 1 << d) if q.evaluate(v) == 1]
    if cls.tag == "+" and d - rad.rank == 4:
        b = normal_basis_oracle(q)[0]
        gens.append(gf2.linear_map(b, b[2:4] + b[:2] + b[4:], d))
    if rad.rank:
        comp, rb = gf2.complement_basis(rad), rad.basis
        if len(rb) >= 2:
            gens.append(gf2.linear_map(comp + rb, comp + rb[1:] + rb[:1], d))
            gens.append(gf2.linear_map(comp + rb, comp + (rb[0] ^ rb[1],) + rb[1:], d))
        for c in comp:
            for s in srad.basis:
                sheared = tuple(x ^ s if x == c else x for x in comp)
                gens.append(gf2.linear_map(comp + rb, sheared + rb, d))
    return gens


def oracle_corpus():
    """The presets, the seven Q_gamma and 504 seeded random forms of
    dimension 1-9."""
    rng = random.Random(2014)
    out = list(PRESETS.values()) + list(gamma_forms().values())
    for d in range(1, 10):
        out += [QuadraticForm(d, tuple(rng.randrange(1 << d) for _ in range(d)))
                for _ in range(56)]
    return out


def test_normal_bases_and_isometry_generators_match_oracles():
    for q in oracle_corpus():
        assert _normal_basis(q) == normal_basis_oracle(q), q
        if radicals(q)[2].tag == "mixed":
            with pytest.raises(ValueError):
                isometry_generators(q)
        else:
            assert isometry_generators(q) == isometry_generators_oracle(q), q


def test_forms_equivalent_matches_oracle():
    forms = oracle_corpus()
    rng = random.Random(20)
    for k, q in enumerate(forms):
        others = [rebased(q, basis_change(q.dim, k)),
                  rng.choice([p for p in forms if p.dim == q.dim])]
        for q2 in others:
            assert forms_equivalent(q, q2) == forms_equivalent_oracle(q, q2), (q, q2)
