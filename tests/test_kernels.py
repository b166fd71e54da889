"""Oracle checks for the numpy kernels and the bitset layer."""
import random

import numpy as np
import pytest

from asq import _kernels
from asq.groups import (
    HeisenbergGroup,
    ProductMasks,
    center,
    dihedral8,
    subgroup_generate,
    table4_group,
)


def membership_oracle(members, n):
    """The packer membership_words replaced: one np.bitwise_or.at
    scatter of shifted bits into native uint64 words."""
    out = np.zeros((len(members), (n + 63) // 64), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (members & 63).astype(np.uint64))
    np.bitwise_or.at(out, (np.arange(len(members))[:, None], members >> 6), bits)
    return out


def as_ints(words):
    """Mask rows (m, w) as Python ints, bit by bit: bit b of word w is
    member 64 w + b."""
    return [sum(1 << (64 * w + b) for w, word in enumerate(row.tolist()) for b in range(64)
                if word >> b & 1) for row in words]


@pytest.mark.parametrize("n", [1, 27, 63, 64, 65, 512])
def test_membership_words_and_as_ints_oracle(n):
    rng = np.random.default_rng(n)
    # 0 rows, one member, and rows of 2n members, which repeat some
    for m, k in ((0, 5), (1, 1), (9, 3), (40, 2 * n)):
        for dtype in (np.int16, np.intp):
            members = rng.integers(0, n, (m, k)).astype(dtype)
            got = _kernels.membership_words(members, n)
            want = membership_oracle(members, n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # bit g of a row, read as a Python int, is member g
            ints = [sum(1 << g for g in set(row.tolist())) for row in members]
            assert as_ints(got) == ints


def test_meet_counts_oracle():
    rng = random.Random(3)
    for n in (27, 64, 65, 512):
        sets = [{0, *rng.sample(range(n), rng.randint(0, n - 1))} for _ in range(12)]
        rows = np.array([sorted(s) + [0] * (n - len(s)) for s in sets])  # padded by 0
        words = _kernels.membership_words(rows, n)
        got = _kernels.meet_counts(words[:, None], words)
        assert got.tolist() == [[len(a & b) for b in sets] for a in sets]
        assert _kernels.meet_counts(words[3], words[5]) == len(sets[3] & sets[5])


def test_bit_rows_match_membership_words():
    # the backtrack's pools and tables: bool rows packed as mask rows
    rng = np.random.default_rng(4)
    for n in (0, 1, 63, 64, 65, 130):
        bits = rng.random((5, n)) < 0.4
        want = [_kernels.membership_words(np.flatnonzero(row)[None], n) for row in bits]
        assert np.array_equal(_kernels.bit_rows(bits), np.array(want).reshape(5, -1))
        assert _kernels.bit_rows(bits[None]).shape == (1, 5, (n + 63) // 64)


def test_products_with_no_subgroups():
    # lemma53_counts tests its base's products against pools that may be
    # empty, and the backtrack tests no products for an empty level
    G = table4_group("210b")
    pm = ProductMasks(G, [center(G), subgroup_generate(G, [1, 2])])
    for js in ([], np.zeros(0, dtype=np.intp)):
        assert pm.fits([[0]], [1], js).shape == (1, 0)
        assert pm.fits(np.zeros((0, 1)), js, [0, 1]).shape == (0, 2)
        assert pm.fits(np.zeros((0, 1)), js, np.zeros((0, 2))).shape == (0, 2)


def random_masks(rng, n, bits, words):
    arr = np.zeros((n, words), dtype=np.uint64)
    for i in range(n):
        m = 1  # bit 0 (the zero vector) always present
        for _ in range(rng.randint(1, bits // 2)):
            m |= 1 << rng.randrange(bits)
        for w in range(words):
            arr[i, w] = (m >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    return arr


def test_pairwise_disjoint_oracle():
    rng = random.Random(11)
    for words, bits in [(1, 40), (2, 100), (4, 256)]:
        arr = random_masks(rng, 30, bits, words)
        ints = [int(sum(int(arr[i, w]) << (64 * w) for w in range(words)))
                for i in range(30)]
        for meet in (1, 2, 3):
            got = _kernels.pairwise_disjoint(arr, meet=meet)
            for i in range(30):
                for j in range(30):
                    assert got[i, j] == ((ints[i] & ints[j]).bit_count() == meet)


def difference_oracle(G, delta):
    counts = [0] * G.n
    for s in delta:
        for t in delta:
            counts[int(G.mul[s, G.inv[t]])] += 1
    return counts


@pytest.mark.parametrize("G", [dihedral8(), HeisenbergGroup(3)])
def test_difference_counts_oracle(G):
    rng = random.Random(5)
    elems = rng.sample(range(1, G.n), G.n // 2)
    delta = np.asarray(sorted(elems), dtype=np.int64)
    got = _kernels.difference_counts(G.mul, G.inv, delta)
    assert list(got) == difference_oracle(G, list(delta))


def test_backend_flag_is_sane():
    assert _kernels.BACKEND == "numpy"
