"""Oracle checks for the two numpy kernels."""
import random

import numpy as np
import pytest

from asq import _kernels
from asq.groups import HeisenbergGroup, dihedral8


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
