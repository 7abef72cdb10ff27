import math

import numpy as np
import pytest

from conftest import exhaustive_min_image, exhaustive_min_quasi_size
from dmckit.core import (Alphabet, Channel, Sequence, SequenceDist,
                         SequenceSet, bsc, identity_channel, output_dist,
                         output_rows)
from dmckit.errors import CapacityError, DomainError
from dmckit.images import (hamming_blowup, min_image_bracket, min_image_exact,
                           min_quasi_image, singleton_image_size)
from dmckit.verify import random_channel, random_subset, rng_from_seed


def test_quasi_image_full_mass():
    ch = bsc(0.2)
    A = SequenceSet.from_ids(2, 2, [0, 3])
    res = min_quasi_image(ch, None, A, 1.0)
    out = output_dist(ch, SequenceDist.uniform_on(A))
    assert res.witness.ids_list() == list(out.ids)


def test_quasi_image_bsc_example():
    # masses 0.41, 0.41, 0.09, 0.09: top-1 misses 0.5, top-2 reaches 0.82
    res = min_quasi_image(bsc(0.1), None, SequenceSet.from_ids(2, 2, [0, 3]), 0.5)
    assert res.size == 2
    assert res.witness.ids_list() == [0, 3]
    assert res.eta_achieved == pytest.approx(0.82)


def test_quasi_image_identity_half():
    for size in (2, 3, 4):
        A = SequenceSet.from_ids(2, 2, list(range(size)))
        res = min_quasi_image(identity_channel(2), None, A, 0.5)
        assert res.size == math.ceil(size / 2)


def test_quasi_image_eta_domain():
    with pytest.raises(DomainError):
        min_quasi_image(bsc(0.1), None, SequenceSet.from_ids(1, 2, [0]), 1.5)


def test_quasi_greedy_equals_exhaustive():
    rng = rng_from_seed(31)
    for _ in range(60):
        base = int(rng.integers(2, 4))
        n = 1 if base == 3 else int(rng.integers(1, 4))
        if base ** n > 12:
            n = 2
        ch = random_channel(rng, base, base)
        A = random_subset(rng, n, base)
        eta = float(rng.uniform(0.05, 0.999))
        got = min_quasi_image(ch, None, A, eta).size
        out = output_dist(ch, SequenceDist.uniform_on(A))
        assert got == exhaustive_min_quasi_size(out, eta)


def test_min_image_identity():
    ch = identity_channel(2)
    A = SequenceSet.from_ids(2, 2, [0, 2, 3])
    for eta in (0.1, 0.5, 1.0):
        br = min_image_exact(ch, A, eta)
        assert br.lower == br.upper == 3
        assert br.upper_witness.ids_list() == [0, 2, 3]


def test_min_image_bsc_examples():
    A = SequenceSet.from_ids(1, 2, [0, 1])
    assert min_image_exact(bsc(0.1), A, 0.9).lower == 2
    got = min_image_exact(bsc(0.1), A, 0.1)
    assert got.lower == 1 and got.upper_witness.ids_list() == [0]


def test_min_image_cap():
    with pytest.raises(CapacityError):
        min_image_exact(bsc(0.1), SequenceSet.from_ids(5, 2, [0]), 0.5)


def test_min_image_exact_vs_exhaustive():
    rng = rng_from_seed(41)
    for _ in range(80):
        base = 2
        n = int(rng.integers(1, 5))
        ch = random_channel(rng, base, base)
        A = random_subset(rng, n, base, max_size=min(8, base ** n))
        eta = float(rng.uniform(0.05, 0.999))
        rows = output_rows(ch, A)
        size, witness = exhaustive_min_image(rows, eta)
        br = min_image_exact(ch, A, eta)
        assert br.lower == br.upper == size
        assert br.upper_witness.ids_list() == witness
        mask = np.isin(np.arange(rows.shape[1]), br.upper_witness.ids)
        assert rows[:, mask].sum(axis=1).min() >= eta - 1e-12


def test_min_image_exact_unreachable_eta():
    # rows sum to 1 - 9e-13, so every word of two letters keeps about
    # 1 - 1.8e-12 of its mass: below eta = 1 even after the 1e-12 slack
    ch = Channel(Alphabet(2), Alphabet(2), [[0.5, 0.5 - 9e-13], [0.5 - 9e-13, 0.5]])
    A = SequenceSet.from_ids(2, 2, [0, 3])
    assert exhaustive_min_image(output_rows(ch, A), 1.0) == (5, None)
    with pytest.raises(DomainError):
        min_image_exact(ch, A, 1.0)
    assert min_image_exact(ch, A, 0.999).lower == 4


def test_bracket_contains_exact():
    rng = rng_from_seed(43)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        ch = bsc(0.2) if rng.uniform() < 0.5 else random_channel(rng, 2, 2)
        A = random_subset(rng, n, 2)
        eta = float(rng.uniform(0.05, 0.99))
        br = min_image_bracket(ch, A, eta)
        exact = min_image_exact(ch, A, eta).lower
        assert br.lower <= exact <= br.upper


def test_bracket_beyond_exact_cap():
    # 2^5 = 32 output columns exceeds the exact cap; the bracket stays sound
    ch = bsc(0.1)
    A = SequenceSet.from_ids(5, 2, [0, 31, 7])
    br = min_image_bracket(ch, A, 0.8)
    assert br.lower <= br.upper
    rows = output_rows(ch, A)
    mask = np.isin(np.arange(rows.shape[1]), br.upper_witness.ids)
    assert rows[:, mask].sum(axis=1).min() >= 0.8 - 1e-12
    from dmckit.images import min_image
    assert min_image(ch, A, 0.8).method == "greedy-cover/singleton-quasi-lower"


def test_bracket_trivial_cases():
    ch = identity_channel(3)
    A = SequenceSet.from_ids(1, 3, [0, 1])
    br = min_image_bracket(ch, A, 0.7)
    assert br.lower == br.upper == 2 and br.exact
    single = SequenceSet.from_ids(2, 2, [1])
    brs = min_image_bracket(bsc(0.15), single, 0.8)
    assert brs.exact and brs.lower == brs.upper
    assert brs.lower == singleton_image_size(bsc(0.15), Sequence(2, 2, 1), 0.8)


def test_singleton_image():
    assert singleton_image_size(identity_channel(4), Sequence(2, 4, 5), 0.3) == 1
    assert singleton_image_size(bsc(0.1), Sequence.from_digits((0, 0), 2), 0.95) == 3
    assert singleton_image_size(bsc(0.3), Sequence(2, 2, 0), 1.0) == 4


def test_quasi_dominated_by_image_and_monotone():
    rng = rng_from_seed(47)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        ch = random_channel(rng, 2, 2)
        A = random_subset(rng, n, 2)
        eta_lo = float(rng.uniform(0.05, 0.6))
        eta_hi = float(min(0.99, eta_lo + rng.uniform(0.05, 0.35)))
        g_lo = min_image_exact(ch, A, eta_lo).lower
        g_hi = min_image_exact(ch, A, eta_hi).lower
        q_lo = min_quasi_image(ch, None, A, eta_lo).size
        q_hi = min_quasi_image(ch, None, A, eta_hi).size
        assert q_lo <= g_lo and q_hi <= g_hi
        assert g_lo <= g_hi and q_lo <= q_hi
        sub = SequenceSet(n, 2, A.ids[: max(1, A.size // 2)])
        assert min_image_exact(ch, sub, eta_lo).lower <= g_lo


def test_hamming_blowup():
    B = SequenceSet.from_ids(3, 2, [0])
    assert hamming_blowup(B, 0).ids_list() == [0]
    assert hamming_blowup(B, 1).size == 4
    assert hamming_blowup(B, 3).size == 8
    # ternary: center + n*(base-1) neighbours
    T = SequenceSet.from_ids(2, 3, [4])
    assert hamming_blowup(T, 1).size == 1 + 2 * 2
    with pytest.raises(DomainError):
        hamming_blowup(B, 5)


def test_blowup_composition_random():
    rng = rng_from_seed(53)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        B = random_subset(rng, n, 2, max_size=4)
        l1 = int(rng.integers(0, n))
        l2 = int(rng.integers(0, n - l1 + 1))
        lhs = hamming_blowup(hamming_blowup(B, l1), l2)
        rhs = hamming_blowup(B, l1 + l2)
        assert np.array_equal(lhs.ids, rhs.ids)
        assert hamming_blowup(B, l1).size >= B.size
