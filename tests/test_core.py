import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmckit.core import (Alphabet, Channel, Sequence, SequenceDist,
                         SequenceSet, _positions, bsc, entropy,
                         identity_channel, mutual_information, output_dist,
                         output_rows)
from dmckit.errors import (CapacityError, ConditioningError,
                           DimensionMismatchError, DomainError,
                           ValidationError)
from dmckit.verify import random_channel, random_dist_on, rng_from_seed
from kernel_oracles import info_density, product_prob


def test_channel_validation():
    with pytest.raises(ValidationError):
        Channel(Alphabet(2), Alphabet(2), [[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        Channel(Alphabet(2), Alphabet(2), [[1.5, -0.5], [0.5, 0.5]])


def test_sequence_roundtrip():
    s = Sequence.from_digits((1, 0, 2), base=3)
    assert s.value == 1 * 9 + 0 * 3 + 2
    assert s.digits() == (1, 0, 2)
    with pytest.raises(ValidationError):
        Sequence(2, 2, 4)


def test_product_prob_identity():
    ch = identity_channel(2)
    x = Sequence.from_digits((0, 1), 2)
    assert product_prob(ch, x, x) == 1.0
    y = Sequence.from_digits((0, 0), 2)
    assert product_prob(ch, x, y) == 0.0


def test_product_prob_bsc():
    # direct matrix-entry product: 0.9 * 0.1
    ch = bsc(0.1)
    x = Sequence.from_digits((0, 0), 2)
    y = Sequence.from_digits((0, 1), 2)
    assert product_prob(ch, x, y) == pytest.approx(0.09, abs=1e-15)
    with pytest.raises(DimensionMismatchError):
        product_prob(ch, x, Sequence.from_digits((0,), 2))


def test_product_prob_long_block_log_domain():
    ch = bsc(0.25)
    n = 12
    x = Sequence(n, 2, 0)
    y = Sequence(n, 2, (1 << n) - 1)
    assert product_prob(ch, x, y) == pytest.approx(0.25 ** n, rel=1e-12)


def test_product_prob_is_the_kernel_product():
    # one product at every n: 1.0 * W[x1, y1] * ... * W[xn, yn], left to
    # right, bit for bit the entry of the product-channel kernel
    rng = np.random.default_rng(1)
    zeros = 0
    for n in range(1, 11):
        for c in range(6):
            m = rng.uniform(0.05, 1.0, size=(2, 3))
            if c % 3 == 0:
                m[np.arange(2), rng.integers(0, 3, size=2)] = 0.0
            m /= m.sum(axis=1, keepdims=True)
            ch = Channel(Alphabet(2), Alphabet(3), m)
            xs = np.unique(rng.integers(0, 2 ** n, size=4))
            rows = output_rows(ch, SequenceSet.from_ids(n, 2, xs))
            ys = np.unique(rng.integers(0, 3 ** n, size=60))
            for x, row in zip(xs.tolist(), rows):
                for y in ys.tolist():
                    p = product_prob(ch, Sequence(n, 2, x), Sequence(n, 3, y))
                    assert p == row[y], (n, c, x, y)
                    zeros += p == 0.0
    assert zeros


def test_row_stochastic_under_product():
    rng = rng_from_seed(3)
    for _ in range(5):
        ch = random_channel(rng, 2, 3)
        n = 3
        for x_id in range(2 ** n):
            x = Sequence(n, 2, x_id)
            total = sum(product_prob(ch, x, Sequence(n, 3, y)) for y in range(3 ** n))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_output_dist_identity_and_symmetry():
    ch = identity_channel(3)
    A = SequenceSet.from_ids(2, 3, [0, 4, 8])
    d = SequenceDist.uniform_on(A)
    out = output_dist(ch, d)
    assert np.array_equal(out.ids, d.ids) and np.allclose(out.probs, d.probs)
    # BSC(0.5) washes everything to uniform at n=1
    out2 = output_dist(bsc(0.5), SequenceDist.point_mass(1, 2, 0))
    assert np.allclose(out2.probs, [0.5, 0.5])


def test_output_dist_bsc_example():
    # exhaustive 4-term sums: P(00)=P(11)=0.41, P(01)=P(10)=0.09
    d = SequenceDist.uniform_on(SequenceSet.from_ids(2, 2, [0, 3]))
    out = output_dist(bsc(0.1), d)
    assert dict(out.items()) == pytest.approx(
        {0: 0.41, 1: 0.09, 2: 0.09, 3: 0.41}, abs=1e-12)


def test_output_dist_linearity():
    rng = rng_from_seed(5)
    ch = random_channel(rng, 2, 2)
    A = SequenceSet.full_space(3, 2)
    d1 = random_dist_on(rng, A)
    d2 = random_dist_on(rng, A)
    lam = 0.3
    mix = SequenceDist(3, 2, A.ids, lam * d1.probs + (1 - lam) * d2.probs)
    out_mix = output_dist(ch, mix)
    o1, o2 = output_dist(ch, d1), output_dist(ch, d2)
    dense = np.zeros(8)
    for i, p in o1.items():
        dense[i] += lam * p
    for i, p in o2.items():
        dense[i] += (1 - lam) * p
    for i, p in out_mix.items():
        assert p == pytest.approx(dense[i], abs=1e-12)


def test_cond_output_given_set():
    # the output law given the input in A is output_dist of the conditioned law
    ch = bsc(0.1)
    d = SequenceDist.uniform_on(SequenceSet.from_ids(2, 2, [0, 1, 3]))
    A = SequenceSet.from_ids(2, 2, [0, 3])
    out = output_dist(ch, d.conditioned_on(A))
    assert dict(out.items()) == pytest.approx(
        {0: 0.41, 1: 0.09, 2: 0.09, 3: 0.41}, abs=1e-12)
    with pytest.raises(ConditioningError):
        d.conditioned_on(SequenceSet.from_ids(2, 2, [2]))


def test_capacity_cap_on_output_space():
    ch = bsc(0.1)
    with pytest.raises(CapacityError):
        output_dist(ch, SequenceDist.point_mass(27, 2, 0))


def test_info_density():
    A = SequenceSet.from_ids(1, 3, [0, 1, 2])
    d = SequenceDist(1, 3, A.ids, np.array([0.5, 0.25, 0.25]))
    assert info_density(d, Sequence(1, 3, 1)) == pytest.approx(2.0)
    # uniform: (1/n) log2 |A|
    du = SequenceDist.uniform_on(SequenceSet.from_ids(2, 2, [0, 1, 2]))
    assert info_density(du, 0) == pytest.approx(math.log2(3) / 2)
    assert info_density(SequenceDist.point_mass(2, 2, 1), 1) == 0.0
    with pytest.raises(DomainError):
        info_density(du, 3)


def test_entropy_and_mutual_information():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        entropy([0.5, 0.4])
    assert mutual_information([[0.25, 0.25], [0.25, 0.25]]) == 0.0
    assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(1.0)
    assert mutual_information([[0.4, 0.1], [0.1, 0.4]]) == pytest.approx(
        0.278072, abs=1e-6)
    with pytest.raises(ValidationError):
        mutual_information([[0.4, 0.1], [0.1, 0.1]])


def test_mutual_information_identity():
    rng = rng_from_seed(9)
    for _ in range(20):
        J = rng.uniform(0.0, 1.0, size=(3, 4))
        J /= J.sum()
        lhs = mutual_information(J)
        rhs = entropy(J.sum(axis=1)) + entropy(J.sum(axis=0)) \
            - entropy(J.ravel() / J.sum())
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_sequence_set_bitset_agrees():
    s = SequenceSet.from_ids(3, 2, [1, 5, 6])
    assert s.size == 3 and s.contains(5) and not s.contains(2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=40),
       st.lists(st.integers(0, 63), min_size=1, max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_sorted_lookups_match_isin(query, support, seed):
    # the searchsorted lookups against the np.isin forms they replaced: the
    # same words, so the same probabilities summed in the same order; the
    # query may be empty and may hold ids outside the support
    rng = np.random.default_rng(seed)
    A = SequenceSet.from_ids(6, 2, query)
    B = SequenceSet.from_ids(6, 2, support)
    w = rng.uniform(size=B.size) * 10.0 ** rng.integers(-9, 1, size=B.size)
    dist = SequenceDist(6, 2, B.ids, w / w.sum())
    inside = np.isin(dist.ids, A.ids)
    assert np.array_equal(_positions(B.ids, A.ids), np.flatnonzero(inside))
    assert _positions(A.ids, B.ids).size == np.isin(B.ids, A.ids).sum()
    assert dist.mass_of(A).hex() == float(np.sum(dist.probs[inside])).hex()
    empty = SequenceSet.from_ids(6, 2, [])
    for X, Y in ((A, B), (B, A), (empty, A), (A, empty), (empty, empty)):
        assert X.is_subset_of(Y) == bool(np.isin(X.ids, Y.ids).all())
    if not inside.any():
        with pytest.raises(ConditioningError):
            dist.conditioned_on(A)
        return
    probs = dist.probs[inside]
    probs = probs / float(np.sum(probs))
    cond = dist.conditioned_on(A)
    assert np.array_equal(cond.ids, dist.ids[inside][probs > 0.0])
    assert cond.probs.tobytes() == probs[probs > 0.0].tobytes()


def test_sequence_dist_validation():
    with pytest.raises(ValidationError):
        SequenceDist(1, 2, np.array([0, 1]), np.array([0.6, 0.5]))
    with pytest.raises(ValidationError):
        SequenceDist(1, 2, np.array([0, 0]), np.array([0.5, 0.5]))
    d = SequenceDist(1, 2, np.array([0, 1]), np.array([1.0, 0.0]))
    assert d.ids_list() if hasattr(d, "ids_list") else list(d.ids) == [0]
