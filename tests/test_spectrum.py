import math

import numpy as np
import pytest

from dmckit.core import SequenceDist, SequenceSet, info_density
from dmckit.errors import DomainError, ValidationError
from dmckit.spectrum import (PartitioningIndex, build_spectrum_partition,
                             product_index, restrict_index, uniformity,
                             verify_bin_conditional_uniformity,
                             verify_bin_size_bounds,
                             verify_uniform_entropy_bounds)
from dmckit.verify import random_dist_on, random_subset, rng_from_seed


def three_atom():
    return SequenceDist(1, 3, np.array([0, 1, 2]), np.array([0.5, 0.25, 0.25]))


def test_spectrum_uniform_single_bin():
    A = SequenceSet.from_ids(2, 2, [0, 1, 3])
    d = SequenceDist.uniform_on(A)
    sp = build_spectrum_partition(d, 0.4, 0.5)
    nonempty = sp.nonempty()
    assert len(nonempty) == 1
    k, members = nonempty[0]
    assert k == math.floor((math.log2(3) / 2) / 0.4)
    assert members.ids_list() == [0, 1, 3]


def test_spectrum_three_atom_example():
    # densities 1.0, 2.0, 2.0; width 0.5 puts them in bins 2 and 4; K = 6
    with pytest.warns(UserWarning, match="delta >= 1"):
        sp = build_spectrum_partition(three_atom(), 0.5, 1.0)
    assert sp.K == 6
    assert len(sp.bins) == 7
    assert sp.bins[2].ids_list() == [0]
    assert sp.bins[4].ids_list() == [1, 2]
    assert sp.bin_mass[2] == pytest.approx(0.5)
    assert sp.bin_mass[4] == pytest.approx(0.5)


def test_spectrum_point_mass():
    sp = build_spectrum_partition(SequenceDist.point_mass(2, 2, 3), 0.3, 0.5)
    assert sp.bins[0].ids_list() == [3]


def test_spectrum_parameter_validation():
    with pytest.raises(DomainError):
        build_spectrum_partition(three_atom(), 1.5, 0.5)
    with pytest.raises(DomainError):
        build_spectrum_partition(three_atom(), 0.5, -1.0)
    with pytest.warns(UserWarning):
        build_spectrum_partition(three_atom(), 0.5, 1.5)


def test_bins_match_half_open_rule():
    rng = rng_from_seed(21)
    for _ in range(25):
        A = random_subset(rng, 4, 2)
        d = random_dist_on(rng, A)
        delta_n = float(rng.uniform(0.05, 0.9))
        sp = build_spectrum_partition(d, delta_n, 0.5)
        for k, members in sp.nonempty():
            for sid in members.ids_list():
                i_val = info_density(d, sid)
                if k < sp.K:
                    assert k * delta_n <= i_val + 1e-9
                    assert i_val < (k + 1) * delta_n + 1e-9
                else:
                    assert i_val >= sp.K * delta_n - 1e-9


def test_bin_count_cap_quadratic_width():
    # K+1 <= (delta + log2|X|) n^2 + 2 when delta_n = 1/n^2
    rng = rng_from_seed(4)
    for n in (2, 3, 4):
        A = SequenceSet.full_space(n, 2)
        d = random_dist_on(rng, A)
        delta = 0.7
        sp = build_spectrum_partition(d, 1.0 / n ** 2, delta)
        assert sp.K + 1 <= (delta + 1.0) * n ** 2 + 2


def test_bin_bounds_examples():
    with pytest.warns(UserWarning, match="delta >= 1"):
        sp = build_spectrum_partition(three_atom(), 0.5, 1.0)
    d = three_atom()
    assert verify_bin_size_bounds(sp, d).passed
    assert verify_bin_conditional_uniformity(sp, d).passed
    du = SequenceDist.uniform_on(SequenceSet.from_ids(3, 2, [0, 2, 5, 7]))
    spu = build_spectrum_partition(du, 0.3, 0.5)
    assert verify_bin_size_bounds(spu, du).passed
    assert verify_bin_conditional_uniformity(spu, du).passed


def test_bin_bounds_random_trials():
    rng = rng_from_seed(77)
    for _ in range(100):
        A = random_subset(rng, 8, 2, max_size=64)
        d = random_dist_on(rng, A)
        delta_n = float(rng.uniform(0.05, 0.9))
        delta = float(rng.uniform(0.1, 0.99))
        sp = build_spectrum_partition(d, delta_n, delta)
        assert verify_bin_size_bounds(sp, d).passed
        assert verify_bin_conditional_uniformity(sp, d).passed


def test_uniformity_examples():
    A = SequenceSet.from_ids(1, 2, [0, 1])
    d = SequenceDist(1, 2, A.ids, np.array([0.4, 0.6]))
    rep = uniformity(d, A)
    assert rep.gamma == pytest.approx(1.5)
    # entropy companion: log2(2) - log2(1.5) <= H <= 1
    bounds = verify_uniform_entropy_bounds(d, A)
    assert bounds.passed
    assert bounds.details["entropy"] == pytest.approx(0.970951, abs=1e-6)
    du = SequenceDist.uniform_on(SequenceSet.from_ids(2, 2, [0, 1, 2]))
    assert uniformity(du, du.support()).gamma == pytest.approx(1.0)
    pm = SequenceDist.point_mass(1, 2, 1)
    assert uniformity(pm, pm.support()).gamma == 1.0


def test_partitioning_index_validation():
    A = SequenceSet.from_ids(2, 2, [0, 1, 2])
    with pytest.raises(ValidationError):
        PartitioningIndex(A, {0: SequenceSet.from_ids(2, 2, [0, 1])})
    with pytest.raises(ValidationError):
        PartitioningIndex(A, {0: SequenceSet.from_ids(2, 2, [0, 1]),
                              1: SequenceSet.from_ids(2, 2, [1, 2])})
    pi = PartitioningIndex(A, {0: SequenceSet.from_ids(2, 2, [0, 1]),
                               1: SequenceSet.from_ids(2, 2, [2])})
    assert pi.label_of(2) == 1


def test_restrict_and_product_index():
    A = SequenceSet.from_ids(2, 2, [0, 1, 2, 3])
    m1 = PartitioningIndex.from_labeling(A, lambda s: s >> 1)
    m2 = PartitioningIndex.from_labeling(A, lambda s: s & 1)
    # restriction to the full set is the identity
    r = restrict_index(m1, A)
    assert {k: v.ids_list() for k, v in r.cells.items()} == \
        {k: v.ids_list() for k, v in m1.cells.items()}
    # product of an index with itself is isomorphic to the original
    same = product_index(m1, m1)
    assert sorted(tuple(c.ids_list()) for c in same.cells.values()) == \
        sorted(tuple(c.ids_list()) for c in m1.cells.values())
    # first-bit x second-bit product has four singleton cells
    prod = product_index(m1, m2)
    assert sorted(c.ids_list() for c in prod.cells.values()) == [[0], [1], [2], [3]]
    with pytest.raises(DomainError):
        restrict_index(m1, SequenceSet.from_ids(2, 2, []))


def test_product_index_algebra_random():
    rng = rng_from_seed(13)
    for _ in range(20):
        A = random_subset(rng, 3, 2)
        l1 = {int(s): int(rng.integers(0, 3)) for s in A.ids}
        l2 = {int(s): int(rng.integers(0, 2)) for s in A.ids}
        m1 = PartitioningIndex.from_labeling(A, lambda s: l1[s])
        m2 = PartitioningIndex.from_labeling(A, lambda s: l2[s])
        prod = product_index(m1, m2)
        # the joint is a valid partition (constructor validates) and its
        # cells are exactly the nonempty pairwise intersections
        for (a, b), cell in prod.cells.items():
            expect = m1.cell(a).intersect(m2.cell(b))
            assert cell.ids_list() == expect.ids_list()
