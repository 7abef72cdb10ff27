import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as old
from dmckit.core import SequenceDist, SequenceSet, info_density
from dmckit.errors import (ConditioningError, DimensionMismatchError,
                           DomainError, ValidationError)
from dmckit.spectrum import (PartitioningIndex, _runs, bin_indices,
                             build_spectrum_partition, product_index,
                             restrict_index, uniformity,
                             verify_bin_conditional_uniformity,
                             verify_bin_size_bounds,
                             verify_uniform_entropy_bounds)
from dmckit.verify import random_dist_on, random_subset, rng_from_seed
from test_trusted import assert_same_index, assert_same_set


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


WIDTHS = (0.1, 0.25, 0.3, 0.05, 1 / 9, 1 / 16, 1 / 49, 1 / 64)


@st.composite
def spectrum_instances(draw):
    """(dist, delta_n, delta, space_aexp).  "edges" puts every word but one
    on a density k*delta_n (up to rounding), where the edge tests decide
    the bin; a small space_aexp sends the high densities to the tail bin K."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 8 if base == 2 else 5))
    delta_n = draw(st.one_of(st.sampled_from(WIDTHS), st.floats(0.01, 0.99)))
    size = draw(st.integers(1, min(base ** n, 200)))
    ids = rng.choice(base ** n, size, replace=False)
    if draw(st.sampled_from(("random", "edges"))) == "edges":
        probs, total = [], 0.0
        for k in rng.integers(1, max(2, int(3 / delta_n)), size=size - 1).tolist():
            p = 2.0 ** (-n * k * delta_n)
            if total + p < 1.0:
                probs.append(p)
                total += p
        probs.append(1.0 - total)
        ids = ids[:len(probs)]
    else:
        w = np.exp(rng.uniform(0.0, 12.0, size=size))
        probs = w / w.sum()
    dist = SequenceDist(n, base, ids, np.array(probs))
    delta = draw(st.sampled_from((0.05, 0.5, 0.99)))
    space_aexp = draw(st.sampled_from((None, 0.0, 0.1, math.log2(base))))
    return dist, delta_n, delta, space_aexp


@settings(max_examples=300, deadline=None)
@given(spectrum_instances())
def test_spectrum_bins_match_word_loop(inst):
    dist, delta_n, delta, space_aexp = inst
    sp = build_spectrum_partition(dist, delta_n, delta, space_aexp)
    K, members, masses = old.spectrum_bins(dist, delta_n, delta, space_aexp)
    assert sp.K == K
    assert [b.ids_list() for b in sp.bins] == members
    assert np.array(sp.bin_mass).tobytes() == np.array(masses).tobytes()


def test_bin_indices_match_bin_index():
    # 9.1 at width 0.05 needs the step up, 1.7 and 7.3 at width 0.1 the step
    # down; -0.0 is the density of a point mass
    cases = [(0.05, [9.1, 9.35, 0.0, -0.0, 0.05, 0.1]),
             (0.1, [1.7, 7.3, 15.1, 17.2, 0.3, 0.7, 2.9999999999999])]
    rng = np.random.default_rng(43)
    for delta_n in WIDTHS:
        k = rng.integers(0, 400, size=50)
        cases.append((delta_n, (k * delta_n).tolist() + rng.uniform(0, 20, 50).tolist()))
    for delta_n, values in cases:
        for K in (3, 1000):
            got = bin_indices(np.array(values), delta_n, K).tolist()
            assert got == [old.bin_index(v, delta_n, K) for v in values]


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
    assert verify_bin_size_bounds(sp).passed
    assert verify_bin_conditional_uniformity(sp, d).passed
    du = SequenceDist.uniform_on(SequenceSet.from_ids(3, 2, [0, 2, 5, 7]))
    spu = build_spectrum_partition(du, 0.3, 0.5)
    assert verify_bin_size_bounds(spu).passed
    assert verify_bin_conditional_uniformity(spu, du).passed


def test_bin_bounds_random_trials():
    rng = rng_from_seed(77)
    for _ in range(100):
        A = random_subset(rng, 8, 2, max_size=64)
        d = random_dist_on(rng, A)
        delta_n = float(rng.uniform(0.05, 0.9))
        delta = float(rng.uniform(0.1, 0.99))
        sp = build_spectrum_partition(d, delta_n, delta)
        assert verify_bin_size_bounds(sp).passed
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


# ---------------------------------------------------------------------------
# label-code restriction and product against one intersection per cell pair
# ---------------------------------------------------------------------------

def random_index(rng, ground: SequenceSet, count: int) -> PartitioningIndex:
    labels = {int(s): f"m{int(rng.integers(0, count))}" for s in ground.ids}
    return PartitioningIndex.from_labeling(ground, labels.__getitem__)


def test_set_algebra_matches_intersect1d():
    rng = rng_from_seed(211)
    empty = SequenceSet.from_ids(4, 2, [])
    for trial in range(80):
        n, base = (4, 2) if trial % 2 else (3, 3)
        A = random_subset(rng, n, base)
        B = random_subset(rng, n, base, max_size=int(rng.integers(1, 6)))
        for x, y in ((A, B), (B, A), (A, A)):
            assert_same_set(x.intersect(y), old.intersect(x, y))
            assert_same_set(x.difference(y), old.difference(x, y))
        if (n, base) == (4, 2):
            for x, y in ((A, empty), (empty, A), (empty, empty)):
                assert_same_set(x.intersect(y), old.intersect(x, y))
                assert_same_set(x.difference(y), old.difference(x, y))


def test_restrict_and_product_match_cellwise_intersections():
    rng = rng_from_seed(223)
    cases = {"one-word ground": 0, "other ground": 0, "three indices": 0}
    for trial in range(60):
        n = int(rng.integers(1, 6))
        ground = random_subset(rng, n, 2)
        pis = [random_index(rng, ground, int(rng.integers(1, 5))) for _ in range(3)]
        # a subset of the ground (sometimes one word, sometimes all of it)
        # is the restriction path; the ground itself keeps every cell
        size = 1 if trial % 5 == 0 else int(rng.integers(1, ground.size + 1))
        sub = SequenceSet(n, 2, rng.choice(ground.ids, size=size, replace=False))
        cases["one-word ground"] += sub.size == 1
        cases["other ground"] += sub.size < ground.size
        for pi in pis:
            assert_same_index(restrict_index(pi, sub), old.restrict_index(pi, sub))
            assert_same_index(restrict_index(pi, ground), old.restrict_index(pi, ground))
        got = product_index(product_index(pis[0], pis[1]), pis[2])
        want = old.product_index(old.product_index(pis[0], pis[1]), pis[2])
        assert_same_index(got, want)
        cases["three indices"] += len(got) > max(len(pi) for pi in pis)
        small = [restrict_index(pi, sub) for pi in pis]
        assert_same_index(product_index(small[1], small[0]),
                          old.product_index(small[1], small[0]))
    assert all(cases.values()), cases


def test_uniformity_matches_the_conditional_law():
    rng = rng_from_seed(233)
    for trial in range(120):
        n = int(rng.integers(1, 7))
        d = random_dist_on(rng, random_subset(rng, n, 2))
        A = random_subset(rng, n, 2) if trial % 3 else d.support()
        if trial % 5 == 0:
            A = SequenceSet(n, 2, d.ids[:1])
        if not np.isin(A.ids, d.ids).any():
            with pytest.raises(ConditioningError):
                uniformity(d, A)
            continue
        got, want = uniformity(d, A), old.uniformity(d, A)
        for field in ("gamma", "max_atom", "min_atom"):
            assert getattr(got, field).hex() == getattr(want, field).hex()
    with pytest.raises(DimensionMismatchError):
        uniformity(d, SequenceSet.from_ids(n + 1, 2, [0]))


def test_runs_match_unique():
    rng = rng_from_seed(229)
    for trial in range(200):
        size = int(rng.integers(0, 12))
        shape = (size,) if trial % 2 else (size, int(rng.integers(1, 7)))
        keys = rng.integers(0, int(rng.integers(1, 4)), size=shape).astype(np.int64)
        order, distinct, bounds, run_of = _runs(keys)
        want, which = old.distinct_rows(keys)
        assert distinct == want
        assert run_of.tolist() == which.tolist()
        assert bounds == [0] + np.cumsum(np.bincount(which, minlength=len(want))).tolist()
        for run in range(len(want)):
            # each run's positions ascending
            assert order[bounds[run]:bounds[run + 1]].tolist() == \
                np.flatnonzero(which == run).tolist()


def test_restriction_keeps_its_errors():
    rng = rng_from_seed(227)
    ground = SequenceSet.from_ids(3, 2, [1, 2, 5, 6])
    pi = random_index(rng, ground, 2)
    with pytest.raises(DomainError):
        restrict_index(pi, SequenceSet.from_ids(3, 2, []))
    with pytest.raises(DimensionMismatchError):
        restrict_index(pi, SequenceSet.from_ids(3, 2, [1, 3]))
    with pytest.raises(DimensionMismatchError):
        restrict_index(pi, SequenceSet.from_ids(4, 2, [1]))
    with pytest.raises(DimensionMismatchError):
        product_index(pi, restrict_index(pi, SequenceSet.from_ids(3, 2, [1, 2])))
    # the public constructor still refuses overlapping or short covers
    cells = {"a": SequenceSet.from_ids(3, 2, [1, 2]), "b": SequenceSet.from_ids(3, 2, [2, 5, 6])}
    with pytest.raises(ValidationError, match="not disjoint"):
        PartitioningIndex(ground, cells)
    with pytest.raises(ValidationError, match="do not cover"):
        PartitioningIndex(ground, {"a": SequenceSet.from_ids(3, 2, [1, 2, 5])})
    with pytest.raises(ValidationError, match="do not cover"):
        PartitioningIndex(ground, {"a": SequenceSet.from_ids(3, 2, [1, 2, 5, 7])})
