import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmckit import core, partitioner
from dmckit.core import SequenceDist, SequenceSet, bsc, identity_channel
from dmckit.errors import CapacityError, DomainError
from dmckit.images import image_exponents, min_image_exact
from dmckit.partitioner import (build_equal_image_partition,
                                build_image_entropy_partition,
                                build_uniformizing_partition,
                                entropy_perturbation_bound, extract_equal_cell,
                                extract_main, refine_quasi_to_image)
from dmckit.spectrum import PartitioningIndex
from dmckit.verify import (random_channel, random_dist_on, random_eta,
                           random_subset, rng_from_seed)

import kernel_oracles as old
from test_trusted import assert_same_set


def first_bit_index(A):
    return PartitioningIndex.from_labeling(A, lambda sid: sid >> (A.n - 1))


# ---------------------------------------------------------------------------
# uniformizing partition
# ---------------------------------------------------------------------------

def test_slices_single_message_uniform():
    A = SequenceSet.from_ids(2, 2, [0, 1, 3])
    d = SequenceDist.uniform_on(A)
    M = PartitioningIndex.trivial(A)
    up = build_uniformizing_partition(d, M, delta=0.4)
    assert len(up.cells) == 1
    ((k, l), cell), = up.cells.items()
    assert l == 0  # the only message has full share of its slice
    assert cell.x_uniformity.gamma == pytest.approx(1.0)
    assert cell.m_uniformity.gamma == pytest.approx(1.0)
    assert up.remainder_mass == 0.0


def test_slices_first_bit_message_gammas():
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    up = build_uniformizing_partition(d, first_bit_index(A), delta=0.5)
    assert len(up.cells) == 1
    cell = next(iter(up.cells.values()))
    assert set(cell.messages) == {0, 1}
    assert cell.m_uniformity.gamma == 1.0
    assert up.partitions_ground()
    assert up.message_partition_ok([0, 1])


def test_slices_heavy_tail_sequence_goes_to_remainder():
    # one sequence carries probability below the density-tail edge
    n, delta = 2, 0.6
    tail_p = 2.0 ** (-n * (2 * delta + 2.0))
    rest = (1.0 - tail_p) / 3
    d = SequenceDist(n, 2, np.array([0, 1, 2, 3]),
                     np.array([rest, rest, rest, tail_p]))
    A = d.support()
    up = build_uniformizing_partition(d, PartitioningIndex.trivial(A), delta=delta)
    assert up.remainder.contains(3)
    assert up.remainder_mass == pytest.approx(tail_p, rel=1e-9)


def test_slices_random_structural():
    rng = rng_from_seed(101)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = random_subset(rng, n, 2)
        dist = random_dist_on(rng, A)
        count = int(rng.integers(1, min(A.size, 4) + 1))
        labels = {int(s): int(rng.integers(0, count)) for s in A.ids}
        M = PartitioningIndex.from_labeling(A, lambda s: labels[s])
        rho = int(rng.integers(0, 2))
        up = build_uniformizing_partition(dist, M, delta=float(rng.uniform(0.1, 0.9)),
                                          rho=rho)
        assert up.partitions_ground()
        assert up.message_partition_ok(M.labels())
        for cell in up.cells.values():
            assert cell.x_ok and cell.m_ok


def same_float(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def assert_same_uniformizing(got, want):
    """Field for field, floats and ids bit for bit."""
    for name in ("n", "delta", "rho", "slice_width", "ratio_width", "K",
                 "remainder_mass"):
        assert same_float(getattr(got, name), getattr(want, name)), name
    assert_same_set(got.ground, want.ground)
    assert_same_set(got.remainder, want.remainder)
    assert list(got.message_bins_by_slice.items()) == \
        list(want.message_bins_by_slice.items())
    for k, bins in want.message_bins_by_slice.items():
        assert list(got.message_bins_by_slice[k]) == list(bins)
    assert list(got.cells) == list(want.cells)
    for key, cell in want.cells.items():
        mine = got.cells[key]
        assert (mine.density_bin, mine.ratio_bin, mine.messages) == \
            (cell.density_bin, cell.ratio_bin, cell.messages)
        assert_same_set(mine.members, cell.members)
        for rep in ("x_uniformity", "m_uniformity"):
            for field in ("gamma", "max_atom", "min_atom"):
                assert same_float(getattr(getattr(mine, rep), field),
                                  getattr(getattr(cell, rep), field))
        assert same_float(mine.x_bound, cell.x_bound)
        assert same_float(mine.m_bound, cell.m_bound)


def test_slices_match_cellwise_intersections():
    rng = rng_from_seed(307)
    cases = {"absent message": 0, "one word": 0, "other ground": 0, "remainder": 0}
    for trial in range(90):
        base = 3 if trial % 4 == 3 else 2
        n = int(rng.integers(2, 8 if base == 2 else 5))
        outer = random_subset(rng, n, base)
        size = 1 if trial % 9 == 0 else int(rng.integers(1, outer.size + 1))
        A = SequenceSet(n, base, rng.choice(outer.ids, size=size, replace=False))
        if trial % 3:
            dist = random_dist_on(rng, A)
        else:  # atoms near three levels: many words per density bin and message
            w = rng.choice([0.3, 1.0, 1.7], size=A.size) * rng.uniform(1.0, 1.05, A.size)
            dist = SequenceDist(n, base, A.ids, w / w.sum())
        count = int(rng.integers(1, 5))
        labels = {int(s): ("m", int(rng.integers(0, count))) for s in outer.ids}
        # the message index lives on a superset of the support half the time
        M = PartitioningIndex.from_labeling(outer if trial % 2 else A, labels.__getitem__)
        delta = float(rng.choice([0.25, 0.5, 1.0, math.log2(base)]))
        rho = int(rng.integers(0, 2))
        got = build_uniformizing_partition(dist, M, delta=delta, rho=rho)
        want = old.build_uniformizing_partition(dist, M, delta=delta, rho=rho)
        assert_same_uniformizing(got, want)
        present = {labels[s] for s in A.ids_list()}
        cases["absent message"] += any(
            {labels[s] for s in want.spectrum.bins[k].ids_list()} != present
            for k in want.message_bins_by_slice)
        cases["one word"] += A.size == 1
        cases["other ground"] += M.ground.size > A.size
        cases["remainder"] += want.remainder.size > 0
    assert all(cases.values()), cases


# ---------------------------------------------------------------------------
# refinement and extraction
# ---------------------------------------------------------------------------

def test_refine_identity_channel():
    ch = identity_channel(2)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    r = refine_quasi_to_image(ch, d, A, 1.0)
    assert r.refined.ids_list() == A.ids_list()
    assert r.certificate_ok and r.ratio_ok


def test_refine_bsc_example():
    # B = {00, 11}; both rows put 0.82 >= 0.25 on it
    ch = bsc(0.1)
    A = SequenceSet.from_ids(2, 2, [0, 3])
    d = SequenceDist.uniform_on(A)
    r = refine_quasi_to_image(ch, d, A, 0.5)
    assert r.witness.ids_list() == [0, 3]
    assert r.refined.ids_list() == [0, 3]
    assert r.min_row_mass == pytest.approx(0.82)
    assert r.certificate_ok and r.ratio_ok


def test_refine_certificate_random():
    rng = rng_from_seed(103)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        ch = random_channel(rng, 2, 2)
        A = random_subset(rng, n, 2)
        d = random_dist_on(rng, A)
        r = refine_quasi_to_image(ch, d, A, float(rng.uniform(0.05, 1.0)))
        assert r.refined.size > 0
        assert r.certificate_ok and r.ratio_ok


def test_extract_identity_slack_zero():
    ch = identity_channel(2)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    result, step = extract_equal_cell(ch, d, A, 0.25, 0.5, 0.5)
    assert result.ids_list() == [0, 1, 2, 3]
    assert step.entropy_rate == pytest.approx(step.image_exponent_lower)
    assert step.slack_upper == pytest.approx(0.0, abs=1e-12)


def test_extract_singleton():
    ch = bsc(0.1)
    A = SequenceSet.from_ids(2, 2, [2])
    d = SequenceDist.uniform_on(A)
    result, step = extract_equal_cell(ch, d, A, 0.3, 0.5, 0.5)
    assert result.ids_list() == [2]


def test_extract_bsc_ratio():
    ch = bsc(0.1)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    result, step = extract_equal_cell(ch, d, A, 0.3, 0.5, 0.5)
    assert result.size > 0
    assert step.ratio >= step.ratio_floor - 1e-9
    assert step.image_exact


def test_extract_main_identity_pair():
    chs = [identity_channel(2), identity_channel(2)]
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    result, trace = extract_main(chs, d, A, 0.5)
    assert result.ids_list() == A.ids_list()
    assert all(rec["two_sided_gap"] == pytest.approx(0.0, abs=1e-12)
               for rec in trace.per_channel)
    assert trace.ratio >= trace.ratio_floor


def test_extract_main_single_channel_reduces():
    # with one channel, the composition is exactly one extraction step
    from dmckit.partitioner import _width
    ch = bsc(0.15)
    A = SequenceSet.full_space(3, 2)
    d = SequenceDist.uniform_on(A)
    width = _width(0, 3, 1, None, None)
    direct, _ = extract_equal_cell(ch, d, A, width, 0.5, 0.5)
    composed, trace = extract_main([ch], d, A, 0.5)
    assert composed.ids_list() == direct.ids_list()
    assert len(trace.steps) == 1


def test_extract_main_two_channels():
    chs = [bsc(0.1), bsc(0.2)]
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    result, trace = extract_main(chs, d, A, 0.5)
    assert result.size > 0
    assert len(trace.steps) == 2
    for rec in trace.per_channel:
        assert rec["image_exact"]
        assert rec["two_sided_gap"] >= 0.0


def _extraction_instances():
    rng = rng_from_seed(17)
    for trial in range(4):
        chs = [random_channel(rng, 2, 2, allow_zeros=False) for _ in range(1 + trial % 2)]
        A = random_subset(rng, 3, 2)
        yield chs, random_dist_on(rng, A), A
    # two channels where the second step shrinks the first step's result
    rng = rng_from_seed(3)
    chs = [random_channel(rng, 2, 2, allow_zeros=False) for _ in range(2)]
    A = random_subset(rng, 3, 2)
    yield chs, random_dist_on(rng, A), A


def test_extract_main_exponents_match_a_fresh_solve():
    # a channel's exponents come from its own extraction step when no later
    # step shrank the set, and from a new solve otherwise; either way they
    # must equal a fresh solve on the result
    read = set()
    for chs, d, A in _extraction_instances():
        result, trace = extract_main(chs, d, A, 0.4)
        for ch, step, rec in zip(chs, trace.steps, trace.per_channel):
            read.add(step.result.size == result.size)
            lo, hi, exact = image_exponents(ch, result, 0.4)
            assert (rec["image_exponent_lower"], rec["image_exponent_upper"],
                    rec["image_exact"]) == (lo, hi, exact)
    assert read == {True, False}


def test_extraction_solves_each_level_once(monkeypatch):
    # a shallow step whose result is the refined set solves it once, at eta;
    # reading the continuity gap then solves the other of its two levels
    # (eta is one of them here), so no level is solved twice
    ch = bsc(0.1)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    _, probe = extract_equal_cell(ch, d, A, 0.3, 0.5, 0.5)
    lo_level = max(min(probe.heavy_prefix_mass / A.n, 1.0), partitioner.GRID)
    solve = partitioner.image_exponents
    for eta in (0.9, lo_level):  # beta = max(eta, 1 - 1/n^2) is eta at 0.9
        calls = []

        def counting(ch_, B, level):
            calls.append((B.ids.tobytes(), level))
            return solve(ch_, B, level)

        monkeypatch.setattr(partitioner, "image_exponents", counting)
        result, step = extract_equal_cell(ch, d, A, 0.3, 0.5, eta)
        assert result is step.refined and step.branch == "shallow"
        assert calls == [(result.ids.tobytes(), eta)]
        tau = step.continuity_gap
        assert step.branch_threshold == 4.19 + tau / 0.3
        monkeypatch.undo()
        assert len(calls) == len(set(calls)) == 2
        beta = max(eta, 1.0 - 1.0 / A.n ** 2)
        assert {level for _, level in calls} == {beta, lo_level}
        assert tau == max(0.0, solve(ch, result, beta)[1]
                          - solve(ch, result, lo_level)[0])
        assert (step.image_exponent_lower, step.image_exponent_upper,
                step.image_exact) == solve(ch, result, eta)


def test_extraction_matches_the_eager_gap():
    # the step solves tau only when a heavy bin past 4 needs the branch test,
    # or when its gap is read; the eager extraction solved it up front.
    # Both must agree on the result, the branch, the drop bin, the
    # exponents, and the gap and threshold bits once read.  A noiseless BSC
    # has tau = 0 (every minimum image of A' is |A'|), so a heavy bin of 5
    # already goes deep there
    rng = rng_from_seed(20)
    heavy = 0
    deep_bins = set()
    for trial in range(200):
        n = int(rng.integers(3, 8))
        ch = bsc(0.0 if trial % 3 == 0 else float(rng.uniform(0.01, 0.45)))
        delta_n = (0.02, 0.05, 0.1, 0.2)[trial % 4]
        A = random_subset(rng, n, 2)
        d = random_dist_on(rng, A)
        eta = random_eta(rng)
        want = old.extract_equal_cell_eager(ch, d, A, delta_n, 0.5, eta)
        result, step = extract_equal_cell(ch, d, A, delta_n, 0.5, eta)
        assert result.ids_list() == want["result"].ids_list()
        assert (step.branch, step.drop_bin) == (want["branch"], want["drop_bin"])
        assert (step.image_exponent_lower, step.image_exponent_upper,
                step.image_exact) == want["exponents"]
        assert step.continuity_gap == want["continuity_gap"]
        assert step.branch_threshold == want["branch_threshold"]
        heavy += step.heavy_bin > 4
        if step.branch != "shallow":
            assert step.branch == "deep-light-tail"
            deep_bins.add(step.heavy_bin)
    assert heavy > 100
    assert min(deep_bins) == 5 and len(deep_bins) > 10


# ---------------------------------------------------------------------------
# image-entropy partition and the equal-image-size partition
# ---------------------------------------------------------------------------

def test_image_entropy_partition_identity():
    part = build_image_entropy_partition(
        [identity_channel(2)],
        SequenceDist.uniform_on(SequenceSet.full_space(2, 2)),
        SequenceSet.full_space(2, 2), 0.5)
    assert part.cell_count == 1
    assert part.within_cap
    assert part.epsilon_measured == pytest.approx(0.0, abs=1e-12)


def test_image_entropy_partition_singleton():
    A = SequenceSet.from_ids(3, 2, [5])
    part = build_image_entropy_partition(
        [bsc(0.1)], SequenceDist.uniform_on(A), A, 0.5)
    assert part.cell_count == 1


def test_image_entropy_partition_bsc_structural():
    for n in (2, 3, 4):
        A = SequenceSet.full_space(n, 2)
        d = SequenceDist.uniform_on(A)
        part = build_image_entropy_partition([bsc(0.1)], d, A, 0.5)
        assert part.within_cap
        total = sum(c.size for c in part.index.cells.values())
        assert total == A.size
        for rec in part.records.values():
            assert rec.x_entropy_rate <= rec.set_exponent + 1e-9


def test_equal_image_partition_identity_all_zero_gaps():
    idc = identity_channel(2)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    M = PartitioningIndex.from_labeling(A, lambda s: s)
    eq = build_equal_image_partition([idc], d, A, [M], eta=0.5)
    assert eq.within_cap
    for val in eq.lambda_measured.values():
        assert val == pytest.approx(0.0, abs=1e-12)
    for rec in eq.cell_records.values():
        for mrec in rec["subsets"].values():
            assert mrec.messages_tilde == mrec.messages


def test_equal_image_partition_bsc_oracle():
    ch = bsc(0.1)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    M = first_bit_index(A)
    eq = build_equal_image_partition([ch], d, A, [M], eta=0.5)
    assert eq.within_cap
    # per cell and message, the recorded image exponents match the exact solver
    for label, cell in eq.index.cells.items():
        rec = eq.cell_records[label]["subsets"][(0,)]
        for m in rec.messages:
            inter = M.cell(m).intersect(cell)
            want = min_image_exact(ch, inter, 0.5).lower
            lo, hi, exact = rec.message_image_exponents[m][0]
            assert exact and lo == pytest.approx(math.log2(want) / 2)
        # image size of a message cell never exceeds the whole cell's
        g_cell = min_image_exact(ch, cell, 0.5).lower
        for m in rec.messages:
            inter = M.cell(m).intersect(cell)
            assert min_image_exact(ch, inter, 0.5).lower <= g_cell


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 3),
       n_channels=st.integers(1, 2), n_messages=st.integers(1, 2),
       eta=st.sampled_from([0.3, 0.5, 0.8]))
def test_equal_image_partition_exponents_match_fresh_solves(seed, n, n_channels,
                                                            n_messages, eta):
    # every message's exponents, whether read from an inner record or solved
    # in the record loop, equal a fresh solve of message cell ∩ cell
    rng = rng_from_seed(seed)
    chs = [random_channel(rng, 2, 2) for _ in range(n_channels)]
    A = random_subset(rng, n, 2)
    d = random_dist_on(rng, A)
    Ms = [PartitioningIndex.from_labeling(A, lambda s, j=j: (s >> j) % 2)
          for j in range(n_messages)]
    eq = build_equal_image_partition(chs, d, A, Ms, eta=eta)
    for label, cell in eq.index.cells.items():
        for S, mrec in eq.cell_records[label]["subsets"].items():
            for m, exps in mrec.message_image_exponents.items():
                labels = (m,) if len(S) == 1 else m
                inter = cell
                for j, lab in zip(S, labels):
                    inter = inter.intersect(Ms[j].cell(lab))
                assert exps == [image_exponents(ch, inter, eta) for ch in chs]


def test_equal_image_partition_empty_subset_reduces():
    # S = (): a single pseudo-message carrying the whole cell
    ch = bsc(0.2)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    M = first_bit_index(A)
    eq = build_equal_image_partition([ch], d, A, [M], eta=0.5)
    for rec in eq.cell_records.values():
        srec = rec["subsets"][()]
        assert srec.messages == ((),)
        assert srec.aexp_messages == 0.0


def test_equal_image_partition_multi_iteration():
    # an atom far below 1/|V|^2 of the rest is dropped on the first pass and
    # swept into its own cell on the second
    tiny = 1e-5
    rest = (1.0 - tiny) / 3
    d = SequenceDist(2, 2, np.array([0, 1, 2, 3]),
                     np.array([rest, rest, rest, tiny]))
    A = d.support()
    M = first_bit_index(A)
    eq = build_equal_image_partition([bsc(0.1)], d, A, [M], eta=0.5)
    assert eq.iterations == 2
    assert eq.within_cap
    covered = sum(c.size for c in eq.index.cells.values())
    assert covered == A.size
    second_pass = [lab for lab in eq.index.cells if lab[0] == 2]
    assert second_pass and eq.index.cells[second_pass[0]].ids_list() == [3]


def test_equal_image_partition_caps_j():
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    M = PartitioningIndex.trivial(A)
    with pytest.raises(CapacityError):
        build_equal_image_partition([bsc(0.1)], d, A, [M, M, M, M], eta=0.5)


def test_partition_chain_rectangular_channel():
    # 2-symbol input, 3-symbol output: nothing in the chain assumes |X| = |Y|
    rng = rng_from_seed(211)
    ch = random_channel(rng, 2, 3, allow_zeros=False)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    result, step = extract_equal_cell(ch, d, A, 0.3, 0.5, 0.5)
    assert result.size > 0
    part = build_image_entropy_partition([ch], d, A, 0.5)
    assert part.within_cap
    M = first_bit_index(A)
    eq = build_equal_image_partition([ch], d, A, [M], eta=0.5)
    covered = sum(c.size for c in eq.index.cells.values())
    assert covered == A.size


def test_equal_image_partition_j2():
    ch = bsc(0.1)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    M1 = PartitioningIndex.from_labeling(A, lambda s: s >> 1)
    M2 = PartitioningIndex.from_labeling(A, lambda s: s & 1)
    eq = build_equal_image_partition([ch], d, A, [M1, M2], eta=0.5)
    assert eq.within_cap
    assert len(eq.subsets) == 4
    total = sum(c.size for c in eq.index.cells.values())
    assert total == A.size


def _record_inner_builds(monkeypatch):
    calls = []
    build = partitioner.build_image_entropy_partition

    def recorder(channels, dist, A, eta, schedule=None):
        calls.append((dist.ids.tobytes(), dist.probs.tobytes(), A.ids.tobytes()))
        return build(channels, dist, A, eta, schedule)

    monkeypatch.setattr(partitioner, "build_image_entropy_partition", recorder)
    return calls


def test_equal_image_partition_builds_each_cell_once(monkeypatch):
    # within an iteration the conditional law is fixed, so a repeated
    # (law, cell) pair would be a repeated build; across iterations the
    # residual, hence the law, differs
    calls = _record_inner_builds(monkeypatch)
    tiny = 1e-5
    rest = (1.0 - tiny) / 3
    d = SequenceDist(2, 2, np.array([0, 1, 2, 3]),
                     np.array([rest, rest, rest, tiny]))
    eq = build_equal_image_partition([bsc(0.1)], d, d.support(),
                                     [first_bit_index(d.support())], eta=0.5)
    assert eq.iterations == 2
    assert calls and len(set(calls)) == len(calls)
    rng = rng_from_seed(23)
    for _ in range(4):
        calls.clear()
        A = random_subset(rng, 3, 2)
        d = random_dist_on(rng, A)
        M1 = PartitioningIndex.from_labeling(A, lambda s: s % 2)
        M2 = PartitioningIndex.from_labeling(A, lambda s: (s >> 1) % 2)
        build_equal_image_partition([bsc(0.1), bsc(0.2)], d, A, [M1, M2], eta=0.5)
        assert calls and len(set(calls)) == len(calls)


def test_equal_image_partition_builds_each_row_once(monkeypatch):
    # one matrix of A's rows per channel; every request below it is a slice
    real = core._product_rows
    builds = []

    def recording(ch, ids, n):
        if core._stored(ch, ids, n) is None:
            builds.append((ch.name, ids.tobytes()))
        return real(ch, ids, n)

    monkeypatch.setattr(core, "_product_rows", recording)
    rng = rng_from_seed(29)
    A = random_subset(rng, 5, 2)
    d = random_dist_on(rng, A)
    M1 = PartitioningIndex.from_labeling(A, lambda s: s % 2)
    M2 = PartitioningIndex.from_labeling(A, lambda s: (s >> 1) % 3)
    build_equal_image_partition([bsc(0.1), bsc(0.2)], d, A, [M1, M2], eta=0.5)
    assert builds == [("bsc(0.1)", A.ids.tobytes()), ("bsc(0.2)", A.ids.tobytes())]
    assert core._ROW_STORE.get() is None


def test_equal_image_partition_reuses_shared_cells(monkeypatch):
    # one message of the first index: S = () and S = (0,) give the whole
    # residual, S = (1,) and S = (0, 1) give the same two halves, so six
    # (S, m) pairs need three inner partitions
    calls = _record_inner_builds(monkeypatch)
    A = SequenceSet.full_space(2, 2)
    d = SequenceDist.uniform_on(A)
    M1 = PartitioningIndex.trivial(A)
    M2 = first_bit_index(A)
    eq = build_equal_image_partition([bsc(0.1)], d, A, [M1, M2], eta=0.5)
    assert eq.iterations == 1
    pairs = 1 + len(M1) + len(M2) + len(M1) * len(M2)
    assert pairs == 6
    assert len(calls) == 3


def test_image_entropy_partition_is_pure():
    # the equal-image partition shares one build between subsets on this
    # property: equal inputs give equal records
    rng = rng_from_seed(29)
    for _ in range(3):
        chs = [random_channel(rng, 2, 2, allow_zeros=False) for _ in range(2)]
        A = random_subset(rng, 3, 2)
        d = random_dist_on(rng, A)
        first = build_image_entropy_partition(chs, d, A, 0.5)
        second = build_image_entropy_partition(chs, d, A, 0.5)
        assert first.records.keys() == second.records.keys()
        assert first.epsilon_measured == second.epsilon_measured
        for u, rec in first.records.items():
            other = second.records[u]
            assert rec.members.ids_list() == other.members.ids_list()
            assert (rec.set_exponent, rec.x_entropy_rate) == (
                other.set_exponent, other.x_entropy_rate)
            assert rec.channel_records == other.channel_records


# ---------------------------------------------------------------------------
# entropy perturbation
# ---------------------------------------------------------------------------

def test_entropy_perturbation_examples():
    # E independent of S: H(E) = H(E|S=1)
    assert entropy_perturbation_bound(1.0, 1.0, 0.5, 1.0).passed
    # p = 1: bound collapses to the +1 bit term and lhs is 0
    rep = entropy_perturbation_bound(0.7, 0.7, 1.0, 3.0)
    item = rep.items[0]
    assert item.rhs == pytest.approx(1.0)
    assert rep.passed
    with pytest.raises(DomainError):
        entropy_perturbation_bound(1.0, 1.0, 0.0, 1.0)


def test_entropy_perturbation_random_joints():
    from dmckit.core import entropy_bits
    rng = rng_from_seed(107)
    for _ in range(100):
        card = int(rng.integers(2, 10))
        joint = rng.uniform(0.01, 1.0, size=(card, 2))
        joint /= joint.sum()
        p1 = float(joint[:, 1].sum())
        rep = entropy_perturbation_bound(
            entropy_bits(joint.sum(axis=1)),
            entropy_bits(joint[:, 1] / p1), p1, math.log2(card))
        assert rep.passed
