"""The product-channel kernel, the single-build image bracket and the
subset-sum exact image solver against the paths they replaced
(`kernel_oracles`), bit for bit; every call the row store serves against the
same call with no store open; and the working memory of the bracket and the
output marginal."""

import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as old
from dmckit import core
from dmckit.core import (_BLOCK, GRID, Alphabet, Channel, Sequence,
                         SequenceDist, SequenceSet, _product_rows, _row_store,
                         _stored, bsc, output_dist, output_rows)
from dmckit.errors import DomainError, ToolkitError
from dmckit.images import (_TABLE_BITS, EXACT_SOLVER_CAP, _greedy_cover,
                           _lower_bounds, _singleton_sizes, min_image_bracket,
                           min_image_exact, min_quasi_image,
                           singleton_image_size)
from dmckit.partitioner import extract_equal_cell


def random_channel(rng, nx: int, ny: int) -> Channel:
    """Row-stochastic matrix; a third of them with some exact zeros."""
    m = rng.uniform(0.05, 1.0, size=(nx, ny))
    if rng.uniform() < 1 / 3:
        kill = rng.uniform(size=(nx, ny)) < 0.25
        kill[np.arange(nx), rng.integers(0, ny, size=nx)] = False
        m[kill] = 0.0
    return Channel(Alphabet(nx), Alphabet(ny), m / m.sum(axis=1, keepdims=True))


@st.composite
def instances(draw):
    """(channel, set A, input distribution on A, eta): |X|, |Y| in {2, 3, 4},
    n = 1..6, A of up to 12 words."""
    nx = draw(st.sampled_from((2, 3, 4)))
    ny = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, min(12, nx ** n)))
    A = SequenceSet.from_ids(n, nx, rng.choice(nx ** n, size, replace=False).tolist())
    w = rng.uniform(0.1, 1.0, size)
    dist = SequenceDist(n, nx, A.ids, w / w.sum())
    eta = draw(st.sampled_from((0.05, 0.3, 0.5, 0.8, 0.95, 1.0)))
    return random_channel(rng, nx, ny), A, dist, eta


@settings(max_examples=150, deadline=None)
@given(instances())
def test_output_rows_and_dist_bitwise(inst):
    ch, A, dist, _ = inst
    assert np.array_equal(output_rows(ch, A), old.output_rows(ch, A))
    new, ref = output_dist(ch, dist), old.output_dist(ch, dist)
    assert np.array_equal(new.ids, ref.ids)
    assert np.array_equal(new.probs, ref.probs)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_bracket_bounds_bitwise(inst):
    # _greedy_cover overwrites its row matrix, so it gets a copy
    ch, A, _, eta = inst
    rows = output_rows(ch, A)
    upper, singleton, quasi = old.bracket_bounds(ch, A, eta)
    assert np.array_equal(_greedy_cover(rows.copy(), eta), upper)
    singleton_lb, mixture = _lower_bounds(rows, eta)
    assert singleton_lb == singleton
    assert mixture.tobytes() == old.bracket_mixture(rows).tobytes()
    br = min_image_bracket(ch, A, eta)
    assert br.upper == len(upper)
    assert np.array_equal(br.upper_witness.ids, sorted(upper))
    assert br.lower == max(singleton, quasi)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_singleton_and_quasi_bounds_bitwise(inst):
    ch, A, dist, eta = inst
    sizes = _singleton_sizes(output_rows(ch, A), eta)
    ref = [old.singleton_image_size(ch, A.n, sid, eta) for sid in A.ids_list()]
    assert np.array_equal(sizes, ref)
    sid = A.ids_list()[0]
    assert singleton_image_size(ch, Sequence(A.n, A.base, sid), eta) == ref[0]
    for d in (None, dist):
        got = min_quasi_image(ch, d, A, eta)
        size, witness, achieved = old.min_quasi_image(ch, d, A, eta)
        assert got.size == size
        assert got.witness.ids_list() == witness
        assert np.array_equal(got.eta_achieved, achieved)


@st.composite
def cover_matrices(draw):
    """(rows, eta): non-negative rows with tied entries and exact zeros,
    normalised, or scaled down so that eta may be out of reach."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 40)))
    levels = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])[rng.integers(0, 6, size=shape)]
    tied = rng.uniform(size=shape) < draw(st.sampled_from((0.0, 0.5, 1.0)))
    rows = np.where(tied, levels, rng.uniform(size=shape))
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        rows *= rng.uniform(0.3, 1.0, size=(shape[0], 1))
    eta = draw(st.one_of(st.sampled_from((0.05, 0.5, 0.9, 1 - 1e-9, 1 - 1e-12, 1.0)),
                         st.floats(0.01, 1.0)))
    return rows, eta


@settings(max_examples=300, deadline=None)
@given(cover_matrices())
def test_greedy_cover_matches_argmax_greedy(inst):
    rows, eta = inst
    work = rows.copy()
    try:
        want = old.greedy_cover_argmax(rows, eta)
    except DomainError:
        with pytest.raises(DomainError):
            _greedy_cover(work, eta)
        return
    assert _greedy_cover(work, eta) == want
    rows[:, want] = -1.0  # the picked columns, and only they, are masked
    assert np.array_equal(work, rows)


def test_one_output_column():
    # |Y| = 1: each block holds _BLOCK single-column rows; 2**14 and 3**9
    # words take two and three blocks
    rng = np.random.default_rng(29)
    for nx, n in ((2, 14), (3, 9)):
        ch = Channel(Alphabet(nx), Alphabet(1), np.ones((nx, 1)))
        w = rng.uniform(size=nx ** n) * 10.0 ** rng.integers(-9, 1, size=nx ** n)
        dist = SequenceDist(n, nx, np.arange(nx ** n), w / w.sum())
        got, want = output_dist(ch, dist), old.output_dist(ch, dist)
        assert got.probs.tobytes() == want.probs.tobytes()
        A = SequenceSet.from_ids(n, nx, range(0, nx ** n, 7))
        br = min_image_bracket(ch, A, 1.0)
        assert (br.lower, br.upper, br.upper_witness.ids_list()) == (1, 1, [0])


def test_bracket_over_several_row_blocks():
    # 64 words x 2**10 columns: eight blocks of eight rows; eta close to 1
    # makes the greedy pick most columns
    rng = np.random.default_rng(31)
    ch = random_channel(rng, 2, 2)
    A = SequenceSet.from_ids(10, 2, rng.choice(2 ** 10, 64, replace=False).tolist())
    rows = output_rows(ch, A)
    for eta in (0.5, 0.99, 1 - 1e-9):
        upper, singleton, quasi = old.bracket_bounds(ch, A, eta)
        assert _lower_bounds(rows, eta)[0] == singleton
        br = min_image_bracket(ch, A, eta)
        assert (br.upper, br.lower) == (len(upper), max(singleton, quasi))
        assert br.upper_witness.ids_list() == sorted(upper)
    assert _lower_bounds(rows, 0.5)[1].tobytes() == old.bracket_mixture(rows).tobytes()


def test_unreachable_eta_raises_like_the_argmax_greedy():
    # rows summing to 1 - 9e-13 pass the channel check, but their cube falls
    # below eta - GRID at eta = 1
    short = 1.0 - 9e-13
    ch = Channel(Alphabet(2), Alphabet(2), [[0.75, short - 0.75], [0.25, short - 0.25]])
    A = SequenceSet.from_ids(3, 2, [0, 5, 6])
    with pytest.raises(DomainError):
        old.greedy_cover_argmax(output_rows(ch, A), 1.0)
    with pytest.raises(DomainError):
        min_image_bracket(ch, A, 1.0)
    assert min_image_bracket(ch, A, 0.99).upper == len(
        old.greedy_cover_argmax(output_rows(ch, A), 0.99))


def outcome(fn) -> str:
    """repr of a call's result, or of the toolkit error it raises: reprs of
    floats and of whole int arrays are exact, so equal strings mean equal
    bits."""
    try:
        out = fn()
    except ToolkitError as exc:
        return f"raises {type(exc).__name__}: {exc}"
    if isinstance(out, np.ndarray):
        return f"{out.shape} {out.tobytes().hex()}"
    if isinstance(out, SequenceDist):
        return f"{out.ids.tobytes().hex()} {out.probs.tobytes().hex()}"
    with np.printoptions(threshold=sys.maxsize):
        return repr(out)


def store_calls(ch, dist, A, eta):
    """Every call on A that reads rows: the kernel, the output marginal, both
    image solvers and a dominant-bin extraction (whose refinement sums
    witness columns), each as `outcome` strings."""
    calls = [lambda: output_rows(ch, A),
             lambda: output_dist(ch, dist.conditioned_on(A)),
             lambda: min_image_bracket(ch, A, eta),
             lambda: extract_equal_cell(ch, dist, A, 0.3, 0.5, min(eta, 0.9))]
    if ch.output.size ** A.n <= EXACT_SOLVER_CAP:
        calls.append(lambda: min_image_exact(ch, A, eta))
    return [outcome(call) for call in calls]


@st.composite
def store_instances(draw):
    """(channel, ground, input distribution on the ground, eta, a subset of
    the ground, a word outside it or None when the ground is the space)."""
    ch, A, dist, eta = draw(instances())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sub = SequenceSet.from_ids(A.n, A.base, rng.choice(
        A.ids, rng.integers(1, A.size + 1), replace=False).tolist())
    outside = np.setdiff1d(np.arange(A.base ** A.n), A.ids)
    return ch, A, dist, eta, sub, int(outside[0]) if outside.size else None


@settings(max_examples=100, deadline=None)
@given(store_instances())
def test_store_serves_the_bits_of_a_fresh_build(inst):
    ch, ground, dist, eta, sub, outside = inst
    sets = [ground, sub]
    if outside is not None:
        sets.append(SequenceSet.from_ids(sub.n, sub.base, sub.ids_list() + [outside]))
    want = [store_calls(ch, dist, A, eta) for A in sets]
    with _row_store([ch], ground):
        assert _stored(ch, ground.ids, ground.n) is not None
        assert _stored(ch, sub.ids, sub.n) is not None
        if outside is not None:  # one word outside the ground: a miss
            assert _stored(ch, sets[2].ids, sub.n) is None
        assert [store_calls(ch, dist, A, eta) for A in sets] == want
    assert core._ROW_STORE.get() is None


def store_case():
    rng = np.random.default_rng(41)
    ch = random_channel(rng, 2, 2)
    ground = SequenceSet.from_ids(4, 2, rng.choice(16, 10, replace=False).tolist())
    w = rng.uniform(0.1, 1.0, ground.size)
    return ch, ground, SequenceDist(4, 2, ground.ids, w / w.sum())


def test_store_is_keyed_on_the_channel_object_and_n():
    ch, ground, dist = store_case()
    twin = Channel(ch.input, ch.output, ch.matrix.copy())
    short = SequenceSet.from_ids(3, 2, [i for i in ground.ids_list() if i < 8])
    want = [store_calls(twin, dist, ground, 0.8), outcome(lambda: output_rows(ch, short))]
    with _row_store([ch], ground):
        # an equal matrix in another Channel object, or another n: no hit
        assert _stored(twin, ground.ids, 4) is None
        assert _stored(ch, short.ids, 3) is None
        assert [store_calls(twin, dist, ground, 0.8),
                outcome(lambda: output_rows(ch, short))] == want


def test_nested_store_reuses_a_covering_outer_one():
    ch, ground, dist = store_case()
    other = bsc(0.2)
    sub = SequenceSet.from_ids(4, 2, ground.ids_list()[:4])
    want = store_calls(ch, dist, sub, 0.8)
    with _row_store([ch], ground):
        outer = core._ROW_STORE.get()
        with _row_store([ch, ch], sub):
            assert core._ROW_STORE.get() is outer
            assert store_calls(ch, dist, sub, 0.8) == want
        # a channel the outer store lacks opens a store of its own
        with _row_store([ch, other], sub):
            inner = core._ROW_STORE.get()
            assert inner is not outer and inner.ids is sub.ids
            assert store_calls(ch, dist, sub, 0.8) == want
        assert core._ROW_STORE.get() is outer


def test_greedy_overwrites_never_reach_the_store():
    ch, ground, _ = store_case()
    fresh = _product_rows(ch, ground.ids, ground.n)
    first = min_image_bracket(ch, ground, 0.95)
    with _row_store([ch], ground):
        (_, rows), = core._ROW_STORE.get().rows
        assert not rows.flags.writeable
        assert repr(min_image_bracket(ch, ground, 0.95)) == repr(first)
        assert repr(min_image_bracket(ch, ground, 0.95)) == repr(first)
        assert rows.tobytes() == fresh.tobytes()


def test_store_closes_when_its_scope_raises():
    ch, ground, _ = store_case()
    with pytest.raises(RuntimeError):
        with _row_store([ch], ground):
            assert core._ROW_STORE.get() is not None
            raise RuntimeError("inside the scope")
    assert core._ROW_STORE.get() is None


def test_store_over_the_budget_does_not_open(monkeypatch):
    # the ground's matrix does not fit but a subset's does: the subset's
    # request builds and charges its own rows, as with no store
    ch, ground, _ = store_case()
    sub = SequenceSet.from_ids(4, 2, ground.ids_list()[:3])
    want = outcome(lambda: output_rows(ch, sub))
    monkeypatch.setattr(core, "BUDGET_BYTES", 8 * sub.size * 16)
    with _row_store([ch], ground):
        assert core._ROW_STORE.get() is None
        assert outcome(lambda: output_rows(ch, sub)) == want


def test_store_opens_only_beside_a_copy_of_its_largest_matrix(monkeypatch):
    # the store holds one matrix per channel and a request for the whole
    # ground copies one out: all of them together must fit the budget
    ch, ground, _ = store_case()
    other = bsc(0.2)
    matrix = 8 * ground.size * 16
    monkeypatch.setattr(core, "BUDGET_BYTES", 3 * matrix - 1)
    with _row_store([ch, other], ground):
        assert core._ROW_STORE.get() is None
    with _row_store([ch], ground):
        assert len(core._ROW_STORE.get().rows) == 1
    monkeypatch.setattr(core, "BUDGET_BYTES", 2 * matrix - 1)
    with _row_store([ch], ground):
        assert core._ROW_STORE.get() is None
    monkeypatch.setattr(core, "BUDGET_BYTES", 3 * matrix)
    with _row_store([ch, other], ground):
        assert len(core._ROW_STORE.get().rows) == 2


def peak_bytes(fn) -> int:
    """Peak traced allocation of one call, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bracket_and_marginal_working_memory():
    # 64 words at n = 10: a 512 KB row matrix.  The bracket may hold that
    # matrix and 4 blocks beside it, never a second |A| x |Y|^n array; the
    # marginal its accumulator and 2 blocks, plus the buffers numpy's
    # iterator takes for a broadcast product (np.getbufsize() elements for
    # each of three operands)
    rng = np.random.default_rng(37)
    A = SequenceSet.from_ids(10, 2, rng.choice(2 ** 10, 64, replace=False).tolist())
    ch = bsc(0.1)
    matrix = A.size * 2 ** 10 * 8
    assert peak_bytes(lambda: min_image_bracket(ch, A, 0.99)) <= matrix + 4 * _BLOCK * 8
    ufunc_buffers = 3 * np.getbufsize() * 8
    assert peak_bytes(lambda: output_dist(ch, SequenceDist.uniform_on(A))) <= (
        2 ** 10 * 8 + 2 * _BLOCK * 8 + ufunc_buffers)
    # with A's rows stored before measuring, the bracket copies its matrix
    # out of the store and the marginal its blocks, within the same bounds
    with _row_store([ch], A):
        assert peak_bytes(lambda: min_image_bracket(ch, A, 0.99)) <= (
            matrix + 4 * _BLOCK * 8)
        assert peak_bytes(lambda: output_dist(ch, SequenceDist.uniform_on(A))) <= (
            2 ** 10 * 8 + 2 * _BLOCK * 8 + ufunc_buffers)


def test_thousand_letter_input_at_n8():
    # 1024 ** 7 wraps to 0 in int64, so place values cannot give the digits
    rng = np.random.default_rng(5)
    ch = random_channel(rng, 1024, 2)
    ids = sorted({int(v) for v in rng.integers(0, 2 ** 63 - 1, size=6)} | {1023, 2 ** 63 - 1})
    A = SequenceSet.from_ids(8, 1024, ids)
    assert np.array_equal(output_rows(ch, A), old.output_rows(ch, A))
    dist = SequenceDist.uniform_on(A)
    assert np.array_equal(output_dist(ch, dist).probs, old.output_dist(ch, dist).probs)
    for eta in (0.3, 0.9):
        upper, singleton, quasi = old.bracket_bounds(ch, A, eta)
        br = min_image_bracket(ch, A, eta)
        assert (br.upper, br.lower) == (len(upper), max(singleton, quasi))
        assert min_quasi_image(ch, None, A, eta).size == quasi


def test_output_dist_spans_several_blocks():
    # 2**13 floats per block: 3**9 columns take one word per block, 2**4 take 512
    rng = np.random.default_rng(11)
    for nx, ny, n, size in ((2, 3, 9, 5), (2, 2, 4, 16), (4, 2, 6, 1500)):
        ch = random_channel(rng, nx, ny)
        ids = rng.choice(nx ** n, min(size, nx ** n), replace=False).tolist()
        dist = SequenceDist.uniform_on(SequenceSet.from_ids(n, nx, ids))
        assert np.array_equal(output_dist(ch, dist).probs,
                              old.output_dist(ch, dist).probs)


@pytest.mark.parametrize("nx, ny, n, size", [
    (3, 3, 4, 40),     # 40 * 3**4 <= _BLOCK: every letter by outer products
    (3, 3, 9, 40),     # 3**8 <= _BLOCK < 3**9: one word goes in place for its
                       # last letter, 40 words from their fifth
    (2, 2, 14, 8),     # 2**14 > _BLOCK: both finish in place
    (4, 3, 6, 2800),   # 2800 * 3 > _BLOCK: the batch goes in place from the start
])
def test_product_rows_do_not_depend_on_the_batch(nx, ny, n, size):
    # the average-error split reads every split's success probabilities off
    # rows built for all codewords at once, which holds only while a row's
    # bits are the same in a batch as on its own
    rng = np.random.default_rng(nx * 1000 + n)
    ch = random_channel(rng, nx, ny)
    ids = np.sort(rng.choice(nx ** n, size, replace=False))
    batch = _product_rows(ch, ids, n)
    for i in range(size):
        assert batch[i].tobytes() == _product_rows(ch, ids[i:i + 1], n)[0].tobytes()


@st.composite
def image_instances(draw):
    """(channel, set A, eta) with |Y|^n <= 16 output columns: |X|, |Y| in
    {2, 3, 4}, so ternary outputs reach 9 columns."""
    nx = draw(st.sampled_from((2, 3, 4)))
    ny = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 4 if ny == 2 else 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, min(12, nx ** n)))
    A = SequenceSet.from_ids(n, nx, rng.choice(nx ** n, size, replace=False).tolist())
    eta = draw(st.one_of(st.sampled_from((0.05, 0.3, 0.5, 0.8, 0.95, 1.0)),
                         st.floats(0.01, 1.0)))
    return random_channel(rng, nx, ny), A, eta


def assert_same_image(ch, A, eta):
    br = min_image_exact(ch, A, eta)
    size, witness = old.min_image_branch_and_bound(output_rows(ch, A), eta)
    assert br.lower == br.upper == size
    assert br.upper_witness.ids_list() == witness


@settings(max_examples=150, deadline=None)
@given(image_instances())
def test_min_image_exact_against_branch_and_bound(inst):
    assert_same_image(*inst)


def test_min_image_exact_wide_against_branch_and_bound():
    # 17-24 output columns take the solver well past its 2**15-float table
    rng = np.random.default_rng(17)
    for nx, ny, eta in ((3, 17, 0.5), (2, 20, 0.8), (3, 22, 0.3), (2, 24, 0.95)):
        ch = random_channel(rng, nx, ny)
        assert_same_image(ch, SequenceSet.from_ids(1, nx, list(range(nx))), eta)
    # {1, 16} and {0, 17} both reach 0.5, and the later column pattern
    # {17} holds the least cover
    row = np.zeros(18)
    row[[0, 1, 16, 17]] = 0.2, 0.25, 0.25, 0.3
    ch = Channel(Alphabet(2), Alphabet(18), np.stack([row, row[::-1]]))
    br = min_image_exact(ch, SequenceSet.from_ids(1, 2, [0]), 0.5)
    assert br.upper_witness.ids_list() == [0, 17]
    # all 24 outputs alike: every 12 of them are a minimum cover
    ch = Channel(Alphabet(2), Alphabet(24), np.full((2, 24), 1 / 24))
    br = min_image_exact(ch, SequenceSet.from_ids(1, 2, [0, 1]), 0.5)
    assert br.upper_witness.ids_list() == list(range(12))


def brute_min_image(rows, eta, descending=False):
    """(size, lexicographically least cover), each set's mass summed over its
    columns in ascending (or descending) order, smallest sets first."""
    for size in range(1, rows.shape[1] + 1):
        for cols in combinations(range(rows.shape[1]), size):
            order = cols[::-1] if descending else cols
            if all(sum(row[j] for j in order) >= eta - GRID for row in rows.tolist()):
                return size, list(cols)


def test_min_image_exact_sums_columns_in_ascending_order():
    # eta - GRID is set to a mass that the ascending sum reaches and the
    # descending sum misses by an ulp, where the two orders give different
    # images; behind _TABLE_BITS null outputs, every column is past the table
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(2000):
        ch = random_channel(rng, 2, 5)
        cols = sorted(rng.choice(5, 3, replace=False).tolist())
        up = sum(ch.matrix[0, j] for j in cols)
        if up <= sum(ch.matrix[0, j] for j in reversed(cols)):
            continue
        eta = up + GRID
        while eta - GRID > up:
            eta = np.nextafter(eta, 0.0)
        while eta - GRID < up:
            eta = np.nextafter(eta, 1.0)
        if eta - GRID != up or eta > 1.0:
            continue
        want = brute_min_image(ch.matrix, eta)
        if want == brute_min_image(ch.matrix, eta, descending=True):
            continue
        A = SequenceSet.from_ids(1, 2, [0, 1])
        br = min_image_exact(ch, A, float(eta))
        assert (br.lower, br.upper_witness.ids_list()) == want
        wide = Channel(Alphabet(2), Alphabet(_TABLE_BITS + 5),
                       np.hstack([np.zeros((2, _TABLE_BITS)), ch.matrix]))
        br = min_image_exact(wide, A, float(eta))
        assert br.upper_witness.ids_list() == [_TABLE_BITS + j for j in want[1]]
        found += 1
        if found == 5:
            break
    assert found == 5
