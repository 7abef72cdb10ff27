import ast
import math
import os

import numpy as np
import pytest

from dmckit import core, fano
from dmckit.cli import load_channel, load_code
from dmckit.core import (Alphabet, Channel, SequenceSet, aexp, bsc,
                         identity_channel)
from dmckit.errors import CapacityError, PreconditionError, ValidationError
from dmckit.images import EXACT_SOLVER_CAP
from dmckit.fano import (Code, Decoder, MessageSpace, avg_error,
                         build_decoding_sets, classic_fano, deterministic_code,
                         max_error, ml_decoder, sphere_packing_check,
                         strong_fano_avg, strong_fano_max)


def make_code(channel, n, codewords, sizes=None, joint=None, S=(0,)):
    """Deterministic code with an ML decoder for the first receiver."""
    sizes = sizes or [len(codewords)]
    if joint is None:
        ms = MessageSpace.uniform(sizes)
    else:
        ms = joint
    cw = {m: codewords[i] for i, m in enumerate(ms.support)}
    enc = tuple((m, ((cw[m], 1.0),)) for m in ms.support)
    dec = ml_decoder(ms, enc, channel, n, S)
    return deterministic_code(ms, n, channel.input.size, cw, [dec])


def identity_code(n=2, base=2):
    ch = identity_channel(base)
    return make_code(ch, n, list(range(base ** n))), ch


def constant_channel():
    return Channel(Alphabet(2), Alphabet(2), [[0.5, 0.5], [0.5, 0.5]])


def test_errors_identity():
    code, ch = identity_code()
    assert max_error(code, [ch], 0) == 0.0
    assert avg_error(code, [ch], 0) == 0.0


def test_errors_constant_channel():
    ch = constant_channel()
    code = make_code(ch, 1, [0, 1])
    assert avg_error(code, [ch], 0) == pytest.approx(0.5)


def test_errors_bsc_n1():
    ch = bsc(0.1)
    code = make_code(ch, 1, [0, 1])
    assert max_error(code, [ch], 0) == pytest.approx(0.1)
    assert avg_error(code, [ch], 0) == pytest.approx(0.1)


def test_avg_le_max_random_codes():
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(20):
        ch = bsc(float(rng.uniform(0.05, 0.4)))
        n = int(rng.integers(1, 3))
        n_msg = int(rng.integers(2, min(4, 2 ** n) + 1))
        cws = rng.choice(2 ** n, size=n_msg, replace=False)
        code = make_code(ch, n, [int(c) for c in cws])
        assert avg_error(code, [ch], 0) <= max_error(code, [ch], 0) + 1e-12


def test_classic_fano_values():
    assert classic_fano(0.0, 3.0, 4) == pytest.approx(0.25)
    n = 5
    assert classic_fano(1.0, float(n), n) == pytest.approx(1 + 1 / n)
    assert classic_fano(0.5, 2.0, 2) == pytest.approx(1.0)
    with pytest.raises(Exception):
        classic_fano(1.5, 2.0, 2)


def test_decoding_sets_identity():
    code, ch = identity_code()
    A = SequenceSet.full_space(2, 2)
    cells = {"all": A}
    ds = build_decoding_sets(code.pairs(), code.decoders[0], ch, code.n, 1.0, cells)
    assert ds.passed
    # every message keeps exactly its own codeword's output
    for (m_S, _), c_set in ds.sets.items():
        assert c_set.ids_list() == [m_S[0]]


def test_decoding_sets_bsc_multiplicity():
    ch = bsc(0.1)
    code = make_code(ch, 2, [0, 3])
    alpha = 1.0 - max_error(code, [ch], 0)
    A = SequenceSet.from_ids(2, 2, [0, 3])
    ds = build_decoding_sets(code.pairs(), code.decoders[0], ch, code.n, alpha,
                             {"all": A})
    assert ds.certificates.passed
    assert ds.multiplicity.passed
    cap = math.floor(2.0 / alpha)
    for item in ds.multiplicity.items:
        assert item.lhs <= cap


def test_decoding_sets_empty_flagged():
    # a decoder that never exceeds alpha/2 for one message yields an empty C
    ch = bsc(0.1)
    ms = MessageSpace.uniform([2])
    table = np.array([[0.9, 0.1]] * 4)
    dec = Decoder(S=(0,), m_values=((0,), (1,)), table=table)
    code = deterministic_code(ms, 2, 2, {(0,): 0, (1,): 3}, [dec])
    ds = build_decoding_sets(code.pairs(), dec, ch, 2, 0.5,
                             {"all": SequenceSet.from_ids(2, 2, [0, 3])})
    assert ((1,), "all") in ds.empty_flagged


def test_decoding_sets_refuse_a_table_past_the_output_space():
    # a decoder row is an output word: a fifth row has no word at n = 2
    ch = bsc(0.1)
    ms = MessageSpace.uniform([2])
    dec = Decoder(S=(0,), m_values=((0,), (1,)), table=np.array([[0.9, 0.1]] * 5))
    code = deterministic_code(ms, 2, 2, {(0,): 0, (1,): 3}, [dec])
    with pytest.raises(ValidationError):
        build_decoding_sets(code.pairs(), dec, ch, 2, 0.5,
                            {"all": SequenceSet.from_ids(2, 2, [0, 3])})


def test_sphere_packing_identity_equality():
    code, ch = identity_code()
    rep = sphere_packing_check(code, ch, mu=0.3, eps=0.0)
    item = rep.items[0]
    assert rep.passed
    assert item.lhs == pytest.approx(item.rhs)


def test_sphere_packing_bsc():
    ch = bsc(0.1)
    code = make_code(ch, 2, [0, 3])
    rep = sphere_packing_check(code, ch, mu=0.2)
    assert rep.passed


def test_sphere_packing_single_message():
    ch = bsc(0.1)
    code = make_code(ch, 1, [0])
    rep = sphere_packing_check(code, ch, mu=0.3)
    assert rep.passed
    assert rep.items[0].lhs == 0.0


def test_sphere_packing_inner_size_is_the_exact_image_size():
    # eta - GRID is the sum of the three largest outputs taken largest first,
    # which the exact solver's ascending sums miss by an ulp: the inner
    # minimum image of the one codeword has all four outputs, as the outer one
    row = [0.19713572629187534, 0.3779131574750964, 0.3561311867346261,
           0.06881992949840209]
    mu = 0.9311800705025979
    ch = Channel(Alphabet(1), Alphabet(4), [row])
    code = make_code(ch, 1, [0])
    rep = sphere_packing_check(code, ch, mu=mu, eps=0.0)
    assert rep.details["g_inner"] == rep.details["g_outer"] == 4


def test_code_blocklength_below_one():
    # codeword sets are built without re-validation, so the code checks n
    ch = identity_channel(2)
    ms = MessageSpace.uniform([1])
    dec = Decoder(S=(0,), m_values=((0,),), table=np.ones((1, 1)))
    with pytest.raises(ValidationError, match="blocklength"):
        max_error(deterministic_code(ms, 0, 2, {(0,): 0}, [dec]), [ch], 0)
    with pytest.raises(ValidationError, match="blocklength"):
        ml_decoder(ms, (((0,), ((0, 1.0),)),), ch, 0, (0,))


def test_sphere_packing_preconditions():
    code, ch = identity_code()
    with pytest.raises(PreconditionError):
        sphere_packing_check(code, ch, mu=1.2)


def test_strong_fano_max_identity_zero_gap():
    code, ch = identity_code()
    rep = strong_fano_max(code, [ch])
    rows = rep.bound_rows()
    assert rows
    for r in rows:
        assert r.gap == 0.0
        assert r.aexp_messages == r.h_rate_lower  # uniform messages
    assert rep.q0_mass == 0.0
    assert rep.counting.passed


def test_strong_fano_max_bsc_certified():
    ch = bsc(0.1)
    code = make_code(ch, 2, [0, 3])
    rep = strong_fano_max(code, [ch])
    assert rep.counting.passed
    for r in rep.bound_rows():
        assert r.mi_rate >= 0.0
        assert r.h_rate_lower <= r.aexp_messages + 1e-9  # entropy lower bound


def test_strong_fano_max_requires_positive_alpha():
    # decoder always answers message 0: message 1 has error probability 1
    ch = identity_channel(2)
    ms = MessageSpace.uniform([2])
    table = np.zeros((2, 2))
    table[:, 0] = 1.0
    dec = Decoder(S=(0,), m_values=((0,), (1,)), table=table)
    code = deterministic_code(ms, 1, 2, {(0,): 0, (1,): 1}, [dec])
    with pytest.raises(PreconditionError):
        strong_fano_max(code, [ch])


def test_strong_fano_max_append_path():
    # two messages share one codeword: messages cannot partition A
    ch = bsc(0.05)
    ms = MessageSpace.uniform([2])
    enc = tuple((m, ((0, 1.0),)) for m in ms.support)
    dec = Decoder(S=(0,), m_values=((0,), (1,)),
                  table=np.array([[0.5, 0.5], [0.5, 0.5]]))
    code = Code(messages=ms, n=1, base=2, encoder=enc, decoders=(dec,))
    rep = strong_fano_max(code, [ch])
    assert rep.appended >= 1
    assert rep.rows


def test_strong_fano_max_two_receivers_conditional_rows():
    ch1, ch2 = bsc(0.1), bsc(0.2)
    ms = MessageSpace.uniform([2, 2])
    cws = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    enc = tuple((m, ((cws[m], 1.0),)) for m in ms.support)
    d1 = ml_decoder(ms, enc, ch1, 2, (0,))
    d2 = ml_decoder(ms, enc, ch2, 2, (1,))
    code = Code(messages=ms, n=2, base=2, encoder=enc, decoders=(d1, d2))
    rep = strong_fano_max(code, [ch1, ch2])
    conds = [r for r in rep.rows if r.cond_on is not None and not r.is_remainder]
    assert conds  # conditioned bound rows exist for the other message index
    for r in conds:
        assert r.mi_rate >= -1e-12


def test_strong_fano_per_cell_mi_oracle():
    # the per-cell conditional MI matches a direct independent computation
    from dmckit.core import mutual_information, output_rows, SequenceSet
    ch = bsc(0.15)
    code = make_code(ch, 2, [0, 1, 3])
    rep = strong_fano_max(code, [ch])
    pair_of = {}
    for m, x, p in code.pairs():
        pair_of.setdefault(x, []).append((m, p))
    for label, plist in rep.cell_pairs.items():
        row = next(r for r in rep.rows
                   if r.q_label == label and r.cond_on is None)
        xs = sorted({x for _, x, _ in plist})
        rows_mx = output_rows(ch, SequenceSet.from_ids(2, 2, xs))
        total = sum(p for _, _, p in plist)
        m_vals = sorted({m for m, _, _ in plist})
        joint = np.zeros((len(m_vals), 4))
        for m, x, p in plist:
            joint[m_vals.index(m)] += (p / total) * rows_mx[xs.index(x)]
        want = mutual_information(joint) / 2
        assert row.mi_rate == pytest.approx(want, abs=1e-12)


def test_strong_fano_max_ternary_alphabet():
    rng = np.random.Generator(np.random.PCG64(19))
    m = rng.uniform(0.1, 1.0, size=(3, 2))
    m /= m.sum(axis=1, keepdims=True)
    from dmckit.core import Alphabet, Channel
    ch = Channel(Alphabet(3), Alphabet(2), m)
    ms = MessageSpace.uniform([3])
    cws = {(0,): 0, (1,): 4, (2,): 8}  # 00, 11, 22 in base 3
    enc = tuple((mm, ((cws[mm], 1.0),)) for mm in ms.support)
    dec = ml_decoder(ms, enc, ch, 2, (0,))
    code = deterministic_code(ms, 2, 3, cws, [dec])
    if max_error(code, [ch], 0) < 1.0:
        rep = strong_fano_max(code, [ch])
        assert rep.counting.passed
        assert rep.bound_rows()


def test_strong_fano_avg_identity():
    code, ch = identity_code()
    rep = strong_fano_avg(code, [ch])
    for r in rep.bound_rows():
        assert r.gap == 0.0
    assert rep.qstar_mass[0] >= (1.0 - 0.0) / 4.0
    assert rep.passing_mass[0] >= 0.0


def test_strong_fano_avg_constant_channel_small_n_regime():
    ch = constant_channel()
    code = make_code(ch, 2, [0, 3])
    rep = strong_fano_avg(code, [ch])
    # I = 0 per cell; gaps are dominated by finite-n terms and only recorded
    for r in rep.bound_rows():
        assert r.mi_rate == pytest.approx(0.0, abs=1e-9)
    assert rep.passing_mass[0] >= 0.0


def test_strong_fano_avg_bsc_pipeline():
    ch = bsc(0.1)
    code = make_code(ch, 2, [0, 3])
    rep = strong_fano_avg(code, [ch])
    assert rep.counting.passed
    assert rep.qstar_mass[0] >= 0.0
    err = avg_error(code, [ch], 0)
    assert rep.details["alpha_n"] == pytest.approx((1.0 - err) / math.log2(2))
    # Q is a function of the (message, codeword) pair: the recorded cells
    # partition the positive-mass pairs exactly
    seen = sorted((m, x) for plist in rep.cell_pairs.values()
                  for m, x, _ in plist)
    assert seen == sorted((m, x) for m, x, _ in code.pairs())


def test_strong_fano_avg_append_inside_split():
    # a 50/50 stochastic decoder puts every pair in one split with alpha_n
    # reachable, and shared codewords force the append path there
    ch = bsc(0.05)
    ms = MessageSpace.uniform([2])
    enc = tuple((m, ((0, 0.5), (3, 0.5))) for m in ms.support)
    table = np.full((4, 2), 0.5)
    dec = Decoder(S=(0,), m_values=((0,), (1,)), table=table)
    code = Code(messages=ms, n=2, base=2, encoder=enc, decoders=(dec,))
    rep = strong_fano_avg(code, [ch])
    rows = rep.bound_rows()
    assert rows and all(r.n_eff > 2 for r in rows)
    assert rep.counting.passed
    # recorded pairs map back to the original codeword space
    for plist in rep.cell_pairs.values():
        assert all(x in (0, 3) for _, x, _ in plist)


def test_q0_mass_within_bound_on_corpus():
    ch = bsc(0.1)
    code = make_code(ch, 2, [0, 3])
    rep = strong_fano_max(code, [ch])
    assert rep.q0_mass <= rep.q0_bound + 1e-12


def test_strong_fano_avg_needs_n_at_least_two():
    ch = bsc(0.1)
    code = make_code(ch, 1, [0, 1])
    with pytest.raises(PreconditionError):
        strong_fano_avg(code, [ch])


@pytest.mark.parametrize("alpha_n", [0.0, -0.5, 1e-13, 1.5])
def test_strong_fano_avg_alpha_n_outside_range(alpha_n):
    # messages (0,) and (1,) of a size-3 index on codewords 0 and 3 of a
    # noiseless channel, each decoded with probability s and the rest put
    # on (2,): with n = 2, alpha_n = (1 - err)/log2 n is s itself. A valid
    # table holds s only within GRID/2 of [0, 1], so -0.5 and 1.5 become
    # an error a rounding step above 1 or below 0; 1e-13 is an error within
    # 1e-13 of 1, where a pair that always fails would pass the split test
    s = min(max(alpha_n, -core.GRID / 2), 1.0 + core.GRID / 2)
    ms = MessageSpace(sizes=(3,), support=((0,), (1,)), probs=(0.5, 0.5))
    table = np.zeros((4, 3))
    table[:, 2] = 1.0
    table[0] = [s, 0.0, 1.0 - s]
    table[3] = [0.0, s, 1.0 - s]
    dec = Decoder(S=(0,), m_values=((0,), (1,), (2,)), table=table)
    code = deterministic_code(ms, 2, 2, {(0,): 0, (1,): 3}, [dec])
    ch = identity_channel(2)
    success = 1.0 - avg_error(code, [ch], 0)
    assert not core.GRID < success <= 1.0
    assert (success <= 0.0, success > 1.0) == (alpha_n <= 0.0, alpha_n > 1.0)
    with pytest.raises(PreconditionError):
        strong_fano_avg(code, [ch])


def test_message_space_validation():
    with pytest.raises(ValidationError):
        MessageSpace(sizes=(2,), support=((0,), (1,)), probs=(0.7, 0.2))
    with pytest.raises(ValidationError):
        MessageSpace(sizes=(2,), support=((0,), (0,)), probs=(0.5, 0.5))
    ms = MessageSpace.uniform([2, 3])
    assert len(ms.support) == 6


def test_append_symbols_checks_the_extended_decoder_table(monkeypatch):
    # two messages share codeword 0 and alpha = 1/4 asks for 2 more symbols,
    # so the 3**3 x 2 decoder table grows to 3**5 x 2 = 486 floats; the cap
    # is checked before the table is built
    ch = Channel(Alphabet(2), Alphabet(3), [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    view = fano._view_of(make_code(ch, 3, [0, 0]), [ch])
    monkeypatch.setattr(core, "BUDGET_BYTES", 486 * 8)
    wide = fano._append_symbols(view, [0.25])
    assert wide.appended == 2
    assert wide.decoders[0].table.shape == (3 ** 5, 2)
    monkeypatch.setattr(core, "BUDGET_BYTES", 485 * 8)
    with pytest.raises(CapacityError):
        fano._append_symbols(view, [0.25])


@pytest.mark.parametrize("code_file", ["code4j2.json", "code4_splits.json"])
def test_pipelines_count_through_the_public_decoding_sets(code_file, monkeypatch):
    # a wrapper on the module attribute sees every decoding-set count: one
    # call per reported receiver of the max report and of each nonempty split
    golden = os.path.join(os.path.dirname(__file__), "golden")
    code = load_code(os.path.join(golden, code_file))
    channels = [load_channel(os.path.join(golden, name))
                for name in ("bsc01.json", "bsc02.json")]
    real = fano.build_decoding_sets
    calls = []

    def counting(pairs, decoder, channel, n, alpha, cells):
        calls.append(next(k for k, ch in enumerate(channels) if ch is channel))
        return real(pairs, decoder, channel, n, alpha, cells)

    monkeypatch.setattr(fano, "build_decoding_sets", counting)
    assert {r.receiver for r in strong_fano_max(code, channels).rows} == {0, 1}
    assert sorted(calls) == [0, 1]
    calls.clear()
    rep = strong_fano_avg(code, channels)
    reported = {(r.q_label.split("|")[0], r.receiver) for r in rep.rows}
    assert len(reported) >= 2
    assert sorted(calls) == sorted(k for _, k in reported)


def record_row_builds(monkeypatch):
    """(words built, whether a row store was open) per row build, that is
    per `_product_rows` request the open store does not serve."""
    real = core._product_rows
    builds = []

    def recording(ch, ids, n):
        if core._stored(ch, ids, n) is None:
            builds.append((ids.size, core._ROW_STORE.get() is not None))
        return real(ch, ids, n)

    monkeypatch.setattr(core, "_product_rows", recording)
    return builds


@pytest.mark.parametrize("code_file", ["code4.json", "code3_shared.json",
                                       "code4j2.json", "code4_splits.json"])
def test_pipelines_build_rows_only_for_their_stores(code_file, monkeypatch):
    # the success tables build the codewords' rows once; every cell, image
    # and decoding-set request after that is served by the store of its view
    # (appended views included), so no build happens inside a store
    golden = os.path.join(os.path.dirname(__file__), "golden")
    code = load_code(os.path.join(golden, code_file))
    channels = [load_channel(os.path.join(golden, name))
                for name in ("bsc01.json", "bsc02.json")[:len(code.decoders)]]
    builds = record_row_builds(monkeypatch)
    for pipeline in (strong_fano_max, strong_fano_avg):
        builds.clear()
        pipeline(code, channels)
        assert builds and not any(in_store for _, in_store in builds)


def _resolved_monotone_items(pairs, decoder, channel, k, n, cells, eta=0.5):
    """The set-monotonicity items as the pipelines once made them, by solving
    the q cell and each of its message sets again: label -> (lhs, rhs,
    passed), the sizes given as exponents."""
    if channel.output.size ** n > EXACT_SOLVER_CAP:
        return {}
    S_k = tuple(sorted(decoder.S))
    items = {}
    for label, cell in cells.items():
        g_cell = fano.min_image(channel, cell, eta).lower
        for m_S, members in fano._members_by_message(pairs, cell, S_k).items():
            sub = SequenceSet.from_ids(n, cell.base, members)
            g_sub = fano.min_image(channel, sub, eta).lower
            items[f"monotone:{label}:k{k}:{m_S}"] = (
                aexp(g_sub, n), aexp(g_cell, n), g_sub <= g_cell)
    return items


def _flat(label) -> tuple:
    """A product message label such as ((0,), (1,)) as the tuple (0, 1)."""
    return tuple(x for part in label
                 for x in (_flat(part) if isinstance(part, tuple) else (part,)))


# code3_shared.json appends symbols past the exact solver's cap, so its
# reports carry no monotonicity items
@pytest.mark.parametrize("code_file", ["code4.json", "code4j2.json",
                                       "code4_splits.json"])
def test_monotonicity_items_match_a_re_solve(code_file, monkeypatch):
    # the pipelines read the exponents of the equal-image records; every
    # item must pass or fail, with the same values, as solving again does
    golden = os.path.join(os.path.dirname(__file__), "golden")
    code = load_code(os.path.join(golden, code_file))
    channels = [load_channel(os.path.join(golden, name))
                for name in ("bsc01.json", "bsc02.json")[:len(code.decoders)]]
    real = fano.build_decoding_sets
    want: dict = {}

    def resolving(pairs, decoder, channel, n, alpha, cells):
        k = next(k for k, ch in enumerate(channels) if ch is channel)
        want.update(_resolved_monotone_items(pairs, decoder, channel, k, n, cells))
        return real(pairs, decoder, channel, n, alpha, cells)

    monkeypatch.setattr(fano, "build_decoding_sets", resolving)
    checked = 0
    for pipeline in (strong_fano_max, strong_fano_avg):
        want.clear()
        report = pipeline(code, channels)
        got = {}
        for item in report.counting.items:
            if item.label.startswith("monotone:"):
                head, m = item.label.rsplit(":", 1)
                got[f"{head}:{_flat(ast.literal_eval(m))}"] = (
                    item.lhs, item.rhs, item.passed)
        assert got == want
        checked += len(got)
    assert checked
