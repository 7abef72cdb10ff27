import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracles as old
from dmckit.core import Alphabet, Channel, bsc, identity_channel
from dmckit.errors import CapacityError, DimensionMismatchError
from dmckit.fano import MessageSpace, deterministic_code, ml_decoder
from dmckit.wiretap import (PEAK_POINTS, TANGENT_POINTS, WiretapInstance,
                            evaluate_wtc_code, secrecy_bound_single_letter,
                            wtc_converse_chain, _entropy_gap, _envelope,
                            _first_zoom, _lattice, _local_grid, _lower_chain,
                            _offsets, _row_sums, _secrecy_objective)
from secrecy_ascent import (_problem, ascent_secrecy_bound, fd_gradient,
                            fd_gradient_loop, project_rows, project_simplex)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def constant_channel(size=2):
    return Channel(Alphabet(size), Alphabet(size),
                   np.full((size, size), 1.0 / size))


def wtc_code(main, n, codewords):
    ms = MessageSpace.uniform([len(codewords)])
    cw = {m: codewords[i] for i, m in enumerate(ms.support)}
    enc = tuple((m, ((cw[m], 1.0),)) for m in ms.support)
    dec = ml_decoder(ms, enc, main, n, (0,))
    return deterministic_code(ms, n, main.input.size, cw, [dec])


def channel(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return Channel(Alphabet(rows.shape[0]), Alphabet(rows.shape[1]), rows)


def random_pair(rng, nx, degraded):
    def rows(k):
        m = rng.uniform(0.05, 1.0, size=(k, k))
        return m / m.sum(axis=1, keepdims=True)

    main = rows(nx)
    return main, (main @ rows(nx) if degraded else rows(nx))


def test_instance_validation():
    with pytest.raises(DimensionMismatchError):
        WiretapInstance(identity_channel(2), identity_channel(3))


def test_evaluate_perfect_secrecy_toy():
    inst = WiretapInstance(identity_channel(2), constant_channel())
    code = wtc_code(inst.main, 2, [0, 3])
    eps, leak = evaluate_wtc_code(inst, code)
    assert eps == 0.0
    assert leak == pytest.approx(0.0, abs=1e-12)


def test_evaluate_full_leakage_toy():
    inst = WiretapInstance(identity_channel(2), identity_channel(2))
    code = wtc_code(inst.main, 2, [0, 3])
    eps, leak = evaluate_wtc_code(inst, code)
    assert eps == 0.0
    assert leak == pytest.approx(1.0)  # H(M) for two equiprobable messages


def test_evaluate_bsc_pair():
    inst = WiretapInstance(bsc(0.1), bsc(0.3))
    code = wtc_code(inst.main, 2, [0, 3])
    eps, leak = evaluate_wtc_code(inst, code)
    assert eps == pytest.approx(0.1)
    assert 0.0 <= leak <= 1.0


def test_chain_perfect_secrecy():
    inst = WiretapInstance(identity_channel(2), constant_channel())
    code = wtc_code(inst.main, 2, [0, 3])
    rep = wtc_converse_chain(inst, code)
    assert rep.identities.passed
    assert rep.leakage == pytest.approx(0.0, abs=1e-12)
    assert rep.mi_eve_qstar == pytest.approx(0.0, abs=1e-12)
    # with zero leakage and zero error the deflation term is (0+1)/(1*n)
    assert rep.leakage_deflation_theorem == pytest.approx(4.0 / 2.0)
    assert rep.qstar_mass_ok


def test_chain_full_leakage():
    inst = WiretapInstance(identity_channel(2), identity_channel(2))
    code = wtc_code(inst.main, 2, [0, 3])
    rep = wtc_converse_chain(inst, code)
    assert rep.identities.passed
    # Y and Z are the same channel: per-cell main and eve informations agree
    assert rep.mi_eve_qstar / rep.n == pytest.approx(rep.mi_main_qstar, abs=1e-9)
    assert rep.single_letter == pytest.approx(0.0, abs=1e-9)


def test_chain_bsc_numeric():
    inst = WiretapInstance(bsc(0.1), bsc(0.3))
    code = wtc_code(inst.main, 2, [0, 3])
    rep = wtc_converse_chain(inst, code)
    assert rep.identities.passed
    assert rep.rate == pytest.approx(0.5)
    assert rep.final_bound_measured >= rep.rate - 1e-9
    assert rep.single_letter == pytest.approx(h2(0.3) - h2(0.1), abs=1e-4)


def test_chain_requires_reliability():
    inst = WiretapInstance(constant_channel(), constant_channel())
    ms = MessageSpace.uniform([2])
    enc = tuple((m, ((i, 1.0),)) for i, m in enumerate(ms.support))
    # decoder that is always wrong: decodes to the other message
    import numpy as np
    from dmckit.fano import Decoder
    table = np.zeros((2, 2))
    table[:, 1] = 1.0
    dec = Decoder(S=(0,), m_values=((0,), (1,)), table=table)
    code = deterministic_code(ms, 1, 2, {(0,): 0, (1,): 1}, [dec])
    eps, _ = evaluate_wtc_code(inst, code)
    assert eps == pytest.approx(0.5)


def test_chain_report_serializes():
    from dmckit.reports import json_text
    inst = WiretapInstance(bsc(0.1), bsc(0.3))
    code = wtc_code(inst.main, 2, [0, 3])
    rep = wtc_converse_chain(inst, code)
    text = json_text(rep.to_json_obj())
    import json as _json
    obj = _json.loads(text)
    for key in ("rate", "epsilon", "leakage_bits", "mi_main_rows",
                "leakage_deflation_theorem", "cell_count_term",
                "single_letter", "identities_passed"):
        assert key in obj
    assert obj["identities_passed"] is True


def test_project_simplex():
    v = project_simplex(np.array([0.4, 0.9, -0.2]))
    assert v.min() >= 0.0
    assert v.sum() == pytest.approx(1.0)
    p = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_simplex(p), p)


def test_project_rows_matches_project_simplex():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(50, 4))
    v[::7, 1] = v[::7, 2]  # ties
    want = np.vstack([project_simplex(row) for row in v])
    assert same_bits(project_rows(v), want)


@pytest.mark.parametrize("u,nx,seed", [(2, 2, 12), (3, 3, 21)])
def test_batched_gradient_matches_the_loop(u, nx, seed):
    # the ascent oracle's gradient at several iterates in one call against
    # one objective call per coordinate, at a uniform, a corner and two
    # random iterates.  The batch sums each joint matrix with its zero
    # entries and the loop without; above 8 entries numpy sums pairwise, so
    # the two objectives can differ by an ulp, 5e-11 after a 2e-6 difference
    rng = np.random.default_rng(seed)
    main, eve = random_pair(rng, nx, False)
    f, project = _problem(u, nx, main, eve)
    corner = np.concatenate([np.eye(u)[0], np.eye(nx)[np.arange(u) % nx].ravel()])
    iterates = project(np.vstack([np.full(u + u * nx, 1.0 / nx), corner,
                                  rng.uniform(size=(2, u + u * nx))]))
    grads = fd_gradient(iterates, f, project, 1e-6)
    for theta, grad in zip(iterates, grads):
        assert np.allclose(grad, fd_gradient_loop(theta, u, nx, main, eve, 1e-6),
                           rtol=0.0, atol=1e-9)


def test_single_letter_known_values():
    assert secrecy_bound_single_letter(
        WiretapInstance(bsc(0.0), bsc(0.5)), 2).value == pytest.approx(1.0, abs=1e-6)
    assert secrecy_bound_single_letter(
        WiretapInstance(bsc(0.1), bsc(0.1)), 2).value == pytest.approx(0.0, abs=1e-9)
    got = secrecy_bound_single_letter(WiretapInstance(bsc(0.1), bsc(0.2)), 2)
    assert got.value == pytest.approx(h2(0.2) - h2(0.1), abs=1e-6)
    assert len(got.p_u) == 2 and len(got.p_x_given_u) == 2


def test_single_letter_monotone_in_u():
    inst = WiretapInstance(bsc(0.05), bsc(0.25))
    vals = [secrecy_bound_single_letter(inst, u).value for u in (1, 2)]
    assert vals[0] <= vals[1] + 1e-9
    # a constant auxiliary carries no information
    assert vals[0] == pytest.approx(0.0, abs=1e-12)


def test_single_letter_stationarity():
    inst = WiretapInstance(bsc(0.1), bsc(0.2))
    res = secrecy_bound_single_letter(inst, 2)
    p_u = np.array(res.p_u)
    rows = np.array(res.p_x_given_u)
    wy, wz = inst.main.matrix, inst.eve.matrix
    base = _secrecy_objective(p_u, rows, wy, wz)
    h = 1e-6
    # feasible ascent directions: mass transfers within each simplex block
    worst = -np.inf
    for i in range(2):
        for j in range(2):
            if i == j or p_u[j] < h:
                continue
            cand = p_u.copy()
            cand[i] += h
            cand[j] -= h
            worst = max(worst, (_secrecy_objective(cand, rows, wy, wz) - base) / h)
    for r in range(2):
        for i in range(2):
            for j in range(2):
                if i == j or rows[r, j] < h:
                    continue
                cand = rows.copy()
                cand[r, i] += h
                cand[r, j] -= h
                worst = max(worst,
                            (_secrecy_objective(p_u, cand, wy, wz) - base) / h)
    assert worst <= 1e-5


def test_single_letter_value_is_achieved():
    rng = np.random.default_rng(11)
    for degraded in (True, False):
        main, eve = random_pair(rng, 2, degraded)
        inst = WiretapInstance(channel(main), channel(eve))
        res = secrecy_bound_single_letter(inst)
        at = _secrecy_objective(np.array(res.p_u), np.array(res.p_x_given_u),
                                main, eve)
        assert res.value == pytest.approx(max(at, 0.0), abs=1e-12)


def test_single_letter_shortfall_pair():
    # the pair on which the multi-start ascent stopped 5.6e-6 short of the
    # envelope maximum 0.0048458923
    inst = WiretapInstance(channel([[0.8443, 0.1557], [0.3233, 0.6767]]),
                           channel([[0.8514, 0.1486], [0.3385, 0.6615]]))
    assert secrecy_bound_single_letter(inst, 2).value >= 0.0048458923 - 1e-9


def test_single_letter_binary_not_below_ascent():
    rng = np.random.default_rng(12)
    for degraded in (True, False):
        main, eve = random_pair(rng, 2, degraded)
        inst = WiretapInstance(channel(main), channel(eve))
        got = secrecy_bound_single_letter(inst, 2).value
        assert got >= ascent_secrecy_bound(main, eve, 2) - 1e-9


def test_single_letter_ternary_not_below_ascent():
    rng = np.random.default_rng(21)
    for degraded in (True, False):
        main, eve = random_pair(rng, 3, degraded)
        inst = WiretapInstance(channel(main), channel(eve))
        vals = [secrecy_bound_single_letter(inst, u).value for u in (1, 2, 3)]
        assert vals[0] == 0.0 and vals[0] <= vals[1] <= vals[2]
        # a few ascent starts keep this fast; the full-default comparison
        # takes tens of seconds per pair
        assert vals[2] >= ascent_secrecy_bound(main, eve, 3, starts=4) - 1e-6


def test_single_letter_caps_input_alphabet():
    inst = WiretapInstance(identity_channel(5), identity_channel(5))
    assert secrecy_bound_single_letter(inst, 1).value == 0.0
    with pytest.raises(CapacityError):
        secrecy_bound_single_letter(inst, 2)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def spread_values(rng, shape, zero_share):
    """Magnitudes over 20 decades, so a change of summation order shows,
    with exact zeros mixed in."""
    v = rng.uniform(size=shape) * 10.0 ** rng.integers(-18, 3, size=shape)
    v[rng.uniform(size=shape) < zero_share] = 0.0
    return v


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 5000), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
# every entry -0.0
@example(width=5, rows=3, zero_share=1.0, negative_share=1.0, seed=1)
def test_row_sums_match_numpy_sum(width, rows, zero_share, negative_share, seed):
    # zeros of both signs: only a row of -0.0 alone may differ, and below 8
    # entries only in the sign of its zero
    rng = np.random.default_rng(seed)
    a = spread_values(rng, (rows, width + 3), zero_share)
    a[(a == 0.0) & (rng.uniform(size=a.shape) < negative_share)] = -0.0
    for view in (a[:, :width], np.ascontiguousarray(a[:, 3:])):
        got, want = _row_sums(view), view.sum(axis=-1)
        signed = np.all((view == 0.0) & np.signbit(view), axis=-1)
        assert same_bits(got[~signed], want[~signed])
        if width >= 8:
            assert same_bits(got[signed], want[signed])
        assert same_bits(np.abs(got[signed]), np.abs(want[signed]))
        assert np.all(want[signed] == 0.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 2001), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_entropy_rows_match_where_form(width, rows, zero_share, seed):
    rng = np.random.default_rng(seed)
    p = spread_values(rng, (rows, width), zero_share)
    p /= np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
    p[rng.uniform(size=rows) < 0.2] = np.eye(width)[rng.integers(width)]
    assert same_bits(old._entropy_rows(p), old.entropy_rows(p))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.sampled_from([201, 2001]), st.floats(-12.0, 0.0),
       st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_local_grid_matches_meshgrid_form(d, budget, log_half, zeros, seed):
    # centers on a face of the simplex: up to d of the d + 1 coordinates 0
    rng = np.random.default_rng(seed)
    center = rng.uniform(size=d + 1) * 10.0 ** rng.integers(-12, 1, size=d + 1)
    center[rng.permutation(d + 1)[:min(zeros, d)]] = 0.0
    center /= center.sum()
    laws, step = _local_grid(center, 10.0 ** log_half, budget)
    want, want_step = old.local_grid(center, 10.0 ** log_half, budget)
    assert same_bits(laws, want) and step.hex() == want_step.hex()


def test_lattice_is_cached_and_read_only():
    for nx, steps in ((2, 1000), (3, 243), (4, 54)):
        counts = _lattice(nx, steps)
        assert _lattice(nx, steps) is counts
        assert np.array_equal(counts, _lattice.__wrapped__(nx, steps))
        with pytest.raises(ValueError):
            counts[0, 0] = 1


#: crossovers of the binary pairs whose F the chain test draws: the 625
#: pairs on this grid hold concave, convex and mixed chains
CROSSOVERS = (0.05, 0.1, 0.2, 0.3, 0.4)


def chain_values(shape, n, rng):
    """n values of a binary F, or of a shape that makes the lower chain
    decide near-collinear triples and ties."""
    if shape in ("pair", "ties"):
        a, b, c, d = rng.choice(CROSSOVERS, size=4)
        fv = _entropy_gap(np.array([[1 - a, a], [b, 1 - b]]),
                          np.array([[1 - c, c], [d, 1 - d]]))(_lattice(2, 1000) / 1000)
        start = int(rng.integers(0, 1002 - n))
        fv = fv[start:start + n]
        return np.round(fv, 1) if shape == "ties" else fv
    x = np.arange(n, dtype=np.float64)
    if shape == "affine":  # collinear but for 1-2 ulps either way
        y = rng.normal() * x + rng.normal()
        return y + rng.integers(-2, 3, size=n) * np.spacing(y)
    if shape == "curve":  # a line through 0 in the window, bent by ~1 ulp
        u, s = x - rng.uniform(0, n), rng.normal()
        return s * u + rng.choice([-1.0, 1.0]) * abs(s) * 10.0 ** rng.uniform(-18, -15) * u * u
    if shape == "constant":
        return np.full(n, rng.normal())
    if shape == "walk":  # steps of 0.1 round, integer steps tie exactly
        return np.cumsum(rng.integers(-2, 3, size=n) * rng.choice([1.0, 0.1]))
    period = int(rng.integers(2, 12))  # sawtooth on a slope
    return (x % period) * rng.normal() + rng.normal() * x


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["pair", "ties", "affine", "curve", "constant", "walk",
                        "sawtooth"]),
       st.integers(2, 1001), st.integers(0, 2 ** 32 - 1))
# a keep run (41) and a pop run (121) that end at a triple which another
# form of the same predicate rounds the other way
@example(shape="curve", n=1001, seed=41)
@example(shape="curve", n=1001, seed=121)
def test_lower_chain_matches_per_point_loop(shape, n, seed):
    fv = chain_values(shape, n, np.random.default_rng(seed))
    assert _lower_chain(fv) == old.lower_chain(list(range(n)), fv.tolist())


def stochastic_rows(rng, shape, zero_share):
    """Random channel rows over 20 decades with exact zeros, no row empty."""
    rows = spread_values(rng, shape, zero_share)
    empty = rows.sum(axis=1) == 0.0
    rows[empty, rng.integers(shape[1], size=int(empty.sum()))] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


def same_envelope(wy, wz) -> bool:
    got, want = _envelope(wy, wz), old.envelope_reference(wy, wz)
    return all(same_bits(a, b) for a, b in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 0.6),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_envelope_matches_reference_binary(ny, nz, zero_share, degraded, seed):
    # the fused F, the cached first zoom grid and the stacked tangent grids
    # give the bits of two products per F and one tangent grid per corner
    rng = np.random.default_rng(seed)
    wy = stochastic_rows(rng, (2, ny), zero_share)
    wz = (wy @ stochastic_rows(rng, (ny, nz), zero_share) if degraded
          else stochastic_rows(rng, (2, nz), zero_share))
    assert same_envelope(wy, wz)


@pytest.mark.parametrize("seed", [3, 4])
def test_envelope_matches_reference_ternary(seed):
    rng = np.random.default_rng(seed)
    wy = stochastic_rows(rng, (3, 3 + seed), 0.2)
    wz = stochastic_rows(rng, (3, 2), 0.0)
    assert same_envelope(wy, wz)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 12), st.integers(1, 12),
       st.integers(2, 2001), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
# every channel entry positive: every output positive, plain log2
@example(nx=2, ny=2, nz=3, rows=1001, zero_share=0.0, seed=1)
# every row a point mass: exact zero outputs, the masked log2
@example(nx=2, ny=2, nz=3, rows=1001, zero_share=1.0, seed=1)
def test_fused_gap_matches_two_products(nx, ny, nz, rows, zero_share, seed):
    rng = np.random.default_rng(seed)
    wy = stochastic_rows(rng, (nx, ny), zero_share)
    wz = stochastic_rows(rng, (nx, nz), zero_share)
    p = stochastic_rows(rng, (rows, nx), zero_share)
    got = _entropy_gap(wy, wz)(p)
    assert same_bits(got, old._entropy_rows(p @ wy) - old._entropy_rows(p @ wz))
    assert same_bits(got, old.entropy_rows(p @ wy) - old.entropy_rows(p @ wz))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([7, 13, 15, 45, 201, 1001, 2001]), st.floats(-13.0, 0.0),
       st.floats(0.0, 1.0))
def test_offsets_match_linspace(k, log_half, mantissa):
    half = (1.0 + mantissa) * 10.0 ** log_half
    assert same_bits(_offsets(half, k), np.linspace(-half, half, k))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(1, 12), st.integers(1, 12),
       st.floats(-12.0, -2.0), st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
def test_stacked_grids_match_one_grid_at_a_time(nx, ny, nz, log_half,
                                                zero_share, seed):
    # a row of F and of the tangent plane does not depend on the rows that
    # go through the same product with it
    rng = np.random.default_rng(seed)
    f = _entropy_gap(stochastic_rows(rng, (nx, ny), zero_share),
                     stochastic_rows(rng, (nx, nz), zero_share))
    corners = stochastic_rows(rng, (nx, nx), zero_share)
    slope = rng.normal(size=nx)
    grids = [_local_grid(c, 10.0 ** log_half, TANGENT_POINTS)[0] for c in corners]
    stacked = np.vstack(grids)
    gap = f(stacked) - stacked @ slope
    for block, grid in zip(np.split(gap, nx), grids):
        assert same_bits(block, f(grid) - grid @ slope)


def test_first_zoom_grid_is_cached_and_read_only():
    for nx in (2, 3, 4):
        grid, step = _first_zoom(nx)
        assert _first_zoom(nx)[0] is grid
        want, want_step = _local_grid(np.full(nx, 1.0 / nx), 1.0 - 1.0 / nx,
                                      PEAK_POINTS)
        assert same_bits(grid, want) and step.hex() == want_step.hex()
        with pytest.raises(ValueError):
            grid[0, 0] = 0.5
