"""The benchmark's oracles against closed forms and hand-checked instances."""

import math

import numpy as np
import pytest

import oracles

BSC01 = [[0.9, 0.1], [0.1, 0.9]]


def bsc(p):
    return np.array([[1 - p, p], [p, 1 - p]])


def test_kron_rows_big_endian():
    # x = 01: first symbol 0 is the most significant digit of y
    row = oracles.kron_rows(BSC01, [1], 2)[0]
    assert row == pytest.approx([0.09, 0.81, 0.01, 0.09])


def test_exhaustive_min_image_hand_instances():
    rows = oracles.kron_rows(BSC01, [0, 3], 2)
    assert oracles.exhaustive_min_image(rows, 0.5) == (2, [0, 3])
    # every pair covers a uniform row at 0.5: the least one wins the tie
    assert oracles.exhaustive_min_image(np.full((1, 4), 0.25), 0.5) == (2, [0, 1])


def test_check_image_exact_flags_wrong_witnesses():
    channel = {"rows": BSC01}
    set_obj = {"n": 2, "alphabet_size": 2, "ids": [0, 3]}
    good = {"size_lower": 2, "size_upper": 2, "exact": True, "witness": [0, 3]}
    assert oracles.check_image_exact(channel, set_obj, 0.5, good) == []
    bigger = dict(good, size_lower=3, size_upper=3, witness=[0, 1, 3])
    assert oracles.check_image_exact(channel, set_obj, 0.5, bigger)
    uniform = {"rows": [[0.5, 0.5], [0.5, 0.5]]}
    later = dict(good, witness=[2, 3])
    assert oracles.check_image_exact(uniform, set_obj, 0.5, later)


def _partition_report(h_all, h_split):
    return {
        "uniformizing": {"remainder_mass": 0.0, "cells": [{
            "members": [0, 1, 2, 3], "messages": ["0", "1"],
            "gamma_x": 1.0, "gamma_m": 1.0,
            "gamma_x_bound": 2.0, "gamma_m_bound": 8.0}]},
        "equal_image": {"within_cap": True, "cells": [{
            "members": [0, 1, 2, 3],
            "records": [{"subset": [], "h_y_given_m": [h_all]},
                        {"subset": [0], "h_y_given_m": [h_split]}]}]},
    }


def test_check_partition_hand_instance():
    channel = {"rows": BSC01, "output_size": 2}
    dist = {"n": 2, "entries": [[i, 0.25] for i in range(4)]}
    messages = [{"cells": [[0, 1], [2, 3]]}]
    # uniform input: uniform output, 1 bit per letter; given the first
    # symbol, one letter is a BSC output and the other is uniform
    split = (oracles.h2(0.1) + 1.0) / 2
    ok = _partition_report(1.0, split)
    assert oracles.check_partition([channel], dist, messages, ok) == []
    assert oracles.check_partition([channel], dist, messages,
                                   _partition_report(1.0, split + 1e-6))
    overlap = _partition_report(1.0, split)
    overlap["equal_image"]["cells"].append({"members": [3], "records": []})
    assert oracles.check_partition([channel], dist, messages, overlap)


def test_success_probs_and_fano_checks():
    code = {"n": 1, "message_sizes": [2],
            "encoder": [[[0], [[0, 1.0]]], [[1], [[1, 1.0]]]],
            "decoders": [{"S": [1], "rows": [[0, [[[0], 1.0]]], [1, [[[1], 1.0]]]]}]}
    channel = {"rows": BSC01, "output_size": 2}
    assert oracles.success_probs(code, [channel]) == [[(0.5, 0.9), (0.5, 0.9)]]
    report = {"details": {"avg_errors": [0.1]},
              "rows": [{"remainder": False, "receiver": 0, "q": "a", "cond_on": None,
                        "mi_rate": 0.5, "h_rate_lower": 1.0, "gap": 0.0}]}
    assert oracles.check_fano(code, [channel], report, "avg", identity=False) == []
    report["details"]["avg_errors"] = [0.2]
    report["rows"][0]["mi_rate"] = 1.5
    assert len(oracles.check_fano(code, [channel], report, "avg", identity=False)) == 2


@pytest.mark.parametrize("pm,pe", [(0.1, 0.2), (0.05, 0.3), (0.0, 0.5), (0.3, 0.1)])
def test_envelope_max_bsc_closed_forms(pm, pe):
    assert oracles.envelope_max(bsc(pm), bsc(pe)) == pytest.approx(
        max(0.0, oracles.h2(pe) - oracles.h2(pm)), abs=1e-12)


def test_envelope_max_asymmetric_pair_against_brute_force():
    main = np.array([[0.8443, 0.1557], [0.3233, 0.6767]])
    eve = np.array([[0.8514, 0.1486], [0.3385, 0.6615]])
    best = oracles.envelope_max(main, eve)
    assert best == pytest.approx(0.0048458923, abs=1e-10)
    # every (P_U, P_X|U) on a coarse grid is achievable, so none beats it
    g = np.linspace(0.0, 1.0, 21)
    for w in g:
        for a in g:
            vals = [oracles.secrecy_objective([w, 1 - w], [[1 - a, a], [1 - b, b]],
                                              main, eve) for b in g]
            assert max(vals) <= best + 1e-12


def test_secrecy_objective_and_check_wiretap():
    main, eve = bsc(0.1), bsc(0.2)
    closed = oracles.h2(0.2) - oracles.h2(0.1)
    exact = {"value": closed, "P_U": [0.5, 0.5], "P_X_given_U": [[1.0, 0.0], [0.0, 1.0]]}
    assert oracles.secrecy_objective([0.5, 0.5], [[1, 0], [0, 1]], main, eve) == \
        pytest.approx(closed, abs=1e-12)
    m, e = {"rows": main.tolist()}, {"rows": eve.tolist()}
    assert oracles.check_wiretap(m, e, exact, (0.1, 0.2)) == ([], False)
    # a value the argmax does not reach, and one below the maximum
    assert oracles.check_wiretap(m, e, dict(exact, value=closed + 1e-6), (0.1, 0.2))[0]
    low = {"value": 0.2, "P_U": [0.5, 0.5], "P_X_given_U": [[0.9, 0.1], [0.1, 0.9]]}
    low["value"] = oracles.secrecy_objective(low["P_U"], low["P_X_given_U"], main, eve)
    problems, short = oracles.check_wiretap(m, e, low, None)
    assert problems == [] and short
    assert math.isclose(oracles.h2(0.5), 1.0)
