"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import dmckit
from conftest import exhaustive_min_image
from dmckit.cli import main as cli_main
from dmckit.core import (SequenceDist, SequenceSet, bsc, identity_channel,
                         output_dist, output_rows)
from dmckit.fano import (MessageSpace, build_decoding_sets, deterministic_code,
                         max_error, ml_decoder, sphere_packing_check,
                         strong_fano_avg, strong_fano_max)
from dmckit.images import min_image_bracket, min_image_exact, min_quasi_image
from dmckit.partitioner import (build_equal_image_partition,
                                build_image_entropy_partition,
                                build_uniformizing_partition,
                                refine_quasi_to_image)
from dmckit.spectrum import PartitioningIndex
from dmckit.verify import (random_channel, random_dist_on, random_subset,
                           rng_from_seed, run_lemma_suite)
from dmckit.wiretap import WiretapInstance, secrecy_bound_single_letter

SEED = 20260808


def _report(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


def exhaustive_min_quasi_size(out_dist, eta, tol=1e-12):
    m = out_dist.base ** out_dist.n
    dense = np.zeros(m)
    for i, p in out_dist.items():
        dense[i] = p
    subsets = np.arange(1, 1 << m, dtype=np.int64)
    bits = ((subsets[:, None] >> np.arange(m)) & 1).astype(np.float64)
    feasible = bits @ dense >= eta - tol
    return int(bits.sum(axis=1)[feasible].min())


def test_criterion_1_quasi_image_exactness():
    start = time.time()
    rng = rng_from_seed(SEED)
    for _ in range(200):
        base_out = int(rng.choice([2, 3]))
        base_in = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4)) if base_out == 2 else int(rng.integers(1, 3))
        ch = random_channel(rng, base_in, base_out)
        A = random_subset(rng, n, base_in)
        eta = float(rng.uniform(0.02, 0.999))
        got = min_quasi_image(ch, None, A, eta)
        out = output_dist(ch, SequenceDist.uniform_on(A))
        assert got.size == exhaustive_min_quasi_size(out, eta)
        assert got.eta_achieved >= eta - 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0, f"quasi-image suite took {elapsed:.1f}s"
    _report(1, "quasi-image exactness (200/200, "
            f"{elapsed:.1f}s)")


def test_criterion_2_image_solver_soundness():
    start = time.time()
    rng = rng_from_seed(SEED + 1)
    for _ in range(200):
        base = 2
        n = int(rng.integers(1, 5))  # |Y|^n <= 16
        ch = random_channel(rng, base, base)
        A = random_subset(rng, n, base)
        eta = float(rng.uniform(0.02, 0.999))
        rows = output_rows(ch, A)
        want, lex_least = exhaustive_min_image(rows, eta)
        exact = min_image_exact(ch, A, eta)
        bracket = min_image_bracket(ch, A, eta)
        assert exact.lower == exact.upper == want
        assert exact.upper_witness.ids_list() == lex_least
        assert bracket.lower <= want <= bracket.upper
        for witness in (exact.upper_witness, bracket.upper_witness):
            mask = np.isin(np.arange(rows.shape[1]), witness.ids)
            assert rows[:, mask].sum(axis=1).min() >= eta - 1e-12
    elapsed = time.time() - start
    assert elapsed < 60.0, f"image suite took {elapsed:.1f}s"
    _report(2, f"image-solver soundness (200/200, {elapsed:.1f}s)")


def test_criterion_3_unconditional_lemma_suite():
    failures = []
    for n in range(2, 9):
        for rep in run_lemma_suite(SEED + n, trials=100, n=n):
            if not rep.passed:
                failures.append((n, rep.name, [i.label for i in rep.failing()]))
    assert not failures, failures
    _report(3, "unconditional lemma suite (7 blocklengths x 9 checks x 100 trials)")


def test_criterion_4_constructive_partition_suite():
    rng = rng_from_seed(SEED + 2)
    # message-joint slicing on 50 random (dist, M) instances
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = random_subset(rng, n, 2)
        dist = random_dist_on(rng, A)
        count = int(rng.integers(1, min(A.size, 4) + 1))
        labels = {int(s): int(rng.integers(0, count)) for s in A.ids}
        M = PartitioningIndex.from_labeling(A, lambda s: labels[s])
        rho = int(rng.integers(0, 2))
        up = build_uniformizing_partition(dist, M,
                                          delta=float(rng.uniform(0.1, 0.9)),
                                          rho=rho)
        assert up.partitions_ground()
        assert up.message_partition_ok(M.labels())
        bound_x = 2.0 ** (2.0 / n ** (rho + 1)) * (1 + 1e-9)
        bound_m = 2.0 ** (6.0 / n ** (rho + 1)) * (1 + 1e-9)
        for cell in up.cells.values():
            assert cell.x_gamma <= bound_x
            assert cell.m_gamma <= bound_m
    # quasi-image refinement certificate holds exactly
    for _ in range(50):
        n = int(rng.integers(1, 5))
        ch = random_channel(rng, 2, 2)
        A = random_subset(rng, n, 2)
        dist = random_dist_on(rng, A)
        ref = refine_quasi_to_image(ch, dist, A, float(rng.uniform(0.05, 1.0)))
        assert ref.refined.size > 0
        assert ref.min_row_mass >= ref.threshold - 1e-12
        assert ref.ratio > ref.ratio_floor - 1e-9
    # image-entropy and equal-image partitions on the BSC corpus
    v_corpus = [
        ([bsc(0.1)], 2), ([bsc(0.2)], 3), ([bsc(0.1)], 4),
        ([bsc(0.1), bsc(0.2)], 2),
    ]
    for channels, n in v_corpus:
        A = SequenceSet.full_space(n, 2)
        d = SequenceDist.uniform_on(A)
        part = build_image_entropy_partition(channels, d, A, 0.5)
        assert part.within_cap
        covered = sum(c.size for c in part.index.cells.values())
        assert covered == A.size
    vstar_corpus = [
        ([bsc(0.1)], 2, 1), ([bsc(0.1)], 2, 2), ([bsc(0.1), bsc(0.2)], 3, 1),
        ([bsc(0.2)], 4, 1),
    ]
    for channels, n, J in vstar_corpus:
        A = SequenceSet.full_space(n, 2)
        d = SequenceDist.uniform_on(A)
        ms = [PartitioningIndex.from_labeling(A, lambda s, j=j: (s >> j) & 1)
              for j in range(J)]
        eq = build_equal_image_partition(channels, d, A, ms, eta=0.5)
        assert eq.within_cap
        covered = sum(c.size for c in eq.index.cells.values())
        assert covered == A.size
    _report(4, "constructive-partition structural suite")


def _corpus_codes():
    out = []
    idc = identity_channel(2)
    out.append(("identity-n1", idc, 1, [0, 1]))
    out.append(("identity-n2", idc, 2, [0, 1, 2, 3]))
    out.append(("bsc01-n2", bsc(0.1), 2, [0, 3]))
    out.append(("bsc01-n3", bsc(0.1), 3, [0, 7]))
    out.append(("bsc02-n2", bsc(0.2), 2, [0, 1, 2, 3]))
    out.append(("bsc02-n3", bsc(0.2), 3, [0, 3, 7]))
    built = []
    for name, ch, n, cws in out:
        ms = MessageSpace.uniform([len(cws)])
        cw = {m: cws[i] for i, m in enumerate(ms.support)}
        enc = tuple((m, ((cw[m], 1.0),)) for m in ms.support)
        dec = ml_decoder(ms, enc, ch, n, (0,))
        built.append((name, ch, deterministic_code(ms, n, 2, cw, [dec])))
    return built


def test_criterion_5_sphere_packing_and_counting():
    for name, ch, code in _corpus_codes():
        eps = max_error(code, [ch], 0)
        mu = min(0.2, (1.0 - eps) / 2.0)
        rep = sphere_packing_check(code, ch, mu=mu, eps=eps)
        assert rep.passed, (name, rep.to_json_obj())
        alpha = 1.0 - eps
        A = code.pairs()
        cells = {"all": SequenceSet.from_ids(code.n, 2,
                                             sorted({x for _, x, _ in A}))}
        ds = build_decoding_sets(A, code.decoders[0], ch, code.n, alpha, cells)
        assert ds.certificates.passed, name
        assert ds.multiplicity.passed, name
        cap = math.floor(2.0 / alpha)
        for item in ds.multiplicity.items:
            assert item.lhs <= cap
        # same counting steps on the constructed Q cells (the density slicing
        # needs blocklength at least 2)
        if code.n >= 2:
            fano = strong_fano_max(code, [ch])
            assert fano.counting.passed, name
    _report(5, "sphere-packing and decoding-set counting (6 corpus codes)")


def test_criterion_6_strong_fano_equality_case():
    ch = identity_channel(2)
    ms = MessageSpace.uniform([4])
    cw = {m: m[0] for m in ms.support}
    enc = tuple((m, ((cw[m], 1.0),)) for m in ms.support)
    dec = ml_decoder(ms, enc, ch, 2, (0,))
    code = deterministic_code(ms, 2, 2, cw, [dec])
    rep_max = strong_fano_max(code, [ch])
    rows = rep_max.bound_rows()
    assert rows
    for r in rows:
        assert r.gap == 0.0
        assert r.aexp_messages == r.mi_rate
    rep_avg = strong_fano_avg(code, [ch])
    rows = rep_avg.bound_rows()
    assert rows
    for r in rows:
        assert r.gap == 0.0
        assert r.aexp_messages == r.mi_rate
    _report(6, "strong-Fano equality case (identity channel, exact zero gaps)")


def _grid_oracle_secrecy(wy, wz, resolution=200):
    """Independent dense-grid + local-refinement maximizer of I(U;Y)-I(U;Z)
    for binary U and X."""

    def h2v(q):
        q = np.clip(q, 0.0, 1.0)
        out = np.zeros_like(q)
        inner = (q > 0) & (q < 1)
        qi = q[inner]
        out[inner] = -qi * np.log2(qi) - (1 - qi) * np.log2(1 - qi)
        return out

    def objective(p, a, b):
        y1_u0 = (1 - a) * wy[0, 1] + a * wy[1, 1]
        y1_u1 = (1 - b) * wy[0, 1] + b * wy[1, 1]
        z1_u0 = (1 - a) * wz[0, 1] + a * wz[1, 1]
        z1_u1 = (1 - b) * wz[0, 1] + b * wz[1, 1]
        iy = h2v(p * y1_u0 + (1 - p) * y1_u1) \
            - p * h2v(y1_u0) - (1 - p) * h2v(y1_u1)
        iz = h2v(p * z1_u0 + (1 - p) * z1_u1) \
            - p * h2v(z1_u0) - (1 - p) * h2v(z1_u1)
        return iy - iz

    grid = np.linspace(0.0, 1.0, resolution + 1)
    a, b = np.meshgrid(grid, grid, indexing="ij")
    best = (-np.inf, 0.0, 0.0, 0.0)
    for p in grid:
        vals = objective(np.full_like(a, p), a, b)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[idx] > best[0]:
            best = (float(vals[idx]), float(p), float(a[idx]), float(b[idx]))
    # local refinement with shrinking steps
    val, p, aa, bb = best
    step = 1.0 / resolution
    for _ in range(6):
        cand = [(p, aa, bb)]
        for dp in (-step, 0.0, step):
            for da in (-step, 0.0, step):
                for db in (-step, 0.0, step):
                    cand.append((p + dp, aa + da, bb + db))
        scored = [(float(objective(np.array([min(max(c[0], 0), 1)]),
                                   np.array([min(max(c[1], 0), 1)]),
                                   np.array([min(max(c[2], 0), 1)]))[0]),) + c
                  for c in cand]
        scored.sort(key=lambda t: -t[0])
        val, p, aa, bb = scored[0]
        p, aa, bb = min(max(p, 0), 1), min(max(aa, 0), 1), min(max(bb, 0), 1)
        step /= 5.0
    return max(val, 0.0)


def test_criterion_7_wiretap_single_letter():
    start = time.time()
    got = secrecy_bound_single_letter(WiretapInstance(bsc(0.0), bsc(0.5)), 2)
    assert got.value == pytest.approx(1.0, abs=1e-6)
    got = secrecy_bound_single_letter(WiretapInstance(bsc(0.13), bsc(0.13)), 2)
    assert got.value == pytest.approx(0.0, abs=1e-9)
    inst = WiretapInstance(bsc(0.1), bsc(0.2))
    mine = secrecy_bound_single_letter(inst, 2).value
    oracle = _grid_oracle_secrecy(inst.main.matrix, inst.eve.matrix)
    assert mine == pytest.approx(oracle, abs=1e-4)
    v1 = secrecy_bound_single_letter(inst, 1).value
    v2 = secrecy_bound_single_letter(inst, 2).value
    assert v1 <= v2 + 1e-9
    elapsed = time.time() - start
    assert elapsed < 120.0, f"wiretap suite took {elapsed:.1f}s"
    _report(7, f"wiretap single-letter values (oracle gap "
            f"{abs(mine - oracle):.2e}, {elapsed:.1f}s)")


#: run each (name, argv) of argv[1] in this interpreter, each report under argv[2]
_RUN_COMMANDS = """
import json, os, sys
from dmckit.cli import main
for name, argv in json.loads(sys.argv[1]):
    if main(argv + ["--out", os.path.join(sys.argv[2], name + ".json")]) != 0:
        sys.exit(name + " failed")
"""


def test_criterion_8_determinism_across_processes(tmp_path):
    def write_json(path, obj):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    ch1 = tmp_path / "bsc01.json"
    write_json(ch1, {"name": "bsc01", "input_size": 2, "output_size": 2,
                     "rows": [[0.9, 0.1], [0.1, 0.9]]})
    ch2 = tmp_path / "bsc03.json"
    write_json(ch2, {"name": "bsc03", "input_size": 2, "output_size": 2,
                     "rows": [[0.7, 0.3], [0.3, 0.7]]})
    dist = tmp_path / "dist.json"
    write_json(dist, {"n": 2, "alphabet_size": 2,
                      "entries": [[0, 0.25], [1, 0.25], [2, 0.25], [3, 0.25]]})
    setf = tmp_path / "A.json"
    write_json(setf, {"n": 2, "alphabet_size": 2, "ids": [0, 3]})
    msg = tmp_path / "msg.json"
    write_json(msg, {"n": 2, "alphabet_size": 2, "cells": [[0, 1], [2, 3]]})
    codef = tmp_path / "code.json"
    write_json(codef, {
        "J": 1, "message_sizes": [2], "n": 2, "alphabet_size": 2,
        "encoder": [[[0], [[0, 1.0]]], [[1], [[3, 1.0]]]],
        "decoders": [{"S": [1], "rows": [
            [0, [[[0], 1.0]]], [1, [[[0], 1.0]]],
            [2, [[[0], 1.0]]], [3, [[[1], 1.0]]]]}]})

    commands = {
        "spectrum": ["spectrum", "--dist", str(dist), "--delta-n", "0.3",
                     "--delta", "0.5"],
        "image": ["image-size", "--channel", str(ch1), "--set", str(setf),
                  "--eta", "0.5", "--exact"],
        "partition": ["partition", "--channel", str(ch1), "--dist", str(dist),
                      "--messages", str(msg)],
        "fano-avg": ["fano-avg", "--code", str(codef), "--channel", str(ch1)],
        "wiretap": ["wiretap-bound", "--main", str(ch1), "--eve", str(ch2),
                    "--starts", "8"],
        "verify": ["verify-lemmas", "--seed", "7", "--trials", "10", "--n", "3"],
    }
    # two fresh interpreters whose string hashes, and so the order of any
    # set or dict of strings, differ
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(dmckit.__file__)))
    reports = {}
    for hash_seed in ("0", "1"):
        out_dir = tmp_path / f"hashseed{hash_seed}"
        out_dir.mkdir()
        subprocess.run([sys.executable, "-c", _RUN_COMMANDS,
                        json.dumps(list(commands.items())), str(out_dir)],
                       env=dict(env, PYTHONHASHSEED=hash_seed), check=True)
        reports[hash_seed] = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    assert sorted(reports["0"]) == sorted(
        [f"{name}.json" for name in commands] + ["fano-avg.json.csv"])
    assert reports["0"] == reports["1"]
    _report(8, "determinism across fresh processes, PYTHONHASHSEED 0 and 1 "
            "(6 subcommands)")
