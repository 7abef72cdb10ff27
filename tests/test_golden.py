"""Golden lock: small CLI runs whose report bytes must never move.

The inputs live in `tests/golden/`; `tests/golden/digests.json` holds the
sha256 of every JSON report and `.csv` side file these runs wrote when the
lock was made.  A change that alters a digest must explain why in
CHANGES.md (for example a last-ulp change from a new summation order); the
digest itself is never regenerated to make this test pass.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import dmckit
from dmckit import fano, images, partitioner
from dmckit.cli import build_parser, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: case name -> argv, input file names relative to tests/golden
CASES = {
    "image-size-bracket-bsc-n8": [
        "image-size", "--channel", "bsc01.json", "--set", "set_b8.json",
        "--eta", "0.9"],
    "image-size-bracket-z23-n5": [
        "image-size", "--channel", "erasure23.json", "--set", "set_z5.json",
        "--eta", "0.75"],
    "image-size-exact-bsc-n4": [
        "image-size", "--channel", "bsc02.json", "--set", "set_b4.json",
        "--eta", "0.8", "--exact"],
    "image-size-exact-tern-n2": [
        "image-size", "--channel", "tern33.json", "--set", "set_t2.json",
        "--eta", "0.6", "--exact"],
    "partition-bsc-n7": [
        "partition", "--channel", "bsc01.json", "--dist", "dist7.json",
        "--messages", "msg7.json"],
    "partition-two-channels-n7": [
        "partition", "--channel", "bsc02.json", "--channel", "erasure23.json",
        "--dist", "dist7.json", "--messages", "msg7.json", "--eta", "0.6"],
    # two and three message indices: product labels such as ((0, 0), 0)
    # and their order, which fixes the float order of h_y_given_m
    "partition-two-messages-n6": [
        "partition", "--channel", "bsc01.json", "--dist", "dist6.json",
        "--messages", "msg6a.json", "--messages", "msg6b.json"],
    "partition-three-messages-n5": [
        "partition", "--channel", "bsc02.json", "--channel", "erasure23.json",
        "--dist", "dist5.json", "--messages", "msg5a.json",
        "--messages", "msg5b.json", "--messages", "msg5c.json"],
    "fano-max-n4": [
        "fano-max", "--code", "code4.json", "--channel", "bsc01.json"],
    "fano-avg-n4": [
        "fano-avg", "--code", "code4.json", "--channel", "bsc01.json"],
    "fano-max-two-receivers-n4": [
        "fano-max", "--code", "code4j2.json", "--channel", "bsc01.json",
        "--channel", "bsc02.json"],
    "fano-avg-two-receivers-n4": [
        "fano-avg", "--code", "code4j2.json", "--channel", "bsc01.json",
        "--channel", "bsc02.json"],
    # codeword 7 carries three messages and codeword 4 two, so the report
    # runs on codewords extended by appended symbols
    "fano-max-shared-codewords-n3": [
        "fano-max", "--code", "code3_shared.json", "--channel", "bsc01.json"],
    # the stochastic decoders split the pairs four ways, (0, 1), (0,), (1,)
    # and the empty split; codeword 11 carries three messages, so the
    # (0, 1) split appends symbols
    "fano-avg-splits-two-receivers-n4": [
        "fano-avg", "--code", "code4_splits.json", "--channel", "bsc01.json",
        "--channel", "bsc02.json"],
    "spectrum-n6": [
        "spectrum", "--dist", "dist6.json", "--delta-n", "0.2", "--delta", "0.5"],
    # the single-letter secrecy bound at |X| = 2 and 3
    "wiretap-bound-bsc-usize2": [
        "wiretap-bound", "--main", "bsc01.json", "--eve", "bsc02.json",
        "--usize", "2"],
    "wiretap-bound-bsc-erasure": [
        "wiretap-bound", "--main", "bsc01.json", "--eve", "erasure23.json"],
    # the pair on which the retired multi-start ascent fell short
    "wiretap-bound-shortfall": [
        "wiretap-bound", "--main", "shortfall_main.json",
        "--eve", "shortfall_eve.json"],
    # eve better (value 0): F is convex, so every lattice point stays on the
    # lower chain and no facet has a gap
    "wiretap-bound-eve-better": [
        "wiretap-bound", "--main", "bsc02.json", "--eve", "bsc01.json"],
    # nine outputs: the entropy rows are at least 8 wide, so summed pairwise
    "wiretap-bound-wide-y9": [
        "wiretap-bound", "--main", "wide29.json", "--eve", "bsc02.json"],
    # |X| = 3: the full envelope (a three-law facet with an inner corner)
    # wins by the last ulp over the best two-law decomposition
    "wiretap-bound-tern": [
        "wiretap-bound", "--main", "tern33.json", "--eve", "tern3eve.json"],
    "wiretap-bound-tern-usize2": [
        "wiretap-bound", "--main", "tern33.json", "--eve", "tern3eve.json",
        "--usize", "2"],
    # the seeded lemma suite: its trial draws and per-check verdicts
    "verify-lemmas-seed7-n4": [
        "verify-lemmas", "--seed", "7", "--trials", "5", "--n", "4"],
}


def run_case(name: str, workdir) -> dict:
    """Run one case, writing into `workdir`; sha256 of each file it wrote."""
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a
            for a in CASES[name]]
    out = os.path.join(str(workdir), name + ".json")
    assert main(argv + ["--out", out]) == 0
    digests = {}
    for path in (out, out + ".csv"):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _expected() -> dict:
    with open(os.path.join(GOLDEN, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_expected()) == sorted(CASES)


def test_golden_covers_every_subcommand():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) <= {argv[0] for argv in CASES.values()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_digests(name, tmp_path):
    assert run_case(name, tmp_path) == _expected()[name]


@pytest.mark.parametrize("name", ["partition-bsc-n7", "fano-avg-n4"])
def test_default_runs_write_nothing_to_stderr(name, tmp_path):
    # the uniformizing slicing at 2*delta must not warn on a default run
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a
            for a in CASES[name]]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(dmckit.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "dmckit.cli", *argv,
         "--out", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""


#: the layers that read exponents solved below them instead of solving again
READERS = ("extract_main", "build_equal_image_partition", "_add_cells", "_measure")


@pytest.mark.parametrize("name", sorted(n for n in CASES
                                        if n.startswith(("partition-", "fano-"))))
def test_golden_runs_solve_each_image_once(name, tmp_path, monkeypatch):
    # each (channel, set, eta) is solved at most once by the layers that can
    # read it from a record, and once within one extraction, which reads the
    # final set's exponents from a level it solved on the refined set; the
    # solves made when a step's continuity gap is read count toward that
    # step's extraction; the Fano cells solve images only for their decoding
    # sets
    solved = set()
    repeats = []
    fano_callers = set()
    extractions = []  # the keys solved by each extraction in progress
    finished = {}  # id of a finished step's refined set -> (step, its keys)

    def recording(solve, counted=None):
        def wrapper(ch, A, eta):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension
                frame = frame.f_back
            caller = frame.f_code.co_name
            key = (id(ch), A.n, A.ids.tobytes(), eta)
            if key in solved and caller in READERS:
                repeats.append((caller, A.ids_list(), eta))
            # the extraction's body, or a closure it left on its step
            if frame.f_code.co_qualname.split(".")[0] == "extract_equal_cell":
                step, keys = finished.get(id(A), (None, None))
                if step is None or step.refined is not A:
                    keys = extractions[-1]
                if key in keys:
                    repeats.append((caller, A.ids_list(), eta))
                keys.add(key)
            solved.add(key)
            if counted is not None:
                counted.add(caller)
            return solve(ch, A, eta)
        return wrapper

    def extracting(extract):
        def wrapper(*args):
            keys = set()
            extractions.append(keys)
            try:
                result, step = extract(*args)
            finally:
                extractions.pop()
            finished[id(step.refined)] = (step, keys)
            return result, step
        return wrapper

    monkeypatch.setattr(partitioner, "image_exponents",
                        recording(partitioner.image_exponents))
    monkeypatch.setattr(partitioner, "extract_equal_cell",
                        extracting(partitioner.extract_equal_cell))
    monkeypatch.setattr(fano, "min_image", recording(fano.min_image, fano_callers))
    run_case(name, tmp_path)
    for step, _ in finished.values():  # read the gaps the run left unread
        assert step.continuity_gap >= 0.0
    assert repeats == []
    assert fano_callers <= {"build_decoding_sets"}


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("fano-")))
def test_golden_fano_runs_extract_from_no_one_word_set(name, tmp_path, monkeypatch):
    # a one-word set is its own cell, measured from its own row: no
    # extraction chain and no image-entropy partition runs on it
    one_word = []

    def recording(build):
        def wrapper(channels, dist, A, *args):
            if A.size == 1:
                one_word.append((build.__name__, A.ids_list()))
            return build(channels, dist, A, *args)
        return wrapper

    for layer in ("extract_main", "build_image_entropy_partition"):
        monkeypatch.setattr(partitioner, layer, recording(getattr(partitioner, layer)))
    assert run_case(name, tmp_path) == _expected()[name]
    assert one_word == []


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("fano-")))
def test_golden_fano_runs_cut_one_word_sets_from_their_row(name, tmp_path, monkeypatch):
    # a one-word set's image is cut from its own row: the subset-sum table
    # runs on one row only where the cut declined (a comparison in the band),
    # the greedy cover never runs on one row, and a one-word record reads one
    # row per channel, with no output marginal and no image solve
    cuts = []
    declined = set()
    searches = []
    fetches = []

    def declining(cut):
        def wrapper(row, eta, *args):
            cuts.append(row.size)
            out = cut(row, eta, *args)
            if out is None:
                declined.add((row.tobytes(), eta))
            return out
        return wrapper

    def searching(search):
        def wrapper(rows, eta):
            if rows.shape[0] == 1:
                searches.append((search.__name__, (rows[0].tobytes(), eta) in declined))
            return search(rows, eta)
        return wrapper

    def one_word(layer, size_of):
        def wrapper(*args):
            if size_of(*args) == 1:
                fetches.append(layer.__name__)
            return layer(*args)
        return wrapper

    def measuring(channels, dist, A, eta):
        if A.size == 1:
            fetches.extend(["channel"] * len(channels))
        return measure(channels, dist, A, eta)

    measure = partitioner._measure
    monkeypatch.setattr(partitioner, "_measure", measuring)
    for cut in ("_word_cut", "_word_cover"):
        monkeypatch.setattr(images, cut, declining(getattr(images, cut)))
    for search in ("_table_cover", "_greedy_cover"):
        monkeypatch.setattr(images, search, searching(getattr(images, search)))
    monkeypatch.setattr(partitioner, "output_rows",
                        one_word(partitioner.output_rows, lambda ch, A: A.size))
    monkeypatch.setattr(partitioner, "output_dist",
                        one_word(partitioner.output_dist, lambda ch, d: d.ids.size))
    monkeypatch.setattr(partitioner, "image_exponents",
                        one_word(partitioner.image_exponents, lambda ch, A, eta: A.size))
    assert run_case(name, tmp_path) == _expected()[name]
    assert cuts
    assert all(search == "_table_cover" and band for search, band in searches)
    assert fetches.count("channel") == fetches.count("output_rows") > 0
    assert set(fetches) == {"channel", "output_rows"}


@pytest.mark.parametrize("name", ["partition-bsc-n7", "partition-two-messages-n6"])
def test_single_channel_partition_never_solves_at_beta(name, tmp_path, monkeypatch):
    # with one channel no later step reads a continuity gap, and every step
    # of these runs is shallow, so no refined set is solved at
    # beta = max(eta, 1 - 1/n^2)
    levels = []
    etas = set()
    solve = partitioner.image_exponents
    extract = partitioner.extract_equal_cell

    def recording(ch, A, eta):
        levels.append((A.n, eta))
        return solve(ch, A, eta)

    def extracting(ch, dist, A, delta_n, delta, eta):
        etas.add(eta)
        result, step = extract(ch, dist, A, delta_n, delta, eta)
        assert step.branch == "shallow"
        return result, step

    monkeypatch.setattr(partitioner, "image_exponents", recording)
    monkeypatch.setattr(partitioner, "extract_equal_cell", extracting)
    assert run_case(name, tmp_path) == _expected()[name]
    assert levels and etas
    betas = {(n, max(eta, 1.0 - 1.0 / n ** 2)) for n, _ in levels for eta in etas}
    assert not betas & set(levels)
