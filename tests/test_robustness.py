"""Inputs at the edge of desk scale end in exit 2 or 3, never in a traceback,
a hang or an allocation past the memory budget.

Cases that fail fast run in-process.  Cases that would hang or allocate
gigabytes run in a subprocess under a 600 MiB address-space limit and a 20 s
timeout; a golden `spectrum` run fits well inside that limit, so the limit
only catches allocations the budget should have refused.
"""

import contextlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import dmckit
from dmckit import core, partitioner
from dmckit.cli import main
from dmckit.core import Alphabet, Channel, SequenceDist, SequenceSet, bsc
from dmckit.errors import (ConditioningError, DimensionMismatchError, DomainError,
                           ValidationError)
from dmckit.fano import Code, Decoder, MessageSpace
from dmckit.spectrum import PartitioningIndex

import kernel_oracles

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(argv):
    return [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in argv]


PARTITION_N6 = ["partition", "--channel", "bsc01.json", "--dist", "dist6.json",
                "--messages", "msg6a.json"]
PARTITION_N7 = ["partition", "--channel", "bsc01.json", "--dist", "dist7.json",
                "--messages", "msg7.json"]
# three message indices and two channels: a lattice of |V| = 1e216 points
# at delta_n = 1e-9, whose 1/|V|^2 no float holds
PARTITION_N5 = ["partition", "--channel", "bsc01.json", "--channel", "bsc02.json",
                "--dist", "dist5.json", "--messages", "msg5a.json",
                "--messages", "msg5b.json", "--messages", "msg5c.json"]
SPECTRUM_N6 = ["spectrum", "--dist", "dist6.json"]
FANO_MAX_N4 = ["fano-max", "--code", "code4.json", "--channel", "bsc01.json"]
WIRETAP_BSC = ["wiretap-bound", "--main", "bsc01.json", "--eve", "bsc02.json"]
IMAGE_B4_ETA = ["image-size", "--channel", "bsc01.json", "--set", "set_b4.json", "--eta"]

FAST = {
    "spectrum-delta-nan": (SPECTRUM_N6 + ["--delta-n", "0.2", "--delta", "nan"], 2),
    "spectrum-delta-inf": (SPECTRUM_N6 + ["--delta-n", "0.2", "--delta", "inf"], 2),
    "partition-delta-nan": (PARTITION_N6 + ["--delta", "nan"], 2),
    "partition-delta-inf": (PARTITION_N6 + ["--delta", "inf"], 2),
    "spectrum-delta-1e300": (SPECTRUM_N6 + ["--delta-n", "0.2", "--delta", "1e300"], 3),
    "spectrum-delta-n-1e-300": (SPECTRUM_N6 + ["--delta-n", "1e-300", "--delta", "0.5"], 3),
    "partition-lattice-1e-9": (PARTITION_N5 + ["--delta-n", "1e-9"], 3),
    # lattice indices near 1e20 pass int64
    "partition-lattice-index-1e-20": (PARTITION_N7 + ["--delta-n", "1e-20"], 3),
    "fano-max-lattice-1e-300": (FANO_MAX_N4 + ["--delta-n", "1e-300"], 3),
    "fano-max-lattice-5e-324": (FANO_MAX_N4 + ["--delta-n", "5e-324"], 3),
    # n**(rho+2) past the float range: 6**402, 4**513 and 4**602
    "partition-rho-400": (PARTITION_N6 + ["--rho", "400"], 3),
    "fano-max-rho-511": (FANO_MAX_N4 + ["--rho", "511"], 3),
    "fano-max-rho-600": (FANO_MAX_N4 + ["--rho", "600"], 3),
    # eta at or below the comparison grid: the empty set would serve every
    # row, once reported as size 0, or as a lower bound 1 above upper 0
    "image-size-eta-1e-13": (IMAGE_B4_ETA + ["1e-13"], 2),
    "image-size-exact-eta-1e-13": (IMAGE_B4_ETA + ["1e-13", "--exact"], 2),
    "partition-eta-1e-13": (PARTITION_N6 + ["--eta", "1e-13"], 2),
    # PCG64 refuses a negative seed; no trials once reported all passed
    "verify-lemmas-seed-negative": (["verify-lemmas", "--n", "2", "--seed", "-5"], 2),
    "verify-lemmas-trials-negative": (["verify-lemmas", "--n", "2", "--trials", "-1"], 2),
    "verify-lemmas-trials-zero": (["verify-lemmas", "--n", "2", "--trials", "0"], 2),
}


@pytest.mark.filterwarnings("ignore:delta >= 1:UserWarning")
@pytest.mark.parametrize("name", sorted(FAST))
def test_fast_escape_exits_cleanly(name, tmp_path, capsys):
    argv, code = FAST[name]
    assert main(golden(argv) + ["--out", str(tmp_path / "report.json")]) == code
    assert "Traceback" not in capsys.readouterr().err


NAN = float("nan")


def _tiny_dist(n):
    return {"n": n, "alphabet_size": 2, "entries": [[0, 1.0]]}


IMAGE_B4 = ["image-size", "--channel", "bsc01.json", "--set", "set_b4.json",
            "--eta", "0.5"]
SPECTRUM_N6_RUN = SPECTRUM_N6 + ["--delta-n", "0.2", "--delta", "0.5"]
# name: (argv, {golden file: the file that replaces it, or the (path, value)
# of one entry to change in a copy}); each case once ended in a ValueError
# or ZeroDivisionError traceback, or in a report on a blocklength below 1 or
# on a NaN entry (Python's json reads NaN)
MALFORMED = {
    "channel-input-size-text": (IMAGE_B4, {"bsc01.json": (["input_size"], "x")}),
    "channel-rows-ragged": (IMAGE_B4, {"bsc01.json": (["rows"], [[0.5, 0.5], [0.5]])}),
    "set-n-text": (IMAGE_B4, {"set_b4.json": (["n"], "x")}),
    "set-id-text": (IMAGE_B4, {"set_b4.json": (["ids", 0], "q")}),
    "set-n-negative": (IMAGE_B4, {"set_b4.json": {"n": -1, "alphabet_size": 2,
                                                  "ids": [0]}}),
    "message-cell-id-text": (PARTITION_N6, {"msg6a.json": (["cells", 0, 0], "q")}),
    # a message file's space must be the distribution's
    "message-n-mismatch": (PARTITION_N6, {"msg6a.json": (["n"], 7)}),
    "message-n-text": (PARTITION_N6, {"msg6a.json": (["n"], "x")}),
    "message-n-fraction": (PARTITION_N6, {"msg6a.json": (["n"], 6.5)}),
    "message-alphabet-size-mismatch": (PARTITION_N6,
                                       {"msg6a.json": (["alphabet_size"], 99)}),
    "message-alphabet-size-text": (PARTITION_N6,
                                   {"msg6a.json": (["alphabet_size"], "2")}),
    "dist-prob-text": (SPECTRUM_N6_RUN, {"dist6.json": (["entries", 0, 1], "p")}),
    "dist-n-zero-spectrum": (SPECTRUM_N6_RUN, {"dist6.json": _tiny_dist(0)}),
    "dist-n-negative-spectrum": (SPECTRUM_N6_RUN, {"dist6.json": _tiny_dist(-1)}),
    "dist-n-zero-partition": (PARTITION_N6, {
        "dist6.json": _tiny_dist(0),
        "msg6a.json": {"n": 0, "alphabet_size": 2, "cells": [[0]]}}),
    "code-n-text": (FANO_MAX_N4, {"code4.json": (["n"], "x")}),
    # once reported value 0.0
    "channel-rows-nan": (WIRETAP_BSC, {"bsc01.json": (["rows"],
                                                      [[NAN, NAN], [0.5, 0.5]])}),
    # once reported the spectrum of word 1 alone
    "dist-prob-nan": (SPECTRUM_N6_RUN, {"dist6.json": {
        "n": 1, "alphabet_size": 2, "entries": [[0, NAN], [1, 1.0]]}}),
    # once reported the spectrum of word 1 alone: the negative entry was
    # dropped with the zeros
    "dist-prob-negative": (SPECTRUM_N6_RUN, {"dist6.json": {
        "n": 1, "alphabet_size": 2, "entries": [[0, -1e-20], [1, 1.0]]}}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_exits_2(name, tmp_path, capsys):
    argv, edits = MALFORMED[name]
    argv = golden(argv)
    for target, change in edits.items():
        source = os.path.join(GOLDEN, target)
        if isinstance(change, dict):
            obj = change
        else:
            with open(source, encoding="utf-8") as fh:
                obj = json.load(fh)
            (*outer, last), value = change
            entry = obj
            for key in outer:
                entry = entry[key]
            entry[last] = value
        edited = tmp_path / target
        edited.write_text(json.dumps(obj), encoding="utf-8")
        argv = [str(edited) if a == source else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 2
    assert "Traceback" not in capsys.readouterr().err


# NaN fails every comparison, so each of these once passed validation
NAN_INPUTS = {
    "channel": lambda: Channel(Alphabet(2), Alphabet(2), [[NAN, NAN], [0.5, 0.5]]),
    "dist": lambda: SequenceDist(1, 2, [0, 1], [NAN, 1.0]),
    "dense-dist": lambda: SequenceDist.from_dense(1, 2, [NAN, 1.0]),
    "entropy": lambda: core.entropy([NAN, 1.0]),
    "joint": lambda: core.mutual_information([[NAN, 0.5], [0.5, 0.0]]),
    "decoder": lambda: Decoder(S=(0,), m_values=((0,), (1,)),
                               table=[[NAN, 1.0], [0.5, 0.5]]),
    "message-space": lambda: MessageSpace((2,), ((0,), (1,)), (NAN, 1.0)),
    "encoder": lambda: Code(messages=MessageSpace.uniform((1,)), n=1, base=2,
                            encoder=(((0,), ((0, NAN), (1, 1.0))),), decoders=()),
}


@pytest.mark.parametrize("name", sorted(NAN_INPUTS))
def test_nan_entries_are_rejected(name):
    with pytest.raises(ValidationError):
        NAN_INPUTS[name]()


def test_one_word_partition_keeps_the_chain_errors():
    # a one-word A runs no lattice iteration, yet each bad argument raises
    # what the iteration raises, type and message
    ch = bsc(0.1)
    d = SequenceDist(3, 2, np.array([5, 6]), np.array([0.5, 0.5]))
    A = SequenceSet.from_ids(3, 2, [5])
    M = PartitioningIndex.trivial(A)
    zero = SequenceSet.from_ids(3, 2, [0])
    ternary_input = Channel(Alphabet(3), Alphabet(2), np.full((3, 2), 0.5))
    cases = [
        (DomainError, [ch], A, [M], {"eta": 1.0}),
        (DomainError, [ch], A, [M], {"eta": 0.0}),
        (DomainError, [], A, [M], {"eta": 0.5}),
        (DomainError, [ch], A, [M], {"eta": 0.5, "delta": 0.0}),
        (DomainError, [ch], A, [M], {"eta": 0.5, "delta_n": 1.0}),
        # the word outside a message index's ground, or in another space
        (DimensionMismatchError, [ch], A,
         [M, PartitioningIndex.trivial(SequenceSet.from_ids(3, 2, [6]))], {"eta": 0.5}),
        (DimensionMismatchError, [ch], A,
         [PartitioningIndex.trivial(SequenceSet.from_ids(4, 2, [5]))], {"eta": 0.5}),
        (DimensionMismatchError, [ternary_input], A, [M], {"eta": 0.5}),
        (ConditioningError, [ch], zero, [PartitioningIndex.trivial(zero)], {"eta": 0.5}),
    ]
    for error, channels, word, messages, kwargs in cases:
        with pytest.raises(error) as want:
            kernel_oracles.build_equal_image_partition(channels, d, word, messages, **kwargs)
        with pytest.raises(error) as got:
            partitioner.build_equal_image_partition(channels, d, word, messages, **kwargs)
        assert str(got.value) == str(want.value)
    # and warns where the iteration's spectrum slicing warns
    for build in (kernel_oracles.build_equal_image_partition,
                  partitioner.build_equal_image_partition):
        with pytest.warns(UserWarning, match="delta >= 1"):
            build([ch], d, A, [M], 0.5, delta=1.5)


@pytest.mark.parametrize("eta, code", [("1.0", 2), ("0.5", 0)])
def test_one_word_partition_exit_codes(eta, code, tmp_path):
    (tmp_path / "dist.json").write_text(json.dumps(
        {"n": 3, "alphabet_size": 2, "entries": [[5, 1.0]]}), encoding="utf-8")
    (tmp_path / "msg.json").write_text(json.dumps(
        {"n": 3, "alphabet_size": 2, "cells": [[5]]}), encoding="utf-8")
    argv = golden(["partition", "--channel", "bsc01.json"]) + [
        "--dist", str(tmp_path / "dist.json"), "--messages", str(tmp_path / "msg.json"),
        "--eta", eta, "--out", str(tmp_path / "report.json")]
    assert main(argv) == code


def test_single_message_lattice_at_1e_9_still_reports(tmp_path):
    # one message index keeps |V| = (1e9)^4, so 1/|V|^2 is a float
    assert main(golden(PARTITION_N7)
                + ["--delta-n", "1e-9", "--out", str(tmp_path / "report.json")]) == 0


def test_spectrum_report_is_charged_before_it_is_built(tmp_path, monkeypatch):
    # the builder charges 64 bytes a bin, the report 256; a budget between
    # the two lets the partition through and refuses its report
    out = tmp_path / "report.json"
    argv = golden(SPECTRUM_N6 + ["--delta-n", "0.2", "--delta", "0.5"]) + ["--out", str(out)]
    assert main(argv) == 0
    bins = json.loads(out.read_text(encoding="utf-8"))["K"] + 1
    monkeypatch.setattr(core, "BUDGET_BYTES", 256 * bins)
    assert main(argv) == 0
    monkeypatch.setattr(core, "BUDGET_BYTES", 128 * bins)
    assert main(argv) == 3


def test_wiretap_rows_are_charged_before_the_search(tmp_path, monkeypatch):
    # 128 bytes for each of the 1 + |X| numbers of a result row, padding
    # rows included: that charge, and no larger one, decides the exit
    out = tmp_path / "report.json"
    argv = golden(WIRETAP_BSC + ["--usize", "5"]) + ["--out", str(out)]
    monkeypatch.setattr(core, "BUDGET_BYTES", 128 * 3 * 5)
    assert main(argv) == 0
    monkeypatch.setattr(core, "BUDGET_BYTES", 128 * 3 * 5 - 1)
    assert main(argv) == 3


def test_small_usize_still_pads(tmp_path):
    # rows past the envelope's two get weight 0 and the uniform law
    reports = {}
    for u in ("2", "5"):
        out = tmp_path / f"usize{u}.json"
        assert main(golden(WIRETAP_BSC + ["--usize", u]) + ["--out", str(out)]) == 0
        reports[u] = json.loads(out.read_text(encoding="utf-8"))
    two, five = reports["2"], reports["5"]
    assert five["value"] == two["value"]
    assert five["P_U"] == two["P_U"] + [0.0] * 3
    assert five["P_X_given_U"] == two["P_X_given_U"] + [[0.5, 0.5]] * 3


def test_partition_budget_threshold_is_its_row_matrix(tmp_path, monkeypatch):
    # the partition builds the whole ground set's row matrix, 8 |A| |Y|^n
    # bytes, with or without a row store: that charge, and no larger one,
    # decides between a report and exit 3
    out = tmp_path / "report.json"
    argv = golden(PARTITION_N6) + ["--out", str(out)]
    assert main(argv) == 0
    want = out.read_bytes()
    with open(os.path.join(GOLDEN, "dist6.json"), encoding="utf-8") as fh:
        ground = len(json.load(fh)["entries"])
    out.unlink()
    monkeypatch.setattr(core, "BUDGET_BYTES", 8 * ground * 2 ** 6)
    assert main(argv) == 0
    assert out.read_bytes() == want
    monkeypatch.setattr(core, "BUDGET_BYTES", 8 * ground * 2 ** 6 - 1)
    assert main(argv) == 3


def test_store_opens_only_where_it_fits_beside_its_copy(tmp_path, monkeypatch):
    # two channels on 64 words at n = 10: each row matrix M fits a budget of
    # 3 M - 1 bytes, but the two stored ones and the copy the bracket takes
    # out of them do not, so no store opens and the run peaks where it peaks
    # with no store at all; at 3 M the store opens and adds its two matrices
    n, size = 10, 64
    rng = np.random.default_rng(3)
    ids = np.sort(rng.choice(2 ** n, size, replace=False)).tolist()
    w = rng.uniform(0.1, 1.0, size)
    (tmp_path / "dist.json").write_text(json.dumps(
        {"n": n, "alphabet_size": 2, "entries": [[i, p] for i, p in zip(ids, w / w.sum())]}))
    (tmp_path / "msg.json").write_text(json.dumps(
        {"n": n, "alphabet_size": 2, "cells": [ids[:size // 2], ids[size // 2:]]}))
    out = tmp_path / "report.json"
    argv = golden(["partition", "--channel", "bsc01.json", "--channel", "bsc02.json"]) + [
        "--dist", str(tmp_path / "dist.json"), "--messages", str(tmp_path / "msg.json"),
        "--out", str(out)]
    matrix = 8 * size * 2 ** n

    def run():
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1], out.read_bytes()
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(core, "BUDGET_BYTES", 3 * matrix - 1)
    closed = run()
    monkeypatch.setattr(core, "BUDGET_BYTES", 3 * matrix)
    opened = run()
    monkeypatch.setattr(partitioner, "_row_store",
                        lambda channels, ground: contextlib.nullcontext())
    bare = run()
    assert closed[1] == opened[1] == bare[1]
    assert closed[0] <= bare[0] + matrix // 8
    assert opened[0] <= bare[0] + 2 * matrix + matrix // 8


def _limit_memory():
    limit = 600 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_limited(argv, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(dmckit.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "dmckit.cli", *argv, "--out", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=20, preexec_fn=_limit_memory)


LIMITED = {
    # two channels: the partition opens a row store of two matrices
    "partition-two-channel-store": (["partition", "--channel", "bsc01.json",
                                     "--channel", "bsc02.json", "--dist", "dist6.json",
                                     "--messages", "msg6a.json"], 0),
    # slice width 1/6^52: the spectrum would need about 3e40 bins
    "partition-rho-50": (PARTITION_N6 + ["--rho", "50"], 3),
    "fano-max-rho-50": (FANO_MAX_N4 + ["--rho", "50"], 3),
    "fano-max-rho-20": (FANO_MAX_N4 + ["--rho", "20"], 3),
    # the int power 6**(10**12 + 2) alone would need about 300 GB
    "partition-rho-1e12": (PARTITION_N6 + ["--rho", str(10 ** 12)], 3),
    "spectrum-delta-n-1e-9": (SPECTRUM_N6 + ["--delta-n", "1e-9", "--delta", "0.5"], 3),
    "verify-lemmas-n-40": (["verify-lemmas", "--n", "40", "--trials", "1"], 3),
    # 2**26 ids pass an 8-byte charge but peak at 24 bytes each
    "verify-lemmas-n-26": (["verify-lemmas", "--n", "26", "--trials", "1"], 3),
    # padding rows: 7.45 GiB of arrays, or a 93 MB report peaking near 1 GiB
    "wiretap-bound-usize-1e9": (WIRETAP_BSC + ["--usize", str(10 ** 9)], 3),
    "wiretap-bound-usize-3e6": (WIRETAP_BSC + ["--usize", str(3 * 10 ** 6)], 3),
}


@pytest.mark.parametrize("name", sorted(LIMITED))
def test_allocation_escape_exits_cleanly(name, tmp_path):
    argv, code = LIMITED[name]
    done = run_limited(golden(argv), tmp_path)
    assert "Traceback" not in done.stderr
    assert done.returncode == code


def test_uniform_messages_are_counted_before_they_are_built(tmp_path):
    # 3,000,000 uniform message tuples, but only code4's 4 encoder entries
    with open(os.path.join(GOLDEN, "code4.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["message_sizes"] = [3_000_000]
    del obj["joint"]
    code = tmp_path / "code_3m.json"
    code.write_text(json.dumps(obj), encoding="utf-8")
    done = run_limited(["fano-max", "--code", str(code),
                        "--channel", os.path.join(GOLDEN, "bsc01.json")], tmp_path)
    assert "Traceback" not in done.stderr
    assert done.returncode == 2


def test_golden_spectrum_fits_the_subprocess_limit(tmp_path):
    done = run_limited(golden(SPECTRUM_N6 + ["--delta-n", "0.2", "--delta", "0.5"]),
                       tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
