import json
import os

import pytest

import test_golden
from dmckit import cli, partitioner
from dmckit.cli import main


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


@pytest.fixture()
def files(tmp_path):
    d = {}
    for name, p in (("bsc01", 0.1), ("bsc03", 0.3)):
        path = tmp_path / f"{name}.json"
        write_json(path, {"name": name, "input_size": 2, "output_size": 2,
                          "rows": [[1 - p, p], [p, 1 - p]]})
        d[name] = str(path)
    dist = tmp_path / "dist.json"
    write_json(dist, {"n": 2, "alphabet_size": 2,
                      "entries": [[0, 0.25], [1, 0.25], [2, 0.25], [3, 0.25]]})
    d["dist"] = str(dist)
    setf = tmp_path / "A.json"
    write_json(setf, {"n": 2, "alphabet_size": 2, "ids": [0, 3]})
    d["set"] = str(setf)
    msg = tmp_path / "msg.json"
    write_json(msg, {"n": 2, "alphabet_size": 2, "cells": [[0, 1], [2, 3]]})
    d["msg"] = str(msg)
    code = tmp_path / "code.json"
    write_json(code, {
        "J": 1, "message_sizes": [2], "n": 2, "alphabet_size": 2,
        "encoder": [[[0], [[0, 1.0]]], [[1], [[3, 1.0]]]],
        "decoders": [{"S": [1], "rows": [
            [0, [[[0], 1.0]]], [1, [[[0], 1.0]]],
            [2, [[[0], 1.0]]], [3, [[[1], 1.0]]]]}]})
    d["code"] = str(code)
    d["tmp"] = tmp_path
    return d


def test_image_size_exact(files, capsys):
    rc = main(["image-size", "--channel", files["bsc01"], "--set", files["set"],
               "--eta", "0.5", "--exact"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"eta": 0.5, "size_lower": 2, "size_upper": 2,
                   "exact": True, "witness": [0, 3]}


def test_spectrum_schema(files, capsys):
    rc = main(["spectrum", "--dist", files["dist"], "--delta-n", "0.25",
               "--delta", "0.5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out.keys()) == ["delta_n", "delta", "K", "bins", "bin_mass"]
    assert len(out["bins"]) == out["K"] + 1
    assert sum(out["bin_mass"]) == pytest.approx(1.0)


def test_partition_runs(files):
    out = str(files["tmp"] / "part.json")
    rc = main(["partition", "--channel", files["bsc01"], "--dist", files["dist"],
               "--messages", files["msg"], "--out", out])
    assert rc == 0
    obj = json.loads(open(out).read())
    assert obj["uniformizing"]["cells"]
    assert obj["equal_image"]["within_cap"] is True


def test_partition_rejects_params_file(files):
    params = str(files["tmp"] / "params.json")
    write_json(params, {"eta": 0.5})
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--channel", files["bsc01"], "--dist", files["dist"],
              "--messages", files["msg"], "--params", params])
    assert exc.value.code == 2


def test_partition_flags_at_their_defaults_keep_the_golden_bytes(monkeypatch,
                                                               tmp_path):
    name = "partition-bsc-n7"
    monkeypatch.setitem(test_golden.CASES, name, test_golden.CASES[name] + [
        "--eta", "0.5", "--delta", "0.5", "--rho", "0"])
    assert test_golden.run_case(name, tmp_path) == test_golden._expected()[name]


def test_partition_flags_reach_the_builders(files, monkeypatch):
    uniformizing = []
    extraction = []
    build = cli.build_uniformizing_partition
    extract = partitioner.extract_equal_cell

    def record_uniformizing(dist, joint, **kwargs):
        uniformizing.append(kwargs)
        return build(dist, joint, **kwargs)

    def record_extraction(ch, dist, A, delta_n, delta, eta):
        extraction.append(delta)
        return extract(ch, dist, A, delta_n, delta, eta)

    monkeypatch.setattr(cli, "build_uniformizing_partition", record_uniformizing)
    monkeypatch.setattr(partitioner, "extract_equal_cell", record_extraction)
    rc = main(["partition", "--channel", files["bsc01"], "--dist", files["dist"],
               "--messages", files["msg"], "--delta", "0.3", "--rho", "1",
               "--out", str(files["tmp"] / "part.json")])
    assert rc == 0
    assert uniformizing == [{"delta": 0.3, "rho": 1}]
    assert extraction and set(extraction) == {0.3}


def test_fano_avg_writes_json_and_csv(files):
    out = str(files["tmp"] / "favg.json")
    rc = main(["fano-avg", "--code", files["code"], "--channel", files["bsc01"],
               "--out", out])
    assert rc == 0
    obj = json.loads(open(out).read())
    assert obj["criterion"] == "avg"
    assert os.path.exists(out + ".csv")
    header = open(out + ".csv").readline().strip().split(",")
    assert header[:2] == ["receiver", "q"]


def test_fano_max_two_message_indices(files, tmp_path):
    # J=2 code: receiver 1 decodes index 1, receiver 2 decodes index 2
    write_json(tmp_path / "code2.json", {
        "J": 2, "message_sizes": [2, 2], "n": 2, "alphabet_size": 2,
        "encoder": [
            [[0, 0], [[0, 1.0]]], [[0, 1], [[1, 1.0]]],
            [[1, 0], [[2, 1.0]]], [[1, 1], [[3, 1.0]]]],
        "decoders": [
            {"S": [1], "rows": [
                [0, [[[0], 1.0]]], [1, [[[0], 1.0]]],
                [2, [[[1], 1.0]]], [3, [[[1], 1.0]]]]},
            {"S": [2], "rows": [
                [0, [[[0], 1.0]]], [1, [[[1], 1.0]]],
                [2, [[[0], 1.0]]], [3, [[[1], 1.0]]]]}]})
    out = str(tmp_path / "fmax.json")
    rc = main(["fano-max", "--code", str(tmp_path / "code2.json"),
               "--channel", files["bsc01"], "--channel", files["bsc01"],
               "--out", out])
    assert rc == 0
    obj = json.loads(open(out).read())
    receivers = {r["receiver"] for r in obj["rows"]}
    assert receivers == {0, 1}
    conds = [r for r in obj["rows"] if r["cond_on"]]
    assert conds  # conditioned rows for the other message index


def test_wiretap_bound_schema(files, capsys):
    rc = main(["wiretap-bound", "--main", files["bsc01"], "--eve", files["bsc03"],
               "--starts", "4"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"value", "P_U", "P_X_given_U"}
    assert out["value"] >= 0.0


def test_verify_lemmas_exit_zero(files, capsys):
    rc = main(["verify-lemmas", "--seed", "7", "--trials", "5", "--n", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True
    assert len(out["checks"]) == 9


def test_unknown_flag_exits_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["image-size", "--channel", files["bsc01"], "--set", files["set"],
              "--eta", "0.5", "--bogus"])
    assert exc.value.code == 2


def test_validation_error_exits_2(files, tmp_path):
    bad = tmp_path / "bad.json"
    write_json(bad, {"input_size": 2, "rows": [[1.0, 0.0]]})
    rc = main(["image-size", "--channel", str(bad), "--set", files["set"],
               "--eta", "0.5"])
    assert rc == 2


def test_capacity_error_exits_3(files, tmp_path):
    bigset = tmp_path / "big.json"
    write_json(bigset, {"n": 6, "alphabet_size": 2, "ids": [0, 1]})
    rc = main(["image-size", "--channel", files["bsc01"], "--set", str(bigset),
               "--eta", "0.5", "--exact"])
    assert rc == 3


def test_run_record_side_file(files):
    out = str(files["tmp"] / "rec.json")
    rc = main(["image-size", "--channel", files["bsc01"], "--set", files["set"],
               "--eta", "0.5", "--out", out, "--record"])
    assert rc == 0
    record = json.loads(open(out + ".run.json").read())
    assert record["passed"] is True
    assert "started_unix" in record
    # the primary report stays free of volatile fields
    report = open(out).read()
    assert "unix" not in report


def test_reports_byte_identical_across_runs(files):
    out1 = str(files["tmp"] / "r1.json")
    out2 = str(files["tmp"] / "r2.json")
    for out in (out1, out2):
        assert main(["spectrum", "--dist", files["dist"], "--delta-n", "0.3",
                     "--delta", "0.5", "--out", out]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_negative_channel_entry_exits_2(files, tmp_path):
    # a sub-grid negative entry would make product probabilities negative
    bad = tmp_path / "neg.json"
    write_json(bad, {"input_size": 2, "output_size": 2,
                     "rows": [[1 + 5e-13, -5e-13], [0.5, 0.5]]})
    rc = main(["image-size", "--channel", str(bad), "--set", files["set"],
               "--eta", "0.5"])
    assert rc == 2


@pytest.mark.parametrize("loader", ["set", "dist"])
def test_id_beyond_int64_exits_2(tmp_path, loader):
    ch = tmp_path / "id3.json"
    write_json(ch, {"input_size": 3, "output_size": 3,
                    "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    path = tmp_path / "big.json"
    if loader == "set":
        write_json(path, {"n": 41, "alphabet_size": 3, "ids": [2 ** 63]})
        argv = ["image-size", "--channel", str(ch), "--set", str(path),
                "--eta", "0.5"]
    else:
        write_json(path, {"n": 41, "alphabet_size": 3,
                          "entries": [[2 ** 63, 1.0]]})
        argv = ["spectrum", "--dist", str(path), "--delta-n", "0.3",
                "--delta", "0.5"]
    assert main(argv) == 2


def test_spectrum_duplicate_ids_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.json"
    write_json(path, {"n": 2, "alphabet_size": 2,
                      "entries": [[1, 0.25], [3, 0.5], [1, 0.25]]})
    assert main(["spectrum", "--dist", str(path), "--delta-n", "0.3",
                 "--delta", "0.5"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_partition_zero_delta_n_exits_2(files):
    rc = main(["partition", "--channel", files["bsc01"], "--dist", files["dist"],
               "--messages", files["msg"], "--delta-n", "0"])
    assert rc == 2


def test_binary_wiretap_bound_never_imports_scipy(files):
    import subprocess
    import sys

    import dmckit
    script = ("import sys\n"
              "from dmckit.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    argv = ["wiretap-bound", "--main", files["bsc01"], "--eve", files["bsc03"],
            "--out", str(files["tmp"] / "w.json")]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(dmckit.__file__)))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_row_matrix_beyond_cap_exits_3_without_allocating(files, tmp_path):
    # 65,536 rows of 2**20 outputs would be 512 GiB of float64
    import tracemalloc
    bigset = tmp_path / "rows.json"
    write_json(bigset, {"n": 20, "alphabet_size": 2, "ids": list(range(1 << 16))})
    tracemalloc.start()
    try:
        rc = main(["image-size", "--channel", files["bsc01"], "--set", str(bigset),
                   "--eta", "0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 64 << 20


def test_seed_only_on_verify_lemmas(files):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--channel", files["bsc01"], "--dist", files["dist"],
              "--messages", files["msg"], "--seed", "3"])
    assert exc.value.code == 2


def test_decoder_table_beyond_cap_exits_3_without_allocating(files, tmp_path, capsys):
    # 2**40 outputs x 2 messages would be 16 TiB of float64
    import tracemalloc
    code = tmp_path / "wide_code.json"
    write_json(code, {
        "J": 1, "message_sizes": [2], "n": 40, "alphabet_size": 2,
        "encoder": [[[0], [[0, 1.0]]], [[1], [[1, 1.0]]]],
        "decoders": [{"S": [1], "rows": [[0, [[[0], 1.0]]], [1, [[[1], 1.0]]]]}]})
    tracemalloc.start()
    try:
        rc = main(["fano-max", "--code", str(code), "--channel", files["bsc01"]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    assert peak < 64 << 20
