"""Inputs at the edge of desk scale end in exit 2 or 3, never in a traceback,
a hang or an allocation past the memory budget.

Cases that fail fast run in-process.  Cases that would hang or allocate
gigabytes run in a subprocess under a 600 MiB address-space limit and a 20 s
timeout; a golden `spectrum` run fits well inside that limit, so the limit
only catches allocations the budget should have refused.
"""

import json
import os
import resource
import subprocess
import sys

import pytest

import dmckit
from dmckit.cli import main

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
}


@pytest.mark.filterwarnings("ignore:delta >= 1:UserWarning")
@pytest.mark.parametrize("name", sorted(FAST))
def test_fast_escape_exits_cleanly(name, tmp_path, capsys):
    argv, code = FAST[name]
    assert main(golden(argv) + ["--out", str(tmp_path / "report.json")]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_single_message_lattice_at_1e_9_still_reports(tmp_path):
    # one message index keeps |V| = (1e9)^4, so 1/|V|^2 is a float
    assert main(golden(PARTITION_N7)
                + ["--delta-n", "1e-9", "--out", str(tmp_path / "report.json")]) == 0


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
    # slice width 1/6^52: the spectrum would need about 3e40 bins
    "partition-rho-50": (PARTITION_N6 + ["--rho", "50"], 3),
    "fano-max-rho-50": (FANO_MAX_N4 + ["--rho", "50"], 3),
    "fano-max-rho-20": (FANO_MAX_N4 + ["--rho", "20"], 3),
    "spectrum-delta-n-1e-9": (SPECTRUM_N6 + ["--delta-n", "1e-9", "--delta", "0.5"], 3),
    "verify-lemmas-n-40": (["verify-lemmas", "--n", "40", "--trials", "1"], 3),
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
