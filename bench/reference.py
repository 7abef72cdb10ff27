"""Reference figures for bench/README.md: wall times of fixed instances,
measured with plain perf_counter (no profiler).  Not benchmark metrics.

    python3 bench/reference.py

Prints one line per figure:
  * the lemma suite at n = 2..8, 100 trials each (acceptance criterion 3);
  * build_equal_image_partition on BSC(0.1), n = 12, |A| = 512, 4 cells;
  * secrecy_bound_single_letter(bsc(0.1), bsc(0.2)) at its defaults;
  * a ladder of build_equal_image_partition calls (BSC(0.1), |A| = 64,
    one 2-cell message index) up n = 8, 9, ... until a rung exceeds
    LADDER_BUDGET_S or n reaches LADDER_MAX_N.
"""

from __future__ import annotations

import sys
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dmckit import (PartitioningIndex, SequenceDist, SequenceSet,  # noqa: E402
                    WiretapInstance, bsc, build_equal_image_partition,
                    secrecy_bound_single_letter)
from dmckit.verify import run_lemma_suite  # noqa: E402

LADDER_BUDGET_S = 10.0
LADDER_MAX_N = 20


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def lemma_suite():
    for n in range(2, 9):
        run_lemma_suite(20240 + n, trials=100, n=n)


def equal_image(n: int, size: int, cells: int):
    rng = np.random.default_rng(0)
    A = SequenceSet.from_ids(n, 2, rng.choice(2 ** n, size, replace=False))
    w = rng.permutation(np.exp(np.linspace(0.0, 3.0, size)))
    dist = SequenceDist(n, 2, A.ids, w / w.sum())
    labels = dict(zip(A.ids_list(), rng.permutation(np.arange(size) % cells).tolist()))
    M = PartitioningIndex.from_labeling(A, lambda s: labels[s])
    build_equal_image_partition([bsc(0.1)], dist, A, [M], eta=0.5)


def main() -> None:
    warnings.simplefilter("ignore", UserWarning)
    print(f"lemma suite n=2..8 x 100: {timed(lemma_suite):.2f} s", flush=True)
    print(f"equal-image partition BSC(0.1) n=12 |A|=512 4 cells: "
          f"{timed(lambda: equal_image(12, 512, 4)):.2f} s", flush=True)
    inst = WiretapInstance(bsc(0.1), bsc(0.2))
    print(f"secrecy_bound_single_letter(bsc(0.1), bsc(0.2)) defaults: "
          f"{timed(lambda: secrecy_bound_single_letter(inst)):.2f} s", flush=True)
    n = 8
    while True:
        t = timed(lambda: equal_image(n, 64, 2))
        print(f"equal-image ladder n={n} |A|=64: {t:.2f} s", flush=True)
        if t > LADDER_BUDGET_S or n >= LADDER_MAX_N:
            break
        n += 1
    print(f"largest n within {LADDER_BUDGET_S:g} s: {n - 1 if t > LADDER_BUDGET_S else n}")


if __name__ == "__main__":
    main()
