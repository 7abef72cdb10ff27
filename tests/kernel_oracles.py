"""The word-by-word product-channel paths that `core._product_rows` and the
single-build image bracket replaced, kept as test oracles.

Each function reproduces the old code path operation for operation, so the
fast paths must match it bit for bit (`np.array_equal`), not within a
tolerance.
"""

import numpy as np

from dmckit.core import SequenceDist, SequenceSet
from dmckit.images import ETA_TOL


def _digits_of(value: int, n: int, base: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(value % base)
        value //= base
    return tuple(reversed(out))


def _row_output_vector(ch, digits) -> np.ndarray:
    """Dense conditional distribution on the whole output space given one word."""
    v = np.ones(1)
    for d in digits:
        v = np.multiply.outer(v, ch.matrix[d]).ravel()
    return v


def output_rows(ch, A: SequenceSet) -> np.ndarray:
    rows = np.empty((A.size, ch.output.size ** A.n))
    for i, seq_id in enumerate(A.ids.tolist()):
        rows[i] = _row_output_vector(ch, _digits_of(seq_id, A.n, ch.input.size))
    return rows


def output_dist(ch, input_dist: SequenceDist) -> SequenceDist:
    acc = np.zeros(ch.output.size ** input_dist.n)
    for seq_id, p in input_dist.items():
        acc += p * _row_output_vector(
            ch, _digits_of(seq_id, input_dist.n, ch.input.size))
    return SequenceDist.from_dense(input_dist.n, ch.output.size, acc)


def greedy_cover(rows: np.ndarray, eta: float) -> list[int]:
    """Greedy eta-image, picking each column by a full lexsort."""
    n_rows, n_cols = rows.shape
    mass = np.zeros(n_rows)
    available = np.ones(n_cols, dtype=bool)
    chosen: list[int] = []
    while True:
        deficits = eta - ETA_TOL - mass
        worst = int(np.argmax(deficits))
        if deficits[worst] <= 0.0:
            return chosen
        gains = np.where(available, rows[worst], -1.0)
        best = int(np.lexsort((np.arange(n_cols), -gains))[0])
        if gains[best] <= 0.0:
            raise AssertionError("eta unreachable for some row")
        chosen.append(best)
        available[best] = False
        mass += rows[:, best]


def min_quasi_image(ch, input_dist, A: SequenceSet, eta: float):
    """(size, witness ids, eta achieved) of the minimum eta-quasi-image."""
    if input_dist is None:
        input_dist = SequenceDist.uniform_on(A)
    out = output_dist(ch, input_dist.conditioned_on(A))
    order = np.lexsort((out.ids, -out.probs))
    cum = 0.0
    chosen: list[int] = []
    for idx in order:
        chosen.append(int(out.ids[idx]))
        cum += float(out.probs[idx])
        if cum >= eta - ETA_TOL:
            break
    return len(chosen), sorted(chosen), cum


def singleton_image_size(ch, n: int, seq_id: int, eta: float) -> int:
    row = output_rows(ch, SequenceSet.from_ids(n, ch.input.size, [seq_id]))[0]
    order = np.lexsort((np.arange(row.size), -row))
    cum = 0.0
    count = 0
    for idx in order:
        cum += float(row[idx])
        count += 1
        if cum >= eta - ETA_TOL:
            return count
    return count


def bracket_bounds(ch, A: SequenceSet, eta: float) -> tuple[list[int], int, int]:
    """(greedy upper cover, singleton lower bound, quasi-image lower bound),
    each computed from its own row build as before."""
    upper = greedy_cover(output_rows(ch, A), eta)
    singleton = max(singleton_image_size(ch, A.n, sid, eta) for sid in A.ids_list())
    quasi = min_quasi_image(ch, None, A, eta)[0]
    return upper, singleton, quasi
