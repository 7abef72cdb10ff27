"""The word-by-word product-channel paths that `core._product_rows` and the
single-build image bracket replaced, the branch-and-bound that the
subset-sum table of `min_image_exact` replaced, and the per-pick and
per-word paths that the in-place greedy, the blocked bracket mixture and the
array spectrum binning replaced, and the secrecy envelope's `np.where`
entropy, meshgrid local grid and two-product, one-corner-at-a-time
envelope, and the dominant-bin extraction that solved its continuity gap up
front, kept as test oracles.

Each function reproduces the old code path operation for operation, so the
fast paths must match it bit for bit (`np.array_equal`), not within a
tolerance.
"""

import math

import numpy as np

from dmckit.core import SequenceDist, SequenceSet, aexp, snap
from dmckit.errors import DomainError
from dmckit.images import ETA_TOL, image_exponents
from dmckit.partitioner import GRID, _refine_against_witness
from dmckit.spectrum import build_spectrum_partition
from dmckit.wiretap import (LATTICE_STEPS, PEAK_POINTS, PEAK_TOL,
                            TANGENT_POINTS, TANGENT_TOL, _lattice, _plogp,
                            _row_sums, _widest_facet)


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


def bracket_mixture(rows: np.ndarray) -> np.ndarray:
    """The uniform mixture of the bracket's rows, added row by row."""
    uniform = np.full(rows.shape[0], 1.0 / rows.shape[0])
    mixture = np.zeros(rows.shape[1])
    for p, row in zip(uniform / float(np.sum(uniform)), rows):
        mixture += p * row
    return mixture


def greedy_cover_argmax(rows: np.ndarray, eta: float) -> list[int]:
    """Greedy eta-image with an availability mask and one `np.where` copy
    of the served row per pick; leaves `rows` unchanged."""
    n_rows, n_cols = rows.shape
    threshold = eta - ETA_TOL
    mass = np.zeros(n_rows)
    available = np.ones(n_cols, dtype=bool)
    chosen: list[int] = []
    while True:
        deficits = threshold - mass
        worst = deficits.argmax()
        if deficits[worst] <= 0.0:
            return chosen
        gains = np.where(available, rows[worst], -1.0)
        best = int(gains.argmax())
        if gains[best] <= 0.0:
            raise DomainError("eta unreachable for some row")
        chosen.append(best)
        available[best] = False
        mass += rows[:, best]


def bin_index(density: float, delta_n: float, K: int) -> int:
    """Bin of one information density under width-delta_n half-open slicing."""
    iv = max(0.0, snap(density))
    k = math.floor(iv / delta_n)
    while (k + 1) * delta_n <= iv:
        k += 1
    while k > 0 and k * delta_n > iv:
        k -= 1
    return min(k, K)


def spectrum_bins(dist: SequenceDist, delta_n: float, delta: float,
                  space_aexp=None) -> tuple[int, list[list[int]], list[float]]:
    """(K, member ids per bin, mass per bin) of the spectrum partition,
    binning one support word at a time."""
    n = dist.n
    a = aexp(dist.ids.size, n) if space_aexp is None else float(space_aexp)
    K = math.ceil(snap((delta + a) / delta_n))
    members: list[list[int]] = [[] for _ in range(K + 1)]
    masses = np.zeros(K + 1)
    for seq_id, p in dist.items():
        k = bin_index(-math.log2(p) / n, delta_n, K)
        members[k].append(seq_id)
        masses[k] += p
    return K, members, [float(m) for m in masses]


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


def min_image_branch_and_bound(rows: np.ndarray, eta: float) -> tuple[int, list[int]]:
    """(minimum eta-image size, lexicographically least witness) of the row
    matrix: a depth-first branch-and-bound for the size, then a second
    lexicographic search for the least witness of that size."""
    n_cols = rows.shape[1]
    best_size = len(greedy_cover(rows, eta))
    col_order = np.arange(n_cols)
    order_desc = np.argsort(-rows, axis=1, kind="stable")

    def count_lower_bound(mass, available) -> int:
        """Minimum number of further columns any completion needs."""
        need = 0
        for i in range(rows.shape[0]):
            deficit = eta - ETA_TOL - mass[i]
            if deficit <= 0.0:
                continue
            cum = 0.0
            cnt = 0
            covered = False
            for j in order_desc[i]:
                if not available[j]:
                    continue
                cum += float(rows[i, j])
                cnt += 1
                if cum >= deficit:
                    covered = True
                    break
            if not covered:
                return n_cols + 1  # infeasible under current exclusions
            need = max(need, cnt)
        return need

    def search(mass, available, chosen_count):
        nonlocal best_size
        deficits = eta - ETA_TOL - mass
        worst = int(np.argmax(deficits))
        if deficits[worst] <= 0.0:
            best_size = min(best_size, chosen_count)
            return
        if chosen_count + count_lower_bound(mass, available) >= best_size:
            return
        gains = np.where(available, rows[worst], -1.0)
        candidates = [int(j) for j in np.lexsort((col_order, -gains))
                      if available[j] and gains[j] > 0.0]
        # branch i commits to candidate i and forbids candidates 0..i-1, so
        # every feasible cover is reached exactly once
        remaining = available.copy()
        for j in candidates:
            if chosen_count + 1 >= best_size:
                return
            remaining[j] = False
            search(mass + rows[:, j], remaining.copy(), chosen_count + 1)

    def lex_min(start, mass, chosen):
        """Lexicographically least feasible column set of size <= best_size."""
        deficits = eta - ETA_TOL - mass
        if float(np.max(deficits)) <= 0.0:
            return chosen
        if len(chosen) >= best_size:
            return None
        available = np.zeros(n_cols, dtype=bool)
        available[start:] = True
        if len(chosen) + count_lower_bound(mass, available) > best_size:
            return None
        for j in range(start, n_cols):
            got = lex_min(j + 1, mass + rows[:, j], chosen + [j])
            if got is not None:
                return got
        return None

    search(np.zeros(rows.shape[0]), np.ones(n_cols, dtype=bool), 0)
    witness = lex_min(0, np.zeros(rows.shape[0]), [])
    if witness is None:
        raise AssertionError("no feasible image at the computed optimum size")
    return best_size, witness


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each law along the last axis, zeros skipped."""
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """`entropy_rows` from the secrecy envelope's own terms and row sums:
    the two-product form its fused F must match bit for bit."""
    return -_row_sums(_plogp(p))


def local_grid(center: np.ndarray, half: float, budget: int):
    """The secrecy envelope's local grid, built by `np.meshgrid`."""
    d = center.size - 1
    k = int(round(budget ** (1.0 / d))) | 1
    offsets = np.linspace(-half, half, k)
    mesh = np.stack(np.meshgrid(*[offsets] * d, indexing="ij"), axis=-1)
    head = center[:d] + mesh.reshape(-1, d)
    laws = np.maximum(np.column_stack([head, 1.0 - head.sum(axis=1)]), 0.0)
    return laws / laws.sum(axis=1, keepdims=True), 2.0 * half / (k - 1)


def envelope_reference(wy: np.ndarray, wz: np.ndarray):
    """The secrecy envelope with two products and two entropy passes per
    evaluation of F, every peak zoom built from uniform weights by
    `np.linspace`, and one tangent grid through F per corner."""
    nx = wy.shape[0]
    steps = LATTICE_STEPS[nx]
    counts = _lattice(nx, steps)

    def f(p):
        return entropy_rows(p @ wy) - entropy_rows(p @ wz)

    facet = _widest_facet(counts, f(counts / steps))
    if facet is None:
        return np.eye(nx)[0], np.eye(nx)
    corners, half = counts[facet] / steps, 2.0 / steps
    while True:
        f_corners = f(corners)
        weights, zoom = np.full(nx, 1.0 / nx), 1.0 - 1.0 / nx
        while zoom > PEAK_TOL:
            grid, zoom = local_grid(weights, zoom, PEAK_POINTS)
            weights = grid[np.argmax(f(grid @ corners) - grid @ f_corners)]
        if half <= TANGENT_TOL:
            return weights, corners
        qy, qz = weights @ corners @ wy, weights @ corners @ wz
        slope = (wz @ np.log2(np.where(qz > 0.0, qz, 1.0))
                 - wy @ np.log2(np.where(qy > 0.0, qy, 1.0)))
        for i in range(nx):
            grid, step = local_grid(corners[i], half, TANGENT_POINTS)
            corners[i] = grid[np.argmin(f(grid) - grid @ slope)]
        half = 2.0 * step


def extract_equal_cell_eager(ch, dist: SequenceDist, A: SequenceSet,
                             delta_n: float, delta: float, eta: float) -> dict:
    """Dominant-bin extraction that solves the refined set at beta and at the
    low level before the branch test, whatever the heavy bin; returns the
    result, the branch fields, the gap, the threshold and the exponents."""
    cond = dist.conditioned_on(A)
    n = A.n
    out = output_dist(ch, cond)
    sp = build_spectrum_partition(out, delta_n, delta,
                                  space_aexp=math.log2(ch.output.size))
    K = sp.K
    masses = np.array(sp.bin_mass)
    threshold = 1.0 / (K + 1)
    heavy_candidates = np.nonzero(masses >= threshold * (1.0 - GRID))[0]
    heavy = int(heavy_candidates[0]) if heavy_candidates.size else int(np.argmax(masses))
    prefix_mass = float(masses[: heavy + 1].sum())

    witness = SequenceSet(out.n, out.base,
                          np.concatenate([b.ids for b in sp.bins[:heavy + 1]]))
    a_prime = _refine_against_witness(ch, cond, A, prefix_mass, witness).refined

    beta = max(eta, 1.0 - 1.0 / n ** 2)
    lo_level = max(min(prefix_mass / n, 1.0), GRID)
    exp_beta = image_exponents(ch, a_prime, min(beta, 1.0))
    exp_low = image_exponents(ch, a_prime, lo_level)
    tau = max(0.0, exp_beta[1] - exp_low[0])
    c_threshold = 4.19 + tau / delta_n

    drop_bin = None
    branch = "shallow"
    result = a_prime
    if heavy > c_threshold:
        drop_bin = int(math.floor(heavy - c_threshold))
        tilde = SequenceSet(out.n, out.base,
                            np.concatenate([b.ids for b in sp.bins[:drop_bin + 1]]))
        tilde_mass = float(masses[: drop_bin + 1].sum())
        if tilde_mass > 1.0 / n:
            dropped = _refine_against_witness(ch, cond, A, tilde_mass, tilde).refined
            diff = a_prime.difference(dropped)
            if diff.size:
                branch = "deep-drop"
                result = diff
            else:
                branch = "deep-drop-empty-fallback"
        else:
            branch = "deep-light-tail"
    return {"result": result, "heavy_bin": heavy, "branch": branch,
            "drop_bin": drop_bin, "continuity_gap": tau,
            "branch_threshold": c_threshold,
            "exponents": image_exponents(ch, result, eta)}
