"""The word-by-word product probability and information density that the
kernel and spectrum tests check against, the word-by-word product-channel
paths that `core._product_rows` and the single-build image bracket
replaced, the branch-and-bound that the subset-sum table of
`min_image_exact` replaced, and the per-pick and
per-word paths that the in-place greedy, the blocked bracket mixture and the
array spectrum binning replaced, and the secrecy envelope's `np.where`
entropy, meshgrid local grid, per-point lower chain and two-product,
one-corner-at-a-time envelope, the dominant-bin extraction that solved its
continuity gap up front, the set intersections and differences, index restrictions and
products, message-ratio slicing, uniformity ratios and lattice-cell
grouping that the label-code paths replaced, the item-by-item JSON
writer, and the equal-image partition that ran its lattice iteration and
extraction chain on one-word sets, kept as test oracles.

Each function reproduces the old code path operation for operation, so the
fast paths must match it bit for bit (`np.array_equal`), not within a
tolerance.
"""

import math
import warnings
from functools import reduce

import numpy as np

from dmckit import core, partitioner, spectrum
from dmckit.core import (GRID, Channel, Sequence, SequenceDist, SequenceSet,
                         aexp, entropy_bits, snap)
from dmckit.errors import (CapacityError, DimensionMismatchError, DomainError,
                           InvariantError, ValidationError)
from dmckit.images import image_exponents
from dmckit.partitioner import (EqualImagePartition, MessageRecord, SliceCell,
                                UniformizingPartition, _lattice_point,
                                _refine_against_witness, _subsets_of)
from dmckit.reports import _format_float
from dmckit.spectrum import (PartitioningIndex, build_spectrum_partition,
                             floor_on_grid)
from dmckit.wiretap import (LATTICE_STEPS, PEAK_POINTS, PEAK_TOL,
                            TANGENT_POINTS, TANGENT_TOL, _lattice)


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


def product_prob(ch, x: Sequence, y: Sequence) -> float:
    """Memoryless product probability of output word y given input word x,
    multiplied left to right from 1.0 exactly as `output_rows` does."""
    if x.n != y.n:
        raise DimensionMismatchError("x and y must share the blocklength")
    if x.base != ch.input.size or y.base != ch.output.size:
        raise DimensionMismatchError("sequence alphabets do not match the channel")
    factors = [float(ch.matrix[dx, dy]) for dx, dy in zip(x.digits(), y.digits())]
    return float(reduce(lambda a, b: a * b, factors, 1.0))


def info_density(dist: SequenceDist, x: Sequence | int) -> float:
    """Per-symbol information density -(1/n) log2 P(x), in bits."""
    seq_id = x.value if isinstance(x, Sequence) else int(x)
    p = dist.prob_of(seq_id)
    if p <= 0.0:
        raise DomainError("sequence outside the distribution support")
    return -math.log2(p) / dist.n


def greedy_cover(rows: np.ndarray, eta: float) -> list[int]:
    """Greedy eta-image, picking each column by a full lexsort."""
    n_rows, n_cols = rows.shape
    mass = np.zeros(n_rows)
    available = np.ones(n_cols, dtype=bool)
    chosen: list[int] = []
    while True:
        deficits = eta - GRID - mass
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
    threshold = eta - GRID
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
        if cum >= eta - GRID:
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
        if cum >= eta - GRID:
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
            deficit = eta - GRID - mass[i]
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
        deficits = eta - GRID - mass
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
        deficits = eta - GRID - mass
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
    """`entropy_rows` by a log2 masked into a zeroed array and, below 8
    entries, rows added left to right from a zeroed total (numpy's order
    there): the two-product form the envelope's fused F must match bit for
    bit, built without its helpers."""
    terms = np.zeros(p.shape)
    np.log2(p, out=terms, where=p > 0.0)
    terms *= p
    if p.shape[-1] >= 8:
        return -terms.sum(axis=-1)
    total = np.zeros(p.shape[:-1])
    for j in range(p.shape[-1]):
        total += terms[..., j]
    return -total


def local_grid(center: np.ndarray, half: float, budget: int):
    """The secrecy envelope's local grid, built by `np.meshgrid`."""
    d = center.size - 1
    k = int(round(budget ** (1.0 / d))) | 1
    offsets = np.linspace(-half, half, k)
    mesh = np.stack(np.meshgrid(*[offsets] * d, indexing="ij"), axis=-1)
    head = center[:d] + mesh.reshape(-1, d)
    laws = np.maximum(np.column_stack([head, 1.0 - head.sum(axis=1)]), 0.0)
    return laws / laws.sum(axis=1, keepdims=True), 2.0 * half / (k - 1)


def lower_chain(xs: list, ys: list) -> list[int]:
    """Andrew's monotone chain over the points (xs[i], ys[i]), xs
    ascending, decided one point at a time: the lower hull's indices."""
    chain: list[int] = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            if (ys[b] - ys[a]) * (x - xs[a]) < (y - ys[a]) * (xs[b] - xs[a]):
                break
            chain.pop()  # on or above the chord from chain[-2] to i
        chain.append(i)
    return chain


def widest_facet(counts: np.ndarray, fv: np.ndarray):
    """The secrecy envelope's widest lower-hull facet, the binary hull by
    the per-point chain and every facet's arrays built even when no lattice
    point lies above the hull."""
    if counts.shape[1] == 2:
        chain = lower_chain(counts[:, 0].tolist(), fv.tolist())
        facets = np.column_stack([chain[:-1], chain[1:]])
    else:
        from scipy.spatial import ConvexHull

        lifted = np.column_stack([counts[:, :-1], fv])
        apex = np.append(lifted[:, :-1].mean(axis=0), fv.max() + counts[0].sum())
        hull = ConvexHull(np.vstack([lifted, apex]))
        facets = hull.simplices[hull.equations[:, -2] < -1e-9]
    above = np.flatnonzero(np.bincount(facets.ravel(), minlength=len(counts)) == 0)
    span = np.ptp(counts[facets][:, :, :-1], axis=1).max(axis=1)
    best, widest = 1e-12, None
    for facet in facets[span > 1] if above.size else ():
        corners = counts[facet].T
        if abs(np.linalg.det(corners)) < 0.5:
            continue
        weights = np.linalg.inv(corners) @ counts[above].T
        inside = np.flatnonzero(weights.min(axis=0) >= -1e-9)
        room = fv[above[inside]] - fv[facet] @ weights[:, inside]
        if room.size and room.max() > best:
            best, widest = float(room.max()), facet
    return widest


def envelope_reference(wy: np.ndarray, wz: np.ndarray):
    """The secrecy envelope with two products and two entropy passes per
    evaluation of F, the lower hull of the lattice by `widest_facet`, every
    peak zoom built from uniform weights by `np.linspace`, and one tangent
    grid through F per corner."""
    nx = wy.shape[0]
    steps = LATTICE_STEPS[nx]
    counts = _lattice(nx, steps)

    def f(p):
        return entropy_rows(p @ wy) - entropy_rows(p @ wz)

    facet = widest_facet(counts, f(counts / steps))
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
    a_prime = _refine_against_witness(ch, A, prefix_mass, witness)

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
            dropped = _refine_against_witness(ch, A, tilde_mass, tilde)
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


def intersect(A: SequenceSet, B: SequenceSet) -> SequenceSet:
    """A intersect B by `np.intersect1d`, through the validating constructor."""
    if (A.n, A.base) != (B.n, B.base):
        raise DimensionMismatchError("sequence sets live in different spaces")
    return SequenceSet(A.n, A.base, np.intersect1d(A.ids, B.ids, assume_unique=True))


def difference(A: SequenceSet, B: SequenceSet) -> SequenceSet:
    """A minus B by `np.setdiff1d`, through the validating constructor."""
    if (A.n, A.base) != (B.n, B.base):
        raise DimensionMismatchError("sequence sets live in different spaces")
    return SequenceSet(A.n, A.base, np.setdiff1d(A.ids, B.ids, assume_unique=True))


def uniformity(dist: SequenceDist, A: SequenceSet) -> float:
    """Max/min atom ratio read off the conditional distribution itself."""
    cond = dist.conditioned_on(A)
    return float(np.max(cond.probs)) / float(np.min(cond.probs))


def restrict_index(pi: PartitioningIndex, A_sub: SequenceSet) -> PartitioningIndex:
    """One intersection per cell, then the validating constructor."""
    if A_sub.size == 0:
        raise DomainError("cannot restrict to an empty set")
    if not A_sub.is_subset_of(pi.ground):
        raise DimensionMismatchError("restriction set is not inside the ground set")
    cells = {}
    for label, cell in pi.cells.items():
        inter = intersect(cell, A_sub)
        if inter.size:
            cells[label] = inter
    return PartitioningIndex(A_sub, cells)


def product_index(pi1: PartitioningIndex, pi2: PartitioningIndex) -> PartitioningIndex:
    """One intersection per pair of cells, then the validating constructor."""
    if not np.array_equal(pi1.ground.ids, pi2.ground.ids) or \
            (pi1.ground.n, pi1.ground.base) != (pi2.ground.n, pi2.ground.base):
        raise DimensionMismatchError("indices partition different ground sets")
    cells = {}
    for l1, c1 in pi1.cells.items():
        for l2, c2 in pi2.cells.items():
            inter = intersect(c1, c2)
            if inter.size:
                cells[(l1, l2)] = inter
    return PartitioningIndex(pi1.ground, cells)


def build_uniformizing_partition(dist: SequenceDist, message_index: PartitioningIndex,
                                 delta: float, rho: int = 0) -> UniformizingPartition:
    """Message-ratio slicing with one intersection per (density bin,
    message) pair and each cell merged by the validating constructor."""
    n = dist.n
    slice_width = 1.0 / n ** min(rho + 2, 1100)
    ratio_width = 1.0 / n ** (rho + 1)
    ground = dist.support()
    if not np.array_equal(ground.ids, message_index.ground.ids):
        message_index = restrict_index(message_index, ground)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "delta >= 1", UserWarning)
        sp = build_spectrum_partition(dist, slice_width, 2.0 * delta)
    K = sp.K

    cells: dict = {}
    message_bins_by_slice: dict = {}
    remainder_ids = [sp.bins[K].ids]

    labels = message_index.labels()
    for k in range(K):
        bin_k = sp.bins[k]
        if bin_k.size == 0:
            continue
        ratio_bins: dict = {}
        for m in labels:
            inter = intersect(bin_k, message_index.cell(m))
            if inter.size == 0:
                ratio_bins.setdefault(K, []).append((m, inter))
                continue
            share = inter.size / bin_k.size
            t = -math.log2(share) / ratio_width
            l = min(max(floor_on_grid(t), 0), K)
            ratio_bins.setdefault(l, []).append((m, inter))
        message_bins_by_slice[k] = {l: tuple(m for m, _ in pairs)
                                    for l, pairs in sorted(ratio_bins.items())}
        for l, pairs in sorted(ratio_bins.items()):
            merged = SequenceSet(n, dist.base,
                                 np.concatenate([inter.ids for _, inter in pairs]))
            if merged.size == 0:
                continue
            if l >= K:
                remainder_ids.append(merged.ids)
                continue
            msg_mass = {m: dist.mass_of(inter) for m, inter in pairs}
            total = sum(msg_mass.values())
            shares = [msg_mass[m] / total for m, _ in pairs]
            cells[(k, l)] = SliceCell(
                density_bin=k, ratio_bin=l, members=merged,
                messages=tuple(m for m, _ in pairs),
                x_gamma=uniformity(dist, merged),
                m_gamma=max(shares) / min(shares),
                x_bound=2.0 ** (2.0 * ratio_width),
                m_bound=2.0 ** (6.0 * ratio_width))

    remainder = SequenceSet(n, dist.base, np.concatenate(remainder_ids))
    return UniformizingPartition(
        n=n, delta=delta, rho=rho, slice_width=slice_width, K=K,
        cells=cells, remainder=remainder,
        remainder_mass=dist.mass_of(remainder) if remainder.size else 0.0,
        spectrum=sp, message_bins_by_slice=message_bins_by_slice, ground=ground)


def distinct_rows(keys: np.ndarray) -> tuple[list, np.ndarray]:
    """(the distinct keys or key rows, ascending; each position's index in
    them) by `np.unique`, as the equal-image partition found its lattice
    cells."""
    if keys.ndim == 1:
        distinct, which = np.unique(keys, return_inverse=True)
    else:
        distinct, which = np.unique(keys, axis=0, return_inverse=True)
    return distinct.tolist(), which.reshape(-1)


def json_text(obj, end_pad: str = "") -> str:
    """The report writer with one recursive call per list item."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    pad = end_pad + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [pad + json_text(v, pad) for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + end_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [pad + json_text(str(key), pad) + ": " + json_text(value, pad)
                 for key, value in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + end_pad + "}"
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def build_equal_image_partition(channels: list[Channel], dist: SequenceDist,
                                A: SequenceSet,
                                messages: list[PartitioningIndex],
                                eta: float, delta_n: float | None = None,
                                delta: float = 0.5) -> EqualImagePartition:
    """The equal-image-size partition by lattice iteration on every A, a
    one-word A and one-word message cells included: the oracle of the
    closed-form one-word cells.

    For every message subset S, each message's share of the residual is
    exhausted by an image-entropy-matched partition, and each word is
    labelled with its message, its inner cell and that cell's entropy-lattice
    point.  The cells are the distinct lattice points over all subsets, in
    ascending order; cells below the mass threshold 1/|V|^2 return to the
    residual, and the iteration repeats until every sequence is placed.  The
    sqrt(epsilon_n) share threshold uses the maximum measured slack of the
    inner partitions, floored at 1/n^2.
    """
    J = len(messages)
    if J > 3:
        raise CapacityError("at most 3 simultaneous message indices supported")
    n = A.n
    if delta_n is None:
        delta_n = 1.0 / math.ceil(math.sqrt(n))
    elif not 0.0 < delta_n < 1.0:
        raise DomainError("delta_n must lie in (0, 1)")
    subsets = _subsets_of(range(J))
    try:
        dims = tuple(math.ceil(math.log2(size) / delta_n) for size in
                     [dist.base] + [ch.output.size for ch in channels])
        v_space = math.prod(d + 1 for d in dims) ** len(subsets)
        threshold = 1.0 / v_space ** 2
    except OverflowError:
        raise CapacityError(f"delta_n = {delta_n:g} makes the entropy lattice "
                            "too large to represent; increase delta_n") from None

    gamma = spectrum.uniformity(dist, A)
    cap = max(1, math.ceil(2.0 * n * math.log2(dist.base))) if dist.base > 1 else 1
    gamma_cap = max(1, math.ceil((n * math.log2(max(dist.base, 2))
                                  + math.log2(max(gamma, 1.0)))
                                 / math.log2(max(v_space, 2))))
    iteration_cap = max(cap, gamma_cap)

    residual = A
    iteration = 0
    cells: dict = {}
    cell_records: dict = {}
    # every row below is a row of A: build each channel's once
    with core._row_store(channels, A):
        while residual.size:
            iteration += 1
            if iteration > max(iteration_cap, A.size) + 1:
                raise InvariantError("lattice exhaustion exceeded every iteration cap")
            cond = dist.conditioned_on(residual)
            single = [spectrum.restrict_index(mi, residual) for mi in messages]
            # per subset S, aligned with residual.ids: each word's message (its
            # position in inner[S]), its inner cell u and that cell's lattice point
            inner: dict = {}
            code: dict = {}
            unit: dict = {}
            point: dict = {}
            eps = 1.0 / n ** 2
            # one inner partition per distinct message cell: every other input of
            # build_image_entropy_partition is fixed within the iteration, so
            # subsets that yield the same cell share its partition and placements
            built: dict = {}
            # set ids -> per-channel output entropy rates and image exponents
            # of that set under `cond`, seeded from every inner record below,
            # so a message set equal to a record's members is not solved again
            measured: dict = {}
            for S in subsets:
                idx = single[S[0]] if S else PartitioningIndex.trivial(residual, label=())
                for j in S[1:]:
                    idx = spectrum.product_index(idx, single[j])
                inner[S] = []
                code[S] = np.empty(residual.size, dtype=np.intp)
                unit[S] = np.empty(residual.size, dtype=np.intp)
                point[S] = np.empty((residual.size, len(dims)), dtype=np.int64)
                for i, (m, cell_m) in enumerate(idx.cells.items()):
                    key = cell_m.ids.tobytes()
                    if key not in built:
                        part = partitioner.build_image_entropy_partition(channels, cond, cell_m,
                                                             eta, delta)
                        placed_units = {}
                        for u, rec in part.records.items():
                            # the record holds the x and output entropy rates of
                            # `cond` given u, the lattice point's coordinates,
                            # and u's image exponents
                            measured[rec.members.ids.tobytes()] = (rec.h_rates, rec.exps)
                            placed_units[u] = (
                                np.searchsorted(residual.ids, rec.members.ids),
                                _lattice_point(rec, delta_n, dims))
                        built[key] = (part, placed_units)
                    part, placed_units = built[key]
                    inner[S].append((m, part.records))
                    eps = max(eps, part.epsilon_measured)
                    for u, (at, lattice) in placed_units.items():
                        code[S][at] = i
                        unit[S][at] = u
                        point[S][at] = lattice

            # one cell per distinct lattice point over all subsets, in
            # ascending order; `inside` holds a cell's positions, ascending
            order, points, bounds, _ = spectrum._runs(np.hstack([point[S] for S in subsets]))
            kept: dict = {}
            placed = np.zeros(residual.size, dtype=bool)
            for row, lo, hi in zip(points, bounds, bounds[1:]):
                inside = order[lo:hi]
                cell = SequenceSet._trusted(n, dist.base, residual.ids[inside])
                cell_mass = cond.mass_of(cell)
                if cell_mass >= threshold or len(points) == 1:
                    v = tuple(tuple(row[k:k + len(dims)])
                              for k in range(0, len(row), len(dims)))
                    kept[v] = (inside, cell, cell_mass)
                    placed[inside] = True
            if not kept:
                # cannot happen: fewer than v_space**2 cells means one passes
                raise InvariantError("no lattice cell met the mass threshold")

            sqrt_eps = math.sqrt(eps)
            for v, (inside, cell, cell_mass) in kept.items():
                label = (iteration, v)
                cells[label] = cell
                per_subset: dict = {}
                for S in subsets:
                    codes = code[S][inside]
                    units = unit[S][inside]
                    msg_mass = []
                    h_y_given = [0.0 for _ in channels]
                    img_exp: dict = {}
                    omega = []
                    tilde = []
                    hat = []
                    for i in np.unique(codes).tolist():
                        m, records = inner[S][i]
                        of_m = codes == i
                        inter = SequenceSet._trusted(n, dist.base, cell.ids[of_m])
                        key = inter.ids.tobytes()
                        if key not in measured:
                            cond_m = cond.conditioned_on(inter)
                            measured[key] = (
                                [core.output_dist(ch, cond_m).entropy() / n
                                 for ch in channels],
                                [image_exponents(ch, inter, eta) for ch in channels])
                        h_rates, exps = measured[key]
                        mass = cond.mass_of(inter)
                        img_exp[m] = exps
                        msg_mass.append(mass)
                        p_m = mass / cell_mass
                        for kk, h in enumerate(h_rates):
                            h_y_given[kk] += p_m * h
                        # shares of m's inner cells that fall in this cell
                        share_sum = 0.0
                        for u, count in enumerate(np.bincount(units[of_m]).tolist()):
                            if count and count / records[u].members.size >= sqrt_eps:
                                omega.append((m, u))
                                share_sum += count / inter.size
                        if share_sum > 0.0:
                            hat.append(m)
                            if share_sum >= 1.0 - delta_n:
                                tilde.append(m)
                    gap1 = -math.inf
                    for exps in img_exp.values():
                        for kk in range(len(channels)):
                            gap1 = max(gap1, exps[kk][1] - h_y_given[kk])

                    aexp_m = aexp(len(img_exp), n)
                    aexp_t = aexp(len(tilde), n) if tilde else None
                    h_m = entropy_bits([mass / cell_mass for mass in msg_mass]) / n
                    gap2 = abs(aexp_m - aexp_t) if aexp_t is not None else None
                    gap3 = abs(h_m - aexp_t) if aexp_t is not None else None
                    gap4 = None
                    if tilde:
                        gap4 = 0.0
                        for m in tilde:
                            for kk in range(len(channels)):
                                lo, hi, _ = img_exp[m][kk]
                                gap4 = max(gap4,
                                           abs(h_y_given[kk] - lo),
                                           abs(h_y_given[kk] - hi))
                    per_subset[S] = MessageRecord(
                        messages=tuple(img_exp), messages_tilde=tuple(tilde),
                        messages_hat=tuple(hat), message_image_exponents=img_exp,
                        h_y_given_m=h_y_given, h_m_rate=h_m,
                        aexp_messages=aexp_m,
                        gap_image_vs_entropy=gap1, gap_tilde_vs_all=gap2,
                        gap_entropy_vs_tilde=gap3, gap_two_sided=gap4,
                        omega=tuple(omega))
                cell_records[label] = {"mass": cell_mass, "subsets": per_subset,
                                       "epsilon_n": eps}

            residual = SequenceSet._trusted(n, dist.base, residual.ids[~placed])

    lam = {"image_vs_entropy": 0.0, "tilde_vs_all": 0.0,
           "entropy_vs_tilde": 0.0, "two_sided": 0.0}
    for rec in cell_records.values():
        for mrec in rec["subsets"].values():
            lam["image_vs_entropy"] = max(lam["image_vs_entropy"],
                                          mrec.gap_image_vs_entropy)
            for key, val in (("tilde_vs_all", mrec.gap_tilde_vs_all),
                             ("entropy_vs_tilde", mrec.gap_entropy_vs_tilde),
                             ("two_sided", mrec.gap_two_sided)):
                if val is not None:
                    lam[key] = max(lam[key], val)

    eps_all = max(rec["epsilon_n"] for rec in cell_records.values())
    return EqualImagePartition(
        index=PartitioningIndex(A, cells), subsets=subsets, delta_n=delta_n,
        eta=eta, epsilon_n=eps_all,
        cell_records=cell_records, lambda_measured=lam, iterations=iteration,
        iteration_cap=iteration_cap)
