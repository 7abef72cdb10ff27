"""Entropy-spectrum partitions, partitioning indices, and uniformity ratios."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (GRID, SequenceDist, SequenceSet, _positions, aexp,
                   check_budget, snap)
from .errors import (ConditioningError, DimensionMismatchError, DomainError,
                     ValidationError)
from .reports import SLACK, BoundReport


def floor_on_grid(t: float) -> int:
    """floor after snapping to the comparison grid, edge-exact."""
    ts = snap(t)
    k = math.floor(ts)
    # snapped values sitting exactly on an integer belong to that integer
    if k + 1 <= ts:
        k += 1
    return k


def bin_indices(densities: np.ndarray, delta_n: float, K: int) -> np.ndarray:
    """Bins of information densities under width-delta_n half-open slicing.

    Bin k collects [k*delta_n, (k+1)*delta_n) for k < K; bin K collects the
    tail.  Values landing exactly on an edge (after 1e-12 rounding) go to the
    bin whose lower edge they sit on: the floor of iv / delta_n is moved up,
    then down, one step at a time until every edge test k*delta_n <= iv <
    (k+1)*delta_n holds in floating point.
    """
    iv = np.maximum(0.0, np.rint(densities / GRID) * GRID)  # snap, elementwise
    k = np.floor(iv / delta_n).astype(np.int64)
    while (up := (k + 1) * delta_n <= iv).any():
        k += up
    while (down := (k > 0) & (k * delta_n > iv)).any():
        k -= down
    return np.minimum(k, K)


@dataclass(frozen=True)
class UniformityReport:
    """Max/min conditional atom ratio of a distribution restricted to a set."""

    gamma: float
    max_atom: float
    min_atom: float


def uniformity(dist: SequenceDist, A: SequenceSet) -> UniformityReport:
    if (dist.n, dist.base) != (A.n, A.base):
        raise DimensionMismatchError("set lives in a different space")
    return _uniformity_at(dist, _positions(dist.ids, A.ids))


def _uniformity_at(dist: SequenceDist, at: np.ndarray) -> UniformityReport:
    """`uniformity` on the support words at the ascending positions `at`:
    the extremes of the atoms of `dist.conditioned_on`, divided by the mass
    as it divides them, without building that distribution."""
    probs = dist.probs[at]
    mass = float(np.sum(probs))
    if mass <= 0.0:
        raise ConditioningError("conditioning on a zero-probability set")
    probs /= mass
    probs = probs[probs > 0.0]  # a quotient may underflow
    mx = float(np.max(probs))
    mn = float(np.min(probs))
    return UniformityReport(gamma=mx / mn, max_atom=mx, min_atom=mn)


def verify_uniform_entropy_bounds(dist: SequenceDist, A: SequenceSet) -> BoundReport:
    """Check log2|A| - log2(gamma) <= H(X^n | X^n in A) <= log2|A|."""
    cond = dist.conditioned_on(A)
    rep = uniformity(dist, A)
    h = cond.entropy()
    size_bits = math.log2(cond.ids.size)
    report = BoundReport("uniform-entropy-bounds",
                         details={"gamma": rep.gamma, "entropy": h,
                                  "log2_size": size_bits})
    report.add("lower", size_bits - math.log2(rep.gamma), h,
               size_bits - math.log2(rep.gamma) <= h + SLACK)
    report.add("upper", h, size_bits, h <= size_bits + SLACK)
    return report


@dataclass(frozen=True)
class SpectrumPartition:
    """Half-open information-density slicing of a support set.

    bins[k] holds the sequences with density in [k*delta_n, (k+1)*delta_n)
    for k < K, and bins[K] the tail; empty bins are kept so indices align.
    `_bin_of` holds the bin of each support word, in support order.
    """

    n: int
    base: int
    delta_n: float
    delta: float
    K: int
    bins: tuple[SequenceSet, ...]
    bin_mass: tuple[float, ...]
    _bin_of: np.ndarray = field(repr=False, compare=False)

    def nonempty(self):
        return [(k, b) for k, b in enumerate(self.bins) if b.size > 0]

    def to_json_obj(self) -> dict:
        return {
            "delta_n": self.delta_n,
            "delta": self.delta,
            "K": self.K,
            "bins": [b.ids_list() for b in self.bins],
            "bin_mass": list(self.bin_mass),
        }


def build_spectrum_partition(dist: SequenceDist, delta_n: float, delta: float,
                             space_aexp: float | None = None) -> SpectrumPartition:
    """Slice the support of `dist` into density bins of width delta_n.

    The bin count is K+1 with K = ceil((delta + a)/delta_n), where `a`
    defaults to the per-letter exponent of the support size; pass
    `space_aexp` to slice relative to a larger ambient space.
    """
    if not 0.0 < delta_n < 1.0:
        raise DomainError("delta_n must lie in (0, 1)")
    if not 0.0 < delta < math.inf:
        raise DomainError("delta must be positive and finite")
    if delta >= 1.0:
        warnings.warn("delta >= 1 is outside the defining range; proceeding",
                      stacklevel=2)
    n = dist.n
    a = aexp(dist.ids.size, n) if space_aexp is None else float(space_aexp)
    span = (delta + a) / delta_n
    # 64 bytes is the peak per bin below.  With a >= 1/n (two or more words
    # in the support) and densities <= 1074/n, a span within the budget keeps
    # iv / delta_n in `bin_indices` far inside int64
    check_budget(64 * (span + 1), "spectrum bins")
    K = math.ceil(snap(span))
    # math.log2, not np.log2: the two differ in the last bit on some inputs
    densities = np.array([-math.log2(p) / n for p in dist.probs.tolist()])
    labels = bin_indices(densities, delta_n, K)
    labels.flags.writeable = False
    # bincount adds each bin's masses in support order, from 0.0
    masses = np.bincount(labels, weights=dist.probs, minlength=K + 1)
    # a stable sort keeps each bin's ids ascending; the empty bins, most of
    # them at slice widths 1/n**2 and below, share one empty set
    by_bin = dist.ids[np.argsort(labels, kind="stable")]
    ends = np.cumsum(np.bincount(labels, minlength=K + 1)).tolist()
    empty = SequenceSet._trusted(n, dist.base, by_bin[:0])
    bins = tuple(SequenceSet._trusted(n, dist.base, by_bin[lo:hi]) if hi > lo else empty
                 for lo, hi in zip([0] + ends[:-1], ends))
    return SpectrumPartition(n=n, base=dist.base, delta_n=delta_n, delta=delta,
                             K=K, bins=bins, bin_mass=tuple(masses.tolist()),
                             _bin_of=labels)


def verify_bin_size_bounds(sp: SpectrumPartition) -> BoundReport:
    """Per-bin size bounds: aexp(A_k) < (k+1)*delta_n always, and
    |aexp(A_k) - k*delta_n| < delta_n whenever P(A_k) > 2^(-n*delta_n)."""
    n = sp.n
    report = BoundReport("bin-size-bounds")
    for k, bin_k in sp.nonempty():
        a_k = aexp(bin_k.size, n)
        upper = (k + 1) * sp.delta_n
        report.add(f"bin{k}:upper", a_k, upper, a_k < upper + SLACK, slack=upper - a_k)
        if sp.bin_mass[k] > 2.0 ** (-n * sp.delta_n):
            dev = abs(a_k - k * sp.delta_n)
            report.add(f"bin{k}:two-sided", dev, sp.delta_n,
                       dev < sp.delta_n + SLACK, slack=sp.delta_n - dev)
    return report


def verify_bin_conditional_uniformity(sp: SpectrumPartition,
                                      dist: SequenceDist) -> BoundReport:
    """Conditional atoms of every non-tail bin lie strictly inside
    (2^(-n d)/|A_k|, 2^(n d)/|A_k|); checked with multiplicative slack."""
    n = sp.n
    report = BoundReport("bin-conditional-uniformity")
    for k, bin_k in sp.nonempty():
        if k >= sp.K:
            continue
        mass = sp.bin_mass[k]
        lo = 2.0 ** (-n * sp.delta_n) / bin_k.size
        hi = 2.0 ** (n * sp.delta_n) / bin_k.size
        for seq_id in bin_k.ids_list():
            p_cond = dist.prob_of(seq_id) / mass
            ok = lo * (1.0 - SLACK) < p_cond < hi * (1.0 + SLACK)
            report.add(f"bin{k}:x{seq_id}", lo, hi, ok, slack=min(p_cond - lo, hi - p_cond),
                       atom=p_cond)
    return report


class PartitioningIndex:
    """A labeled partition of a ground set into nonempty disjoint cells.

    `_codes` holds, for each word of the ground in id order, the position of
    its cell in `cells`.
    """

    def __init__(self, ground: SequenceSet, cells: dict):
        total = 0
        seen: list[np.ndarray] = []
        clean: dict = {}
        for label, cell in cells.items():
            if cell.size == 0:
                continue
            if (cell.n, cell.base) != (ground.n, ground.base):
                raise DimensionMismatchError("cell lives in a different space")
            clean[label] = cell
            total += cell.size
            seen.append(cell.ids)
        if not clean:
            raise ValidationError("partition has no nonempty cells")
        merged = np.concatenate(seen)
        order = np.argsort(merged, kind="stable")
        ranked = merged[order]
        if (ranked[1:] == ranked[:-1]).any():
            raise ValidationError("partition cells are not disjoint")
        if total != ground.size or not np.array_equal(ranked, ground.ids):
            raise ValidationError("partition cells do not cover the ground set")
        codes = np.repeat(np.arange(len(seen)), [ids.size for ids in seen])[order]
        codes.flags.writeable = False
        self.ground = ground
        self.cells = clean
        self._codes = codes

    @classmethod
    def _trusted(cls, ground: SequenceSet, cells: dict,
                 codes: np.ndarray) -> "PartitioningIndex":
        """An index on nonempty, disjoint cells that cover `ground`, with
        each ground word's cell position: no check."""
        out = object.__new__(cls)
        codes.flags.writeable = False
        out.ground = ground
        out.cells = cells
        out._codes = codes
        return out

    def __len__(self) -> int:
        return len(self.cells)

    def labels(self) -> list:
        return list(self.cells.keys())

    def label_of(self, seq_id: int):
        for label, cell in self.cells.items():
            if cell.contains(seq_id):
                return label
        raise DomainError("sequence not in the ground set")

    def cell(self, label) -> SequenceSet:
        return self.cells[label]

    @classmethod
    def from_labeling(cls, ground: SequenceSet, label_of) -> "PartitioningIndex":
        """Build from a total labeling function on the ground set."""
        buckets: dict = {}
        for seq_id in ground.ids_list():
            buckets.setdefault(label_of(seq_id), []).append(seq_id)
        cells = {label: SequenceSet.from_ids(ground.n, ground.base, ids)
                 for label, ids in buckets.items()}
        return cls(ground, cells)

    @classmethod
    def trivial(cls, ground: SequenceSet, label=0) -> "PartitioningIndex":
        return cls(ground, {label: ground})


def _runs(keys: np.ndarray) -> tuple[np.ndarray, list, list[int], np.ndarray]:
    """Runs of equal keys under one stable sort, a key being one integer per
    position or one row of integers compared in lexicographic order: (the
    positions in key order, ties in position order; each run's key,
    ascending; the run bounds in that order, one more than the runs; each
    position's run)."""
    rows = keys[:, None] if keys.ndim == 1 else keys
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    head = np.ones(len(rows), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=head[1:])
    run_of = np.empty(len(rows), dtype=np.intp)
    run_of[order] = np.cumsum(head) - 1
    starts = np.flatnonzero(head)
    return order, keys[order[starts]].tolist(), starts.tolist() + [len(rows)], run_of


def _grouped(ground: SequenceSet, keys: np.ndarray, label_of) -> PartitioningIndex:
    """The index whose cells gather the words of a nonempty `ground` by
    integer key (one per word, in id order), in ascending key order, the
    cell of key k labelled `label_of(k)`; each cell's ids stay ascending."""
    order, cell_keys, bounds, codes = _runs(keys)
    by_key = ground.ids[order]
    cells = {label_of(key): SequenceSet._trusted(ground.n, ground.base, by_key[lo:hi])
             for key, lo, hi in zip(cell_keys, bounds, bounds[1:])}
    return PartitioningIndex._trusted(ground, cells, codes)


def restrict_index(pi: PartitioningIndex, A_sub: SequenceSet) -> PartitioningIndex:
    """Restriction to a nonempty subset: cells A' intersect A_{M=m}, empties dropped."""
    if A_sub.size == 0:
        raise DomainError("cannot restrict to an empty set")
    A_sub._check_compatible(pi.ground)
    at = _positions(pi.ground.ids, A_sub.ids)
    if at.size != A_sub.size:
        raise DimensionMismatchError("restriction set is not inside the ground set")
    return _grouped(A_sub, pi._codes[at], pi.labels().__getitem__)


def product_index(pi1: PartitioningIndex, pi2: PartitioningIndex) -> PartitioningIndex:
    """Joint index with cells A_{M1=m1} intersect A_{M2=m2}, empties dropped."""
    if not np.array_equal(pi1.ground.ids, pi2.ground.ids) or \
            (pi1.ground.n, pi1.ground.base) != (pi2.ground.n, pi2.ground.base):
        raise DimensionMismatchError("indices partition different ground sets")
    labels1, labels2 = pi1.labels(), pi2.labels()
    width = len(labels2)
    return _grouped(pi1.ground, pi1._codes * width + pi2._codes,
                    lambda key: (labels1[key // width], labels2[key % width]))
