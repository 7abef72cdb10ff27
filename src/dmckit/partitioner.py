"""Constructive partition chain: message-ratio slicing, quasi-image
refinement, dominant-bin extraction, multi-channel extraction, the
image-entropy-matched partition, and the equal-image-size partition with
lattice binning.

Asymptotic thresholds ("for sufficiently large n") are never enforced as
pass/fail here; they are recorded as measured slacks in the traces.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (GRID, Channel, SequenceDist, SequenceSet, _row_store, aexp,
                   entropy_bits, output_dist, output_rows)
from .errors import (CapacityError, DomainError, InvariantError,
                     ValidationError)
from .images import image_exponents, min_quasi_image
from .reports import SLACK, BoundReport
from .spectrum import (PartitioningIndex, SpectrumPartition, UniformityReport,
                       _runs, _uniformity_at, build_spectrum_partition,
                       floor_on_grid, product_index, restrict_index,
                       uniformity)


# ---------------------------------------------------------------------------
# message-ratio slicing (the near-uniformizing partition)
# ---------------------------------------------------------------------------

@dataclass
class SliceCell:
    """One (density bin, ratio bin) cell with its uniformity diagnostics."""

    density_bin: int
    ratio_bin: int
    members: SequenceSet
    messages: tuple
    x_uniformity: UniformityReport
    m_uniformity: UniformityReport
    x_bound: float
    m_bound: float

    @property
    def x_ok(self) -> bool:
        return self.x_uniformity.gamma <= self.x_bound * (1.0 + SLACK)

    @property
    def m_ok(self) -> bool:
        return self.m_uniformity.gamma <= self.m_bound * (1.0 + SLACK)


@dataclass
class UniformizingPartition:
    """Partition of a source set by density bin and per-bin message share.

    Within every regular cell both the sequence distribution and the message
    distribution are near-uniform; the remainder cell collects the density
    tail and the vanishing-share messages.
    """

    n: int
    delta: float
    rho: int
    slice_width: float
    ratio_width: float
    K: int
    cells: dict
    remainder: SequenceSet
    remainder_mass: float
    spectrum: SpectrumPartition
    message_bins_by_slice: dict
    ground: SequenceSet

    def as_partitioning_index(self) -> PartitioningIndex:
        cells = {key: cell.members for key, cell in self.cells.items()}
        if self.remainder.size:
            cells["remainder"] = self.remainder
        return PartitioningIndex(self.ground, cells)

    def partitions_ground(self) -> bool:
        total = sum(c.members.size for c in self.cells.values()) + self.remainder.size
        if total != self.ground.size:
            return False
        try:
            self.as_partitioning_index()
        except ValidationError:
            return False
        return True

    def message_partition_ok(self, all_messages) -> bool:
        """Each density slice bins every message into exactly one ratio bin."""
        want = set(all_messages)
        for bins in self.message_bins_by_slice.values():
            seen: list = []
            for labels in bins.values():
                seen.extend(labels)
            if len(seen) != len(set(seen)) or set(seen) != want:
                return False
        return True


def build_uniformizing_partition(dist: SequenceDist, message_index: PartitioningIndex,
                                 delta: float, rho: int = 0) -> UniformizingPartition:
    """Slice the ground set by information density (width 1/n^(rho+2)) and,
    within each slice, bin messages by their cardinality share.

    Regular cells are near-uniform in both coordinates: the sequence ratio is
    at most 2^(2/n^(rho+1)) and the message ratio at most 2^(6/n^(rho+1)).
    The remainder collects the density tail plus share-tail messages and its
    probability is reported (small once 2^(-n*delta) bites).
    """
    if not 0.0 < delta < math.inf:
        raise DomainError("delta must be positive and finite")
    if rho < 0:
        raise DomainError("rho must be >= 0")
    n = dist.n
    try:
        # no float holds 2**1024: the clip only bounds the int power's cost
        slice_width = 1.0 / n ** min(rho + 2, 1100)
    except OverflowError:
        raise CapacityError("slice width 1/n^(rho+2) underflows a float") from None
    if not slice_width < 1.0:
        raise DomainError("n**(rho+2) must exceed 1; increase n or rho")
    ratio_width = 1.0 / n ** (rho + 1)
    ground = dist.support()
    if not np.array_equal(ground.ids, message_index.ground.ids):
        message_index = restrict_index(message_index, ground)
    with warnings.catch_warnings():
        # slicing at 2*delta crosses 1 by design (delta = 0.5 gives 1.0)
        warnings.filterwarnings("ignore", "delta >= 1", UserWarning)
        sp = build_spectrum_partition(dist, slice_width, 2.0 * delta)
    K = sp.K
    labels = message_index.labels()
    # one run per (density bin, message) pair, in that order, its words in
    # id order; pair_of is each word's run
    pair_order, pair_keys, pair_bounds, pair_of = _runs(
        sp._bin_of * len(labels) + message_index._codes)
    runs_of: dict = {}  # density bin -> {message position: run}
    for run, key in enumerate(pair_keys):
        k, c = divmod(key, len(labels))
        runs_of.setdefault(k, {})[c] = run

    # every message of a nonempty slice k < K falls in one ratio bin; a
    # message absent from the slice, and the tail, go to the remainder (K)
    ratio_of = np.full(len(pair_keys), K)
    message_bins_by_slice: dict = {}
    cell_runs: dict = {}  # (k, l) -> (message, run) of each message of the cell
    for k, found in runs_of.items():
        if k >= K:
            continue
        ratio_bins: dict = {}
        for c, m in enumerate(labels):
            run = found.get(c)
            l = K
            if run is not None:
                share = (pair_bounds[run + 1] - pair_bounds[run]) / sp.bins[k].size
                t = -math.log2(share) / ratio_width
                l = min(max(floor_on_grid(t), 0), K)
                ratio_of[run] = l
                if l < K:
                    cell_runs.setdefault((k, l), []).append((m, run))
            ratio_bins.setdefault(l, []).append(m)
        message_bins_by_slice[k] = {l: tuple(ms) for l, ms in sorted(ratio_bins.items())}

    # one stable sort of the regular words by (k, l) gives every cell's
    # positions, cells in ascending (k, l) order, positions ascending
    ratio = ratio_of[pair_of]
    regular = np.flatnonzero(ratio < K)
    cell_order, cell_keys, cell_bounds, _ = _runs(sp._bin_of[regular] * K + ratio[regular])
    by_cell = regular[cell_order]
    cells: dict = {}
    for key, lo, hi in zip(cell_keys, cell_bounds, cell_bounds[1:]):
        k, l = divmod(key, K)
        merged = SequenceSet._trusted(n, dist.base, ground.ids[by_cell[lo:hi]])
        pairs = cell_runs[(k, l)]
        # each message's mass adds its probabilities in id order
        msg_mass = [float(np.sum(dist.probs[pair_order[pair_bounds[r]:pair_bounds[r + 1]]]))
                    for _, r in pairs]
        total = sum(msg_mass)
        shares = [mass / total for mass in msg_mass]
        m_rep = UniformityReport(gamma=max(shares) / min(shares),
                                 max_atom=max(shares), min_atom=min(shares))
        cells[(k, l)] = SliceCell(
            density_bin=k, ratio_bin=l, members=merged,
            messages=tuple(m for m, _ in pairs),
            x_uniformity=_uniformity_at(dist, by_cell[lo:hi]),
            m_uniformity=m_rep,
            x_bound=2.0 ** (2.0 * ratio_width),
            m_bound=2.0 ** (6.0 * ratio_width))

    remainder = SequenceSet._trusted(n, dist.base, ground.ids[ratio >= K])
    return UniformizingPartition(
        n=n, delta=delta, rho=rho, slice_width=slice_width,
        ratio_width=ratio_width, K=K, cells=cells, remainder=remainder,
        remainder_mass=dist.mass_of(remainder) if remainder.size else 0.0,
        spectrum=sp, message_bins_by_slice=message_bins_by_slice, ground=ground)


# ---------------------------------------------------------------------------
# quasi-image refinement
# ---------------------------------------------------------------------------

@dataclass
class RefinementResult:
    """Subset whose rows all put threshold mass on one quasi-image witness."""

    refined: SequenceSet
    witness: SequenceSet
    alpha: float
    threshold: float
    min_row_mass: float
    ratio: float
    ratio_floor: float
    gamma: float

    @property
    def certificate_ok(self) -> bool:
        return self.min_row_mass >= self.threshold - GRID

    @property
    def ratio_ok(self) -> bool:
        return self.ratio > self.ratio_floor - SLACK


def _refine_against_witness(ch: Channel, dist: SequenceDist, A: SequenceSet,
                            alpha: float, witness: SequenceSet) -> RefinementResult:
    row_mass = output_rows(ch, A)[:, witness.ids].sum(axis=1)
    threshold = alpha / A.n
    keep = row_mass >= threshold - GRID
    refined = SequenceSet._trusted(A.n, A.base, A.ids[keep])
    gamma = uniformity(dist, A).gamma
    return RefinementResult(
        refined=refined, witness=witness, alpha=alpha, threshold=threshold,
        min_row_mass=float(row_mass[keep].min()) if refined.size else float("nan"),
        ratio=refined.size / A.size,
        ratio_floor=(1.0 / gamma - 1.0 / A.n) * alpha,
        gamma=gamma)


def refine_quasi_to_image(ch: Channel, dist: SequenceDist, A: SequenceSet,
                          alpha: float) -> RefinementResult:
    """Keep the inputs that put mass >= alpha/n on the minimum alpha-quasi-image.

    The witness then is an (alpha/n)-image of the refined subset (checked
    exactly), and the kept fraction exceeds (1/gamma - 1/n) * alpha for the
    measured uniformity ratio gamma.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    cond = dist.conditioned_on(A)
    witness = min_quasi_image(ch, cond, A, alpha).witness
    return _refine_against_witness(ch, cond, A, alpha, witness)


# ---------------------------------------------------------------------------
# dominant-bin extraction
# ---------------------------------------------------------------------------

def _union(bins) -> SequenceSet:
    """The union of disjoint spectrum bins of one space, ids sorted."""
    ids = np.sort(np.concatenate([b.ids for b in bins]))
    return SequenceSet._trusted(bins[0].n, bins[0].base, ids)


def _branch_threshold(tau: float, delta_n: float) -> float:
    """The deep-drop threshold 4.19 + tau/delta_n.  With tau >= 0 and
    delta_n > 0 it is never below 4.19."""
    return 4.19 + tau / delta_n


@dataclass
class ExtractionStep:
    """Diagnostics of one dominant-bin extraction on one channel.

    The continuity gap tau = cexp g(A', beta) - cexp g(A', lo), floored at 0,
    is solved on the refined set A' the first time `continuity_gap` or
    `branch_threshold` is read, unless the branch test already solved it.
    """

    channel_name: str
    delta_n: float
    delta: float
    eta: float
    K_out: int
    heavy_bin: int
    heavy_prefix_mass: float
    branch: str
    drop_bin: int | None
    refined: SequenceSet
    dropped: SequenceSet | None
    result: SequenceSet
    ratio: float
    ratio_floor: float
    entropy_rate: float
    image_exponent_lower: float
    image_exponent_upper: float
    image_exact: bool
    #: measured cexp g(A*, eta) - (1/n) H(Y^n | X^n in A*)
    slack_upper: float
    refinement: RefinementResult
    _gap: Callable[[], float] = field(repr=False, compare=False)

    @property
    def continuity_gap(self) -> float:
        return self._gap()

    @property
    def branch_threshold(self) -> float:
        return _branch_threshold(self.continuity_gap, self.delta_n)


def extract_equal_cell(ch: Channel, dist: SequenceDist, A: SequenceSet,
                       delta_n: float, delta: float,
                       eta: float) -> tuple[SequenceSet, ExtractionStep]:
    """Extract a large subset whose output entropy rate nearly matches its
    minimum image exponent.

    Slices the output distribution into density bins, picks the first bin
    carrying at least 1/(K+1) of the mass, refines against the cumulative
    quasi-image, and if that bin sits deep enough past the measured
    continuity threshold, removes the inputs already served by the earlier
    bins.  All comparison quantities are recorded; nothing asymptotic is
    asserted.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError("eta must lie in (0, 1)")
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

    ref = _refine_against_witness(ch, cond, A, prefix_mass, _union(sp.bins[:heavy + 1]))
    a_prime = ref.refined

    beta = max(eta, 1.0 - 1.0 / n ** 2)  # below 1, since eta < 1
    lo_level = max(min(prefix_mass / n, 1.0), GRID)
    solved: dict = {}  # A''s exponents by eta level, each level solved once

    def exponents(level: float) -> tuple[float, float, bool]:
        if level not in solved:
            solved[level] = image_exponents(ch, a_prime, level)
        return solved[level]

    def gap() -> float:
        return max(0.0, exponents(beta)[1] - exponents(lo_level)[0])

    drop_bin = None
    dropped = None
    branch = "shallow"
    result = a_prime
    # a heavy bin of at most 4 is shallow whatever tau is
    c_threshold = _branch_threshold(gap(), delta_n) if heavy > 4 else math.inf
    if heavy > c_threshold:
        drop_bin = int(math.floor(heavy - c_threshold))
        tilde_mass = float(masses[: drop_bin + 1].sum())
        if tilde_mass > 1.0 / n:
            ref2 = _refine_against_witness(ch, cond, A, tilde_mass,
                                           _union(sp.bins[:drop_bin + 1]))
            dropped = ref2.refined
            diff = a_prime.difference(dropped)
            if diff.size:
                branch = "deep-drop"
                result = diff
            else:
                branch = "deep-drop-empty-fallback"
        else:
            branch = "deep-light-tail"

    cond_res = cond.conditioned_on(result)
    # conditioning on the whole support returns `cond`, whose marginal is `out`
    h_rate = (out if cond_res is cond else output_dist(ch, cond_res)).entropy() / n
    img_lo, img_hi, exact = (exponents(eta) if result is a_prime
                             else image_exponents(ch, result, eta))
    step = ExtractionStep(
        channel_name=ch.name, delta_n=delta_n, delta=delta, eta=eta, K_out=K,
        heavy_bin=heavy, heavy_prefix_mass=prefix_mass, branch=branch,
        drop_bin=drop_bin, refined=a_prime, dropped=dropped, result=result,
        ratio=result.size / A.size, ratio_floor=1.0 / (2.0 * (K + 1)),
        entropy_rate=h_rate, image_exponent_lower=img_lo,
        image_exponent_upper=img_hi, image_exact=exact,
        slack_upper=img_hi - h_rate, refinement=ref, _gap=gap)
    return result, step


# ---------------------------------------------------------------------------
# multi-channel extraction and the image-entropy-matched partition
# ---------------------------------------------------------------------------

def _width(step: int, n: int, n_channels: int,
           prev_width: float | None, prev_slack: float | None) -> float:
    """Density width of one extraction step.

    The first width is n^(-1/(K+1)); each later width is the square root of
    the larger of the previous width and the previous step's measured slack.
    """
    if step == 0:
        w = n ** (-1.0 / (n_channels + 1))
    else:
        w = math.sqrt(max(prev_width, prev_slack))
    return min(max(w, 1e-6), 1.0 - 1e-9)


@dataclass
class ExtractionTrace:
    steps: list[ExtractionStep]
    initial: SequenceSet
    result: SequenceSet
    ratio: float
    ratio_floor: float
    per_channel: list[dict]


def _mu(channels: list[Channel], delta: float) -> float:
    """mu = prod_k 1/(3*(delta + log2|Y_k|)), the extraction's ratio constant."""
    return math.prod(1.0 / (3.0 * (delta + math.log2(ch.output.size)))
                     for ch in channels)


def extract_main(channels: list[Channel], dist: SequenceDist, A: SequenceSet,
                 eta: float, delta: float = 0.5
                 ) -> tuple[SequenceSet, ExtractionTrace]:
    """Sequentially extract one subset that matches entropy to image exponent
    for every channel, step widths from `_width`."""
    if not channels:
        raise DomainError("need at least one channel")
    n = A.n
    current = A
    steps: list[ExtractionStep] = []
    width = None
    slack = None
    for ch in channels:
        if steps:  # the previous gap is read only when another channel follows
            slack = max(steps[-1].continuity_gap, abs(steps[-1].slack_upper))
        width = _width(len(steps), n, len(channels), width, slack)
        current, step = extract_equal_cell(ch, dist, current, width, delta, eta)
        steps.append(step)
    per_channel = []
    cond = dist.conditioned_on(current)
    for i, (ch, step) in enumerate(zip(channels, steps)):
        # step results are nested: equal sizes mean the step solved `current`
        lo, hi, exact = ((step.image_exponent_lower, step.image_exponent_upper,
                          step.image_exact) if step.result.size == current.size
                         else image_exponents(ch, current, eta))
        h_rate = output_dist(ch, cond).entropy() / n
        per_channel.append({
            "channel": i, "entropy_rate": h_rate,
            "image_exponent_lower": lo, "image_exponent_upper": hi,
            "image_exact": exact,
            "two_sided_gap": max(abs(h_rate - lo), abs(h_rate - hi)),
        })
    trace = ExtractionTrace(steps=steps, initial=A, result=current,
                            ratio=current.size / A.size,
                            ratio_floor=_mu(channels, delta) / n,
                            per_channel=per_channel)
    return current, trace


@dataclass
class CellRecord:
    """Measured per-cell quantities of the image-entropy-matched partition."""

    members: SequenceSet
    set_exponent: float
    x_entropy_rate: float
    channel_records: list[dict]
    trace: ExtractionTrace

    @property
    def slack(self) -> float:
        gaps = [self.set_exponent - self.x_entropy_rate]
        gaps += [rec["two_sided_gap"] for rec in self.channel_records]
        return max(gaps)


@dataclass
class ImageEntropyPartition:
    """Partition of a set into cells with entropy matched to image exponent."""

    index: PartitioningIndex
    records: dict
    cell_cap: int
    gamma: float
    eta: float
    epsilon_measured: float

    @property
    def cell_count(self) -> int:
        return len(self.index)

    @property
    def within_cap(self) -> bool:
        return self.cell_count <= self.cell_cap


def build_image_entropy_partition(channels: list[Channel], dist: SequenceDist,
                                  A: SequenceSet, eta: float,
                                  delta: float = 0.5) -> ImageEntropyPartition:
    """Exhaust A by repeated multi-channel extraction.

    Every cell records its per-letter size exponent against the conditional
    sequence entropy rate and, per channel, the output entropy rate against
    the minimum image exponent at eta.  The cell count is checked against the
    explicit cap 2*ln2*(1+log2|X|)*n^2/mu.
    """
    n = A.n
    gamma = uniformity(dist, A).gamma
    residual = A
    cells: dict = {}
    records: dict = {}
    stall = 0
    while residual.size:
        cell, trace = extract_main(channels, dist, residual, eta, delta)
        if cell.size == 0:
            stall += 1
            if stall >= 3:
                raise InvariantError("extraction failed to shrink the residual "
                                     "three times in a row")
            continue
        stall = 0
        label = len(cells) + 1
        cond = dist.conditioned_on(cell)
        records[label] = CellRecord(
            members=cell,
            set_exponent=aexp(cell.size, n),
            x_entropy_rate=cond.entropy() / n,
            channel_records=trace.per_channel,
            trace=trace)
        cells[label] = cell
        residual = residual.difference(cell)
    cap = math.floor(2.0 * math.log(2.0) * (1.0 + math.log2(dist.base)) * n * n
                     / _mu(channels, delta)) + 1
    eps = max(rec.slack for rec in records.values())
    return ImageEntropyPartition(index=PartitioningIndex(A, cells),
                                 records=records, cell_cap=cap, gamma=gamma,
                                 eta=eta, epsilon_measured=max(eps, 0.0))


# ---------------------------------------------------------------------------
# equal-image-size source partitioning
# ---------------------------------------------------------------------------

def _subsets_of(items) -> tuple:
    """Every subset of `items` as a tuple, ordered by (size, members)."""
    items = tuple(items)
    subsets = (tuple(x for i, x in enumerate(items) if mask >> i & 1)
               for mask in range(1 << len(items)))
    return tuple(sorted(subsets, key=lambda s: (len(s), s)))


def _lattice_coord(rate: float, delta_n: float, dim: int) -> int:
    """Nearest lattice index with the half-open [-d/2, d/2) window; the
    index is stored as int64."""
    i = min(max(floor_on_grid(rate / delta_n + 0.5), 0), dim)
    if i > np.iinfo(np.int64).max:
        raise CapacityError(f"delta_n = {delta_n:g} puts an entropy lattice "
                            "index past int64; increase delta_n")
    return i


@dataclass
class MessageRecord:
    """Per-(subset, cell) measured instantiation of the four properties."""

    messages: tuple
    messages_tilde: tuple
    messages_hat: tuple
    message_image_exponents: dict
    h_y_given_m: list[float]
    h_m_rate: float
    aexp_messages: float
    aexp_tilde: float | None
    gap_image_vs_entropy: float
    gap_tilde_vs_all: float | None
    gap_entropy_vs_tilde: float | None
    gap_two_sided: float | None
    omega: tuple


@dataclass
class EqualImagePartition:
    """Equal-image-size source partition with full per-cell diagnostics.

    Over each cell, for every message-subset S, the minimum image exponents
    of (most of) the messages match the conditional output entropy rate; the
    per-property maxima of the measured gaps are reported, never asserted.
    """

    index: PartitioningIndex
    subsets: tuple
    delta_n: float
    eta: float
    epsilon_n: float
    lattice_dims: tuple
    cell_records: dict
    lambda_measured: dict
    iterations: int
    iteration_cap: int
    lattice_size: int

    @property
    def within_cap(self) -> bool:
        return self.iterations <= self.iteration_cap


def build_equal_image_partition(channels: list[Channel], dist: SequenceDist,
                                A: SequenceSet,
                                messages: list[PartitioningIndex],
                                eta: float, delta_n: float | None = None,
                                delta: float = 0.5) -> EqualImagePartition:
    """Partition A so that, per cell and message subset, image exponents and
    entropies coincide up to measured gaps.

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

    gamma = uniformity(dist, A).gamma
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
    with _row_store(channels, A):
        while residual.size:
            iteration += 1
            if iteration > max(iteration_cap, A.size) + 1:
                raise InvariantError("lattice exhaustion exceeded every iteration cap")
            cond = dist.conditioned_on(residual)
            single = [restrict_index(mi, residual) for mi in messages]
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
                    idx = product_index(idx, single[j])
                inner[S] = []
                code[S] = np.empty(residual.size, dtype=np.intp)
                unit[S] = np.empty(residual.size, dtype=np.intp)
                point[S] = np.empty((residual.size, len(dims)), dtype=np.int64)
                for i, (m, cell_m) in enumerate(idx.cells.items()):
                    key = cell_m.ids.tobytes()
                    if key not in built:
                        part = build_image_entropy_partition(channels, cond, cell_m,
                                                             eta, delta)
                        placed_units = {}
                        for u, rec in part.records.items():
                            # the record holds the x and output entropy rates of
                            # `cond` given u, the lattice point's coordinates,
                            # and u's image exponents
                            h_rates = [c["entropy_rate"] for c in rec.channel_records]
                            measured[rec.members.ids.tobytes()] = (h_rates, [
                                (c["image_exponent_lower"], c["image_exponent_upper"],
                                 c["image_exact"]) for c in rec.channel_records])
                            placed_units[u] = (
                                np.searchsorted(residual.ids, rec.members.ids),
                                [_lattice_coord(r, delta_n, d) for r, d in
                                 zip([rec.x_entropy_rate] + h_rates, dims)])
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
            order, points, bounds, _ = _runs(np.hstack([point[S] for S in subsets]))
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
                                [output_dist(ch, cond_m).entropy() / n
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
                        aexp_messages=aexp_m, aexp_tilde=aexp_t,
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
        eta=eta, epsilon_n=eps_all, lattice_dims=dims,
        cell_records=cell_records, lambda_measured=lam, iterations=iteration,
        iteration_cap=iteration_cap, lattice_size=v_space)


# ---------------------------------------------------------------------------
# entropy perturbation bound
# ---------------------------------------------------------------------------

def entropy_perturbation_bound(h_e: float, h_e_given: float, p: float,
                               log_card: float) -> BoundReport:
    """Check |H(E) - H(E|S=1)| <= 1 + (1-p) * log2|E| for P(S=1) >= p.

    Stated in bits; divide both sides by n for the per-symbol form.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    if h_e < 0.0 or h_e_given < 0.0 or log_card < 0.0:
        raise DomainError("entropies and log-cardinality must be nonnegative")
    lhs = abs(h_e - h_e_given)
    rhs = 1.0 + (1.0 - p) * log_card
    report = BoundReport("entropy-perturbation",
                         details={"p": p, "log_card": log_card})
    report.add("perturbation", lhs, rhs, lhs <= rhs + SLACK, slack=rhs - lhs)
    return report
