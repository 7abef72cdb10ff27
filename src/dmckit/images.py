"""Minimum quasi-images (exact greedy), minimum images (exact at desk scale,
bracketed beyond) with their per-letter exponents, and Hamming blow-ups.

There is no known closed form for the minimum image size of a non-singleton
set, so the exact solver below scores every set of output columns: one
subset-sum table per row, of at most 2**15 floats, marks the sets with
P^n(B|x) >= eta for every row x, and the smallest such set wins.  All ties
break toward the lexicographically least set of packed-sequence integers,
so results are bit-reproducible.

Beyond the exact solver's cap, `min_image_bracket` builds the row matrix
once: both lower bounds read it first, a block of rows at a time, and the
greedy upper bound then masks the columns it picks in that same matrix, so
no second |A| x |Y|^n array is made.

A one-word set is solved from its own row: its outputs by probability
descending, cut where their running sum reaches eta (`_word_cut`).  That is
the greedy's pick sequence on the row, so beyond the cap the bracket is
exact by construction.  Within the cap it is the exact size unless a running
sum lies within `_BAND` of eta - GRID, where the table's ascending-order
sums could decide otherwise; there the table runs on the row instead
(`_word_cover`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (_BLOCK, GRID, Channel, Sequence, SequenceDist, SequenceSet,
                   aexp, output_dist, output_rows)
from .errors import CapacityError, DomainError

#: Largest number of output columns the exact solver will search.
EXACT_SOLVER_CAP = 24

#: Output columns the exact solver's subset-sum table spans (2**15 floats).
#: A 2**16-float table (with its rank table) added 0.4 MB to the peak RSS of
#: a run of 16-column solves and was no faster end to end than two passes
#: over this one.
_TABLE_BITS = 15

#: A one-word exact solve falls back to the subset-sum table when one of its
#: running sums lies within this distance of eta - GRID.  Two summation orders
#: of at most EXACT_SOLVER_CAP entries of one row (whose sum is about 1)
#: differ by under 48 * 2**-53, so outside it every comparison decides as
#: the table's does.
_BAND = 64 * 2.0 ** -52


@dataclass(frozen=True)
class QuasiImageResult:
    size: int
    witness: SequenceSet
    eta_achieved: float


@dataclass(frozen=True)
class ImageBracket:
    lower: int
    upper: int
    upper_witness: SequenceSet
    exact: bool
    method: str


def _check_eta(eta: float):
    # at eta <= GRID the empty set already reaches eta - GRID on every row
    if not GRID < eta <= 1.0:
        raise DomainError(f"eta must lie in ({GRID:g}, 1]")


def min_quasi_image(ch: Channel, input_dist: SequenceDist | None,
                    A: SequenceSet, eta: float) -> QuasiImageResult:
    """Smallest output set with conditional mass >= eta given the input in A.

    The minimum is achieved by the highest-probability outputs, so sorting by
    P(y | X in A) descending (ties by ascending id) and cutting at eta is
    exact.  When no input distribution is supplied, the input is uniform on A.
    """
    _check_eta(eta)
    if input_dist is None:
        input_dist = SequenceDist.uniform_on(A)
    out = output_dist(ch, input_dist.conditioned_on(A))
    order = np.lexsort((out.ids, -out.probs))
    cum = out.probs[order]
    size = int(_cut(cum, eta))
    witness = SequenceSet(out.n, out.base, out.ids[order[:size]])
    return QuasiImageResult(size=size, witness=witness,
                            eta_achieved=float(cum[size - 1]))


def _cut(desc: np.ndarray, eta: float) -> np.ndarray:
    """How many leading entries of each row of `desc` (sorted in decreasing
    order along the last axis) a running sum needs to reach eta, or all of
    them if it never does.  Overwrites `desc` with its running sums, which
    are the same left-to-right float additions as a loop over the entries.
    """
    np.cumsum(desc, axis=-1, out=desc)
    return np.minimum((desc < eta - GRID).sum(axis=-1) + 1, desc.shape[-1])


def _singleton_sizes(rows: np.ndarray, eta: float) -> np.ndarray:
    """Minimum eta-image size of each row's input word; sorts `rows` in place.

    Tied entries are equal, so sorting by value alone gives the same running
    sums as taking the outputs in decreasing order with ties by ascending id.
    """
    rows.sort(axis=1)
    return _cut(rows[:, ::-1], eta)


def singleton_image_size(ch: Channel, x: Sequence, eta: float) -> int:
    """Minimum image size of a single input word: `min_image`'s size on {x}."""
    _check_eta(eta)
    A = SequenceSet.from_ids(x.n, x.base, [x.value])
    return _word_size(output_rows(ch, A)[0], eta)


def _word_cut(row: np.ndarray, eta: float, exact: bool) -> tuple[np.ndarray, int] | None:
    """(the outputs of a one-word set by probability descending, ties to the
    smallest id; how many of them reach eta), from the word's output row.
    With `exact`, None when a running sum lies within _BAND of eta - GRID.

    With one row the greedy cover serves that row alone and picks its
    outputs in this order, so its masses are these running sums, and it
    stops at this count.  No set of one output fewer sums to more than the
    running sum before the cut, and the outputs before the cut reach eta,
    so outside the band the exact solver's size is the same count.
    """
    threshold = eta - GRID
    order = np.argsort(-row, kind="stable")
    cum = np.cumsum(row[order])
    if exact and np.any(np.abs(cum - threshold) <= _BAND):
        return None
    size = int(np.count_nonzero(cum < threshold)) + 1
    if size > row.size:
        raise DomainError("eta unreachable for some row")
    return order, size


def _word_cover(row: np.ndarray, eta: float) -> list[int] | None:
    """`_table_cover` on the one row `row`, or None when a comparison that
    decides it lies within _BAND of eta - GRID.

    The witness is the lexicographically least set of the cut's size: each
    id, ascending, is taken when it and the largest outputs after it still
    reach eta, so the same band guards each of those comparisons.
    """
    cut = _word_cut(row, eta, True)
    if cut is None:
        return None
    order, size = cut
    threshold = eta - GRID
    vals = row.tolist()
    rest = order.tolist()  # the ids after i, by probability descending
    chosen: list[int] = []
    mass = 0.0
    for i, v in enumerate(vals):
        rest.remove(i)
        reach = mass + v
        for j in rest[:size - len(chosen) - 1]:
            reach += vals[j]
        if abs(reach - threshold) <= _BAND:
            return None
        if reach >= threshold:
            chosen.append(i)
            mass += v
            if len(chosen) == size:
                return chosen
    return None  # not reached: the outputs before the cut reach eta


def _word_size(row: np.ndarray, eta: float) -> int:
    """`min_image`'s size on a one-word set whose output row is `row`."""
    _check_eta(eta)
    cut = _word_cut(row, eta, row.size <= EXACT_SOLVER_CAP)
    return len(_table_cover(row[None], eta)) if cut is None else cut[1]


def _greedy_cover(rows: np.ndarray, eta: float) -> list[int]:
    """Greedy eta-image: repeatedly serve the row with the largest remaining
    deficit, adding the output that reduces that row's deficit the most.

    Overwrites `rows`: a picked column is set to -1.0, below every column
    still available (entries are >= 0), so a row's first maximum is the
    pick with ties to the smallest id, and a maximum <= 0 means the row has
    no mass left.
    """
    threshold = eta - GRID
    mass = np.zeros(rows.shape[0])
    deficits = np.empty_like(mass)
    chosen: list[int] = []
    while True:
        np.subtract(threshold, mass, out=deficits)
        worst = deficits.argmax()
        if deficits[worst] <= 0.0:
            return chosen
        row = rows[worst]
        best = row.argmax()
        if row[best] <= 0.0:
            # row sums to 1, so a positive-deficit row always has mass left
            raise DomainError("eta unreachable for some row")
        chosen.append(int(best))
        col = rows[:, best]
        mass += col
        col.fill(-1.0)


@functools.cache
def _rank_table(low: int) -> np.ndarray:
    """rank[i] = (the columns of set i reversed, column 0 the top bit) minus
    popcount(i) * 2**low: among feasible sets, the largest rank is the
    lexicographically least of the smallest ones."""
    rank = np.zeros(1 << low, dtype=np.int32)
    for k in range(low):
        np.add(rank[:1 << k], (1 << (low - 1 - k)) - (1 << low), out=rank[1 << k:2 << k])
    rank.flags.writeable = False
    return rank


def _table_cover(rows: np.ndarray, eta: float) -> list[int]:
    """The smallest set of columns, ascending, whose mass reaches eta on every
    row, the lexicographically least of that size.

    One pass scores every set of output columns by its mass on each row:
    bit k of a table index stands for column k, and
    mass[2**k:2**(k+1)] = mass[:2**k] + row[k] adds the columns in ascending
    order from 0.0.  Past _TABLE_BITS columns the table covers the low
    columns, and each set of the high columns (in ascending order) adds its
    columns after the table's, so no table holds more than 2**_TABLE_BITS
    floats.
    """
    n_cols = rows.shape[1]
    threshold = eta - GRID
    low = min(n_cols, _TABLE_BITS)
    rank = _rank_table(low)
    mass = np.empty(1 << low)
    feasible = np.empty(1 << low, dtype=bool)
    best = None
    for pattern in range(1 << (n_cols - low)):
        high = [low + j for j in range(n_cols - low) if pattern >> j & 1]
        # only sets no larger than the best so far can replace it
        room = (n_cols if best is None else len(best)) - len(high)
        if room < 0:
            continue
        np.greater_equal(rank, -room << low, out=feasible)
        for row in rows:
            mass[0] = 0.0
            for k in range(low):
                np.add(mass[:1 << k], row[k], out=mass[1 << k:2 << k])
            for j in high:
                mass += row[j]
            feasible &= mass >= threshold
            if not feasible.any():
                break
        else:  # some set reaches eta on every row
            top = int(rank[feasible].max())
            cover = [k for k in range(low) if top >> (low - 1 - k) & 1] + high
            if best is None or (len(cover), cover) < (len(best), best):
                best = cover
    if best is None:
        raise DomainError("eta unreachable for some row")
    # the low columns ascending, then the high ones: sorted and distinct
    return best


def min_image_exact(ch: Channel, A: SequenceSet, eta: float) -> ImageBracket:
    """Exact minimum eta-image size and its lexicographically least witness.

    The size is the smallest popcount of a set of output columns that
    reaches eta on every row (`_table_cover`), the witness the least such set
    in lexicographic order.  A one-word set is solved from its row
    (`_word_cover`) unless a comparison lies within _BAND of eta - GRID.
    """
    _check_eta(eta)
    if A.size == 0:
        raise DomainError("A must be nonempty")
    n_cols = ch.output.size ** A.n
    if n_cols > EXACT_SOLVER_CAP:
        raise CapacityError(
            f"output space {n_cols} exceeds the exact-solver cap {EXACT_SOLVER_CAP}; "
            "use min_image_bracket")
    rows = output_rows(ch, A)
    best = _word_cover(rows[0], eta) if A.size == 1 else None
    if best is None:
        best = _table_cover(rows, eta)
    witness = SequenceSet._trusted(A.n, ch.output.size, np.array(best, dtype=np.int64))
    return ImageBracket(lower=len(best), upper=len(best), upper_witness=witness,
                        exact=True, method="subset-sum-table")


def _lower_bounds(rows: np.ndarray, eta: float) -> tuple[int, np.ndarray]:
    """(largest singleton eta-image size, uniform mixture of the rows),
    through one buffer of at most 2**13 floats per block of rows; leaves
    `rows` unchanged.

    The mixture is the dense output_dist(ch, SequenceDist.uniform_on(A)
    .conditioned_on(A)): the same normalised weights, added row after row.
    """
    n_rows, n_cols = rows.shape
    uniform = np.full(n_rows, 1.0 / n_rows)
    weights = uniform / float(np.sum(uniform))
    mixture = np.zeros(n_cols)
    singleton_lb = 0
    step = max(1, _BLOCK // n_cols)
    buf = np.empty((min(step, n_rows), n_cols))
    for lo in range(0, n_rows, step):
        block = rows[lo:lo + step]
        part = buf[:block.shape[0]]
        np.multiply(block, weights[lo:lo + step, None], out=part)
        for row in part:
            mixture += row
        np.copyto(part, block)
        singleton_lb = max(singleton_lb, int(_singleton_sizes(part, eta).max()))
    return singleton_lb, mixture


def min_image_bracket(ch: Channel, A: SequenceSet, eta: float) -> ImageBracket:
    """Greedy upper bound and a sound lower bound on the minimum image size.

    lower = max(largest singleton image over rows of A,
                minimum quasi-image size under the uniform input on A);
    both dominate because any eta-image is an eta-quasi-image and contains an
    eta-image of each singleton.

    The lower bounds read the row matrix first; the greedy then overwrites it.
    """
    _check_eta(eta)
    if A.size == 0:
        raise DomainError("A must be nonempty")
    rows = output_rows(ch, A)
    if A.size == 1:
        # both lower bounds cut the one row where the greedy stops
        order, lower = _word_cut(rows[0], eta, False)
        upper_cols = order[:lower]
    else:
        singleton_lb, mixture = _lower_bounds(rows, eta)
        quasi_lb = int(_cut(np.sort(mixture[mixture > 0.0])[::-1], eta))
        upper_cols = _greedy_cover(rows, eta)
        lower = max(singleton_lb, quasi_lb)
    # a picked column is never picked again
    witness = SequenceSet._trusted(A.n, ch.output.size,
                                   np.sort(np.array(upper_cols, dtype=np.int64)))
    return ImageBracket(lower=lower, upper=len(upper_cols), upper_witness=witness,
                        exact=lower == len(upper_cols),
                        method="greedy-cover/singleton-quasi-lower")


def min_image(ch: Channel, A: SequenceSet, eta: float) -> ImageBracket:
    """Exact solve when within the cap, bracket otherwise."""
    if ch.output.size ** A.n <= EXACT_SOLVER_CAP:
        return min_image_exact(ch, A, eta)
    return min_image_bracket(ch, A, eta)


def image_exponents(ch: Channel, A: SequenceSet, eta: float) -> tuple[float, float, bool]:
    """(lower, upper) per-letter exponents of the minimum image size."""
    br = min_image(ch, A, eta)
    return aexp(br.lower, A.n), aexp(br.upper, A.n), br.exact


def hamming_blowup(B: SequenceSet, radius: int) -> SequenceSet:
    """All words within Hamming distance `radius` of B, by BFS on substitutions."""
    if not 0 <= radius <= B.n:
        raise DomainError("blow-up radius must lie in [0, n]")
    base, n = B.base, B.n
    place = [base ** (n - 1 - i) for i in range(n)]
    seen = set(B.ids_list())
    frontier = set(seen)
    for _ in range(radius):
        new = set()
        for sid in frontier:
            for i in range(n):
                digit = (sid // place[i]) % base
                stem = sid - digit * place[i]
                for s in range(base):
                    if s == digit:
                        continue
                    cand = stem + s * place[i]
                    if cand not in seen:
                        new.add(cand)
        if not new:
            break
        seen |= new
        frontier = new
    return SequenceSet.from_ids(n, base, seen)
