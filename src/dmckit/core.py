"""Finite alphabets, channels, and exact distributions over sequence spaces.

Sequences of blocklength n over an alphabet of size b are packed big-endian
into integers in [0, b^n).  Everything is immutable and every operation is a
pure function; reductions go through numpy's pairwise summation so results do
not depend on thread count.

Public constructors validate their input.  Sets, distributions and
partitioning indices derived from already valid ones go through the private
`_trusted` constructors, which skip the copy, sort and checks the derivation
already guarantees:

- a mask or slice of sorted ids, including an intersection or difference
  (one `searchsorted` of the second set's ids in the first's);
- a support, a conditioning and an output marginal;
- a sorted concatenation of disjoint sets, or sorted distinct picks (image
  witnesses, spectrum bins and their unions);
- partition cells grouped by per-word label codes: every
  `spectrum.PartitioningIndex` carries one code per ground word, in cell
  order, so a restriction, a product or a message-ratio slicing is one
  stable sort of codes, not one intersection per pair of cells.

A conditioning on a set that holds the whole support with mass exactly 1.0
returns the distribution itself, since x / 1.0 == x.

Row requests go through `_product_rows`.  Inside a `_row_store` scope, the
rows of the scope's ground set are built once per channel, and a request
for words of that ground is served by copying them out of the store.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import (CapacityError, ConditioningError, DimensionMismatchError,
                     DomainError, ValidationError)

#: Bytes that any one allocation sized by the input may take (512 MiB, the
#: size of 2**26 float64 or int64 entries).
BUDGET_BYTES = 8 << 26

#: Comparison grid for threshold tests (>= eta, bin edges, row sums).
GRID = 1e-12
#: How far from 1 the total of a probability vector may lie.
SUM_TOL = 1e-10


def check_budget(nbytes: float, what: str) -> None:
    """Raise `CapacityError` unless `nbytes` fits the memory budget.

    Called before every allocation whose size comes from the input.  The
    size may be a float computed before any cast to int: NaN and inf fail.
    """
    if not nbytes <= BUDGET_BYTES:
        raise CapacityError(f"{what} needs more than the {BUDGET_BYTES >> 20} MiB budget")


def snap(x: float) -> float:
    """Round to the 1e-12 grid so threshold comparisons are deterministic."""
    return round(x / GRID) * GRID


def entropy_bits(probs) -> float:
    """Shannon entropy in bits of a probability vector (zeros skipped)."""
    p = np.asarray(probs, dtype=np.float64)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log2(p)))


def aexp(count: int, n: int) -> float:
    """Per-letter exponent of a set size: log2(count)/n."""
    if count <= 0:
        raise DomainError("aexp of an empty set is undefined")
    return math.log2(count) / n


@dataclass(frozen=True)
class Alphabet:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError("alphabet size must be >= 1")


@dataclass(frozen=True, order=True)
class Sequence:
    """A blocklength-n word packed big-endian as an integer base `base`."""

    n: int
    base: int
    value: int

    def __post_init__(self):
        if not 0 <= self.value < self.base ** self.n:
            raise ValidationError("packed value out of range for base**n")

    def digits(self) -> tuple[int, ...]:
        out = []
        v = self.value
        for _ in range(self.n):
            out.append(v % self.base)
            v //= self.base
        return tuple(reversed(out))

    @classmethod
    def from_digits(cls, digits, base: int) -> "Sequence":
        value = 0
        for d in digits:
            if not 0 <= d < base:
                raise ValidationError("digit out of range")
            value = value * base + d
        return cls(n=len(digits), base=base, value=value)


def _positions(ids: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Positions in the sorted unique array `ids` of the words of `query`
    that it holds, in query order: ascending when `query` is sorted."""
    if ids.size == 0:
        return np.empty(0, dtype=np.intp)
    at = np.searchsorted(ids, query)
    return at[ids[np.minimum(at, ids.size - 1)] == query]


def _int64_ids(ids: list[int], n: int, base: int) -> np.ndarray:
    """Python-int ids as int64, rejecting any outside [0, base**n) or int64."""
    if ids and (min(ids) < 0 or max(ids) >= min(base ** n, 2 ** 63)):
        raise ValidationError("sequence id out of range for base**n or int64")
    return np.asarray(ids, dtype=np.int64)


@dataclass(frozen=True)
class Channel:
    """A DMC given by a row-stochastic |X| x |Y| matrix."""

    input: Alphabet
    output: Alphabet
    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.float64))
        if m.shape != (self.input.size, self.output.size):
            raise ValidationError(
                f"matrix shape {m.shape} does not match alphabets "
                f"({self.input.size}, {self.output.size})")
        # a negative entry, however small, makes products negative
        if np.any(m < 0.0) or np.any(m > 1.0 + GRID):
            raise ValidationError("channel entries must lie in [0, 1]")
        rows = m.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > GRID):
            raise ValidationError(f"every channel row must sum to 1 within {GRID}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "input_size": self.input.size,
            "output_size": self.output.size,
            "rows": [[float(v) for v in row] for row in self.matrix],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Channel":
        try:
            return cls(input=Alphabet(int(obj["input_size"])),
                       output=Alphabet(int(obj["output_size"])),
                       matrix=np.asarray(obj["rows"], dtype=np.float64),
                       name=str(obj.get("name", "")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed channel file: {exc}") from exc


def identity_channel(size: int, name: str = "identity") -> Channel:
    return Channel(Alphabet(size), Alphabet(size), np.eye(size), name=name)


def bsc(p: float, name: str = "") -> Channel:
    if not 0.0 <= p <= 1.0:
        raise DomainError("crossover probability must be in [0, 1]")
    m = np.array([[1.0 - p, p], [p, 1.0 - p]])
    return Channel(Alphabet(2), Alphabet(2), m, name=name or f"bsc({p})")


@dataclass(frozen=True)
class SequenceSet:
    """A subset of the length-n sequence space over an alphabet of size base.

    Stored as a sorted unique id array.
    """

    n: int
    base: int
    ids: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("blocklength n must be >= 1")
        ids = np.asarray(self.ids, dtype=np.int64)
        ids = np.unique(ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= self.base ** self.n):
            raise ValidationError("sequence id out of range for base**n")
        ids.flags.writeable = False
        object.__setattr__(self, "ids", ids)

    @property
    def size(self) -> int:
        return int(self.ids.size)

    def contains(self, seq_id: int) -> bool:
        idx = int(np.searchsorted(self.ids, seq_id))
        return idx < self.ids.size and int(self.ids[idx]) == seq_id

    def _check_compatible(self, other: "SequenceSet"):
        if (self.n, self.base) != (other.n, other.base):
            raise DimensionMismatchError("sequence sets live in different spaces")

    def intersect(self, other: "SequenceSet") -> "SequenceSet":
        self._check_compatible(other)
        return SequenceSet._trusted(self.n, self.base,
                                    self.ids[_positions(self.ids, other.ids)])

    def difference(self, other: "SequenceSet") -> "SequenceSet":
        self._check_compatible(other)
        keep = np.ones(self.size, dtype=bool)
        keep[_positions(self.ids, other.ids)] = False
        return SequenceSet._trusted(self.n, self.base, self.ids[keep])

    def is_subset_of(self, other: "SequenceSet") -> bool:
        self._check_compatible(other)
        return _positions(other.ids, self.ids).size == self.size

    def ids_list(self) -> list[int]:
        return [int(i) for i in self.ids]

    @classmethod
    def from_ids(cls, n: int, base: int, ids) -> "SequenceSet":
        return cls(n, base, _int64_ids(sorted({int(i) for i in ids}), n, base))

    @classmethod
    def _trusted(cls, n: int, base: int, ids: np.ndarray) -> "SequenceSet":
        """A set on an int64 array already sorted, unique and in range, such
        as a mask or slice of another set's ids: no copy, sort or check."""
        out = object.__new__(cls)
        ids.flags.writeable = False
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "base", base)
        object.__setattr__(out, "ids", ids)
        return out

    @classmethod
    def full_space(cls, n: int, base: int) -> "SequenceSet":
        check_budget(8 * base ** n, "full space |X|^n")
        return cls(n, base, np.arange(base ** n, dtype=np.int64))


def _check_total(probs: np.ndarray):
    total = float(np.sum(probs))
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"probabilities sum to {total}, not 1 +/- {SUM_TOL}")


@dataclass(frozen=True)
class SequenceDist:
    """A probability distribution on a support set of packed sequences.

    Support convention: every stored sequence has probability > 0, so the
    support set and the positive-probability set coincide.
    """

    n: int
    base: int
    ids: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("blocklength n must be >= 1")
        ids = np.asarray(self.ids, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if ids.shape != probs.shape or ids.ndim != 1:
            raise ValidationError("ids and probs must be aligned 1-d arrays")
        order = np.argsort(ids, kind="stable")
        ids, probs = ids[order], probs[order]
        keep = probs > 0.0
        ids, probs = ids[keep], probs[keep]
        if ids.size == 0:
            raise ValidationError("distribution has empty support")
        if np.unique(ids).size != ids.size:
            raise ValidationError("duplicate sequence ids in distribution")
        if ids[0] < 0 or ids[-1] >= self.base ** self.n:
            raise ValidationError("sequence id out of range for base**n")
        _check_total(probs)
        ids.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _trusted(cls, n: int, base: int, ids: np.ndarray,
                 probs: np.ndarray) -> "SequenceDist":
        """A distribution on int64 ids already sorted, unique and in range,
        with float64 probs > 0: only the sum is checked."""
        _check_total(probs)
        out = object.__new__(cls)
        ids.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "base", base)
        object.__setattr__(out, "ids", ids)
        object.__setattr__(out, "probs", probs)
        return out

    def support(self) -> SequenceSet:
        return SequenceSet._trusted(self.n, self.base, self.ids)

    def prob_of(self, seq_id: int) -> float:
        idx = int(np.searchsorted(self.ids, seq_id))
        if idx < self.ids.size and int(self.ids[idx]) == seq_id:
            return float(self.probs[idx])
        return 0.0

    def mass_of(self, A: SequenceSet) -> float:
        if (self.n, self.base) != (A.n, A.base):
            raise DimensionMismatchError("set lives in a different space")
        return float(np.sum(self.probs[_positions(self.ids, A.ids)]))

    def conditioned_on(self, A: SequenceSet) -> "SequenceDist":
        if (self.n, self.base) != (A.n, A.base):
            raise DimensionMismatchError("set lives in a different space")
        at = _positions(self.ids, A.ids)
        probs = self.probs[at]
        mass = float(np.sum(probs))
        if mass <= 0.0:
            raise ConditioningError("conditioning on a zero-probability set")
        if mass == 1.0 and at.size == self.ids.size:
            return self  # the same support, and x / 1.0 == x
        probs /= mass
        keep = probs > 0.0  # a quotient may underflow
        return SequenceDist._trusted(self.n, self.base, self.ids[at[keep]], probs[keep])

    def entropy(self) -> float:
        return entropy_bits(self.probs)

    def items(self):
        return zip(self.ids.tolist(), self.probs.tolist())

    @classmethod
    def uniform_on(cls, A: SequenceSet) -> "SequenceDist":
        if A.size == 0:
            raise ValidationError("cannot build a distribution on an empty set")
        return cls(A.n, A.base, A.ids, np.full(A.size, 1.0 / A.size))

    @classmethod
    def point_mass(cls, n: int, base: int, seq_id: int) -> "SequenceDist":
        return cls(n, base, np.array([seq_id]), np.array([1.0]))

    @classmethod
    def from_dense(cls, n: int, base: int, vector) -> "SequenceDist":
        v = np.asarray(vector, dtype=np.float64)
        if v.size != base ** n:
            raise ValidationError("dense vector length must be base**n")
        ids = np.nonzero(v > 0.0)[0].astype(np.int64)
        return cls(n, base, ids, v[ids])

    def to_json_obj(self) -> dict:
        return {"n": self.n, "alphabet_size": self.base,
                "entries": [[int(i), float(p)] for i, p in self.items()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SequenceDist":
        try:
            entries = obj["entries"]
            n, base = int(obj["n"]), int(obj["alphabet_size"])
            ids = _int64_ids([int(e[0]) for e in entries], n, base)
            probs = np.array([float(e[1]) for e in entries])
            return cls(n, base, ids, probs)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed distribution file: {exc}") from exc


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def product_prob(ch: Channel, x: Sequence, y: Sequence) -> float:
    """Memoryless product probability of output word y given input word x,
    multiplied left to right from 1.0 exactly as `output_rows` does."""
    if x.n != y.n:
        raise DimensionMismatchError("x and y must share the blocklength")
    if x.base != ch.input.size or y.base != ch.output.size:
        raise DimensionMismatchError("sequence alphabets do not match the channel")
    factors = [float(ch.matrix[dx, dy]) for dx, dy in zip(x.digits(), y.digits())]
    return float(reduce(lambda a, b: a * b, factors, 1.0))


#: Floats in a block of partial rows: `_product_rows` applies letters by
#: outer products while its rows fit in one, and `output_dist` and the image
#: bracket work through their rows one block at a time (64 KB).
_BLOCK = 1 << 13


class _RowStore(NamedTuple):
    n: int
    ids: np.ndarray  # the ground set's sorted ids
    rows: tuple  # (channel, read-only rows of the ground) per channel


#: The store of the innermost open `_row_store` scope, if any.
_ROW_STORE: ContextVar[_RowStore | None] = ContextVar("dmckit_row_store", default=None)


def _stored(ch: Channel, ids: np.ndarray, n: int):
    """(the store's rows for `ch`, the positions of `ids` in them) when the
    open store holds every word of `ids` for this channel object at this n,
    else None."""
    store = _ROW_STORE.get()
    if store is None or store.n != n:
        return None
    for stored_ch, rows in store.rows:
        if stored_ch is ch:
            at = _positions(store.ids, ids)
            return (rows, at) if at.size == ids.size else None
    return None


@contextmanager
def _row_store(channels, ground: SequenceSet):
    """Serve every row request for words of `ground` inside the scope from
    one matrix per channel, built here once with `_product_rows`.

    A row's bits do not depend on the batch it is built in, so a served copy
    equals the rows a request would build.  A scope whose ground an open
    store already holds for every channel keeps that store.  The store opens
    only if its matrices fit the budget together with a copy of the largest,
    which a request for the whole ground takes out of it; otherwise every
    request builds and charges its own rows as before.
    """
    wanted = list({id(ch): ch for ch in channels}.values())
    token = None
    if not all(_stored(ch, ground.ids, ground.n) is not None for ch in wanted):
        sizes = [8 * max(ground.size, 1) * ch.output.size ** ground.n for ch in wanted]
        try:
            check_budget(sum(sizes) + max(sizes, default=0),
                         "row store |A|*|Y|^n per channel, plus one copy")
        except CapacityError:
            wanted = []
        if wanted:
            matrices = tuple((ch, _product_rows(ch, ground.ids, ground.n))
                             for ch in wanted)
            for _, rows in matrices:
                rows.flags.writeable = False
            token = _ROW_STORE.set(_RowStore(ground.n, ground.ids, matrices))
    try:
        yield
    finally:
        if token is not None:
            _ROW_STORE.reset(token)


def _product_rows(ch: Channel, ids: np.ndarray, n: int) -> np.ndarray:
    """P(y^n | x^n) for every packed word x in `ids`, one row per word.

    A request the open row store holds is a fresh copy of its rows.  Any
    other builds its words together, one letter at a time, so every entry is
    the left-to-right product 1.0 * W[x_1, y_1] * W[x_2, y_2] * ... *
    W[x_n, y_n].  Digits come from repeated divmod by the base (a vector of
    place values base**k would wrap around in int64).
    """
    hit = _stored(ch, ids, n)
    if hit is not None:
        rows, at = hit
        return rows.take(at, axis=0)
    m, ny = ids.size, ch.output.size
    digits = np.empty((n, m), dtype=np.intp)
    rest = ids.astype(np.int64)
    for k in range(n - 1, -1, -1):
        rest, digits[k] = np.divmod(rest, ch.input.size)
    factors = ch.matrix[digits, None]  # (n, m, 1, ny): W[x_k, .] per word
    part = np.ones((m, 1))
    k = 0
    while k < n and part.size * ny <= _BLOCK:
        part = (part[:, :, None] * factors[k]).reshape(m, part.shape[1] * ny)
        k += 1
    if k == n:
        return part
    # the full array is allocated once and filled in place: after k letters
    # the product for y_1..y_k sits in column (y_1..y_k) * step, and letter
    # k+1 spreads it over the ny columns (y_1..y_k, y) * step / ny,
    # overwriting its own column last
    rows = np.empty((m, ny ** n))
    rows[:, ::ny ** (n - k)] = part
    for k in range(k, n):
        step = ny ** (n - k)
        head = rows[:, ::step]
        for y in range(ny - 1, -1, -1):
            np.multiply(head, factors[k, :, :, y], out=rows[:, y * (step // ny)::step])
    return rows


def output_rows(ch: Channel, A: SequenceSet) -> np.ndarray:
    """Matrix of conditional output distributions, one row per x in A."""
    if A.base != ch.input.size:
        raise DimensionMismatchError("set alphabet does not match the channel input")
    check_budget(8 * max(A.size, 1) * ch.output.size ** A.n, "row matrix |A|*|Y|^n")
    return _product_rows(ch, A.ids, A.n)


def output_dist(ch: Channel, input_dist: SequenceDist) -> SequenceDist:
    """Exact output marginal of the product channel applied to `input_dist`.

    Adds p(x) * P(. | x) word by word in support order, building the rows in
    blocks of at most 2**13 floats.
    """
    if input_dist.base != ch.input.size:
        raise DimensionMismatchError("input alphabet does not match the channel")
    out_space = ch.output.size ** input_dist.n
    check_budget(8 * out_space, "output marginal |Y|^n")
    acc = np.zeros(out_space)
    step = max(1, _BLOCK // out_space)
    for lo in range(0, input_dist.ids.size, step):
        rows = _product_rows(ch, input_dist.ids[lo:lo + step], input_dist.n)
        rows *= input_dist.probs[lo:lo + step, None]
        for row in rows:
            acc += row
    ids = np.flatnonzero(acc > 0.0)
    return SequenceDist._trusted(input_dist.n, ch.output.size, ids, acc[ids])


def info_density(dist: SequenceDist, x: Sequence | int) -> float:
    """Per-symbol information density -(1/n) log2 P(x), in bits."""
    seq_id = x.value if isinstance(x, Sequence) else int(x)
    p = dist.prob_of(seq_id)
    if p <= 0.0:
        raise DomainError("sequence outside the distribution support")
    return -math.log2(p) / dist.n


def entropy(dist) -> float:
    """Entropy in bits of a SequenceDist or a raw probability vector."""
    if isinstance(dist, SequenceDist):
        return dist.entropy()
    v = np.asarray(dist, dtype=np.float64)
    if np.any(v < 0.0) or abs(float(v.sum()) - 1.0) > SUM_TOL:
        raise ValidationError("entropy argument must be a normalized distribution")
    return entropy_bits(v)


def mutual_information(joint) -> float:
    """Mutual information in bits of a joint probability matrix.

    Computed from the defining sum so the identity
    I = H(marg1) + H(marg2) - H(joint) stays an independent cross-check.
    """
    J = np.asarray(joint, dtype=np.float64)
    if J.ndim != 2:
        raise ValidationError("joint must be a 2-d matrix")
    if np.any(J < 0.0) or abs(float(J.sum()) - 1.0) > SUM_TOL:
        raise ValidationError("joint must be a normalized distribution")
    pm = J.sum(axis=1)
    qm = J.sum(axis=0)
    pos = J > 0.0
    denom = np.outer(pm, qm)
    vals = J[pos] * (np.log2(J[pos]) - np.log2(denom[pos]))
    return max(0.0, float(np.sum(vals)))
