"""Codes over product channels, error criteria, decoding-set counting,
sphere-packing rate checks, and the strong Fano pipelines for maximum and
average error.

The pipelines construct the partitioning index Q from the uniformizing
slicing composed with the equal-image-size partition, then report, per
receiver and per cell, the message-set exponent against the conditional
mutual-information rate.  Finite-n gaps are reported, never asserted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (GRID, SUM_TOL, Channel, SequenceDist, SequenceSet, _int64_ids,
                   _row_store, aexp, check_budget, entropy_bits, mutual_information,
                   output_rows)
from .errors import (CapacityError, DimensionMismatchError, DomainError,
                     PreconditionError, ValidationError)
from .images import EXACT_SOLVER_CAP, _word_size, min_image, min_image_exact
from .partitioner import (_subsets_of, build_equal_image_partition,
                          build_uniformizing_partition)
from .reports import SLACK, BoundReport
from .spectrum import PartitioningIndex


# ---------------------------------------------------------------------------
# message spaces, codes, decoders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MessageSpace:
    """J random indices with a sparse joint distribution over tuples."""

    sizes: tuple[int, ...]
    support: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if not self.sizes:
            raise ValidationError("need at least one message index")
        if len(self.support) != len(self.probs) or not self.support:
            raise ValidationError("support and probs must align and be nonempty")
        # NaN fails every comparison, so each test asks for the good case
        if not abs(sum(self.probs) - 1.0) <= SUM_TOL:
            raise ValidationError(f"message joint must sum to 1 +/- {SUM_TOL}")
        if any(p <= 0.0 for p in self.probs):
            raise ValidationError("zero-probability messages must be removed")
        for m in self.support:
            if len(m) != len(self.sizes) or any(
                    not 0 <= v < s for v, s in zip(m, self.sizes)):
                raise ValidationError("message tuple out of range")
        if len(set(self.support)) != len(self.support):
            raise ValidationError("duplicate message tuples")

    @property
    def J(self) -> int:
        return len(self.sizes)

    def items(self):
        return zip(self.support, self.probs)

    @classmethod
    def uniform(cls, sizes) -> "MessageSpace":
        sizes = tuple(int(s) for s in sizes)
        support = tuple(itertools.product(*map(range, sizes)))
        return cls(sizes=sizes, support=support,
                   probs=tuple(1.0 / len(support) for _ in support))


@dataclass(frozen=True)
class Decoder:
    """Stochastic decoder: per output word a distribution on m_S tuples."""

    S: tuple[int, ...]
    m_values: tuple[tuple[int, ...], ...]
    table: np.ndarray  # (|Y|^n, len(m_values))

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.table, dtype=np.float64))
        if t.ndim != 2 or t.shape[1] != len(self.m_values):
            raise ValidationError("decoder table shape mismatch")
        if not (np.all(t >= -GRID) and np.all(np.abs(t.sum(axis=1) - 1.0) <= SUM_TOL)):
            raise ValidationError("decoder rows must be distributions")
        if tuple(sorted(self.m_values)) != self.m_values:
            raise ValidationError("decoder columns must be sorted m_S tuples")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def column(self, m_S: tuple[int, ...]) -> int:
        try:
            return self.m_values.index(m_S)
        except ValueError:
            raise DomainError(f"decoder has no column for {m_S}") from None

    def extended(self, out_size: int, extra: int) -> "Decoder":
        """Same decoding applied to the first n symbols of a longer word."""
        if extra == 0:
            return self
        rep = out_size ** extra
        check_budget(8 * rep * self.table.size, "extended decoder table |Y|^n*|M_S|")
        return Decoder(self.S, self.m_values, np.repeat(self.table, rep, axis=0))


@dataclass(frozen=True)
class Code:
    """Stochastic encoder plus one stochastic decoder per receiver."""

    messages: MessageSpace
    n: int
    base: int
    encoder: tuple  # tuple of (m_tuple, ((x, p), ...))
    decoders: tuple  # tuple of Decoder

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("blocklength n must be >= 1")
        enc = dict(self.encoder)
        if set(enc) != set(self.messages.support):
            raise ValidationError("encoder must cover exactly the message support")
        for m, row in enc.items():
            if not abs(sum(p for _, p in row) - 1.0) <= SUM_TOL or \
                    any(p <= 0.0 for _, p in row):
                raise ValidationError("encoder rows must be positive and sum to 1")
            for x, _ in row:
                if not 0 <= x < self.base ** self.n:
                    raise ValidationError("codeword id out of range")
        for dec in self.decoders:
            if any(j < 0 or j >= self.messages.J for j in dec.S) or not dec.S:
                raise ValidationError("decoder message subset out of range")

    @property
    def J(self) -> int:
        return self.messages.J

    def pairs(self) -> list[tuple[tuple, int, float]]:
        """Sorted positive-probability (message, codeword, joint prob) triples."""
        enc = dict(self.encoder)
        out = []
        for m, pm in self.messages.items():
            for x, px in enc[m]:
                out.append((m, x, pm * px))
        out.sort(key=lambda t: (t[1], t[0]))
        return out


def deterministic_code(messages: MessageSpace, n: int, base: int,
                       codewords: dict, decoders) -> Code:
    """Code with a deterministic encoder m -> codeword id."""
    encoder = tuple((m, ((int(codewords[m]), 1.0),)) for m in messages.support)
    return Code(messages=messages, n=n, base=base, encoder=encoder,
                decoders=tuple(decoders))


def _codeword_rows(channel: Channel, pairs, n: int, base: int) -> dict:
    """The output row of each distinct codeword x of (m, x, weight) pairs,
    by x; the codewords are words of length n over an alphabet of `base`.

    A row's bits do not depend on the batch it is built in, so the rows of
    any subset of the pairs equal the ones built for that subset.
    """
    xs = sorted({x for _, x, _ in pairs})
    # sorted and distinct; n >= 1 is the caller's to check
    rows = output_rows(channel, SequenceSet._trusted(n, base, _int64_ids(xs, n, base)))
    return dict(zip(xs, rows))


def _message_output_joint(channel: Channel, pairs, n: int, base: int,
                          total: float = 1.0) -> np.ndarray:
    """Joint law of (message, output word) of (m, x, weight) pairs, each
    weight divided by `total`; one row per distinct m, ascending."""
    row_of = _codeword_rows(channel, pairs, n, base)
    col = {m: i for i, m in enumerate(sorted({m for m, _, _ in pairs}))}
    joint = np.zeros((len(col), channel.output.size ** n))
    for m, x, p in pairs:
        joint[col[m]] += (p / total) * row_of[x]
    return joint


def ml_decoder(messages: MessageSpace, encoder, channel: Channel, n: int,
               S: tuple[int, ...]) -> Decoder:
    """Deterministic maximum-likelihood decoder for the m_S marginal.

    Ties break toward the smallest message tuple.
    """
    if n < 1:
        raise ValidationError("blocklength n must be >= 1")
    enc = dict(encoder)
    weighted = [(tuple(m[j] for j in S), x, pm * px)
                for m, pm in messages.items() for x, px in enc[m]]
    score = _message_output_joint(channel, weighted, n, channel.input.size)
    m_values = tuple(sorted({m_S for m_S, _, _ in weighted}))  # score's rows
    out_space = score.shape[1]
    table = np.zeros((out_space, len(m_values)))
    best = np.argmax(score, axis=0)  # argmax returns the smallest index on ties
    table[np.arange(out_space), best] = 1.0
    return Decoder(S=tuple(S), m_values=m_values, table=table)


# ---------------------------------------------------------------------------
# error criteria
# ---------------------------------------------------------------------------

def _success_probs(pairs, decoder: Decoder, channel: Channel, n: int) -> dict:
    """P(decode = m_S | X = x) per positive-mass pair (m, x)."""
    row_of = _codeword_rows(channel, pairs, n, channel.input.size)
    return {(m, x): float(row_of[x] @ decoder.table[
                :, decoder.column(tuple(m[j] for j in decoder.S))])
            for m, x, _ in pairs}


def _error_sum(pairs, succ: dict) -> float:
    """Average decoding error of the pairs, in pair order."""
    total = 0.0
    for m, x, p in pairs:
        total += p * (1.0 - succ[(m, x)])
    return total


def max_error(code: Code, channels: list[Channel], k: int) -> float:
    """Worst conditional error over positive-mass (m_S, codeword) pairs."""
    succ = _success_probs(code.pairs(), code.decoders[k], channels[k], code.n)
    return max(1.0 - s for s in succ.values())


def avg_error(code: Code, channels: list[Channel], k: int) -> float:
    """Average decoding error probability of receiver k."""
    pairs = code.pairs()
    return _error_sum(pairs, _success_probs(pairs, code.decoders[k],
                                            channels[k], code.n))


def classic_fano(eps: float, card_m: float, n: int) -> float:
    """Classic Fano right-hand side (eps * log2|M| + 1)/n, in bits/symbol."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError("eps must lie in [0, 1]")
    if card_m < 0.0 or n < 1:
        raise DomainError("card_m must be >= 0 and n >= 1")
    return (eps * card_m + 1.0) / n


# ---------------------------------------------------------------------------
# decoding sets and sphere packing
# ---------------------------------------------------------------------------

@dataclass
class DecodingSets:
    sets: dict
    certificates: BoundReport
    multiplicity: BoundReport
    empty_flagged: list

    @property
    def passed(self) -> bool:
        return self.certificates.passed and self.multiplicity.passed


def _members_by_message(pairs, cell: SequenceSet, S: tuple[int, ...]) -> dict:
    """m_S -> the codewords of `cell` that carry it, m_S ascending."""
    inside = set(cell.ids_list())
    out: dict = {}
    for m, x, _ in pairs:
        if x in inside:
            out.setdefault(tuple(m[j] for j in S), set()).add(x)
    return dict(sorted(out.items()))


def build_decoding_sets(pairs, decoder: Decoder, channel: Channel, n: int,
                        alpha: float, cells: dict) -> DecodingSets:
    """Per-cell decoding sets C(m_S, cell) = B(cell) * Btilde(m_S) of the
    positive-mass (message, codeword, mass) pairs, such as `Code.pairs()`.

    B(cell) is a minimum (1 - alpha/4)-image of the cell and Btilde(m_S)
    keeps the outputs that decode to m_S with probability at least alpha/2.
    Each C is certified as an (alpha/4)-image of its cell-message set, and
    per output word at most floor(2/alpha) sets overlap.
    """
    if alpha <= 0.0:
        raise PreconditionError("alpha must be positive (max error < 1)")
    out_space = channel.output.size ** n
    if decoder.table.shape[0] > out_space:
        raise ValidationError("decoder table has more rows than |Y|^n")
    tilde: dict = {}
    for m_S in decoder.m_values:
        # np.nonzero gives output ids ascending, as int64, below |Y|^n
        ids = np.nonzero(decoder.table[:, decoder.column(m_S)]
                         >= alpha / 2.0 - GRID)[0]
        tilde[m_S] = SequenceSet._trusted(n, channel.output.size, ids)

    sets: dict = {}
    certificates = BoundReport("decoding-set-image-certificates")
    multiplicity = BoundReport("decoding-set-multiplicity")
    empty_flagged = []
    cap = math.floor(2.0 / alpha)
    for label, cell in cells.items():
        b_cell = min_image(channel, cell, 1.0 - alpha / 4.0).upper_witness
        counts = np.zeros(out_space, dtype=np.int64)
        for m_S, members in _members_by_message(pairs, cell, decoder.S).items():
            c_set = b_cell.intersect(tilde[m_S])
            sets[(m_S, label)] = c_set
            if c_set.size == 0:
                empty_flagged.append((m_S, label))
                continue
            counts[c_set.ids] += 1
            # distinct codewords of the cell, whose space min_image checked
            rows = output_rows(channel, SequenceSet._trusted(
                n, channel.input.size, np.array(sorted(members), dtype=np.int64)))
            min_mass = float(rows[:, c_set.ids].sum(axis=1).min())
            certificates.add(f"{label}:{m_S}", alpha / 4.0, min_mass,
                             min_mass >= alpha / 4.0 - GRID,
                             slack=min_mass - alpha / 4.0)
        worst = int(counts.max()) if counts.size else 0
        multiplicity.add(f"{label}", worst, cap, worst <= cap)
    return DecodingSets(sets=sets, certificates=certificates,
                        multiplicity=multiplicity, empty_flagged=empty_flagged)


def sphere_packing_check(code: Code, channel: Channel, mu: float,
                         eps: float | None = None) -> BoundReport:
    """Rate bound by counting: aexp|M| <= cexp g(A, mu+eps) - min_m cexp g(x_m, mu).

    Requires a deterministic encoder and decoder whose receiver decodes every
    message index; then the bound is a counting identity for any code whose
    maximum error is at most eps.
    """
    k = next((k for k, d in enumerate(code.decoders)
              if tuple(sorted(d.S)) == tuple(range(code.J))), None)
    if k is None:
        raise PreconditionError("need a receiver that decodes all message indices")
    dec = code.decoders[k]
    enc = dict(code.encoder)
    codeword_of = {}
    for m, row in enc.items():
        if len(row) != 1:
            raise PreconditionError("sphere packing requires a deterministic encoder")
        codeword_of[m] = row[0][0]
    if not np.all((dec.table == 0.0) | (dec.table == 1.0)):
        raise PreconditionError("sphere packing requires a deterministic decoder")
    if eps is None:
        eps = max_error(code, [channel] * len(code.decoders), k)
    if not mu > 0.0 or mu + eps >= 1.0:
        raise PreconditionError("need mu > 0 and mu + eps < 1")
    n = code.n
    A = SequenceSet.from_ids(n, code.base, sorted(set(codeword_of.values())))
    g_outer = min_image_exact(channel, A, mu + eps).lower
    g_inner = min(_word_size(row, mu) for row in output_rows(channel, A))
    lhs = aexp(len(code.messages.support), n)
    rhs = aexp(g_outer, n) - aexp(g_inner, n)
    report = BoundReport("sphere-packing-rate-bound",
                         details={"mu": mu, "eps": eps,
                                  "g_outer": g_outer, "g_inner": g_inner})
    report.add("rate", lhs, rhs, lhs <= rhs + SLACK, slack=rhs - lhs)
    return report


# ---------------------------------------------------------------------------
# the strong Fano pipelines
# ---------------------------------------------------------------------------

@dataclass
class _JointView:
    """Positive-mass (message, codeword) pairs with decoders and channels."""

    n: int
    base: int
    sizes: tuple
    pairs: list
    decoders: list
    channels: list
    appended: int = 0
    shift: int = 1  # x_original = x // shift after appending

    def x_dist(self) -> SequenceDist:
        acc: dict = {}
        for _, x, p in self.pairs:
            acc[x] = acc.get(x, 0.0) + p
        ids = sorted(acc)
        probs = np.array([acc[i] for i in ids])
        return SequenceDist(self.n, self.base, np.array(ids, dtype=np.int64),
                            probs / probs.sum())

    def messages_partition(self) -> bool:
        seen: dict = {}
        for m, x, _ in self.pairs:
            if seen.setdefault(x, m) != m:
                return False
        return True

    def message_index(self, S: tuple[int, ...]) -> PartitioningIndex:
        label_of: dict = {}
        for m, x, _ in self.pairs:
            key = tuple(m[j] for j in S)
            if label_of.setdefault(x, key) != key:
                raise ValidationError("messages do not partition the codeword set")
        ground = SequenceSet.from_ids(self.n, self.base, label_of)
        return PartitioningIndex.from_labeling(ground, lambda sid: label_of[sid])

    def marginal(self, S: tuple[int, ...]) -> dict:
        """P(M_S = m_S), summed in pair order."""
        out: dict = {}
        for m, _, p in self.pairs:
            key = tuple(m[j] for j in S)
            out[key] = out.get(key, 0.0) + p
        return out

    def success_tables(self) -> list[dict]:
        """One `_success_probs` table per receiver."""
        return [_success_probs(self.pairs, dec, ch, self.n)
                for dec, ch in zip(self.decoders, self.channels)]


def _view_of(code: Code, channels) -> _JointView:
    if len(channels) != len(code.decoders):
        raise DimensionMismatchError("one channel per decoder is required")
    return _JointView(n=code.n, base=code.base, sizes=code.messages.sizes,
                      pairs=code.pairs(), decoders=list(code.decoders),
                      channels=list(channels))


def _append_symbols(view: _JointView, alphas: list[float]) -> _JointView:
    """Extend codewords so the messages partition the extended codeword set.

    The per-codeword message count is at most prod_k ceil(1/alpha_k); the
    literal extension length is the base-|X| log of that, raised if the
    actual multiplicity demands more.  Messages extend in ascending order.
    """
    need = 1
    for a in alphas:
        need *= math.ceil(1.0 / a)
    by_x: dict = {}
    for m, x, _ in view.pairs:
        by_x.setdefault(x, set()).add(m)
    actual = max(len(v) for v in by_x.values())
    extra = max(math.ceil(math.log(max(need, 2), view.base)),
                math.ceil(math.log(max(actual, 2), view.base)))
    shift = view.base ** extra
    rank: dict = {}
    for x, ms in by_x.items():
        for j, m in enumerate(sorted(ms)):
            rank[(m, x)] = j
    if view.n + extra > 24:
        raise CapacityError("appended blocklength exceeds the desk-scale cap")
    new_pairs = [(m, x * shift + rank[(m, x)], p) for m, x, p in view.pairs]
    new_pairs.sort(key=lambda t: (t[1], t[0]))
    out_sizes = [ch.output.size for ch in view.channels]
    new_decoders = [dec.extended(out_sizes[i], extra)
                    for i, dec in enumerate(view.decoders)]
    return _JointView(n=view.n + extra, base=view.base, sizes=view.sizes,
                      pairs=new_pairs, decoders=new_decoders,
                      channels=view.channels, appended=extra, shift=shift)


@dataclass
class FanoRow:
    receiver: int
    q_label: str
    is_remainder: bool
    cond_on: tuple | None
    n_eff: int
    mass: float
    aexp_messages: float
    mi_rate: float
    gap: float
    h_rate_lower: float


@dataclass
class FanoReport:
    criterion: str
    n: int
    q0_bound: float
    appended: int
    rows: list[FanoRow] = field(default_factory=list)
    q_count: int = 0
    q0_mass: float = 0.0
    passing_mass: dict = field(default_factory=dict)
    passing_target: dict = field(default_factory=dict)
    qstar: dict = field(default_factory=dict)
    qstar_mass: dict = field(default_factory=dict)
    qstar_target: dict = field(default_factory=dict)
    counting: BoundReport = field(
        default_factory=lambda: BoundReport("fano-counting-substeps"))
    details: dict = field(default_factory=dict)
    cell_pairs: dict = field(default_factory=dict)

    @property
    def q0_within(self) -> bool:
        return self.q0_mass <= self.q0_bound + GRID

    def bound_rows(self, k: int | None = None):
        return [r for r in self.rows
                if not r.is_remainder and r.cond_on is None
                and (k is None or r.receiver == k)]

    def to_json_obj(self) -> dict:
        return {
            "criterion": self.criterion,
            "n": self.n,
            "appended_symbols": self.appended,
            "q_count": self.q_count,
            "q0_mass": self.q0_mass,
            "q0_bound": self.q0_bound,
            "q0_within": self.q0_within,
            "passing_mass": {str(k): v for k, v in self.passing_mass.items()},
            "passing_target": {str(k): v for k, v in self.passing_target.items()},
            "qstar_mass": {str(k): v for k, v in self.qstar_mass.items()},
            "qstar_target": {str(k): v for k, v in self.qstar_target.items()},
            "counting_passed": self.counting.passed,
            "rows": [{
                "receiver": r.receiver, "q": r.q_label,
                "remainder": r.is_remainder,
                "cond_on": list(r.cond_on) if r.cond_on is not None else None,
                "n_eff": r.n_eff, "mass": r.mass,
                "aexp_messages": r.aexp_messages, "mi_rate": r.mi_rate,
                "gap": r.gap, "h_rate_lower": r.h_rate_lower,
            } for r in self.rows],
            "details": self.details,
        }

    def csv_rows(self):
        header = ["receiver", "q", "remainder", "cond_on", "n_eff", "mass",
                  "aexp_messages", "mi_rate", "gap", "h_rate_lower"]
        rows = [[r.receiver, r.q_label, r.is_remainder,
                 "" if r.cond_on is None else "+".join(map(str, r.cond_on)),
                 r.n_eff, r.mass, r.aexp_messages, r.mi_rate, r.gap,
                 r.h_rate_lower] for r in self.rows]
        return header, rows


def _mi_rate(view, cell_pairs, S, k, cond=()):
    """(I(M_S;Y_k|M_cond)/n, H(M_S|M_cond)/n) over the pairs of one cell."""
    total = sum(p for _, _, p in cell_pairs)
    groups: dict = {}
    for m, x, p in cell_pairs:
        groups.setdefault(tuple(m[j] for j in cond), []).append(
            (tuple(m[j] for j in S), x, p))
    mi = 0.0
    h = 0.0
    for _, plist in sorted(groups.items()):
        mass = sum(p for _, _, p in plist)
        joint = _message_output_joint(view.channels[k], plist, view.n,
                                      view.base, mass)
        mi += mass / total * mutual_information(joint)
        h += mass / total * entropy_bits(joint.sum(axis=1))
    return mi / view.n, h / view.n


def _add_cells(report: FanoReport, view: _JointView, alphas, receivers,
               prefix: str, weight: float, *, eta, delta_n, rho) -> None:
    """Add the cells of `view` to `report`: the W-slicing composed with the
    equal-image-size partition per slice, plus the remainder q0.  Per cell
    and receiver in `receivers` it adds the Fano rows, then the decoding-set
    and counting checks; labels get `prefix` and masses the factor `weight`.
    """
    dist = view.x_dist()
    # every row below is a row of a codeword: build each channel's once
    with _row_store(view.channels, dist.support()):
        full = tuple(range(len(view.sizes)))
        m_singles = [view.message_index((j,)) for j in full]
        w_part = build_uniformizing_partition(dist, view.message_index(full),
                                              delta=math.log2(view.base), rho=rho)
        q_cells = {}
        q_subsets = {}
        for key in sorted(w_part.cells):
            eq = build_equal_image_partition(view.channels, dist,
                                             w_part.cells[key].members, m_singles,
                                             eta=eta, delta_n=delta_n)
            for label, vcell in eq.index.cells.items():
                q_cells[f"{prefix}w{key}|v{label}"] = vcell
                q_subsets[f"{prefix}w{key}|v{label}"] = eq.cell_records[label]["subsets"]
        all_cells = dict(q_cells)
        if w_part.remainder.size:
            all_cells[prefix + "q0"] = w_part.remainder

        for label, cell in all_cells.items():
            inside = set(cell.ids_list())
            cell_pairs = [t for t in view.pairs if t[1] in inside]
            mass = weight * sum(p for _, _, p in cell_pairs)
            report.cell_pairs[label] = [(m, x // view.shift, weight * p)
                                        for m, x, p in cell_pairs]
            is_rem = label not in q_cells
            if is_rem:
                report.q0_mass += mass
            for k in receivers:
                S_k = tuple(sorted(view.decoders[k].S))
                others = tuple(j for j in range(len(view.sizes)) if j not in S_k)
                for cond in _subsets_of(others):
                    mi, h_rate = _mi_rate(view, cell_pairs, S_k, k, cond)
                    joint_vals = {(tuple(m[j] for j in S_k), tuple(m[j] for j in cond))
                                  for m, _, _ in cell_pairs}
                    cond_vals = {c for _, c in joint_vals}
                    lhs = aexp(len(joint_vals), view.n) - aexp(len(cond_vals), view.n)
                    report.rows.append(FanoRow(
                        receiver=k, q_label=label, is_remainder=is_rem,
                        cond_on=cond if cond else None, n_eff=view.n, mass=mass,
                        aexp_messages=lhs, mi_rate=mi, gap=lhs - mi,
                        h_rate_lower=h_rate))
                    if not is_rem and not cond:
                        cap = min(h_rate, math.log2(view.channels[k].output.size))
                        report.counting.add(f"dps:{label}:k{k}", mi, cap,
                                            mi <= cap + SLACK)
        report.q_count += len(all_cells)

        for k in receivers:
            ch = view.channels[k]
            dsets = build_decoding_sets(view.pairs, view.decoders[k], ch, view.n,
                                        alphas[k], q_cells)
            report.counting.items += dsets.certificates.items
            report.counting.items += dsets.multiplicity.items
            # set monotonicity of image sizes: message cell inside its q cell,
            # compared on the exact lower exponents the equal-image records
            # hold for the whole cell (S = ()) and for each message of S_k
            if ch.output.size ** view.n > EXACT_SOLVER_CAP:
                continue
            S_k = tuple(sorted(view.decoders[k].S))
            for label, per_subset in q_subsets.items():
                g_cell = per_subset[()].message_image_exponents[()][k][0]
                for m, exps in per_subset[S_k].message_image_exponents.items():
                    g_sub = exps[k][0]
                    report.counting.add(f"monotone:{label}:k{k}:{m}",
                                        g_sub, g_cell, g_sub <= g_cell)


def strong_fano_max(code: Code, channels, *, eta: float = 0.5,
                    delta_n: float | None = None, rho: int = 1) -> FanoReport:
    """Strong maximum-error report: per cell q and receiver k, the exponent of
    the live message set against the conditional mutual-information rate.

    If the messages do not partition the codeword set, codewords are extended
    by enumerating each codeword's messages in ascending order, which leaves
    every error probability unchanged.
    """
    view = _view_of(code, channels)
    alphas = [min(succ.values()) for succ in view.success_tables()]
    if min(alphas) <= 0.0:
        raise PreconditionError("strong Fano needs maximum error < 1")
    if not view.messages_partition():
        view = _append_symbols(view, alphas)
    report = FanoReport("max", view.n, q0_bound=view.base ** (-view.n),
                        appended=view.appended)
    K = len(view.decoders)
    _add_cells(report, view, alphas, range(K), "", 1.0,
               eta=eta, delta_n=delta_n, rho=rho)
    for k in range(K):
        report.passing_mass[k] = 1.0 - report.q0_mass
        report.passing_target[k] = 1.0 - report.q0_bound
        m_marg = view.marginal(tuple(sorted(view.decoders[k].S)))
        report.details[f"classic_fano_k{k}"] = classic_fano(
            1.0 - alphas[k], math.log2(len(m_marg)), view.n)
    report.details["alphas"] = list(alphas)
    return report


def strong_fano_avg(code: Code, channels, *, eta: float = 0.5,
                    delta_n: float | None = None, rho: int = 1) -> FanoReport:
    """Strong average-error report via the success-probability split.

    Pairs are grouped by which receivers decode them with probability at
    least alpha_n = (1 - err)/log2(n); each group runs the maximum-error
    pipeline.  Only the structural sanity `passing mass >= 0` is asserted;
    asymptotic targets are recorded alongside, never enforced.
    """
    view = _view_of(code, channels)
    succ = view.success_tables()
    errs = [_error_sum(view.pairs, table) for table in succ]
    if max(errs) >= 1.0:
        raise PreconditionError("strong Fano needs average error < 1")
    if view.n < 2:
        raise PreconditionError("average-error split needs n >= 2 (log2 n > 0)")
    alpha_n = (1.0 - max(errs)) / math.log2(view.n)
    # at or below GRID a pair that always fails would pass the split test;
    # an average error within GRID log2 n of 1 puts alpha_n there
    if not GRID < alpha_n <= 1.0:
        raise PreconditionError(f"alpha_n must lie in ({GRID}, 1]")
    K = len(view.decoders)

    splits: dict = {}
    for m, x, p in view.pairs:
        T = tuple(k for k in range(K) if succ[k][(m, x)] >= alpha_n - GRID)
        splits.setdefault(T, []).append((m, x, p))

    report = FanoReport("avg", view.n, q0_bound=view.base ** (-view.n), appended=0,
                        details={"alpha_n": alpha_n, "avg_errors": errs})

    for T, plist in sorted(splits.items()):
        w = sum(p for _, _, p in plist)
        sub = _JointView(n=view.n, base=view.base, sizes=view.sizes,
                         pairs=[(m, x, p / w) for m, x, p in plist],
                         decoders=view.decoders, channels=view.channels)
        prefix = f"u{''.join(str(k) for k in T) or '-'}|"
        if not T:
            report.cell_pairs[prefix + "all"] = [
                (m, x, w * p) for m, x, p in sub.pairs]
            report.q_count += 1
            continue
        # a receiver outside T is not reported here and adds no symbols
        sub_alphas = [min(succ[k][(m, x)] for m, x, _ in plist) if k in T
                      else 1.0 for k in range(K)]
        if not sub.messages_partition():
            sub = _append_symbols(sub, sub_alphas)
        _add_cells(report, sub, sub_alphas, T, prefix, w,
                   eta=eta, delta_n=delta_n, rho=rho)

    for k in range(K):
        m_marg = view.marginal(tuple(sorted(view.decoders[k].S)))
        full_aexp = aexp(len(m_marg), view.n)
        gamma_k = max(m_marg.values()) / min(m_marg.values())
        report.passing_mass[k] = sum(r.mass for r in report.bound_rows(k))
        report.passing_target[k] = max(
            0.0, 1.0 - errs[k] - alpha_n - view.base ** (-view.n))
        if report.passing_mass[k] < 0.0:
            raise ValidationError("negative passing mass")
        q_total = max(report.q_count, 2)
        delta_cor = 4.0 * (math.log2(q_total) + math.log2(max(gamma_k, 1.0))) \
            / (view.n * (1.0 - errs[k]))
        star = []
        star_mass = 0.0
        for r in report.bound_rows(k):
            h_rate = r.h_rate_lower
            if full_aexp <= h_rate + delta_cor + GRID:
                star.append(r.q_label)
                star_mass += r.mass
        report.qstar[k] = star
        report.qstar_mass[k] = star_mass
        report.qstar_target[k] = (1.0 - errs[k]) / 4.0
        report.details[f"classic_fano_k{k}"] = classic_fano(
            errs[k], math.log2(len(m_marg)), view.n)
    return report
