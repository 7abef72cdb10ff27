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

from .core import (Channel, SequenceDist, SequenceSet, aexp, check_budget,
                   entropy_bits, mutual_information, output_rows)
from .errors import (CapacityError, DimensionMismatchError, DomainError,
                     PreconditionError, ValidationError)
from .images import (ETA_TOL, EXACT_SOLVER_CAP, _singleton_sizes, min_image,
                     min_image_exact)
from .partitioner import (_subsets_of, build_equal_image_partition,
                          build_uniformizing_partition)
from .reports import BoundReport
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
        if abs(sum(self.probs) - 1.0) > 1e-10:
            raise ValidationError("message joint must sum to 1 +/- 1e-10")
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

    def marginal(self, S: tuple[int, ...]) -> dict:
        out: dict = {}
        for m, p in self.items():
            key = tuple(m[j] for j in S)
            out[key] = out.get(key, 0.0) + p
        return dict(sorted(out.items()))

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
        if np.any(t < -ETA_TOL) or np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-10):
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
        enc = dict(self.encoder)
        if set(enc) != set(self.messages.support):
            raise ValidationError("encoder must cover exactly the message support")
        for m, row in enc.items():
            if abs(sum(p for _, p in row) - 1.0) > 1e-10 or \
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


def _message_output_joint(channel: Channel, pairs, n: int, base: int,
                          total: float = 1.0) -> np.ndarray:
    """Joint law of (message, output word) of (m, x, weight) pairs, each
    weight divided by `total`; one row per distinct m, ascending."""
    xs = sorted({x for _, x, _ in pairs})
    rows = output_rows(channel, SequenceSet.from_ids(n, base, xs))
    row_of = dict(zip(xs, rows))
    col = {m: i for i, m in enumerate(sorted({m for m, _, _ in pairs}))}
    joint = np.zeros((len(col), rows.shape[1]))
    for m, x, p in pairs:
        joint[col[m]] += (p / total) * row_of[x]
    return joint


def ml_decoder(messages: MessageSpace, encoder, channel: Channel, n: int,
               S: tuple[int, ...]) -> Decoder:
    """Deterministic maximum-likelihood decoder for the m_S marginal.

    Ties break toward the smallest message tuple.
    """
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
    """P(decode = m_S | X = x) per positive-mass pair (m, x).

    A row's bits do not depend on the batch it is built in, so the entries
    of any subset of the pairs equal the ones computed for that subset.
    """
    xs = sorted({x for _, x, _ in pairs})
    rows = output_rows(channel, SequenceSet.from_ids(n, channel.input.size, xs))
    row_of = dict(zip(xs, rows))
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


def classic_fano(h_m_given: float, eps: float, card_m: float, n: int) -> float:
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
    receiver: int
    alpha: float
    sets: dict
    certificates: BoundReport
    multiplicity: BoundReport
    empty_flagged: list

    @property
    def passed(self) -> bool:
        return self.certificates.passed and self.multiplicity.passed


def build_decoding_sets(code: Code, channels: list[Channel], k: int,
                        alpha: float, partition) -> DecodingSets:
    """Per-cell decoding sets C(m_S, cell) = B(cell) * Btilde(m_S).

    B(cell) is a minimum (1 - alpha/4)-image of the cell and Btilde(m_S)
    keeps the outputs that decode to m_S with probability at least alpha/2.
    Each C is certified as an (alpha/4)-image of its cell-message set, and
    per output word at most floor(2/alpha) sets overlap.
    """
    return _decoding_sets(code.pairs(), code.decoders[k], channels[k], code.n,
                          k, alpha, partition)


def _members_by_message(pairs, cell: SequenceSet, S: tuple[int, ...]) -> dict:
    """m_S -> the codewords of `cell` that carry it, m_S ascending."""
    inside = set(cell.ids_list())
    out: dict = {}
    for m, x, _ in pairs:
        if x in inside:
            out.setdefault(tuple(m[j] for j in S), set()).add(x)
    return dict(sorted(out.items()))


def _decoding_sets(pairs, dec: Decoder, ch: Channel, n: int, k: int,
                   alpha: float, partition) -> DecodingSets:
    """`build_decoding_sets` on a positive-mass (message, codeword) pair list."""
    if alpha <= 0.0:
        raise PreconditionError("alpha must be positive (max error < 1)")
    cells = dict(partition.cells) if isinstance(partition, PartitioningIndex) \
        else dict(partition)
    out_space = ch.output.size ** n
    tilde: dict = {}
    for m_S in dec.m_values:
        ids = np.nonzero(dec.table[:, dec.column(m_S)] >= alpha / 2.0 - ETA_TOL)[0]
        tilde[m_S] = SequenceSet(n, ch.output.size, ids)

    sets: dict = {}
    certificates = BoundReport("decoding-set-image-certificates")
    multiplicity = BoundReport("decoding-set-multiplicity")
    empty_flagged = []
    cap = math.floor(2.0 / alpha)
    for label, cell in cells.items():
        b_cell = min_image(ch, cell, 1.0 - alpha / 4.0).upper_witness
        counts = np.zeros(out_space, dtype=np.int64)
        for m_S, members in _members_by_message(pairs, cell, dec.S).items():
            c_set = b_cell.intersect(tilde[m_S])
            sets[(m_S, label)] = c_set
            if c_set.size == 0:
                empty_flagged.append((m_S, label))
                continue
            counts[c_set.ids] += 1
            rows = output_rows(ch, SequenceSet.from_ids(n, ch.input.size, members))
            min_mass = float(rows[:, c_set.ids].sum(axis=1).min())
            certificates.add(f"{label}:{m_S}", alpha / 4.0, min_mass,
                             min_mass >= alpha / 4.0 - ETA_TOL,
                             slack=min_mass - alpha / 4.0)
        worst = int(counts.max()) if counts.size else 0
        multiplicity.add(f"{label}", worst, cap, worst <= cap)
    return DecodingSets(receiver=k, alpha=alpha, sets=sets,
                        certificates=certificates, multiplicity=multiplicity,
                        empty_flagged=empty_flagged)


def sphere_packing_check(code: Code, channel: Channel, mu: float,
                         eps: float | None = None) -> BoundReport:
    """Rate bound by counting: aexp|M| <= cexp g(A, mu+eps) - min_m cexp g(x_m, mu).

    Requires a deterministic encoder and decoder whose receiver decodes every
    message index; then the bound is a counting identity for any code whose
    maximum error is at most eps.
    """
    dec = code.decoders[0] if len(code.decoders) == 1 else None
    for d in code.decoders:
        if tuple(sorted(d.S)) == tuple(range(code.J)):
            dec = d
            break
    if dec is None or tuple(sorted(dec.S)) != tuple(range(code.J)):
        raise PreconditionError("need a receiver that decodes all message indices")
    enc = dict(code.encoder)
    codeword_of = {}
    for m, row in enc.items():
        if len(row) != 1:
            raise PreconditionError("sphere packing requires a deterministic encoder")
        codeword_of[m] = row[0][0]
    if not np.all((dec.table == 0.0) | (dec.table == 1.0)):
        raise PreconditionError("sphere packing requires a deterministic decoder")
    k = code.decoders.index(dec)
    if eps is None:
        eps = max_error(code, [channel] * len(code.decoders), k)
    if not mu > 0.0 or mu + eps >= 1.0:
        raise PreconditionError("need mu > 0 and mu + eps < 1")
    n = code.n
    A = SequenceSet.from_ids(n, code.base, sorted(set(codeword_of.values())))
    g_outer = min_image_exact(channel, A, mu + eps).lower
    g_inner = int(_singleton_sizes(output_rows(channel, A), mu).min())
    lhs = aexp(len(code.messages.support), n)
    rhs = aexp(g_outer, n) - aexp(g_inner, n)
    report = BoundReport("sphere-packing-rate-bound",
                         details={"mu": mu, "eps": eps,
                                  "g_outer": g_outer, "g_inner": g_inner})
    report.add("rate", lhs, rhs, lhs <= rhs + 1e-9, slack=rhs - lhs)
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

    def codeword_set(self) -> SequenceSet:
        return SequenceSet.from_ids(self.n, self.base,
                                    sorted({x for _, x, _ in self.pairs}))

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
        ground = self.codeword_set()
        label_of: dict = {}
        for m, x, _ in self.pairs:
            key = tuple(m[j] for j in S) if S else ()
            if label_of.setdefault(x, key) != key:
                raise ValidationError("messages do not partition the codeword set")
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
    rows: list[FanoRow]
    q_count: int
    q0_mass: float
    q0_bound: float
    appended: int
    passing_mass: dict
    passing_target: dict
    qstar: dict
    qstar_mass: dict
    qstar_target: dict
    counting: BoundReport
    details: dict = field(default_factory=dict)
    cell_pairs: dict = field(default_factory=dict)

    @property
    def q0_within(self) -> bool:
        return self.q0_mass <= self.q0_bound + 1e-12

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


def _build_q_cells(view: _JointView, *, eta, delta_n, rho):
    """W-slicing composed with the equal-image-size partition per cell."""
    dist = view.x_dist()
    A = view.codeword_set()
    full = tuple(range(len(view.sizes)))
    m_index = view.message_index(full)
    m_singles = [view.message_index((j,)) for j in full]
    w_part = build_uniformizing_partition(dist, m_index,
                                          delta=math.log2(view.base), rho=rho)
    q_cells = []
    for key in sorted(w_part.cells):
        cell = w_part.cells[key].members
        eq = build_equal_image_partition(view.channels, dist, cell, m_singles,
                                         eta=eta, delta_n=delta_n)
        for label in eq.index.cells:
            vcell = eq.index.cells[label]
            q_cells.append((f"w{key}|v{label}", vcell))
    return q_cells, w_part.remainder, w_part.remainder_mass


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
    q_cells, remainder, remainder_mass = _build_q_cells(
        view, eta=eta, delta_n=delta_n, rho=rho)
    report = _assemble_report("max", view, alphas, q_cells, remainder,
                              remainder_mass, eta=eta)
    for k in range(len(view.decoders)):
        report.passing_mass[k] = 1.0 - report.q0_mass
        report.passing_target[k] = 1.0 - report.q0_bound
        m_marg = view.marginal(tuple(sorted(view.decoders[k].S)))
        report.details[f"classic_fano_k{k}"] = classic_fano(
            0.0, 1.0 - alphas[k], math.log2(len(m_marg)), view.n)
    report.details["alphas"] = list(alphas)
    return report


def _assemble_report(criterion, view, alphas, q_cells, remainder,
                     remainder_mass, *, eta,
                     label_prefix="", weight=1.0, base_report=None,
                     receivers=None):
    n_eff = view.n
    report = base_report or FanoReport(
        criterion=criterion, n=n_eff, rows=[], q_count=0, q0_mass=0.0,
        q0_bound=view.base ** (-view.n), appended=view.appended,
        passing_mass={}, passing_target={}, qstar={}, qstar_mass={},
        qstar_target={},
        counting=BoundReport("fano-counting-substeps"))
    receivers = receivers if receivers is not None else range(len(view.decoders))

    all_cells = list(q_cells)
    if remainder.size:
        all_cells.append(("q0", remainder))
    for label, cell in all_cells:
        full_label = label_prefix + label
        inside = set(cell.ids_list())
        cell_pairs = [t for t in view.pairs if t[1] in inside]
        mass = weight * sum(p for _, _, p in cell_pairs)
        report.cell_pairs[full_label] = [(m, x // view.shift, weight * p)
                                         for m, x, p in cell_pairs]
        is_rem = label == "q0"
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
                lhs = (aexp(len(joint_vals), n_eff)
                       - aexp(len(cond_vals), n_eff))
                report.rows.append(FanoRow(
                    receiver=k, q_label=full_label, is_remainder=is_rem,
                    cond_on=cond if cond else None, n_eff=n_eff, mass=mass,
                    aexp_messages=lhs, mi_rate=mi, gap=lhs - mi,
                    h_rate_lower=h_rate))
                if not is_rem and not cond:
                    report.counting.add(
                        f"dps:{full_label}:k{k}", mi,
                        min(h_rate, math.log2(view.channels[k].output.size)),
                        mi <= min(h_rate, math.log2(
                            view.channels[k].output.size)) + 1e-9)
    report.q_count += len(all_cells)

    cells_only = {label_prefix + lab: cell for lab, cell in q_cells}
    for k in receivers:
        ch = view.channels[k]
        dsets = _decoding_sets(view.pairs, view.decoders[k], ch, view.n, k,
                               alphas[k], cells_only)
        report.counting.items += dsets.certificates.items
        report.counting.items += dsets.multiplicity.items
        # set monotonicity of image sizes: message cell inside its q cell
        if ch.output.size ** view.n > EXACT_SOLVER_CAP:
            continue
        S_k = tuple(sorted(view.decoders[k].S))
        for label, cell in cells_only.items():
            g_cell = min_image(ch, cell, eta).lower
            for m_S, members in _members_by_message(view.pairs, cell,
                                                    S_k).items():
                sub = SequenceSet.from_ids(view.n, view.base, members)
                g_sub = min_image(ch, sub, eta).lower
                report.counting.add(f"monotone:{label}:k{k}:{m_S}",
                                    g_sub, g_cell, g_sub <= g_cell)
    return report


def strong_fano_avg(code: Code, channels, *, eta: float = 0.5,
                    delta_n: float | None = None, rho: int = 1,
                    alpha_n: float | None = None) -> FanoReport:
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
    if view.n < 2 and alpha_n is None:
        raise PreconditionError("average-error split needs n >= 2 (log2 n > 0)")
    err = max(errs)
    if alpha_n is None:
        alpha_n = (1.0 - err) / math.log2(view.n)
    # at or below ETA_TOL a pair that always fails would pass the split test
    if not ETA_TOL < alpha_n <= 1.0:
        raise PreconditionError(f"alpha_n must lie in ({ETA_TOL}, 1]")
    K = len(view.decoders)

    splits: dict = {}
    for m, x, p in view.pairs:
        T = tuple(k for k in range(K) if succ[k][(m, x)] >= alpha_n - ETA_TOL)
        splits.setdefault(T, []).append((m, x, p))

    report = FanoReport(
        criterion="avg", n=view.n, rows=[], q_count=0, q0_mass=0.0,
        q0_bound=view.base ** (-view.n), appended=0,
        passing_mass={k: 0.0 for k in range(K)},
        passing_target={}, qstar={}, qstar_mass={}, qstar_target={},
        counting=BoundReport("fano-counting-substeps"),
        details={"alpha_n": alpha_n, "avg_errors": errs})

    for T, plist in sorted(splits.items()):
        w = sum(p for _, _, p in plist)
        sub = _JointView(n=view.n, base=view.base, sizes=view.sizes,
                         pairs=[(m, x, p / w) for m, x, p in plist],
                         decoders=view.decoders, channels=view.channels)
        label_prefix = f"u{''.join(str(k) for k in T) or '-'}|"
        if not T:
            report.cell_pairs[label_prefix + "all"] = [
                (m, x, w * p) for m, x, p in sub.pairs]
            report.q_count += 1
            continue
        # a receiver outside T is not reported here and adds no symbols
        sub_alphas = [min(succ[k][(m, x)] for m, x, _ in plist) if k in T
                      else 1.0 for k in range(K)]
        if not sub.messages_partition():
            sub = _append_symbols(sub, sub_alphas)
        q_cells, remainder, remainder_mass = _build_q_cells(
            sub, eta=eta, delta_n=delta_n, rho=rho)
        _assemble_report("avg", sub, sub_alphas, q_cells, remainder,
                         remainder_mass, eta=eta,
                         label_prefix=label_prefix, weight=w,
                         base_report=report, receivers=list(T))

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
            if full_aexp <= h_rate + delta_cor + 1e-12:
                star.append(r.q_label)
                star_mass += r.mass
        report.qstar[k] = star
        report.qstar_mass[k] = star_mass
        report.qstar_target[k] = (1.0 - errs[k]) / 4.0
        report.details[f"classic_fano_k{k}"] = classic_fano(
            0.0, errs[k], math.log2(len(m_marg)), view.n)
    return report
