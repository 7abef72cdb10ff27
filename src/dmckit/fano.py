"""Codes over product channels, error criteria, decoding-set counting,
sphere-packing rate checks, and the strong Fano pipelines for maximum and
average error.

The pipelines construct the partitioning index Q from the uniformizing
slicing composed with the equal-image-size partition, then report, per
receiver and per cell, the message-set exponent against the conditional
mutual-information rate.  Finite-n gaps are reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DENSE_CAP, Channel, SequenceDist, SequenceSet,
                   aexp, entropy_bits, mutual_information, output_rows)
from .errors import (CapacityError, DimensionMismatchError, DomainError,
                     PreconditionError, ValidationError)
from .images import ETA_TOL, _singleton_sizes, min_image, min_image_exact
from .partitioner import (Schedule, build_equal_image_partition,
                          build_uniformizing_partition)
from .reports import BoundReport
from .spectrum import PartitioningIndex, restrict_index


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
        support = []
        total = 1
        for s in sizes:
            total *= s
        idx = [0] * len(sizes)
        for flat in range(total):
            rem = flat
            tup = []
            for s in reversed(sizes):
                tup.append(rem % s)
                rem //= s
            support.append(tuple(reversed(tup)))
        support.sort()
        return cls(sizes=sizes, support=tuple(support),
                   probs=tuple(1.0 / total for _ in support))


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


def ml_decoder(messages: MessageSpace, encoder, channel: Channel, n: int,
               S: tuple[int, ...]) -> Decoder:
    """Deterministic maximum-likelihood decoder for the m_S marginal.

    Ties break toward the smallest message tuple.
    """
    enc = dict(encoder)
    m_values = tuple(sorted(messages.marginal(S)))
    out_space = channel.output.size ** n
    if out_space > DENSE_CAP:
        raise CapacityError("output space exceeds the dense cap")
    score = np.zeros((len(m_values), out_space))
    col = {m: i for i, m in enumerate(m_values)}
    xset = SequenceSet.from_ids(n, channel.input.size,
                                {x for row in enc.values() for x, _ in row})
    rows = output_rows(channel, xset)
    for m, pm in messages.items():
        key = tuple(m[j] for j in S)
        for x, px in enc[m]:
            score[col[key]] += pm * px * rows[np.searchsorted(xset.ids, x)]
    table = np.zeros((out_space, len(m_values)))
    best = np.argmax(score, axis=0)  # argmax returns the smallest index on ties
    table[np.arange(out_space), best] = 1.0
    return Decoder(S=tuple(S), m_values=m_values, table=table)


# ---------------------------------------------------------------------------
# error criteria
# ---------------------------------------------------------------------------

def _success_probs(pairs, decoder: Decoder, channel: Channel, n: int) -> dict:
    """P(decode = m_S | X = x) per distinct (m_S, x) with positive mass."""
    xs = sorted({x for _, x, _ in pairs})
    xset = SequenceSet.from_ids(n, channel.input.size, xs)
    rows = output_rows(channel, xset)
    row_of = {x: rows[i] for i, x in enumerate(xs)}
    out: dict = {}
    for m, x, _ in pairs:
        key = (tuple(m[j] for j in decoder.S), x)
        if key in out:
            continue
        out[key] = float(row_of[x] @ decoder.table[:, decoder.column(key[0])])
    return out


def max_error(code: Code, channels: list[Channel], k: int) -> float:
    """Worst conditional error over positive-mass (m_S, codeword) pairs."""
    dec = code.decoders[k]
    succ = _success_probs(code.pairs(), dec, channels[k], code.n)
    return max(1.0 - s for s in succ.values())


def avg_error(code: Code, channels: list[Channel], k: int) -> float:
    """Average decoding error probability of receiver k."""
    dec = code.decoders[k]
    pairs = code.pairs()
    succ = _success_probs(pairs, dec, channels[k], code.n)
    total = 0.0
    for m, x, p in pairs:
        total += p * (1.0 - succ[(tuple(m[j] for j in dec.S), x)])
    return total


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
    if alpha <= 0.0:
        raise PreconditionError("alpha must be positive (max error < 1)")
    dec = code.decoders[k]
    ch = channels[k]
    n = code.n
    cells = dict(partition.cells) if isinstance(partition, PartitioningIndex) \
        else dict(partition)
    pairs = code.pairs()
    by_x: dict = {}
    for m, x, _ in pairs:
        by_x.setdefault(x, set()).add(tuple(m[j] for j in dec.S))

    out_space = ch.output.size ** n
    tilde: dict = {}
    for m_S in dec.m_values:
        col = dec.table[:, dec.column(m_S)]
        ids = np.nonzero(col >= alpha / 2.0 - ETA_TOL)[0]
        tilde[m_S] = SequenceSet(n, ch.output.size, ids.astype(np.int64))

    sets: dict = {}
    certificates = BoundReport("decoding-set-image-certificates")
    multiplicity = BoundReport("decoding-set-multiplicity")
    empty_flagged = []
    cap = math.floor(2.0 / alpha)
    for label, cell in cells.items():
        image = min_image(ch, cell, 1.0 - alpha / 4.0)
        b_cell = image.upper_witness
        m_here = sorted({m_S for x in cell.ids_list() for m_S in by_x.get(x, ())})
        counts = np.zeros(out_space, dtype=np.int64)
        for m_S in m_here:
            c_set = b_cell.intersect(tilde[m_S])
            sets[(m_S, label)] = c_set
            if c_set.size == 0:
                empty_flagged.append((m_S, label))
                continue
            counts[c_set.ids] += 1
            members = [x for x in cell.ids_list() if m_S in by_x.get(x, ())]
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

    def alphas(self) -> list[float]:
        out = []
        for k, dec in enumerate(self.decoders):
            succ = _success_probs(self.pairs, dec, self.channels[k], self.n)
            out.append(min(succ.values()))
        return out

    def avg_errors(self) -> list[float]:
        out = []
        for k, dec in enumerate(self.decoders):
            succ = _success_probs(self.pairs, dec, self.channels[k], self.n)
            err = 0.0
            for m, x, p in self.pairs:
                err += p * (1.0 - succ[(tuple(m[j] for j in dec.S), x)])
            out.append(err)
        return out


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


def _subsets_of(items):
    items = tuple(items)
    out = []
    for mask in range(1 << len(items)):
        out.append(tuple(items[i] for i in range(len(items)) if mask >> i & 1))
    return sorted(out, key=lambda s: (len(s), s))


def _cell_joint(view: _JointView, cell_pairs, S: tuple[int, ...], k: int,
                cond: tuple[int, ...] = ()):
    """Joint (m_S, y) matrices given the cell, one per value of m_cond."""
    ch = view.channels[k]
    xs = sorted({x for _, x, _ in cell_pairs})
    xset = SequenceSet.from_ids(view.n, view.base, xs)
    rows = output_rows(ch, xset)
    row_of = {x: rows[i] for i, x in enumerate(xs)}
    total = sum(p for _, _, p in cell_pairs)
    groups: dict = {}
    for m, x, p in cell_pairs:
        key = tuple(m[j] for j in cond)
        groups.setdefault(key, []).append((m, x, p))
    out = {}
    for key, plist in sorted(groups.items()):
        m_vals = sorted({tuple(m[j] for j in S) for m, _, _ in plist})
        col = {m: i for i, m in enumerate(m_vals)}
        joint = np.zeros((len(m_vals), rows.shape[1]))
        mass = sum(p for _, _, p in plist)
        for m, x, p in plist:
            joint[col[tuple(m[j] for j in S)]] += (p / mass) * row_of[x]
        out[key] = (mass / total, joint, m_vals)
    return out


def _mi_rate(view, cell_pairs, S, k, cond=()):
    """(aexp distinct m_{S|cond}, I(M_S;Y_k|M_cond)/n, H(M_S|M_cond)/n)."""
    groups = _cell_joint(view, cell_pairs, S, k, cond)
    mi = 0.0
    h = 0.0
    for _, (w, joint, _) in sorted(groups.items()):
        mi += w * mutual_information(joint)
        h += w * entropy_bits(joint.sum(axis=1))
    return mi / view.n, h / view.n


def _build_q_cells(view: _JointView, *, eta, delta_n, rho, schedule):
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
        restricted = [restrict_index(mi, cell) for mi in m_singles]
        eq = build_equal_image_partition(view.channels, dist, cell, restricted,
                                         eta=eta, delta_n=delta_n,
                                         schedule=schedule)
        for label in eq.index.cells:
            vcell = eq.index.cells[label]
            q_cells.append((f"w{key}|v{label}", vcell))
    return q_cells, w_part.remainder, w_part.remainder_mass


def strong_fano_max(code: Code, channels, *, eta: float = 0.5,
                    delta_n: float | None = None, rho: int = 1,
                    schedule: Schedule | None = None,
                    counting_checks: bool = True) -> FanoReport:
    """Strong maximum-error report: per cell q and receiver k, the exponent of
    the live message set against the conditional mutual-information rate.

    If the messages do not partition the codeword set, codewords are extended
    by enumerating each codeword's messages in ascending order, which leaves
    every error probability unchanged.
    """
    view = _view_of(code, channels)
    alphas = view.alphas()
    if min(alphas) <= 0.0:
        raise PreconditionError("strong Fano needs maximum error < 1")
    if not view.messages_partition():
        view = _append_symbols(view, alphas)
    q_cells, remainder, remainder_mass = _build_q_cells(
        view, eta=eta, delta_n=delta_n, rho=rho, schedule=schedule)
    report = _assemble_report("max", view, alphas, q_cells, remainder,
                              remainder_mass, counting_checks, eta=eta)
    for k in range(len(view.decoders)):
        report.passing_mass[k] = 1.0 - report.q0_mass
        report.passing_target[k] = 1.0 - report.q0_bound
        m_marg: dict = {}
        S_k = tuple(sorted(view.decoders[k].S))
        for m, _, p in view.pairs:
            key = tuple(m[j] for j in S_k)
            m_marg[key] = m_marg.get(key, 0.0) + p
        report.details[f"classic_fano_k{k}"] = classic_fano(
            0.0, 1.0 - alphas[k], math.log2(len(m_marg)), view.n)
    report.details["alphas"] = list(alphas)
    return report


def _assemble_report(criterion, view, alphas, q_cells, remainder,
                     remainder_mass, counting_checks, *, eta,
                     label_prefix="", weight=1.0, base_report=None,
                     receivers=None):
    n_eff = view.n
    pair_of_x: dict = {}
    for m, x, p in view.pairs:
        pair_of_x.setdefault(x, []).append((m, x, p))
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
        cell_pairs = [t for x in cell.ids_list() for t in pair_of_x.get(x, [])]
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
                if counting_checks and not is_rem and not cond:
                    report.counting.add(
                        f"dps:{full_label}:k{k}", mi,
                        min(h_rate, math.log2(view.channels[k].output.size)),
                        mi <= min(h_rate, math.log2(
                            view.channels[k].output.size)) + 1e-9)
    report.q_count += len(all_cells)

    if counting_checks:
        cells_only = {label_prefix + lab: cell for lab, cell in q_cells}
        for k in receivers:
            dsets = build_decoding_sets_from_view(view, k, alphas[k], cells_only)
            for item in dsets.certificates.items:
                report.counting.items.append(item)
            for item in dsets.multiplicity.items:
                report.counting.items.append(item)
            # set monotonicity of image sizes: message cell inside its q cell
            for label, cell in cells_only.items():
                if view.channels[k].output.size ** view.n > 24:
                    continue
                g_cell = min_image(view.channels[k], cell, eta).lower
                S_k = tuple(sorted(view.decoders[k].S))
                for m_S in sorted({tuple(m[j] for j in S_k)
                                   for x in cell.ids_list()
                                   for m, _, _ in pair_of_x.get(x, [])}):
                    members = [x for x in cell.ids_list()
                               if any(tuple(m[j] for j in S_k) == m_S
                                      for m, _, _ in pair_of_x.get(x, []))]
                    sub = SequenceSet.from_ids(view.n, view.base, members)
                    g_sub = min_image(view.channels[k], sub, eta).lower
                    report.counting.add(f"monotone:{label}:k{k}:{m_S}",
                                        g_sub, g_cell, g_sub <= g_cell)
    return report


def build_decoding_sets_from_view(view: _JointView, k: int, alpha: float,
                                  cells: dict) -> DecodingSets:
    """Decoding-set construction on an internal joint view."""
    pseudo_messages = MessageSpace(
        sizes=tuple(view.sizes),
        support=tuple(sorted({m for m, _, _ in view.pairs})),
        probs=tuple(_collect_message_probs(view)))
    encoder = _collect_encoder(view)
    pseudo = Code(messages=pseudo_messages, n=view.n, base=view.base,
                  encoder=encoder, decoders=tuple(view.decoders))
    return build_decoding_sets(pseudo, view.channels, k, alpha, cells)


def _collect_message_probs(view: _JointView):
    acc: dict = {}
    for m, _, p in view.pairs:
        acc[m] = acc.get(m, 0.0) + p
    return [acc[m] for m in sorted(acc)]


def _collect_encoder(view: _JointView):
    acc: dict = {}
    tot: dict = {}
    for m, x, p in view.pairs:
        acc.setdefault(m, {})
        acc[m][x] = acc[m].get(x, 0.0) + p
        tot[m] = tot.get(m, 0.0) + p
    return tuple((m, tuple((x, px / tot[m]) for x, px in sorted(acc[m].items())))
                 for m in sorted(acc))


def strong_fano_avg(code: Code, channels, *, eta: float = 0.5,
                    delta_n: float | None = None, rho: int = 1,
                    schedule: Schedule | None = None,
                    counting_checks: bool = True,
                    alpha_n: float | None = None) -> FanoReport:
    """Strong average-error report via the success-probability split.

    Pairs are grouped by which receivers decode them with probability at
    least alpha_n = (1 - err)/log2(n); each group runs the maximum-error
    pipeline.  Only the structural sanity `passing mass >= 0` is asserted;
    asymptotic targets are recorded alongside, never enforced.
    """
    view = _view_of(code, channels)
    errs = view.avg_errors()
    if max(errs) >= 1.0:
        raise PreconditionError("strong Fano needs average error < 1")
    if view.n < 2 and alpha_n is None:
        raise PreconditionError("average-error split needs n >= 2 (log2 n > 0)")
    err = max(errs)
    if alpha_n is None:
        alpha_n = (1.0 - err) / math.log2(view.n)
    K = len(view.decoders)

    succ = []
    for k, dec in enumerate(view.decoders):
        succ.append(_success_probs(view.pairs, dec, view.channels[k], view.n))
    splits: dict = {}
    for m, x, p in view.pairs:
        T = tuple(k for k in range(K)
                  if succ[k][(tuple(m[j] for j in view.decoders[k].S), x)]
                  >= alpha_n - ETA_TOL)
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
        norm = [(m, x, p / w) for m, x, p in plist]
        sub = _JointView(n=view.n, base=view.base, sizes=view.sizes,
                         pairs=sorted(norm, key=lambda t: (t[1], t[0])),
                         decoders=view.decoders, channels=view.channels)
        label_prefix = f"u{''.join(str(k) for k in T) or '-'}|"
        if not T:
            report.cell_pairs[label_prefix + "all"] = [
                (m, x, w * p) for m, x, p in sub.pairs]
            report.q_count += 1
            continue
        sub_alphas = []
        for k in range(K):
            if k in T:
                s = _success_probs(sub.pairs, view.decoders[k],
                                   view.channels[k], view.n)
                sub_alphas.append(min(s.values()))
            else:
                sub_alphas.append(1.0)  # unused; receiver not reported here
        if not sub.messages_partition():
            sub = _append_symbols(sub, [sub_alphas[k] for k in range(K)])
        q_cells, remainder, remainder_mass = _build_q_cells(
            sub, eta=eta, delta_n=delta_n, rho=rho, schedule=schedule)
        _assemble_report("avg", sub, sub_alphas, q_cells, remainder,
                         remainder_mass, counting_checks, eta=eta,
                         label_prefix=label_prefix, weight=w,
                         base_report=report, receivers=list(T))

    marg = {}
    for k in range(K):
        S_k = tuple(sorted(view.decoders[k].S))
        m_marg = {}
        for m, _, p in view.pairs:
            key = tuple(m[j] for j in S_k)
            m_marg[key] = m_marg.get(key, 0.0) + p
        marg[k] = m_marg
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
