"""Wiretap-channel evaluation: exact reliability/leakage, the converse chain
driven by the strong average-error report, and the single-letter secrecy
bound with a cardinality-bounded auxiliary variable."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import GRID, Channel, aexp, check_budget, mutual_information
from .errors import (CapacityError, DimensionMismatchError, DomainError,
                     InvariantError, PreconditionError)
from .fano import Code, _message_output_joint, avg_error, strong_fano_avg
from .reports import SLACK, BoundReport


@dataclass(frozen=True)
class WiretapInstance:
    """Main and eavesdropper channels sharing the input alphabet."""

    main: Channel
    eve: Channel

    def __post_init__(self):
        if self.main.input.size != self.eve.input.size:
            raise DimensionMismatchError(
                "main and eavesdropper channels must share the input alphabet")


def evaluate_wtc_code(instance: WiretapInstance, code: Code) -> tuple[float, float]:
    """Exact (reliability error, leakage bits) of a single-message code."""
    if code.J != 1 or len(code.decoders) != 1:
        raise PreconditionError("wiretap evaluation needs J = 1 and one receiver")
    eps = avg_error(code, [instance.main], 0)
    leakage = mutual_information(
        _message_output_joint(instance.eve, code.pairs(), code.n, code.base))
    return eps, leakage


@dataclass
class WiretapReport:
    """Every term of the finite-n converse chain, with the averaging
    identities asserted and the asymptotic targets recorded only."""

    rate: float
    epsilon: float
    leakage: float
    n: int
    q_count: int
    qstar_count: int
    qstar_mass: float
    qstar_mass_target: float
    qstar_mass_ok: bool
    mi_main_rows: dict
    mi_main_qstar: float
    mu_measured: float
    mi_eve_qstar: float
    mi_eve_event: float
    leakage_deflation_measured: float
    leakage_deflation_theorem: float
    cell_count_term: float
    final_bound_measured: float
    final_bound_theorem: float
    single_letter: float
    identities: BoundReport

    def to_json_obj(self) -> dict:
        return {
            "rate": self.rate,
            "epsilon": self.epsilon,
            "leakage_bits": self.leakage,
            "n": self.n,
            "q_count": self.q_count,
            "qstar_count": self.qstar_count,
            "qstar_mass": self.qstar_mass,
            "qstar_mass_target": self.qstar_mass_target,
            "qstar_mass_ok": self.qstar_mass_ok,
            "mi_main_rows": {k: v for k, v in sorted(self.mi_main_rows.items())},
            "mi_main_qstar": self.mi_main_qstar,
            "mu_measured": self.mu_measured,
            "mi_eve_qstar": self.mi_eve_qstar,
            "mi_eve_event": self.mi_eve_event,
            "leakage_deflation_measured": self.leakage_deflation_measured,
            "leakage_deflation_theorem": self.leakage_deflation_theorem,
            "cell_count_term": self.cell_count_term,
            "final_bound_measured": self.final_bound_measured,
            "final_bound_theorem": self.final_bound_theorem,
            "single_letter": self.single_letter,
            "identities_passed": self.identities.passed,
            "identities": self.identities.to_json_obj(),
        }


def _pairs_mi(channel: Channel, pairs, n: int, base: int) -> float:
    """I(M; Z^n) in bits of a weighted pair list (normalized internally)."""
    total = sum(p for _, _, p in pairs)
    return mutual_information(_message_output_joint(channel, pairs, n, base, total))


def wtc_converse_chain(instance: WiretapInstance, code: Code, *,
                       eta: float = 0.5, delta_n: float | None = None,
                       rho: int = 1) -> WiretapReport:
    """Run the average-error report, restrict to its passing index set, and
    evaluate every term of the secrecy converse chain exactly.

    Counting/averaging identities are asserted; the polynomial cell-count
    term uses the actually constructed index count.
    """
    eps, leakage = evaluate_wtc_code(instance, code)
    if eps >= 1.0:
        raise PreconditionError("reliability error must be below 1")
    rep = strong_fano_avg(code, [instance.main], eta=eta, delta_n=delta_n,
                          rho=rho)
    n = code.n
    rate = aexp(len(code.messages.support), n)
    star_labels = rep.qstar[0]
    if not star_labels:
        raise InvariantError("empty passing index set; chain cannot proceed")
    rows = {r.q_label: r for r in rep.bound_rows(0)}
    star_mass = rep.qstar_mass[0]

    mi_rows = {}
    mu = -math.inf
    mi_main_star = 0.0
    for lab in star_labels:
        r = rows[lab]
        mi_rows[lab] = r.mi_rate
        mu = max(mu, rate - r.mi_rate)
        mi_main_star += (r.mass / star_mass) * r.mi_rate

    identities = BoundReport("wiretap-chain-identities")
    identities.add("rate<=mi+mu", rate, mi_main_star + mu,
                   rate <= mi_main_star + mu + SLACK,
                   slack=mi_main_star + mu - rate)

    # eavesdropper side; cell pairs are already mapped back to the original
    # codeword space even when a split appended symbols
    star_pairs = []
    per_label_mi = {}
    for lab in star_labels:
        plist = list(rep.cell_pairs[lab])
        star_pairs.extend(plist)
        per_label_mi[lab] = _pairs_mi(instance.eve, plist, n, code.base)
    mi_eve_event = _pairs_mi(instance.eve, star_pairs, n, code.base)
    mi_eve_star = 0.0
    for lab in star_labels:
        r = rows[lab]
        mi_eve_star += (r.mass / star_mass) * per_label_mi[lab]

    identities.add("deflate:event", mi_eve_event * star_mass, leakage + 1.0,
                   mi_eve_event * star_mass <= leakage + 1.0 + SLACK,
                   slack=leakage + 1.0 - mi_eve_event * star_mass)
    identities.add("deflate:index", mi_eve_star,
                   mi_eve_event + math.log2(max(len(star_labels), 1)),
                   mi_eve_star <= mi_eve_event
                   + math.log2(max(len(star_labels), 1)) + SLACK)

    deflation_measured = (leakage + 1.0) / (star_mass * n)
    deflation_theorem = 4.0 * (leakage + 1.0) / ((1.0 - eps) * n)
    cell_count_term = math.log2(max(rep.q_count, 1)) / n
    star_count_term = math.log2(max(len(star_labels), 1)) / n

    final_measured = (mi_main_star - mi_eve_star / n) + mu \
        + deflation_measured + star_count_term
    identities.add("chain:assembled", rate, final_measured,
                   rate <= final_measured + SLACK,
                   slack=final_measured - rate)
    final_theorem = (mi_main_star - mi_eve_star / n) + mu \
        + deflation_theorem + cell_count_term

    single = secrecy_bound_single_letter(instance).value
    target = (1.0 - eps) / 4.0
    return WiretapReport(
        rate=rate, epsilon=eps, leakage=leakage, n=n, q_count=rep.q_count,
        qstar_count=len(star_labels), qstar_mass=star_mass,
        qstar_mass_target=target, qstar_mass_ok=star_mass >= target - GRID,
        mi_main_rows=mi_rows, mi_main_qstar=mi_main_star, mu_measured=mu,
        mi_eve_qstar=mi_eve_star, mi_eve_event=mi_eve_event,
        leakage_deflation_measured=deflation_measured,
        leakage_deflation_theorem=deflation_theorem,
        cell_count_term=cell_count_term,
        final_bound_measured=final_measured, final_bound_theorem=final_theorem,
        single_letter=single, identities=identities)


# ---------------------------------------------------------------------------
# single-letter secrecy bound
# ---------------------------------------------------------------------------

#: lattice steps G (input laws in multiples of 1/G) per input size: 1000 for
#: the binary chain, else the finest G with at most 30,000 lattice points.
#: Beyond |X| = 4 Qhull outgrows desk scale (|X| = 5, G = 20: 18 s, 170 MB)
LATTICE_STEPS = {2: 1000, 3: 243, 4: 54}
#: points per local grid, and the half-width at which it stops shrinking,
#: of the tangent-point search and of the peak zoom
TANGENT_POINTS, TANGENT_TOL = 201, 1e-10
PEAK_POINTS, PEAK_TOL = 2001, 1e-12


@dataclass
class SecrecyBoundResult:
    value: float
    p_u: list[float]
    p_x_given_u: list[list[float]]


def _secrecy_objective(p_u: np.ndarray, p_xgu: np.ndarray,
                       wy: np.ndarray, wz: np.ndarray) -> float:
    p_ux = p_u[:, None] * p_xgu
    return mutual_information(p_ux @ wy) - mutual_information(p_ux @ wz)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1)`, bit for bit, on every row not of -0.0 alone.  Below
    8 entries numpy adds a row left to right from +0.0, which column adds
    from the first column repeat without one inner-loop call per row (0.0 +
    t is t but for t = -0.0); longer rows numpy sums pairwise."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    if a.shape[-1] == 1:
        return a[..., 0]
    total = a[..., 0] + a[..., 1]
    for j in range(2, a.shape[-1]):
        total += a[..., j]
    return total


def _entropy_gap(wy: np.ndarray, wz: np.ndarray):
    """F(P) = H(P W_Y) - H(P W_Z) of each of two or more laws P along the
    last axis, by one product with [W_Y | W_Z] and one log2.  Equal bit for
    bit to H(p @ wy) - H(p @ wz), each H the negated row sum of q log2 q over
    q > 0: (-a) - (-b) rounds as b - a, and numpy's matrix product gives
    each entry the same bits whatever the other columns are.  A one-column
    product goes through a matrix-vector kernel with other bits, so such a
    channel keeps its own.

    Each term is q log2 q, with the log2 of 1.0 where q is 0.  No term is
    -0.0 (q is a product accumulated from +0.0, and q log2 q is +0.0 only at
    q = 0 or 1), so `_row_sums` is numpy's sum.  No output is 0, and the
    np.where copy is skipped, when no channel entry is below |X| times the
    least normal double, since a law has an entry of about 1/|X| or more;
    otherwise each call checks its own outputs."""
    ny, nz = wy.shape[1], wz.shape[1]
    w = np.hstack([wy, wz])
    positive = w.min() >= wy.shape[0] * np.finfo(np.float64).tiny

    def f(p: np.ndarray) -> np.ndarray:
        q = p @ w if min(ny, nz) > 1 else np.hstack([p @ wy, p @ wz])
        terms = np.log2(q if positive or q.min() > 0.0 else np.where(q > 0.0, q, 1.0))
        terms *= q
        return _row_sums(terms[..., ny:]) - _row_sums(terms[..., :ny])
    return f


@functools.cache
def _lattice(nx: int, steps: int) -> np.ndarray:
    """Input laws in multiples of 1/steps as counts, first count ascending;
    built once per shape and shared read-only."""
    bars = np.array(list(itertools.combinations(range(steps + nx - 1), nx - 1)))
    counts = np.diff(bars, axis=1, prepend=-1, append=steps + nx - 1) - 1
    counts.flags.writeable = False
    return counts


def _run_end(holds, i: int, n: int) -> int:
    """The first point from i on at which `holds(start, end)`, a boolean per
    point of [start, end), is False, asked of blocks of 8, 16, 32, ...
    points; n when it holds throughout."""
    block = 8
    while i < n:
        end = min(i + block, n)
        ok = holds(i, end)
        stop = int(ok.argmin())
        if not ok[stop]:
            return i + stop
        i, block = end, 2 * block
    return n


def _lower_chain(fv: np.ndarray) -> list[int]:
    """Andrew's monotone chain over the points (i, fv[i]): the indices of
    their lower hull, left to right.  Point x pops the chain's last point b
    while the triple (a, b, x) of the last two points and x fails
    (y_b - y_a)(x - a) < (y_x - y_a)(b - a).

    After two points in a row that each popped none, or two that each
    popped one and left the chain [a, x], the next points are decided a run
    at a time in numpy blocks (`_run_end`), by the same float expression on
    the same triples, until one does otherwise; the per-point loop decides
    that one.  So the chain is the per-point loop's."""
    ys = fv.tolist()
    n = len(ys)

    def keeps(s: int, e: int) -> np.ndarray:
        # triples (j - 2, j - 1, j): x - a = 2 and b - a = 1
        ya = fv[s - 2:e - 2]
        return (fv[s - 1:e - 1] - ya) * 2 < fv[s:e] - ya

    def pops(s: int, e: int) -> np.ndarray:
        # triples (a, j - 1, j) against the chain's first point a
        a = chain[0]
        xa = np.arange(s - a, e - a)
        return ~((fv[s - 1:e - 1] - fv[a]) * xa < (fv[s:e] - fv[a]) * (xa - 1))

    chain = list(range(min(2, n)))
    i, last = len(chain), -1  # points popped by the point before
    while i < n:
        popped = 0
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            if (ys[b] - ys[a]) * (i - a) < (ys[i] - ys[a]) * (b - a):
                break
            chain.pop()  # on or above the chord from chain[-2] to i
            popped += 1
        chain.append(i)
        i += 1
        if popped != last:
            last = popped
        elif popped == 0:
            start, i = i, _run_end(keeps, i, n)
            chain.extend(range(start, i))
        elif popped == 1 and len(chain) == 2:
            i = _run_end(pops, i, n)
            chain[-1] = i - 1
    return chain


def _widest_facet(counts: np.ndarray, fv: np.ndarray):
    """Corners of the lower hull facet of the lifted lattice (counts, F) with
    the largest gap at a lattice point inside it, or None without a gap."""
    if counts.shape[1] == 2:  # the first count is the lattice index
        chain = _lower_chain(fv)
        if len(chain) == len(fv):
            return None  # every lattice point is a corner
        facets = np.column_stack([chain[:-1], chain[1:]])
    else:
        # imported here: scipy.spatial costs 0.35 s and 35 MB to import
        from scipy.spatial import ConvexHull

        # a point high above caps the hull, so Qhull skips the upper hull,
        # and a flat lifted lattice (affine F) needs no joggle
        lifted = np.column_stack([counts[:, :-1], fv])
        apex = np.append(lifted[:, :-1].mean(axis=0), fv.max() + counts[0].sum())
        hull = ConvexHull(np.vstack([lifted, apex]))
        facets = hull.simplices[hull.equations[:, -2] < -1e-9]  # facing down
    # only lattice points that are no facet's corner can sit above the hull
    above = np.flatnonzero(np.bincount(facets.ravel(), minlength=len(counts)) == 0)
    span = np.ptp(counts[facets][:, :, :-1], axis=1).max(axis=1)
    best, widest = 1e-12, None  # less lattice room is rounding noise
    # a facet inside one lattice cube covers no lattice point but its corners
    for facet in facets[span > 1] if above.size else ():
        corners = counts[facet].T
        if abs(np.linalg.det(corners)) < 0.5:
            continue  # a flat simplex of the triangulation covers no area
        weights = np.linalg.inv(corners) @ counts[above].T
        inside = np.flatnonzero(weights.min(axis=0) >= -1e-9)
        room = fv[above[inside]] - fv[facet] @ weights[:, inside]
        if room.size and room.max() > best:
            best, widest = float(room.max()), facet
    return widest


@functools.cache
def _ramp(k: int) -> np.ndarray:
    ramp = np.arange(k, dtype=np.float64)
    ramp.flags.writeable = False
    return ramp


def _offsets(half: float, k: int) -> np.ndarray:
    """`np.linspace(-half, half, k)` by linspace's own arithmetic, without
    its per-call cost."""
    offsets = _ramp(k) * ((half - -half) / (k - 1))
    offsets += -half
    offsets[-1] = half
    return offsets


def _local_grid(center: np.ndarray, half: float, budget: int):
    """About `budget` laws on an odd cube grid of half-width `half` around
    `center` (in the chart of its leading coordinates), pushed back onto the
    simplex.  Returns the laws and the grid step.  No offset is -0.0, so
    neither is any sum of a center coordinate and an offset."""
    d = center.size - 1
    k = int(round(budget ** (1.0 / d))) | 1
    offsets = _offsets(half, k)
    if d == 1:  # both columns directly
        laws = np.empty((k, 2))
        np.add(offsets, center[0], out=laws[:, 0])
        np.subtract(1.0, laws[:, 0], out=laws[:, 1])
        np.maximum(laws, 0.0, out=laws)
        laws /= _row_sums(laws)[:, None]
        return laws, 2.0 * half / (k - 1)
    laws = np.empty((k ** d, d + 1))
    # the grid in "ij" meshgrid order: coordinate j varies along axis j
    head = laws[:, :d].reshape((k,) * d + (d,))
    assert np.shares_memory(head, laws)
    for j in range(d):
        head[..., j] = center[j] + offsets.reshape((k,) + (1,) * (d - 1 - j))
    laws[:, d] = 1.0 - _row_sums(laws[:, :d])
    np.maximum(laws, 0.0, out=laws)
    laws /= _row_sums(laws)[:, None]
    return laws, 2.0 * half / (k - 1)


@functools.cache
def _first_zoom(nx: int):
    """The first peak-zoom grid and its step: every round starts at uniform
    weights and half-width 1 - 1/|X|.  Built once per |X|, read-only."""
    grid, step = _local_grid(np.full(nx, 1.0 / nx), 1.0 - 1.0 / nx, PEAK_POINTS)
    grid.flags.writeable = False
    return grid, step


def _envelope(wy: np.ndarray, wz: np.ndarray):
    """(P_U, P_X|U) at the widest gap between F(P) = H(P W_Y) - H(P W_Z) and
    its lower convex envelope; a constant U (value 0) when the lattice shows
    no gap.

    Each round zooms in on the peak of F above the plane through the widest
    facet's corners, then moves each corner to the minimum of F minus the
    tangent plane at the peak on a shrinking local grid.  Taking the slope
    at the peak, not through the corners, keeps the rounds well posed when
    corners merge, as they do where the optimum needs fewer than |X| laws.
    """
    nx = wy.shape[0]
    steps = LATTICE_STEPS[nx]
    counts = _lattice(nx, steps)
    f = _entropy_gap(wy, wz)
    facet = _widest_facet(counts, f(counts / steps))
    if facet is None:
        return np.eye(nx)[0], np.eye(nx)
    corners, half = counts[facet] / steps, 2.0 / steps
    while True:
        f_corners = f(corners)
        grid, zoom = _first_zoom(nx)
        while True:
            weights = grid[np.argmax(f(grid @ corners) - grid @ f_corners)]
            if zoom <= PEAK_TOL:
                break
            grid, zoom = _local_grid(weights, zoom, PEAK_POINTS)
        if half <= TANGENT_TOL:
            return weights, corners
        qy, qz = weights @ corners @ wy, weights @ corners @ wz
        slope = (wz @ np.log2(np.where(qz > 0.0, qz, 1.0))
                 - wy @ np.log2(np.where(qy > 0.0, qy, 1.0)))  # grad F at the peak
        # each corner's grid lies around that corner alone, so the |X| grids
        # go through F stacked, and each takes the minimum of its own block
        grids = [_local_grid(c, half, TANGENT_POINTS) for c in corners]
        stacked = np.vstack([grid for grid, _ in grids])
        gap = (f(stacked) - stacked @ slope).reshape(nx, -1)
        corners = stacked[np.arange(nx) * gap.shape[1] + gap.argmin(axis=1)]
        half = 2.0 * grids[0][1]


def _decompositions(wy: np.ndarray, wz: np.ndarray, k: int):
    """Candidate (P_U, P_X|U) with 2 <= |U| <= k, smaller |U| first: below
    |X|, the envelopes of the channels V_S W for every s-subset S of the
    input letters (V = I) and of the full envelope's facet corners."""
    nx = wy.shape[0]
    full = _envelope(wy, wz)
    for s in range(2, min(k, nx - 1) + 1):
        for base in (np.eye(nx), full[1]):
            for subset in itertools.combinations(range(nx), s):
                virtual = base[list(subset)]
                sub = _envelope(virtual @ wy, virtual @ wz)
                yield sub[0], sub[1] @ virtual
    if k >= nx:
        yield full


def secrecy_bound_single_letter(instance: WiretapInstance,
                                u_size: int | None = None) -> SecrecyBoundResult:
    """Maximize I(U;Y) - I(U;Z) over P_U and P_{X|U} with |U| <= u_size,
    floored at 0.

    I(U;Y) - I(U;Z) = F(P_X) - sum_u P_U(u) F(P_X|U=u) for
    F(P) = H(P W_Y) - H(P W_Z), so the maximum is the widest gap between F
    and its lower convex envelope (Csiszar-Korner 1978): P_X|U are the
    corners of its facet, P_U the weights of its peak, and the value is
    evaluated exactly there.  u_size >= |X| gives the full envelope; the
    value is the best over all |U| <= u_size, so it grows with u_size.
    """
    nx = instance.main.input.size
    if u_size is None:
        u_size = nx
    if u_size < 1:
        raise DomainError("auxiliary alphabet needs at least one symbol")
    # a row of the result, padding rows included, is 1 + |X| numbers of at
    # most 121 bytes each at the report's peak (tracemalloc: 363 bytes a row
    # at |X| = 2, 456 at 3, 468 at 4)
    check_budget(128.0 * (nx + 1) * u_size, "secrecy bound rows |U|*(1+|X|)")
    wy, wz = instance.main.matrix, instance.eve.matrix
    value, p_u, p_xgu = 0.0, np.array([1.0]), np.full((1, nx), 1.0 / nx)
    if min(u_size, nx) > 1:
        if nx not in LATTICE_STEPS:
            raise CapacityError("the secrecy envelope supports at most "
                                f"{max(LATTICE_STEPS)} input letters")
        for cand_u, cand_rows in _decompositions(wy, wz, u_size):
            val = _secrecy_objective(cand_u, cand_rows, wy, wz)
            if val > value:
                value, p_u, p_xgu = val, cand_u, cand_rows
    pad = u_size - len(p_u)
    p_u = np.concatenate([p_u, np.zeros(pad)])
    p_xgu = np.vstack([p_xgu, np.full((pad, nx), 1.0 / nx)])
    return SecrecyBoundResult(value=max(0.0, value),
                              p_u=[float(v) for v in p_u],
                              p_x_given_u=[[float(v) for v in row] for row in p_xgu])
