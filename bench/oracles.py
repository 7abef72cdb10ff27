"""Independent checks of dmckit outputs, written with numpy only.

Nothing here imports dmckit: channel rows are rebuilt by Kronecker products
of the channel matrix, image sizes by exhaustive subset search, and the
secrecy bound by the lower convex envelope of F(P) = H(P W_Y) - H(P W_Z).
Every function takes the parsed JSON objects the benchmark wrote as inputs
and the report the program wrote as output.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: threshold slack of every ">= eta" test, the program's documented grid
ETA_TOL = 1e-12
#: agreement required between a reported and a recomputed real number
REAL_TOL = 1e-9
#: an optimizer value this far below the envelope maximum counts as failed
SECRECY_SHORTFALL = 1e-7
#: lattice of the envelope, and how many of its hull gaps are refined
ENVELOPE_GRID = 20000
ENVELOPE_TOP = 3


def digits(ids, n: int, base: int) -> np.ndarray:
    """Big-endian base-`base` digits of packed ids, shape (len(ids), n)."""
    ids = np.asarray(ids, dtype=np.int64)
    place = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (ids[:, None] // place[None, :]) % base


def kron_rows(matrix, ids, n: int) -> np.ndarray:
    """P(y^n | x^n) for every x in `ids`: the Kronecker product of the
    channel rows selected by the digits of x, first symbol most significant."""
    W = np.asarray(matrix, dtype=np.float64)
    d = digits(ids, n, W.shape[0])
    rows = W[d[:, 0]]
    for k in range(1, n):
        rows = (rows[:, :, None] * W[d[:, k]][:, None, :]).reshape(len(d), -1)
    return rows


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=np.float64).ravel()
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def mutual_information_bits(joint) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) of a joint probability matrix."""
    J = np.asarray(joint, dtype=np.float64)
    return entropy_bits(J.sum(axis=1)) + entropy_bits(J.sum(axis=0)) - entropy_bits(J)


# ---------------------------------------------------------------------------
# image-size --exact
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _subset_bits(m: int) -> np.ndarray:
    masks = np.arange(1, 1 << m, dtype=np.int64)
    return ((masks[:, None] >> np.arange(m)) & 1).astype(np.float64)


def exhaustive_min_image(rows: np.ndarray, eta: float) -> tuple[int, list[int]]:
    """(minimum eta-image size, lexicographically least minimum cover) by
    enumerating every nonempty set of output columns."""
    m = rows.shape[1]
    bits = _subset_bits(m)
    feasible = (bits @ rows.T >= eta - ETA_TOL).all(axis=1)
    sizes = bits.sum(axis=1)
    best = int(sizes[feasible].min())
    covers = bits[feasible & (sizes == best)].astype(bool)
    cols = np.arange(m)
    return best, min(cols[c].tolist() for c in covers)


def check_image_exact(channel: dict, set_obj: dict, eta: float,
                      report: dict) -> list[str]:
    """Problems with an `image-size --exact` report; empty when it is right."""
    rows = kron_rows(channel["rows"], set_obj["ids"], set_obj["n"])
    size, lex_min = exhaustive_min_image(rows, eta)
    witness = report["witness"]
    problems = []
    if not (report["exact"] and report["size_lower"] == report["size_upper"]
            == len(witness)):
        problems.append("exact report must have lower = upper = |witness|")
    if witness and float(rows[:, witness].sum(axis=1).min()) < eta - ETA_TOL:
        problems.append("witness misses eta on some row")
    if len(witness) != size:
        problems.append(f"witness size {len(witness)} != exhaustive minimum {size}")
    if witness != lex_min:
        problems.append(f"witness {witness} is not the lex-least cover {lex_min}")
    return problems


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def _covers_exactly(parts: list[list[int]], support: set) -> bool:
    flat = [i for p in parts for i in p]
    return len(flat) == len(set(flat)) == len(support) and set(flat) == support


def _cond_output(rows_of: dict, prob: dict, members) -> np.ndarray:
    w = np.array([prob[i] for i in members])
    return (w / w.sum()) @ np.stack([rows_of[i] for i in members])


def check_partition(channels: list[dict], dist: dict, messages: list[dict],
                    report: dict) -> list[str]:
    """Problems with a `partition` report, recomputed from the input files."""
    n = dist["n"]
    prob = {int(i): float(p) for i, p in dist["entries"]}
    support = set(prob)
    ids = sorted(support)
    label_of = [{i: c for c, cell in enumerate(m["cells"]) for i in cell}
                for m in messages]
    problems = []

    def message_of(i):
        """The label `partition` gives x: its cell, or the pair of cells."""
        labels = tuple(lab[i] for lab in label_of)
        return labels[0] if len(labels) == 1 else labels

    uni = report["uniformizing"]
    remainder = support - {i for c in uni["cells"] for i in c["members"]}
    if not _covers_exactly([c["members"] for c in uni["cells"]] + [sorted(remainder)],
                           support):
        problems.append("uniformizing cells overlap or leave the support")
    if abs(sum(prob[i] for i in remainder) - uni["remainder_mass"]) > REAL_TOL:
        problems.append(f"remainder mass {uni['remainder_mass']} != recomputed")
    for c in uni["cells"]:
        p = np.array([prob[i] for i in c["members"]])
        gamma_x = float(p.max() / p.min())
        mass: dict = {}
        for i in c["members"]:
            mass[message_of(i)] = mass.get(message_of(i), 0.0) + prob[i]
        gamma_m = max(mass.values()) / min(mass.values())
        if sorted(str(k) for k in mass) != sorted(c["messages"]):
            problems.append("uniformizing cell lists other messages than it holds")
        for name, got, bound, reported in (("x", gamma_x, c["gamma_x_bound"], c["gamma_x"]),
                                           ("m", gamma_m, c["gamma_m_bound"], c["gamma_m"])):
            if got > bound * (1.0 + REAL_TOL):
                problems.append(f"gamma_{name} {got} exceeds its bound {bound}")
            if abs(got - reported) > REAL_TOL * got:
                problems.append(f"gamma_{name} reported {reported}, recomputed {got}")

    eq = report["equal_image"]
    if not _covers_exactly([c["members"] for c in eq["cells"]], support):
        problems.append("equal-image cells do not partition the support")
    if not eq["within_cap"]:
        problems.append("equal-image iterations exceed the iteration cap")
    rows = [dict(zip(ids, kron_rows(ch["rows"], ids, n))) for ch in channels]
    for c in eq["cells"]:
        cell_mass = sum(prob[i] for i in c["members"])
        for rec in c["records"]:
            groups: dict = {}
            for i in c["members"]:
                groups.setdefault(tuple(label_of[j][i] for j in rec["subset"]),
                                  []).append(i)
            for k, rows_of in enumerate(rows):
                h = sum(sum(prob[i] for i in g) / cell_mass
                        * entropy_bits(_cond_output(rows_of, prob, g)) / n
                        for g in groups.values())
                if abs(h - rec["h_y_given_m"][k]) > REAL_TOL:
                    problems.append(f"h_y_given_m {rec['h_y_given_m'][k]} != "
                                    f"recomputed {h}")
    return problems


# ---------------------------------------------------------------------------
# fano-max / fano-avg
# ---------------------------------------------------------------------------

def success_probs(code: dict, channels: list[dict]) -> list[list[tuple[float, float]]]:
    """Per receiver, (joint mass, success probability) of every positive
    (message, codeword) pair, from the code file alone."""
    n = code["n"]
    if code.get("joint"):
        prior = {tuple(m): float(p) for m, p in code["joint"]}
    else:
        total = math.prod(code["message_sizes"])
        prior = {tuple(m): 1.0 / total for m, _ in code["encoder"]}
    out = []
    for dec, ch in zip(code["decoders"], channels):
        S = [j - 1 for j in dec["S"]]
        table = {int(y): {tuple(mS): float(p) for mS, p in row}
                 for y, row in dec["rows"]}
        per = []
        for m, enc_row in code["encoder"]:
            m_S = tuple(m[j] for j in S)
            decode = np.array([table[y].get(m_S, 0.0) for y in range(len(table))])
            for x, px in enc_row:
                row = kron_rows(ch["rows"], [x], n)[0]
                per.append((prior[tuple(m)] * px, float(row @ decode)))
        out.append(per)
    return out


def check_fano(code: dict, channels: list[dict], report: dict, criterion: str,
               identity: bool) -> list[str]:
    """Problems with a `fano-max` / `fano-avg` report."""
    problems = []
    succ = success_probs(code, channels)
    if criterion == "max":
        want = [min(s for _, s in per) for per in succ]
        got = report["details"]["alphas"]
        name = "alphas"
    else:
        want = [sum(w * (1.0 - s) for w, s in per) for per in succ]
        got = report["details"]["avg_errors"]
        name = "avg_errors"
    if len(got) != len(want) or any(abs(a - b) > REAL_TOL for a, b in zip(got, want)):
        problems.append(f"{name} {got} != recomputed {want}")
    for r in report["rows"]:
        if r["remainder"]:
            continue
        cap = min(r["h_rate_lower"], math.log2(channels[r["receiver"]]["output_size"]))
        if r["mi_rate"] > cap + REAL_TOL:
            problems.append(f"row {r['q']}: mi_rate {r['mi_rate']} > {cap}")
        if identity and r["cond_on"] is None and r["gap"] != 0.0:
            problems.append(f"identity code row {r['q']} has gap {r['gap']}")
    if identity and not any(not r["remainder"] and r["cond_on"] is None
                            for r in report["rows"]):
        problems.append("identity code report has no bound rows")
    return problems


# ---------------------------------------------------------------------------
# wiretap-bound
# ---------------------------------------------------------------------------

def _entropy_rows(P: np.ndarray) -> np.ndarray:
    logs = np.log2(np.where(P > 0.0, P, 1.0))
    return -(P * logs).sum(axis=-1)


def secrecy_F(q, wy, wz) -> np.ndarray:
    """F(q) = H(P W_Y) - H(P W_Z) for the binary input law P = (1 - q, q)."""
    q = np.asarray(q, dtype=np.float64)
    px = np.stack([1.0 - q, q], axis=-1)
    return _entropy_rows(px @ np.asarray(wy)) - _entropy_rows(px @ np.asarray(wz))


def _lower_hull(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of the lower convex hull of points sorted by x."""
    hull: list[int] = []
    for i in range(len(x)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (y[b] - y[a]) * (x[i] - x[a]) >= (y[i] - y[a]) * (x[b] - x[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def envelope_max(wy, wz) -> float:
    """max over q of F(q) - conv F(q): the single-letter secrecy value
    max I(U;Y) - I(U;Z) of a binary-input wiretap pair (Csiszar-Korner),
    since I(U;Y) - I(U;Z) = F(P_X) - sum_u P_U(u) F(P_X|U=u).

    The lower convex envelope comes from a 1/ENVELOPE_GRID lattice; for the
    ENVELOPE_TOP hull gaps with the most room, both tangent points are then refined by
    re-solving for the supporting line on shrinking local grids, and the
    peak of F above the chord by zooming in.  Every value returned is F at
    a point minus a chord between two points of F, so it is achievable.
    """
    def f(q):
        return secrecy_F(q, wy, wz)

    x = np.linspace(0.0, 1.0, ENVELOPE_GRID + 1)
    y = f(x)
    hull = _lower_hull(x, y)
    room = y - np.interp(x, x[hull], y[hull])
    gaps = []
    for k in np.argsort(-room)[: 4 * ENVELOPE_TOP]:
        g = int(np.searchsorted(hull, k))
        if room[k] > 0.0 and (hull[g - 1], hull[g]) not in gaps:
            gaps.append((hull[g - 1], hull[g]))
    best = 0.0
    h0 = 1.0 / ENVELOPE_GRID
    for ia, ib in gaps[:ENVELOPE_TOP]:
        a, b = x[ia], x[ib]
        h = 2.0 * h0
        for _ in range(5):
            s = (f(b) - f(a)) / (b - a)
            ga = np.linspace(max(0.0, a - h), min(1.0, a + h), 201)
            gb = np.linspace(max(0.0, b - h), min(1.0, b + h), 201)
            a = float(ga[np.argmin(f(ga) - s * ga)])
            b = float(gb[np.argmin(f(gb) - s * gb)])
            h /= 50.0
        if not b - a > 1e-12:
            continue
        fa, fb = float(f(a)), float(f(b))
        lo, hi = a, b
        for _ in range(5):
            g = np.linspace(lo, hi, 2001)
            d = f(g) - (fa + (fb - fa) * (g - a) / (b - a))
            k = int(np.argmax(d))
            step = (hi - lo) / 2000.0
            lo, hi = max(a, g[k] - step), min(b, g[k] + step)
        best = max(best, float(d[k]))
    return best


def secrecy_objective(p_u, p_x_given_u, wy, wz) -> float:
    """I(U;Y) - I(U;Z) of an auxiliary law, from the entropy identity."""
    p_ux = np.asarray(p_u)[:, None] * np.asarray(p_x_given_u)
    return (mutual_information_bits(p_ux @ np.asarray(wy))
            - mutual_information_bits(p_ux @ np.asarray(wz)))


def h2(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def check_wiretap(main: dict, eve: dict, report: dict,
                  bsc_pair: tuple[float, float] | None) -> tuple[list[str], bool]:
    """(problems, fell_short) for a `wiretap-bound` report.

    `fell_short` marks a value measurably below the envelope maximum: the
    optimizer stopped early, which the benchmark counts as a failed
    operation rather than a wrong one.
    """
    wy, wz = np.array(main["rows"]), np.array(eve["rows"])
    value = report["value"]
    best = envelope_max(wy, wz)
    problems = []
    if value > best + REAL_TOL:
        problems.append(f"value {value} exceeds the envelope maximum {best}")
    achieved = secrecy_objective(report["P_U"], report["P_X_given_U"], wy, wz)
    if abs(max(achieved, 0.0) - value) > REAL_TOL:
        problems.append(f"value {value} != I(U;Y)-I(U;Z) = {achieved} at its argmax")
    if bsc_pair is not None:
        p_main, p_eve = bsc_pair
        closed = max(0.0, h2(p_eve) - h2(p_main))
        if abs(value - closed) > REAL_TOL:
            problems.append(f"BSC pair value {value} != h(p_e) - h(p_m) = {closed}")
    return problems, value < best - SECRECY_SHORTFALL
