"""A multi-start projected-gradient ascent for the single-letter secrecy
bound, kept as an oracle independent of the lower-convex-envelope method of
`dmckit.wiretap`.

`ascent_secrecy_bound(wy, wz, u_size)` maximizes I(U;Y) - I(U;Z) over P_U
and P_X|U for every |U| <= u_size and returns the best value, floored at 0.
Initializers come from the full 1/grid lattice when it is small enough (top
`starts` points), otherwise from seeded grid-snapped random draws; each is
refined by projected gradient ascent with finite differences.
"""

import numpy as np

from dmckit.wiretap import _secrecy_objective


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    cond = u - css / ind > 0
    rho = int(ind[cond][-1])
    theta = css[cond][-1] / rho
    return np.maximum(v - theta, 0.0)


def _simplex_grid_points(dim: int, G: int) -> list[tuple[float, ...]]:
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining / G,))
            return
        for take in range(remaining + 1):
            rec(prefix + (take / G,), remaining - take, slots - 1)

    rec((), G, dim)
    return out


def _ascend(theta: np.ndarray, blocks: list[tuple[int, int]], f,
            fd_step: float = 1e-6, tol: float = 1e-10,
            max_iters: int = 300) -> tuple[float, np.ndarray]:
    """Projected gradient ascent with finite differences and step halving."""

    def project_all(vec):
        out = vec.copy()
        for lo, hi in blocks:
            out[lo:hi] = project_simplex(out[lo:hi])
        return out

    theta = project_all(theta)
    val = f(theta)
    for _ in range(max_iters):
        grad = np.zeros_like(theta)
        for i in range(theta.size):
            up = theta.copy()
            dn = theta.copy()
            up[i] += fd_step
            dn[i] -= fd_step
            grad[i] = (f(project_all(up)) - f(project_all(dn))) / (2 * fd_step)
        step = 0.25
        improved = False
        while step >= 1e-12:
            cand = project_all(theta + step * grad)
            cand_val = f(cand)
            if cand_val > val + tol:
                theta, val = cand, cand_val
                improved = True
                break
            step /= 2.0
        if not improved:
            break
    return val, theta


def _best_for_size(u, nx, wy, wz, starts, grid, seed, grid_cap):
    blocks = [(0, u)]
    for i in range(u):
        blocks.append((u + i * nx, u + (i + 1) * nx))

    def f(theta):
        return _secrecy_objective(theta[:u], theta[u:].reshape(u, nx), wy, wz)

    def pack(p_u, rows):
        return np.concatenate([np.asarray(p_u, dtype=np.float64),
                               np.asarray(rows, dtype=np.float64).ravel()])

    u_points = _simplex_grid_points(u, grid)
    x_points = _simplex_grid_points(nx, grid)
    total = len(u_points) * len(x_points) ** u

    candidates: list[np.ndarray] = []
    if total <= grid_cap:
        scored = []
        idx = 0

        def rec(rows_so_far, depth):
            nonlocal idx
            if depth == u:
                for pu in u_points:
                    theta = pack(pu, rows_so_far)
                    scored.append((f(theta), idx, theta))
                    idx += 1
                return
            for row in x_points:
                rec(rows_so_far + [row], depth + 1)

        rec([], 0)
        scored.sort(key=lambda t: (-t[0], t[1]))
        candidates = [t[2] for t in scored[:starts]]
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(starts):
            pu = rng.dirichlet(np.ones(u))
            rows = rng.dirichlet(np.ones(nx), size=u)
            pu = np.round(pu * grid) / grid
            rows = np.round(rows * grid) / grid
            pu = project_simplex(pu)
            rows = np.vstack([project_simplex(r) for r in rows])
            candidates.append(pack(pu, rows))
    # canonical starts: uniform-over-everything and an identity-like embedding
    pu0 = np.full(u, 1.0 / u)
    rows0 = np.zeros((u, nx))
    for i in range(u):
        rows0[i, i % nx] = 1.0
    candidates.append(pack(pu0, rows0))
    candidates.append(pack(pu0, np.full((u, nx), 1.0 / nx)))

    results = [_ascend(c, blocks, f) for c in candidates]
    return max(val for val, _ in results)


def ascent_secrecy_bound(wy, wz, u_size: int, *, starts: int = 32,
                         grid: int = 20, seed: int = 0,
                         grid_cap: int = 200_000) -> float:
    nx = wy.shape[0]
    best = max(_best_for_size(u, nx, wy, wz, starts, grid, seed, grid_cap)
               for u in range(1, u_size + 1))
    return max(0.0, best)
