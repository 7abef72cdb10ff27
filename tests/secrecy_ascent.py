"""A multi-start projected-gradient ascent for the single-letter secrecy
bound, kept as an oracle independent of the lower-convex-envelope method of
`dmckit.wiretap`.

`ascent_secrecy_bound(wy, wz, u_size)` maximizes I(U;Y) - I(U;Z) over P_U
and P_X|U for every |U| <= u_size and returns the best value, floored at 0.
Initializers come from the full 1/grid lattice when it is small enough (top
`starts` points), otherwise from seeded grid-snapped random draws; each is
refined by projected gradient ascent with finite differences.

Points are packed as theta = (P_U, P_X|U row by row).  The objective and the
projection take one point per row, and every start of one |U| ascends in
step: per iteration, one objective call scores the finite-difference
perturbations of all active starts and one more scores every step length of
their line searches; the lattice starts are scored in one call too.
`fd_gradient_loop`, one objective call per coordinate, is kept to check the
batched gradient.
"""

import itertools

import numpy as np

from dmckit.wiretap import _secrecy_objective

#: the line search's step lengths: 0.25, halved while at least 1e-12
LINE_STEPS = 0.25 * 0.5 ** np.arange(38)


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


def project_rows(v: np.ndarray) -> np.ndarray:
    """`project_simplex` of each row of `v`, with the same operations."""
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ind = np.arange(1, v.shape[1] + 1)
    cond = u - css / ind > 0
    rho = v.shape[1] - np.argmax(cond[:, ::-1], axis=1)  # last true, from 1
    theta = css[np.arange(len(v)), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def _mutual_information_rows(joint: np.ndarray) -> np.ndarray:
    """`core.mutual_information` of each joint matrix along the first axis."""
    pm = joint.sum(axis=2)
    qm = joint.sum(axis=1)
    denom = pm[:, :, None] * qm[:, None, :]
    pos = joint > 0.0
    vals = np.zeros_like(joint)
    vals[pos] = joint[pos] * (np.log2(joint[pos]) - np.log2(denom[pos]))
    return np.maximum(0.0, vals.sum(axis=(1, 2)))


def _problem(u, nx, wy, wz):
    """(objective, projection) of a batch of packed points, one per row."""

    def f(thetas):
        p_ux = thetas[:, :u, None] * thetas[:, u:].reshape(-1, u, nx)
        return (_mutual_information_rows(p_ux @ wy)
                - _mutual_information_rows(p_ux @ wz))

    def project(thetas):
        out = np.empty_like(thetas)
        out[:, :u] = project_rows(thetas[:, :u])
        out[:, u:] = project_rows(thetas[:, u:].reshape(-1, nx)).reshape(len(thetas), -1)
        return out

    return f, project


def fd_gradient(thetas: np.ndarray, f, project, fd_step: float) -> np.ndarray:
    """Central differences of f after projection at each row of `thetas`,
    all in one call."""
    count, dim = thetas.shape
    diag = np.arange(dim)
    moved = np.repeat(thetas[:, None, :], 2 * dim, axis=1)
    moved[:, diag, diag] += fd_step
    moved[:, dim + diag, diag] -= fd_step
    vals = f(project(moved.reshape(-1, dim))).reshape(count, 2 * dim)
    return (vals[:, :dim] - vals[:, dim:]) / (2 * fd_step)


def fd_gradient_loop(theta: np.ndarray, u: int, nx: int, wy, wz,
                     fd_step: float) -> np.ndarray:
    """`fd_gradient` at one point, one coordinate and one objective call at
    a time."""

    def f(th):
        return _secrecy_objective(th[:u], th[u:].reshape(u, nx), wy, wz)

    def project_all(vec):
        out = vec.copy()
        for lo, hi in [(0, u)] + [(u + i * nx, u + (i + 1) * nx) for i in range(u)]:
            out[lo:hi] = project_simplex(out[lo:hi])
        return out

    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += fd_step
        dn[i] -= fd_step
        grad[i] = (f(project_all(up)) - f(project_all(dn))) / (2 * fd_step)
    return grad


def _ascend(thetas: np.ndarray, f, project, fd_step: float = 1e-6,
            tol: float = 1e-10, max_iters: int = 300) -> np.ndarray:
    """Projected gradient ascent with finite differences and step halving
    from each row of `thetas`, all rows in step: each iteration moves a row
    by the longest step of LINE_STEPS that gains more than tol, and a row
    stops where none does.  Returns the final values."""
    thetas = project(thetas)
    vals = f(thetas)
    active = np.arange(len(thetas))
    dim, n_steps = thetas.shape[1], len(LINE_STEPS)
    for _ in range(max_iters):
        if not active.size:
            break
        grads = fd_gradient(thetas[active], f, project, fd_step)
        cands = project((thetas[active, None, :] + LINE_STEPS[:, None]
                         * grads[:, None, :]).reshape(-1, dim))
        cand_vals = f(cands)
        gains = cand_vals.reshape(-1, n_steps) > vals[active, None] + tol
        moved = gains.any(axis=1)
        picks = np.flatnonzero(moved) * n_steps + gains[moved].argmax(axis=1)
        active = active[moved]
        thetas[active] = cands[picks]
        vals[active] = cand_vals[picks]
    return vals


def _best_for_size(u, nx, wy, wz, starts, grid, seed, grid_cap):
    f, project = _problem(u, nx, wy, wz)

    def pack(p_u, rows):
        return np.concatenate([np.asarray(p_u, dtype=np.float64),
                               np.asarray(rows, dtype=np.float64).ravel()])

    u_points = _simplex_grid_points(u, grid)
    x_points = _simplex_grid_points(nx, grid)
    total = len(u_points) * len(x_points) ** u

    candidates: list[np.ndarray] = []
    if total <= grid_cap:
        # every row combination, first row outermost, then every P_U
        lattice = np.array([pack(pu, rows)
                            for rows in itertools.product(x_points, repeat=u)
                            for pu in u_points])
        # best first, ties to the earlier lattice point
        order = np.argsort(-f(lattice), kind="stable")
        candidates = list(lattice[order[:starts]])
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

    return _ascend(np.array(candidates), f, project).max()


def ascent_secrecy_bound(wy, wz, u_size: int, *, starts: int = 32,
                         grid: int = 20, seed: int = 0,
                         grid_cap: int = 200_000) -> float:
    nx = wy.shape[0]
    best = max(_best_for_size(u, nx, wy, wz, starts, grid, seed, grid_cap)
               for u in range(1, u_size + 1))
    return max(0.0, best)
