import numpy as np

from dmckit.core import SequenceDist, SequenceSet


def uniform_on_ids(n, base, ids):
    return SequenceDist.uniform_on(SequenceSet.from_ids(n, base, ids))


def exhaustive_min_quasi_size(out_dist, eta, tol=1e-12):
    """Brute-force minimum eta-quasi-image size over all nonempty subsets."""
    m = out_dist.base ** out_dist.n
    dense = np.zeros(m)
    for i, p in out_dist.items():
        dense[i] = p
    best = m + 1
    for mask in range(1, 1 << m):
        bits = [(mask >> j) & 1 for j in range(m)]
        mass = float(np.dot(bits, dense))
        if mass >= eta - tol:
            best = min(best, sum(bits))
    return best


def exhaustive_min_image(rows, eta, tol=1e-12):
    """(minimum eta-image size, lexicographically least minimum cover) by
    brute force over all nonempty subsets, vectorized; (m + 1, None) when no
    subset reaches eta on every row."""
    n_rows, m = rows.shape
    subsets = np.arange(1, 1 << m, dtype=np.int64)
    bits = ((subsets[:, None] >> np.arange(m)) & 1).astype(np.float64)
    masses = bits @ rows.T
    feasible = (masses >= eta - tol).all(axis=1)
    if not feasible.any():
        return m + 1, None
    sizes = bits.sum(axis=1)
    best = int(sizes[feasible].min())
    covers = bits[feasible & (sizes == best)]
    return best, min(np.flatnonzero(c).tolist() for c in covers)
