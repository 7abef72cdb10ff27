"""Randomized verification suite for the unconditional inequalities, shared
by the CLI `verify-lemmas` subcommand and the acceptance tests.

All randomness flows from one 64-bit seed through numpy's PCG64 stream, so a
run is reproducible from its config alone.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (Alphabet, Channel, SequenceDist, SequenceSet, check_budget,
                   entropy_bits, mutual_information, output_rows)
from .errors import DomainError
from .images import hamming_blowup, min_image_exact, min_quasi_image
from .partitioner import entropy_perturbation_bound
from .reports import SLACK, BoundReport
from .spectrum import (build_spectrum_partition, verify_bin_conditional_uniformity,
                       verify_bin_size_bounds, verify_uniform_entropy_bounds)

#: blocklength cap for checks that need the exact image solver
IMAGE_CHECK_N_CAP = 4


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def random_channel(rng, nx: int, ny: int, allow_zeros: bool = True) -> Channel:
    m = rng.uniform(0.05, 1.0, size=(nx, ny))
    if allow_zeros and rng.uniform() < 0.3:
        kill = rng.uniform(size=(nx, ny)) < 0.25
        keep_col = rng.integers(0, ny, size=nx)
        kill[np.arange(nx), keep_col] = False
        m[kill] = 0.0
    m /= m.sum(axis=1, keepdims=True)
    return Channel(Alphabet(nx), Alphabet(ny), m, name=f"rand{nx}x{ny}")


def random_subset(rng, n: int, base: int, max_size: int | None = None) -> SequenceSet:
    space = base ** n
    # drawing all of |X|^n and sorting the draw peaks at 24 bytes an id
    # (tracemalloc at n = 20)
    check_budget(24 * space, "random subset ids |X|^n")
    size = int(rng.integers(1, (max_size or space) + 1))
    ids = rng.choice(space, size=min(size, space), replace=False)
    return SequenceSet(n, base, ids)


def random_dist_on(rng, A: SequenceSet) -> SequenceDist:
    """Distribution with information densities spread over several bins."""
    w = np.exp(rng.uniform(0.0, 6.0, size=A.size))
    return SequenceDist(A.n, A.base, A.ids, w / w.sum())


def random_eta(rng) -> float:
    return float(rng.uniform(0.05, 0.95))


def _check_bins(rng, n: int, trials: int) -> tuple[BoundReport, BoundReport]:
    sizes = BoundReport("bin-size-bounds", details={"n": n, "trials": trials})
    unif = BoundReport("bin-conditional-uniformity", details={"n": n, "trials": trials})
    for t in range(trials):
        A = random_subset(rng, n, 2)
        dist = random_dist_on(rng, A)
        delta_n = float(rng.uniform(0.05, 0.9))
        delta = float(rng.uniform(0.1, 0.99))
        sp = build_spectrum_partition(dist, delta_n, delta)
        r1 = verify_bin_size_bounds(sp)
        r2 = verify_bin_conditional_uniformity(sp, dist)
        sizes.add(f"trial{t}", None, None, r1.passed)
        unif.add(f"trial{t}", None, None, r2.passed)
    return sizes, unif


def _check_gamma_entropy(rng, n: int, trials: int) -> BoundReport:
    rep = BoundReport("gamma-uniform-entropy", details={"n": n, "trials": trials})
    for t in range(trials):
        A = random_subset(rng, n, 2)
        dist = random_dist_on(rng, A)
        sub = random_subset(rng, n, 2)
        sub = sub.intersect(A)
        if sub.size == 0:
            sub = A
        rep.add(f"trial{t}", None, None,
                verify_uniform_entropy_bounds(dist, sub).passed)
    return rep


def _check_images(rng, n: int, trials: int) -> tuple[BoundReport, BoundReport, BoundReport]:
    """Domination (quasi <= image), eta-monotonicity, set-monotonicity."""
    nn = min(n, IMAGE_CHECK_N_CAP)
    dom = BoundReport("quasi-dominated-by-image", details={"n": nn, "trials": trials})
    mono_eta = BoundReport("monotone-in-eta", details={"n": nn, "trials": trials})
    mono_set = BoundReport("monotone-in-set", details={"n": nn, "trials": trials})
    for t in range(trials):
        base = 2
        ch = random_channel(rng, base, base)
        A = random_subset(rng, nn, base)
        eta1 = random_eta(rng)
        eta2 = float(min(0.99, eta1 + rng.uniform(0.01, 0.3)))
        g1 = min_image_exact(ch, A, eta1).lower
        g2 = min_image_exact(ch, A, eta2).lower
        q1 = min_quasi_image(ch, None, A, eta1).size
        q2 = min_quasi_image(ch, None, A, eta2).size
        dom.add(f"trial{t}", q1, g1, q1 <= g1)
        mono_eta.add(f"trial{t}", (q1, g1), (q2, g2), q1 <= q2 and g1 <= g2)
        if A.size > 1:
            keep = rng.choice(A.size, size=int(rng.integers(1, A.size)), replace=False)
            A_sub = SequenceSet(nn, base, A.ids[np.sort(keep)])
        else:
            A_sub = A
        g_sub = min_image_exact(ch, A_sub, eta1).lower
        mono_set.add(f"trial{t}", g_sub, g1, g_sub <= g1)
    return dom, mono_eta, mono_set


def _check_blowup(rng, n: int, trials: int) -> BoundReport:
    rep = BoundReport("blowup-composition", details={"n": n, "trials": trials})
    for t in range(trials):
        B = random_subset(rng, n, 2, max_size=max(2, 2 ** (n - 1)))
        l1 = int(rng.integers(0, n + 1))
        l2 = int(rng.integers(0, n + 1 - l1))
        lhs = hamming_blowup(hamming_blowup(B, l1), l2)
        rhs = hamming_blowup(B, l1 + l2)
        grew = hamming_blowup(B, l1).size >= B.size
        rep.add(f"trial{t}", lhs.size, rhs.size,
                bool(np.array_equal(lhs.ids, rhs.ids)) and grew)
    return rep


def _check_perturbation(rng, n: int, trials: int) -> BoundReport:
    rep = BoundReport("entropy-perturbation", details={"n": n, "trials": trials})
    for t in range(trials):
        card = int(rng.integers(2, 9))
        joint = rng.uniform(0.01, 1.0, size=(card, 2))
        joint /= joint.sum()
        p1 = float(joint[:, 1].sum())
        h_e = entropy_bits(joint.sum(axis=1))
        h_e_given = entropy_bits(joint[:, 1] / p1)
        res = entropy_perturbation_bound(h_e, h_e_given, p1, math.log2(card))
        rep.add(f"trial{t}", None, None, res.passed)
    return rep


def _check_data_processing(rng, n: int, trials: int) -> BoundReport:
    rep = BoundReport("data-processing-sanity", details={"n": n, "trials": trials})
    nn = min(n, 4)
    for t in range(trials):
        base = 2
        ch = random_channel(rng, base, base)
        A = random_subset(rng, nn, base, max_size=min(8, base ** nn))
        n_msgs = int(rng.integers(1, 5))
        joint_mx = rng.uniform(0.01, 1.0, size=(n_msgs, A.size))
        joint_mx /= joint_mx.sum()
        rows = output_rows(ch, A)
        joint_my = joint_mx @ rows
        p_x = joint_mx.sum(axis=0)
        joint_xy = p_x[:, None] * rows
        i_my = mutual_information(joint_my)
        i_xy = mutual_information(joint_xy)
        h_m = entropy_bits(joint_mx.sum(axis=1))
        ok = (i_my <= i_xy + SLACK and i_my <= h_m + SLACK
              and i_my <= nn * math.log2(ch.output.size) + SLACK)
        rep.add(f"trial{t}", i_my, min(i_xy, h_m), ok)
    return rep


def run_lemma_suite(seed: int, trials: int, n: int) -> list[BoundReport]:
    """All unconditional checks, `trials` randomized instances each."""
    if n < 2 or seed < 0 or trials < 1:
        raise DomainError("lemma suite needs n >= 2, seed >= 0 and trials >= 1")
    rng = rng_from_seed(seed)
    sizes, unif = _check_bins(rng, n, trials)
    gamma = _check_gamma_entropy(rng, n, trials)
    dom, mono_eta, mono_set = _check_images(rng, n, trials)
    blow = _check_blowup(rng, n, trials)
    pert = _check_perturbation(rng, n, trials)
    dps = _check_data_processing(rng, n, trials)
    return [sizes, unif, gamma, dom, mono_eta, mono_set, blow, pert, dps]
