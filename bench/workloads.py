"""Seeded input corpora for the benchmark's four workloads.

Each workload function writes its input files into a directory and returns
its jobs.  A job is one `dmckit` CLI call; its `check` recomputes the report
with `oracles` and returns (problems, fell_short).  The same seed always gives
the same files.  Every corpus is stratified: the strata (sizes, blocklengths,
settings, and for three workloads the instance shapes) are fixed and the seed
draws the instance inside each stratum, so two seeds give corpora of the same
make-up and nearly the same cost.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

#: the optimizer fault kept in the wiretap corpus: at the defaults and at
#: every smaller --starts/--grid tried, this pair ends measurably below the
#: envelope maximum 0.0048458923
SHORTFALL_PAIR = ([[0.8443, 0.1557], [0.3233, 0.6767]],
                  [[0.8514, 0.1486], [0.3385, 0.6615]])


@dataclass
class Job:
    name: str
    argv: list[str]
    out: str
    check: Callable[[dict], tuple[list[str], bool]]
    #: (loader, path, dist path for message files) for the set-up probe
    loads: list[tuple[str, str, str | None]] = field(default_factory=list)


class Corpus:
    def __init__(self, workdir: str):
        self.dir = workdir
        self.jobs: list[Job] = []

    def write(self, name: str, obj) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.dir, name + ".out.json")


def channel_obj(name: str, rows) -> dict:
    rows = np.asarray(rows, dtype=np.float64)
    return {"name": name, "input_size": rows.shape[0],
            "output_size": rows.shape[1], "rows": rows.tolist()}


def bsc_rows(p: float) -> list[list[float]]:
    return [[1.0 - p, p], [p, 1.0 - p]]


def random_rows(rng, nx: int, ny: int) -> np.ndarray:
    """Row-stochastic matrix; a third of them with some exact zeros."""
    m = rng.uniform(0.05, 1.0, size=(nx, ny))
    if rng.uniform() < 1 / 3:
        kill = rng.uniform(size=(nx, ny)) < 0.25
        kill[np.arange(nx), rng.integers(0, ny, size=nx)] = False
        m[kill] = 0.0
    return m / m.sum(axis=1, keepdims=True)


def strata(rng, k: int, lo: float, hi: float) -> np.ndarray:
    """k values, one uniform draw inside each of k equal slices of
    [lo, hi), in random order (a Latin-hypercube column)."""
    return rng.permutation(lo + (hi - lo) * (np.arange(k) + rng.uniform(size=k)) / k)


# ---------------------------------------------------------------------------
# image-exact: the branch-and-bound and its lex-witness pass
# ---------------------------------------------------------------------------

#: (input size, output size, n): 16, 9 and 16 output columns
IMAGE_SHAPES = ((2, 2, 4), (3, 3, 2), (4, 4, 2))
IMAGE_JOBS_PER_SHAPE = 240


def image_exact(rng, workdir: str) -> list[Job]:
    c = Corpus(workdir)
    for nx, ny, n in IMAGE_SHAPES:
        space = nx ** n
        sizes = np.floor(strata(rng, IMAGE_JOBS_PER_SHAPE, 2, space + 1)).astype(int)
        etas = strata(rng, IMAGE_JOBS_PER_SHAPE, 0.05, 0.99)
        for i in range(IMAGE_JOBS_PER_SHAPE):
            tag = f"img{nx}{ny}{n}_{i}"
            ch = channel_obj(tag, random_rows(rng, nx, ny))
            ids = sorted(int(v) for v in rng.choice(space, sizes[i], replace=False))
            set_obj = {"n": n, "alphabet_size": nx, "ids": ids}
            eta = float(etas[i])
            ch_path = c.write(tag + ".ch.json", ch)
            set_path = c.write(tag + ".set.json", set_obj)
            out = c.out(tag)
            c.jobs.append(Job(
                name=tag,
                argv=["image-size", "--channel", ch_path, "--set", set_path,
                      "--eta", repr(eta), "--exact", "--out", out],
                out=out,
                check=lambda rep, ch=ch, s=set_obj, eta=eta:
                    (oracles.check_image_exact(ch, s, eta, rep), False),
                loads=[("channel", ch_path, None), ("set", set_path, None)]))
    return c.jobs


# ---------------------------------------------------------------------------
# partition-scale: product-channel kernel, greedy cover, spectrum slicing
# ---------------------------------------------------------------------------

#: (n, |A|, channels, message indices, copies per round).  Nine jobs run
#: faster and nine slower than the four n = 9, |A| = 128 ones, whose time
#: barely moves with the seed, so the median job is always one of those
PARTITION_STRATA = (
    (8, 64, 1, 1, 2), (8, 128, 1, 1, 2), (8, 64, 2, 1, 2), (9, 64, 1, 1, 3),
    (9, 128, 1, 1, 4),
    (8, 96, 1, 2, 2), (8, 128, 2, 1, 2), (9, 64, 2, 1, 2), (10, 64, 1, 1, 2),
    (9, 64, 1, 2, 1),
)
#: the support of each job is fixed (drawn once from this seed); --seed
#: places the densities on it and draws the message labels, so the cost of
#: a job, which follows the support's Hamming geometry, stays put
PARTITION_SHAPE_SEED = 20151203


def partition_scale(rng, workdir: str) -> list[Job]:
    c = Corpus(workdir)
    shapes = np.random.default_rng(PARTITION_SHAPE_SEED)
    channels = [channel_obj(f"bsc({p})", bsc_rows(p)) for p in (0.1, 0.2)]
    ch_paths = [c.write(f"bsc{p}.json", ch) for p, ch in zip((0.1, 0.2), channels)]
    for n, size, n_ch, J, copies in PARTITION_STRATA:
        for copy in range(copies):
            tag = f"part{n}_{size}_{n_ch}{J}_{copy}"
            ids = np.sort(shapes.choice(2 ** n, size, replace=False))
            # the same spread of densities every time, placed at random
            w = rng.permutation(np.exp(np.linspace(0.0, 3.0, size)))
            dist = {"n": n, "alphabet_size": 2,
                    "entries": [[int(i), float(p)] for i, p in zip(ids, w / w.sum())]}
            dist_path = c.write(tag + ".dist.json", dist)
            argv = ["partition"]
            loads = []
            for path in ch_paths[:n_ch]:
                argv += ["--channel", path]
                loads.append(("channel", path, None))
            argv += ["--dist", dist_path]
            loads.append(("dist", dist_path, None))
            msgs = []
            for j in range(J):
                labels = rng.permutation(np.arange(size) % (2 + j))
                msg = {"n": n, "alphabet_size": 2,
                       "cells": [[int(i) for i in ids[labels == k]]
                                 for k in range(2 + j)]}
                path = c.write(f"{tag}.msg{j}.json", msg)
                msgs.append(msg)
                argv += ["--messages", path]
                loads.append(("message_index", path, dist_path))
            out = c.out(tag)
            c.jobs.append(Job(
                name=tag, argv=argv + ["--out", out], out=out,
                check=lambda rep, ch=channels[:n_ch], d=dist, m=msgs:
                    (oracles.check_partition(ch, d, m, rep), False),
                loads=loads))
    return c.jobs


# ---------------------------------------------------------------------------
# fano-reports: many small partition/image calls, decoding sets, assembly
# ---------------------------------------------------------------------------

#: (n, receivers, stochastic encoder); each stratum runs fano-max and fano-avg
FANO_STRATA = tuple((n, r, s) for n in (3, 4, 5, 6, 7) for r in (1, 2)
                    for s in (False, True))
FANO_COPIES = 2
#: identity codes on the whole binary space, expected to give zero gaps
FANO_IDENTITY_N = (2, 3)
#: crossover probability of each receiver's BSC, moved by up to FANO_JITTER
FANO_CROSSOVER = (0.05, 0.15)
FANO_JITTER = 0.01
#: each stratum's codeword set and which messages get two codewords are
#: fixed (drawn once from this seed); --seed draws the prior placement, the
#: message-to-codeword assignment, the encoder weights and the crossovers,
#: so report sizes, and with them job times, stay put from seed to seed
FANO_SHAPE_SEED = 20151204


def _nearest_codeword_decoder(rows: np.ndarray, codewords: list[int],
                              message_of: dict, S: list[int]) -> list:
    """Decode every output word to the message of its most likely
    codeword (ties to the smallest id), projected onto S."""
    best = np.argmax(rows, axis=0)  # rows: codewords x outputs
    return [[y, [[[message_of[codewords[b]][j] for j in S], 1.0]]]
            for y, b in enumerate(best.tolist())]


def _code_obj(shapes, rng, n: int, receivers: int, stochastic: bool,
              channels: list[dict]) -> dict:
    if receivers == 1:
        sizes = [2 ** ((n + 1) // 2)]
        scopes = [[0]]
    else:
        sizes = [2, 2 ** (n // 3)]
        scopes = [[0, 1], [1]]
    support = [tuple(int(v) for v in np.unravel_index(i, sizes))
               for i in range(int(np.prod(sizes)))]
    per_message = shapes.permutation(
        [2 if stochastic and i % 2 else 1 for i in range(len(support))])
    pool = rng.permutation(shapes.choice(2 ** n, sum(per_message), replace=False)).tolist()
    prior = rng.permutation(np.exp(np.linspace(0.0, 1.5, len(support))))
    prior /= prior.sum()
    encoder, message_of = [], {}
    for m, k in zip(support, per_message):
        xs = [int(pool.pop()) for _ in range(k)]
        q = float(rng.uniform(0.3, 0.7))
        probs = [1.0] if k == 1 else [q, 1.0 - q]
        encoder.append([list(m), [[x, p] for x, p in zip(xs, probs)]])
        for x in xs:
            message_of[x] = m
    codewords = sorted(message_of)
    decoders = []
    for ch, S in zip(channels, scopes):
        rows = oracles.kron_rows(ch["rows"], codewords, n)
        decoders.append({"S": [j + 1 for j in S], "output_size": ch["output_size"],
                         "rows": _nearest_codeword_decoder(rows, codewords,
                                                           message_of, S)})
    return {"J": len(sizes), "message_sizes": sizes, "n": n, "alphabet_size": 2,
            "joint": [[list(m), float(p)] for m, p in zip(support, prior)],
            "encoder": encoder, "decoders": decoders}


def _identity_code(n: int) -> dict:
    words = list(range(2 ** n))
    return {"J": 1, "message_sizes": [2 ** n], "n": n, "alphabet_size": 2,
            "encoder": [[[x], [[x, 1.0]]] for x in words],
            "decoders": [{"S": [1], "rows": [[y, [[[y], 1.0]]] for y in words]}]}


def fano_reports(rng, workdir: str) -> list[Job]:
    c = Corpus(workdir)
    shapes = np.random.default_rng(FANO_SHAPE_SEED)
    specs = []
    for i, (n, receivers, stochastic) in enumerate(FANO_STRATA * FANO_COPIES):
        ps = np.array(FANO_CROSSOVER[:receivers]) + rng.uniform(
            -FANO_JITTER, FANO_JITTER, size=receivers)
        channels = [channel_obj(f"bsc({p:.4f})", bsc_rows(float(p))) for p in ps]
        specs.append((f"fano{n}_{receivers}{int(stochastic)}_{i}",
                      _code_obj(shapes, rng, n, receivers, stochastic, channels),
                      channels, False))
    for n in FANO_IDENTITY_N:
        specs.append((f"fano_id{n}", _identity_code(n),
                      [channel_obj("identity", np.eye(2))], True))
    for tag, code, channels, identity in specs:
        code_path = c.write(tag + ".code.json", code)
        ch_paths = [c.write(f"{tag}.ch{k}.json", ch) for k, ch in enumerate(channels)]
        for criterion in ("max", "avg"):
            out = c.out(f"{tag}.{criterion}")
            argv = [f"fano-{criterion}", "--code", code_path]
            for p in ch_paths:
                argv += ["--channel", p]
            c.jobs.append(Job(
                name=f"{tag}.{criterion}", argv=argv + ["--out", out], out=out,
                check=lambda rep, code=code, chs=channels, crit=criterion, ident=identity:
                    (oracles.check_fano(code, chs, rep, crit, ident), False),
                loads=[("code", code_path, None)]
                + [("channel", p, None) for p in ch_paths]))
    return c.jobs


# ---------------------------------------------------------------------------
# wiretap-bound: the secrecy optimizer alone
# ---------------------------------------------------------------------------

#: (--starts, --grid) cycled over the pairs, all below the defaults (32, 20)
WIRETAP_SETTINGS = ((1, 4), (2, 3), (2, 4), (1, 6))
WIRETAP_BSC_PAIRS = 8
WIRETAP_DEGRADED_PAIRS = 12
#: the optimizer's run time swings 10x between nearby-looking pairs, so the
#: pair shapes are fixed (drawn once from this seed) and --seed only moves
#: each crossover probability by up to WIRETAP_JITTER
WIRETAP_SHAPE_SEED = 20151202
WIRETAP_JITTER = 0.005


def wiretap_bound(rng, workdir: str) -> list[Job]:
    c = Corpus(workdir)
    shapes = np.random.default_rng(WIRETAP_SHAPE_SEED)

    def jitter(k):
        return rng.uniform(-WIRETAP_JITTER, WIRETAP_JITTER, size=k)

    pairs = []
    p_main = strata(shapes, WIRETAP_BSC_PAIRS, 0.02, 0.3) + jitter(WIRETAP_BSC_PAIRS)
    for i, pm in enumerate(p_main):
        # even i: eve noisier (value h(pe) - h(pm)); odd i: eve better (value 0)
        pe = pm + shapes.uniform(0.02, 0.2) if i % 2 == 0 else pm * shapes.uniform(0.1, 0.9)
        pm, pe = float(pm), float(min(pe, 0.49))
        pairs.append((f"wt_bsc{i}", bsc_rows(pm), bsc_rows(pe), (pm, pe)))
    for i in range(WIRETAP_DEGRADED_PAIRS):
        a, b, c1, d1 = np.array([*shapes.uniform(0.02, 0.45, size=2),
                                 *shapes.uniform(0.02, 0.4, size=2)]) + jitter(4)
        main = np.array([[1 - a, a], [b, 1 - b]])
        eve = main @ np.array([[1 - c1, c1], [d1, 1 - d1]])
        pairs.append((f"wt_deg{i}", main, eve, None))
    pairs.append(("wt_shortfall", *SHORTFALL_PAIR, None))
    for i, (tag, main, eve, bsc_pair) in enumerate(pairs):
        starts, grid = WIRETAP_SETTINGS[i % len(WIRETAP_SETTINGS)]
        main_obj, eve_obj = channel_obj(tag + "_main", main), channel_obj(tag + "_eve", eve)
        main_path = c.write(tag + ".main.json", main_obj)
        eve_path = c.write(tag + ".eve.json", eve_obj)
        out = c.out(tag)
        c.jobs.append(Job(
            name=tag,
            argv=["wiretap-bound", "--main", main_path, "--eve", eve_path,
                  "--usize", "2", "--starts", str(starts), "--grid", str(grid),
                  "--out", out],
            out=out,
            check=lambda rep, m=main_obj, e=eve_obj, b=bsc_pair:
                oracles.check_wiretap(m, e, rep, b),
            loads=[("channel", main_path, None), ("channel", eve_path, None)]))
    return c.jobs


WORKLOADS = {
    "image-exact": image_exact,
    "partition-scale": partition_scale,
    "fano-reports": fano_reports,
    "wiretap-bound": wiretap_bound,
}
