"""Command-line front end: spectrum | image-size | partition | fano-max |
fano-avg | wiretap-bound | verify-lemmas.

Exit codes: 0 success, 2 validation error, 3 capacity error, 4 invariant
failure.  Reports are byte-identical across runs with the same config and
seed; the optional run record (timestamps) goes to a side file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .core import Channel, SequenceDist, SequenceSet, check_budget
from .errors import (CapacityError, InvariantError, ToolkitError,
                     ValidationError)
from .fano import Code, Decoder, MessageSpace, strong_fano_avg, strong_fano_max
from .images import min_image_bracket, min_image_exact
from .partitioner import build_equal_image_partition, build_uniformizing_partition
from .reports import csv_text, json_text
from .spectrum import (PartitioningIndex, build_spectrum_partition,
                       product_index)
from .verify import run_lemma_suite
from .wiretap import WiretapInstance, secrecy_bound_single_letter


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def load_channel(path: str) -> Channel:
    return Channel.from_json_obj(_load_json(path))


def load_dist(path: str) -> SequenceDist:
    return SequenceDist.from_json_obj(_load_json(path))


def load_set(path: str) -> SequenceSet:
    obj = _load_json(path)
    try:
        return SequenceSet.from_ids(int(obj["n"]), int(obj["alphabet_size"]),
                                    obj["ids"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed set file {path}: {exc}") from exc


def load_message_index(path: str, ground: SequenceSet) -> PartitioningIndex:
    obj = _load_json(path)
    try:
        cells = {i: SequenceSet.from_ids(ground.n, ground.base, ids)
                 for i, ids in enumerate(obj["cells"])}
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed message file {path}: {exc}") from exc
    return PartitioningIndex(ground, cells)


def load_code(path: str) -> Code:
    obj = _load_json(path)
    try:
        sizes = [int(s) for s in obj["message_sizes"]]
        n = int(obj["n"])
        base = int(obj["alphabet_size"])
        encoder = tuple(
            (tuple(int(v) for v in entry[0]),
             tuple((int(x), float(p)) for x, p in entry[1]))
            for entry in obj["encoder"])
        if "joint" in obj and obj["joint"] is not None:
            support = tuple(tuple(int(v) for v in e[0]) for e in obj["joint"])
            probs = tuple(float(e[1]) for e in obj["joint"])
            order = sorted(range(len(support)), key=lambda i: support[i])
            messages = MessageSpace(tuple(sizes),
                                    tuple(support[i] for i in order),
                                    tuple(probs[i] for i in order))
        elif math.prod(sizes) != len(dict(encoder)):
            # checked before the prod(sizes) uniform tuples are built
            raise ValidationError("encoder must cover exactly the message support")
        else:
            messages = MessageSpace.uniform(sizes)
        decoders = []
        for dobj in obj["decoders"]:
            S = tuple(sorted(int(j) - 1 for j in dobj["S"]))
            rows_raw = {int(y): row for y, row in dobj["rows"]}
            out_size = int(dobj.get("output_size", base))
            space = out_size ** n
            m_values = tuple(sorted({tuple(int(v) for v in m)
                                     for row in rows_raw.values()
                                     for m, _ in row}))
            col = {m: i for i, m in enumerate(m_values)}
            check_budget(8 * space * len(m_values), "decoder table |Y|^n*|M_S|")
            table = np.zeros((space, len(m_values)))
            for y in range(space):
                if y not in rows_raw:
                    raise ValidationError(f"decoder missing row for output {y}")
                for m, p in rows_raw[y]:
                    table[y, col[tuple(int(v) for v in m)]] = float(p)
            decoders.append(Decoder(S=S, m_values=m_values, table=table))
        return Code(messages=messages, n=n, base=base, encoder=encoder,
                    decoders=tuple(decoders))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValidationError(f"malformed code file {path}: {exc}") from exc


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_record(args, started: float, passed: bool):
    if not getattr(args, "record", False) or not getattr(args, "out", None):
        return
    record = {
        "tool_version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in {"func", "record"}},
        "started_unix": started,
        "finished_unix": time.time(),
        "passed": passed,
    }
    with open(args.out + ".run.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=1, sort_keys=True, default=str))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    dist = load_dist(args.dist)
    sp = build_spectrum_partition(dist, args.delta_n, args.delta)
    _emit(json_text(sp.to_json_obj(), indent=1), args.out)
    return 0


def _cmd_image_size(args) -> int:
    ch = load_channel(args.channel)
    A = load_set(args.set)
    if args.exact:
        br = min_image_exact(ch, A, args.eta)
    else:
        br = min_image_bracket(ch, A, args.eta)
    obj = {"eta": args.eta, "size_lower": br.lower, "size_upper": br.upper,
           "exact": br.exact, "witness": br.upper_witness.ids_list()}
    _emit(json_text(obj, indent=1), args.out)
    return 0


def _cmd_partition(args) -> int:
    channels = [load_channel(p) for p in args.channel]
    dist = load_dist(args.dist)
    ground = dist.support()
    messages = [load_message_index(p, ground) for p in args.messages]
    joint = messages[0]
    for extra in messages[1:]:
        joint = product_index(joint, extra)
    slices = build_uniformizing_partition(dist, joint, delta=args.delta,
                                          rho=args.rho)
    eq = build_equal_image_partition(channels, dist, ground, messages, args.eta,
                                     delta_n=args.delta_n, delta=args.delta)
    obj = {
        "uniformizing": {
            "slice_width": slices.slice_width,
            "K": slices.K,
            "remainder_mass": slices.remainder_mass,
            "cells": [{
                "density_bin": key[0], "ratio_bin": key[1],
                "members": cell.members.ids_list(),
                "messages": [str(m) for m in cell.messages],
                "gamma_x": cell.x_uniformity.gamma,
                "gamma_m": cell.m_uniformity.gamma,
                "gamma_x_bound": cell.x_bound,
                "gamma_m_bound": cell.m_bound,
            } for key, cell in sorted(slices.cells.items())],
        },
        "equal_image": {
            "delta_n": eq.delta_n,
            "eta": eq.eta,
            "epsilon_n": eq.epsilon_n,
            "iterations": eq.iterations,
            "iteration_cap": eq.iteration_cap,
            "within_cap": eq.within_cap,
            "lambda_measured": eq.lambda_measured,
            "cells": [{
                "label": str(label),
                "members": cell.ids_list(),
                "records": [{
                    "subset": list(S),
                    "messages": [str(m) for m in rec.messages],
                    "messages_tilde": [str(m) for m in rec.messages_tilde],
                    "h_m_rate": rec.h_m_rate,
                    "h_y_given_m": list(rec.h_y_given_m),
                    "gap_image_vs_entropy": rec.gap_image_vs_entropy,
                    "gap_tilde_vs_all": rec.gap_tilde_vs_all,
                    "gap_entropy_vs_tilde": rec.gap_entropy_vs_tilde,
                    "gap_two_sided": rec.gap_two_sided,
                } for S, rec in sorted(
                    eq.cell_records[label]["subsets"].items())],
            } for label, cell in sorted(eq.index.cells.items(),
                                        key=lambda kv: str(kv[0]))],
        },
    }
    _emit(json_text(obj, indent=1), args.out)
    return 0


def _cmd_fano(args, criterion: str) -> int:
    code = load_code(args.code)
    channels = [load_channel(p) for p in args.channel]
    kwargs = dict(eta=args.eta, rho=args.rho)
    if args.delta_n is not None:
        kwargs["delta_n"] = args.delta_n
    if criterion == "max":
        rep = strong_fano_max(code, channels, **kwargs)
    else:
        rep = strong_fano_avg(code, channels, **kwargs)
    _emit(json_text(rep.to_json_obj(), indent=1), args.out)
    header, rows = rep.csv_rows()
    if args.out:
        with open(args.out + ".csv", "w", encoding="utf-8") as fh:
            fh.write(csv_text(header, rows))
    if not rep.counting.passed:
        raise InvariantError("counting sub-steps failed")
    return 0


def _cmd_wiretap(args) -> int:
    inst = WiretapInstance(main=load_channel(args.main), eve=load_channel(args.eve))
    res = secrecy_bound_single_letter(inst, args.usize)
    obj = {"value": res.value, "P_U": res.p_u, "P_X_given_U": res.p_x_given_u}
    _emit(json_text(obj, indent=1), args.out)
    return 0


def _cmd_verify(args) -> int:
    reports = run_lemma_suite(args.seed, args.trials, args.n)
    obj = {
        "seed": args.seed, "trials": args.trials, "n": args.n,
        "checks": [{
            "name": r.name,
            "passed": r.passed,
            "trials": len(r.items),
            "failures": [i.label for i in r.failing()],
        } for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _emit(json_text(obj, indent=1), args.out)
    if not obj["all_passed"]:
        raise InvariantError("lemma suite reported failures")
    return 0


# built once per process: building it costs more than a small job
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmckit",
        description="exact desk-scale image-size / partition / converse toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        p.add_argument("--record", action="store_true",
                       help="write a run record (with timestamps) next to --out")

    p = sub.add_parser("spectrum", help="entropy-spectrum partition of a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--delta-n", dest="delta_n", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("image-size", help="minimum image size of a set")
    p.add_argument("--channel", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--exact", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_image_size)

    p = sub.add_parser("partition", help="uniformizing + equal-image-size partitions")
    p.add_argument("--channel", action="append", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--messages", action="append", required=True)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--delta-n", dest="delta_n", type=float)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--rho", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_partition)

    for name in ("fano-max", "fano-avg"):
        p = sub.add_parser(name, help=f"strong {name.split('-')[1]}-error report")
        p.add_argument("--code", required=True)
        p.add_argument("--channel", action="append", required=True)
        p.add_argument("--eta", type=float, default=0.5)
        p.add_argument("--delta-n", dest="delta_n", type=float)
        p.add_argument("--rho", type=int, default=1)
        common(p)
        p.set_defaults(func=lambda a, _c=name.split("-")[1]: _cmd_fano(a, _c))

    p = sub.add_parser("wiretap-bound", help="single-letter secrecy bound")
    p.add_argument("--main", required=True)
    p.add_argument("--eve", required=True)
    p.add_argument("--usize", type=int, default=None)
    p.add_argument("--starts", type=int, default=32, help="accepted; no effect")
    p.add_argument("--grid", type=int, default=20, help="accepted; no effect")
    common(p)
    p.set_defaults(func=_cmd_wiretap)

    p = sub.add_parser("verify-lemmas", help="randomized unconditional lemma suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n", type=int, default=6)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        code = args.func(args)
    except (CapacityError,) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        _write_record(args, started, False)
        return 3
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        _write_record(args, started, False)
        return 4
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_record(args, started, False)
        return 2
    _write_record(args, started, code == 0)
    return code


if __name__ == "__main__":
    sys.exit(main())
