"""Spans around dmckit's public layer functions, for the traced run only.

`Tracer.install` replaces each traced function in every loaded `dmckit`
module that binds it (`from .core import output_rows` copies the name into
`images`, `partitioner`, `fano`, `wiretap`, `verify` and `cli`), and methods
on their class.  Each call appends one span: name, start, end, parent span
and job id, kept in flat arrays and written out once when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

#: span name -> (module, attribute path) of every function it covers
LAYERS = {
    "core.output_rows": [("core", "output_rows")],
    "core.output_dist": [("core", "output_dist")],
    "core.SequenceDist.conditioned_on": [("core", "SequenceDist.conditioned_on")],
    "core.mutual_information": [("core", "mutual_information")],
    "images.min_image_exact": [("images", "min_image_exact")],
    "images.min_image_bracket": [("images", "min_image_bracket")],
    "images.singleton_image_size": [("images", "singleton_image_size")],
    "images.min_quasi_image": [("images", "min_quasi_image")],
    "spectrum.build_spectrum_partition": [("spectrum", "build_spectrum_partition")],
    "spectrum.restrict_index": [("spectrum", "restrict_index")],
    "spectrum.product_index": [("spectrum", "product_index")],
    "partitioner.build_uniformizing_partition":
        [("partitioner", "build_uniformizing_partition")],
    "partitioner.extract_equal_cell": [("partitioner", "extract_equal_cell")],
    "partitioner.build_image_entropy_partition":
        [("partitioner", "build_image_entropy_partition")],
    "partitioner.build_equal_image_partition":
        [("partitioner", "build_equal_image_partition")],
    "fano.strong_fano_max": [("fano", "strong_fano_max")],
    "fano.strong_fano_avg": [("fano", "strong_fano_avg")],
    "fano.build_decoding_sets": [("fano", "build_decoding_sets")],
    "wiretap.secrecy_bound_single_letter": [("wiretap", "secrecy_bound_single_letter")],
    "cli.load": [("cli", f"load_{kind}")
                 for kind in ("channel", "dist", "set", "message_index", "code")],
    "reports.json_text": [("reports", "json_text")],
    "reports.csv_text": [("reports", "csv_text")],
}

BRACKET = "images.min_image_bracket"


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.bracket_exact = 0
        self._stack: list[int] = []

    def _wrap(self, index: int, fn):
        name, start, end, parent, job = (self.name, self.start, self.end,
                                          self.parent, self.job)
        stack = self._stack
        is_bracket = self.names[index] == BRACKET

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name[stack[-1]] == index:
                # a recursive call (json_text) stays inside its caller's span
                return fn(*args, **kwargs)
            sid = len(start)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if is_bracket and result.lower == result.upper:
                self.bracket_exact += 1
            return result

        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper, everywhere it is bound."""
        modules = [m for k, m in sys.modules.items()
                   if k == "dmckit" or k.startswith("dmckit.")]
        for index, span in enumerate(self.names):
            for module, path in LAYERS[span]:
                owner = sys.modules[f"dmckit.{module}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self._wrap(index, original)
                if outer:  # a method: its class is shared by every module
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def metrics(self) -> dict:
        """`F.calls` and `F.self_s` per span name, plus the share of bracket
        calls that came back exact (lower == upper)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        inner = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(inner, parent[has_parent], dur[has_parent])
        own = dur - inner
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        out = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = {"value": int(calls[i]), "unit": "count"}
            out[f"{span}.self_s"] = {"value": float(self_s[i]), "unit": "s"}
        bracket_calls = int(calls[self.names.index(BRACKET)])
        out[f"{BRACKET}.exact_share"] = {
            "value": self.bracket_exact / bracket_calls if bracket_calls else 0.0,
            "unit": "ratio"}
        return out

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32))
