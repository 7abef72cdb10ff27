"""Sets and distributions derived without re-validation (`_trusted`) equal
what the validating constructors build from the same ids, field for field,
and the private constructors are called only from the sites listed here.
"""

import ast
import os
from collections import Counter

import numpy as np
import pytest

import dmckit
import kernel_oracles as old
from dmckit.core import SequenceDist, SequenceSet, output_dist
from dmckit.errors import ConditioningError
from dmckit.spectrum import build_spectrum_partition
from dmckit.verify import random_channel, random_dist_on, random_subset

PACKAGE = os.path.dirname(dmckit.__file__)

#: (module, function) -> number of `_trusted` calls in it.  Each builds from
#: ids that are a mask or slice of an already sorted id array, an
#: `assume_unique` intersection or difference, a support, a conditioning, a
#: dense marginal or a stable sort by bin.  Loaders and public constructors
#: validate, so none of them may appear here.
TRUSTED_SITES = {
    ("core.py", "SequenceSet.intersect"): 1,
    ("core.py", "SequenceSet.difference"): 1,
    ("core.py", "SequenceDist.support"): 1,
    ("core.py", "SequenceDist.conditioned_on"): 1,
    ("core.py", "output_dist"): 1,
    ("spectrum.py", "build_spectrum_partition"): 2,
    ("partitioner.py", "_refine_against_witness"): 1,
    ("partitioner.py", "build_equal_image_partition"): 3,
}
VALIDATING = {"from_json_obj", "from_ids", "from_dense", "__post_init__"}


def trusted_calls(source: str) -> Counter:
    """Qualified names of the functions that call `<anything>._trusted`."""
    found = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "_trusted"):
                found[".".join(scope)] += 1
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_checker_finds_trusted_calls():
    source = ("class S:\n    def f(self):\n        return S._trusted(1, 2, x)\n"
              "def g():\n    a = SequenceSet._trusted(1)\n    b = S(1)._trusted(2)\n")
    assert trusted_calls(source) == {"S.f": 1, "g": 2}


def test_trusted_constructors_only_at_listed_sites():
    found = {}
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
                for func, count in trusted_calls(fh.read()).items():
                    found[(module, func)] = count
    assert found == TRUSTED_SITES
    for module, func in found:
        assert module != "cli.py"
        assert func.split(".")[-1] not in VALIDATING


def assert_same_set(got: SequenceSet, want: SequenceSet):
    assert (got.n, got.base) == (want.n, want.base)
    assert got.ids.dtype == want.ids.dtype == np.int64
    assert got.ids.tobytes() == want.ids.tobytes()
    assert not got.ids.flags.writeable


def assert_same_dist(got: SequenceDist, want: SequenceDist):
    assert_same_set(got.support(), want.support())
    assert got.probs.dtype == want.probs.dtype == np.float64
    assert got.probs.tobytes() == want.probs.tobytes()
    assert not got.probs.flags.writeable


def test_derived_objects_equal_validated_ones():
    rng = np.random.default_rng(47)
    for trial in range(60):
        base = 2 if trial % 3 else 3
        n = int(rng.integers(1, 7 if base == 2 else 5))
        A = random_subset(rng, n, base)
        B = random_subset(rng, n, base)
        assert_same_set(A.intersect(B), SequenceSet(n, base, np.intersect1d(A.ids, B.ids)))
        assert_same_set(A.difference(B), SequenceSet(n, base, np.setdiff1d(A.ids, B.ids)))
        d = random_dist_on(rng, A)
        assert_same_set(d.support(), SequenceSet(n, base, d.ids))
        inside = np.isin(d.ids, B.ids)
        if inside.any():
            mass = float(np.sum(d.probs[inside]))
            want = SequenceDist(n, base, d.ids[inside], d.probs[inside] / mass)
            assert_same_dist(d.conditioned_on(B), want)
        else:
            with pytest.raises(ConditioningError):
                d.conditioned_on(B)
        sp = build_spectrum_partition(d, float(rng.uniform(0.05, 0.9)), 0.5)
        for b in sp.bins:
            assert_same_set(b, SequenceSet.from_ids(n, base, b.ids_list()))
        ch = random_channel(rng, base, int(rng.integers(1, 4)))
        # from_dense validates the marginal built word by word
        assert_same_dist(output_dist(ch, d), old.output_dist(ch, d))
