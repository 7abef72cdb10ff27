"""Sets, distributions and partitioning indices derived without
re-validation (`_trusted`) equal what the validating constructors build from
the same ids, field for field, and the private constructors are called only
from the sites listed here.
"""

import ast
import math
import os
from collections import Counter

import numpy as np
import pytest

import dmckit
import kernel_oracles as old
from dmckit.core import SequenceDist, SequenceSet, output_dist
from dmckit import fano, partitioner
from dmckit.errors import ConditioningError, ToolkitError
from dmckit.fano import Decoder, build_decoding_sets
from dmckit.images import EXACT_SOLVER_CAP, min_image_bracket, min_image_exact
from dmckit.partitioner import (build_equal_image_partition,
                                build_uniformizing_partition, extract_equal_cell)
from dmckit.spectrum import (PartitioningIndex, build_spectrum_partition,
                             product_index, restrict_index)
from dmckit.verify import (random_channel, random_dist_on, random_eta,
                           random_subset)

PACKAGE = os.path.dirname(dmckit.__file__)

#: (module, function) -> number of `_trusted` calls in it.  Each builds from
#: ids that are a mask or slice of an already sorted id array (an
#: intersection or difference finds one set's ids in the other's), a support, a
#: conditioning, a dense marginal, a stable sort by bin or by label code
#: (a labeling's first-seen ranks included), a support masked by bin, a
#: sort of distinct picks or of a cell's or a code's codewords, the nonzero
#: positions of a decoder column, or a one-word set's one cell.
#: Loaders and public constructors validate, so none of them may appear here.
TRUSTED_SITES = {
    ("core.py", "SequenceSet.intersect"): 1,
    ("core.py", "SequenceSet.difference"): 1,
    ("core.py", "SequenceDist.support"): 1,
    ("core.py", "SequenceDist.conditioned_on"): 1,
    ("core.py", "output_dist"): 1,
    ("spectrum.py", "build_spectrum_partition"): 2,
    ("spectrum.py", "_grouped"): 2,
    ("images.py", "min_image_exact"): 1,
    ("images.py", "min_image_bracket"): 1,
    ("partitioner.py", "build_uniformizing_partition"): 2,
    ("partitioner.py", "_refine_against_witness"): 1,
    ("partitioner.py", "extract_equal_cell"): 2,
    ("partitioner.py", "build_equal_image_partition"): 4,
    ("fano.py", "_codeword_rows"): 1,
    ("fano.py", "build_decoding_sets"): 2,
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


def assert_same_index(got: PartitioningIndex, want: PartitioningIndex):
    """Same ground, labels in the same order, cells and codes bit for bit."""
    assert_same_set(got.ground, want.ground)
    assert list(got.cells) == list(want.cells)
    for label, cell in want.cells.items():
        assert_same_set(got.cells[label], cell)
    assert got._codes.dtype == want._codes.dtype == np.intp
    assert got._codes.tobytes() == want._codes.tobytes()
    assert not got._codes.flags.writeable


def assert_same_dist(got: SequenceDist, want: SequenceDist):
    assert_same_set(got.support(), want.support())
    assert got.probs.dtype == want.probs.dtype == np.float64
    assert got.probs.tobytes() == want.probs.tobytes()
    assert not got.probs.flags.writeable


def test_derived_objects_equal_validated_ones(monkeypatch):
    made = []  # the sets build_decoding_sets derives

    class Recording(SequenceSet):
        @classmethod
        def _trusted(cls, n, base, ids):
            made.append(SequenceSet._trusted(n, base, ids))
            return made[-1]

    witnesses = []  # the quasi-image witnesses extract_equal_cell derives
    refine = partitioner._refine_against_witness

    def recording(ch, A, alpha, witness):
        witnesses.append(witness)
        return refine(ch, A, alpha, witness)

    monkeypatch.setattr(fano, "SequenceSet", Recording)
    monkeypatch.setattr(partitioner, "_refine_against_witness", recording)
    codeword_sets = 0
    witnessed = 0
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

        # an extraction's witnesses, each the words of the first bins of its
        # output spectrum, and image witnesses: sorted distinct ids
        eta = random_eta(rng)
        witnesses.clear()
        try:
            extract_equal_cell(ch, d, A, 0.3, 0.5, eta)
        except ToolkitError:
            pass
        out = output_dist(ch, d.conditioned_on(A))
        out_bins = build_spectrum_partition(
            out, 0.3, 0.5, space_aexp=math.log2(ch.output.size)).bins
        sizes = np.cumsum([b.size for b in out_bins]).tolist()
        for witness in witnesses:
            words = [i for b in out_bins[:sizes.index(witness.size) + 1]
                     for i in b.ids_list()]
            assert_same_set(witness, SequenceSet.from_ids(n, ch.output.size, words))
        witnessed += len(witnesses)
        solvers = [min_image_bracket]
        if ch.output.size ** n <= EXACT_SOLVER_CAP:
            solvers.append(min_image_exact)
        for solve in solvers:
            witness = solve(ch, A, eta).upper_witness
            assert_same_set(witness, SequenceSet.from_ids(
                n, ch.output.size, witness.ids_list()))

        # label-code indices equal the validated index on the same cells,
        # cells in the order their labels first occur
        pi = PartitioningIndex.from_labeling(A, lambda s: s % 3)
        pi2 = PartitioningIndex.from_labeling(A, lambda s: s // 2 % 2)
        firsts = list(dict.fromkeys(int(s) % 3 for s in A.ids))
        assert list(pi.cells) == firsts
        sub = A.intersect(B) if A.intersect(B).size else A
        for got in (pi, pi2, restrict_index(pi, sub), product_index(pi, pi2),
                    product_index(restrict_index(pi2, sub), restrict_index(pi, sub))):
            assert_same_index(got, PartitioningIndex(got.ground, {
                label: SequenceSet.from_ids(n, base, cell.ids_list())
                for label, cell in got.cells.items()}))
        if n >= 2:
            up = build_uniformizing_partition(d, pi, delta=0.5)
            for cell in up.cells.values():
                assert_same_set(cell.members, SequenceSet.from_ids(
                    n, base, cell.members.ids_list()))
            assert_same_set(up.remainder, SequenceSet.from_ids(
                n, base, up.remainder.ids_list()))

        # a one-word set's equal-image partition is one cell, the word
        word = SequenceSet(n, base, A.ids[:1])
        got = build_equal_image_partition([ch], d, word, [PartitioningIndex.trivial(word)],
                                          0.5).index
        assert_same_index(got, PartitioningIndex(word, dict(got.cells)))

        # decoding sets: each message's codewords in a cell, and the outputs
        # a random decoder sends to a message with probability alpha/2 or more
        k = int(rng.integers(1, 4))
        table = rng.uniform(0.0, 1.0, size=(ch.output.size ** n, k)) ** 3
        table /= table.sum(axis=1, keepdims=True)
        dec = Decoder(S=(0,), m_values=tuple((m,) for m in range(k)), table=table)
        pairs = [((int(rng.integers(k)),), int(x), 1.0 / A.size) for x in A.ids]
        cells = {"low": SequenceSet(n, base, A.ids[:A.size // 2]),
                 "high": SequenceSet(n, base, A.ids[A.size // 2:])}
        made.clear()
        build_decoding_sets(pairs, dec, ch, n, float(rng.uniform(0.1, 1.0)),
                            {c: cell for c, cell in cells.items() if cell.size})
        assert len(made) >= k  # one per decoder column, then the codeword sets
        codeword_sets += len(made) - k
        for got in made:
            assert_same_set(got, SequenceSet.from_ids(got.n, got.base, got.ids_list()))
        # the distinct codewords whose rows the success and joint-law tables read
        for read in (lambda: fano._success_probs(pairs, dec, ch, n),
                     lambda: fano._message_output_joint(ch, pairs, n, base)):
            made.clear()
            read()
            assert len(made) == 1
            assert_same_set(made[0], SequenceSet.from_ids(
                n, base, [x for _, x, _ in pairs]))
    assert codeword_sets and witnessed


def test_conditioning_returns_the_law_only_on_its_support_at_mass_one():
    ids = np.array([1, 4, 6, 7])
    for probs in ([0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4], [0.7, 0.1, 0.1, 0.1]):
        d = SequenceDist(3, 2, ids, np.array(probs))
        mass = float(np.sum(d.probs))
        for A in (d.support(), SequenceSet.from_ids(3, 2, [0, 1, 4, 5, 6, 7])):
            got = d.conditioned_on(A)
            assert (got is d) == (mass == 1.0)
            assert_same_dist(got, SequenceDist(3, 2, d.ids, d.probs / mass))
    # one ulp below 1.0 still divides
    d = SequenceDist(2, 2, np.array([0, 3]), np.array([0.5, 0.5 - 2.0 ** -53]))
    assert float(np.sum(d.probs)) == 1.0 - 2.0 ** -53
    got = d.conditioned_on(d.support())
    assert got is not d
    assert_same_dist(got, SequenceDist(2, 2, d.ids, d.probs / (1.0 - 2.0 ** -53)))
    # mass 1.0 on a set that misses a word of the support (its atom is lost
    # in the sum) is a different law
    d = SequenceDist(2, 2, np.array([0, 1, 3]), np.array([0.5, 0.5, 1e-20]))
    part = SequenceSet.from_ids(2, 2, [0, 1])
    assert float(np.sum(d.probs[:2])) == 1.0
    got = d.conditioned_on(part)
    assert got is not d
    assert_same_dist(got, SequenceDist(2, 2, d.ids[:2], d.probs[:2]))
