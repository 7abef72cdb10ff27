"""The report writer against the item-by-item writer it replaced
(`kernel_oracles.json_text`), byte for byte."""

import math

import numpy as np
import pytest

import kernel_oracles as old
from dmckit.errors import ValidationError
from dmckit.reports import json_text

SPECIAL = [0.0, -0.0, 1e16, -1e16, 1e-300, 5e-324, 0.1, 1.0 / 3.0, 2.0 ** 53,
           2 ** 53 + 1, -(2 ** 63), 2 ** 64 + 7, 10 ** 30, 0, -1]


def random_scalar(rng):
    kind = int(rng.integers(0, 12))
    if kind == 0:
        return bool(rng.integers(0, 2))
    if kind == 1:
        return np.bool_(rng.integers(0, 2))
    if kind == 2:
        return np.int64(rng.integers(-2 ** 62, 2 ** 62))
    if kind == 3:
        return np.float64(rng.normal() * 10.0 ** int(rng.integers(-20, 20)))
    if kind == 4:
        return np.float32(rng.normal())
    if kind == 5:
        return SPECIAL[int(rng.integers(0, len(SPECIAL)))]
    if kind == 6:
        return None
    if kind == 7:
        return "a\"b\\c\nd\te" if rng.integers(0, 2) else "cell"
    if kind in (8, 9):
        return int(rng.integers(-10 ** 6, 10 ** 6)) * 10 ** int(rng.integers(0, 14))
    return float(rng.normal() * 10.0 ** int(rng.integers(-300, 300)))


def random_report(rng, depth: int = 0):
    kind = int(rng.integers(0, 6 if depth < 4 else 1))
    if kind == 0:
        return random_scalar(rng)
    size = int(rng.integers(0, 6))
    if kind == 1:  # plain ints, plain floats or a mix of both
        pick = int(rng.integers(0, 3))
        return [int(rng.integers(-2 ** 60, 2 ** 60)) * 16 if pick == 0 or
                (pick == 2 and rng.integers(0, 2)) else float(rng.normal())
                for _ in range(size)]
    if kind == 2:
        items = [random_scalar(rng) for _ in range(size)]
        return tuple(items) if rng.integers(0, 2) else items
    if kind == 3:
        return [random_report(rng, depth + 1) for _ in range(size)]
    if kind == 4:
        return np.arange(size) * (0.5 if rng.integers(0, 2) else 3)
    report = {}
    for i in range(size):
        key = [f"k{i}", i, f'q"{i}\\\n', (i, "t")][int(rng.integers(0, 4))]
        report[key] = random_report(rng, depth + 1)
    return report


def test_json_text_matches_item_by_item_writer():
    rng = np.random.default_rng(41)
    for _ in range(400):
        report = random_report(rng)
        assert json_text(report) == old.json_text(report)
    for special in SPECIAL:
        for report in ([special], [special, 1], [1, special, 2.5], [True, special],
                       {"x": [special, np.float64(special)]}):
            assert json_text(report) == old.json_text(report)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_json_text_refuses_non_finite_floats(bad):
    for report in ([bad], [1, bad], [0.5, bad], {"a": [[bad]]}):
        with pytest.raises(ValidationError):
            json_text(report)
        with pytest.raises(ValidationError):
            old.json_text(report)


def test_bools_stay_bools():
    assert json_text([True, False, np.bool_(True)]) == "[\n true,\n false,\n true\n]"
    assert json_text([1, True]) == "[\n 1,\n true\n]"
    assert json_text([1.0, False]) == "[\n 1.0,\n false\n]"
