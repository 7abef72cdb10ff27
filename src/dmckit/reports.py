"""Measured-bound reports and deterministic JSON/CSV emission."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

#: Slack of every recorded inequality: lhs <= rhs passes while lhs <= rhs + SLACK.
SLACK = 1e-9


@dataclass
class BoundItem:
    """One measured inequality: lhs <?> rhs with slack = rhs - lhs."""

    label: str
    lhs: float | None
    rhs: float | None
    passed: bool
    slack: float | None = None
    extra: dict = field(default_factory=dict)

    def to_json_obj(self):
        obj = {"label": self.label, "lhs": self.lhs, "rhs": self.rhs,
               "passed": self.passed, "slack": self.slack}
        if self.extra:
            obj["extra"] = dict(self.extra)
        return obj


@dataclass
class BoundReport:
    """A named collection of measured inequalities."""

    name: str
    items: list[BoundItem] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, label, lhs, rhs, passed, slack=None, **extra):
        self.items.append(BoundItem(label, lhs, rhs, bool(passed), slack, dict(extra)))

    def failing(self) -> list[BoundItem]:
        return [item for item in self.items if not item.passed]

    def to_json_obj(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "items": [item.to_json_obj() for item in self.items],
            "details": self.details,
        }


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValidationError(f"non-finite float {x!r} cannot be serialized")
    text = format(x, ".17g")
    # make sure the token parses back as a float, not an int
    if "e" not in text and "." not in text and "n" not in text:
        text += ".0"
    return text


def json_text(obj) -> str:
    """Serialize with a fixed field order, floats at 17 significant digits
    and one space of indent per level.

    Byte-identical output for identical inputs; dict insertion order is the
    field order.
    """
    return _json(obj, "")


def _quote(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


#: The writers of plain ints, floats and strings, which the items of a list
#: or dict take directly; bools, numpy scalars and containers are other
#: types and go through `_json`.
_PLAIN = {int: str, float: _format_float, str: _quote}


def _texts(items, pad: str) -> list[str]:
    """The JSON text of each item, its nested lines indented past `pad`."""
    out = []
    for item in items:
        write = _PLAIN.get(type(item))
        out.append(write(item) if write else _json(item, pad))
    return out


def _json(obj, end_pad: str) -> str:
    """`obj` as JSON, its nested lines indented one space past `end_pad`."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    pad = end_pad + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + pad + (",\n" + pad).join(_texts(obj, pad)) + "\n" + end_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [pad + _quote(str(key)) + ": " + text
                 for key, text in zip(obj, _texts(obj.values(), pad))]
        return "{\n" + ",\n".join(parts) + "\n" + end_pad + "}"
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def csv_text(header: list[str], rows: list[list]) -> str:
    """Minimal deterministic CSV with the same float formatting as JSON."""

    def cell(v):
        if isinstance(v, (float, np.floating)):
            return _format_float(float(v))
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        text = str(v)
        if any(c in text for c in ',"\n'):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"
