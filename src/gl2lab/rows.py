"""One exact check of a verification battery, as a report row.

Every battery returns a list of `Check`s; the command line prints their
`to_dict()` rows.  This module loads no arithmetic layer, so the norm
certificate, which needs only the rows, does not load the local-path
batteries of `checks`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, NamedTuple

from .padic import LocalMatrix


class Check(NamedTuple):
    name: str
    inputs: dict
    expected: Any
    actual: Any
    witness: dict = None  # the first failing input and its two values

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_dict(self):
        row = {"name": self.name, "inputs": self.inputs,
               "expected": _render(self.expected),
               "actual": _render(self.actual),
               "pass": self.passed}
        if not self.passed and self.witness is not None:
            row["witness"] = self.witness
        return row


def _render(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_render(x) for x in v]
    return v


def _witness(fails, names):
    """The first failure as text: matrices by to_text(), values by str()."""
    if not fails:
        return None
    return {k: v.to_text() if isinstance(v, LocalMatrix) else str(v)
            for k, v in zip(names, fails[0])}
