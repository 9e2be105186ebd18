"""Verification reports: the common result record for every check in the package.

A check compares an observed quantity (usually a sampled supremum) against an
explicit bound, under a list of preconditions that were themselves measured.
The verdict policy is deliberately conservative: a check may only *fail* when
every precondition held and the observation still exceeded the bound.  If some
precondition was not met, the record says so instead of pretending the bound
was refuted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

PASS = "pass"
PASS_UNMET = "pass-with-unmet-preconditions"
FAIL = "fail"


def format_float(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips a binary double)."""
    if isinstance(x, bool):  # bools are ints; keep them out of the float path
        raise TypeError("expected a real number")
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return format(xf, ".17g")


def _jsonify(value: Any) -> Any:
    """Recursively convert a report payload to JSON-safe primitives.

    Floats become 17-significant-digit decimal strings, exact integers become
    plain decimal strings so arbitrary precision survives the trip, complex
    numbers become two-element [re, im] string pairs.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, complex):
        return [format_float(value.real), format_float(value.imag)]
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if value is None:
        return None
    return str(value)


@dataclass(frozen=True)
class Precondition:
    """One measured hypothesis: name, whether it held, and the numbers behind it.

    `threshold` is the requirement and `actual` the measured value; their
    meaning (>= or <=) is implied by the name, the `satisfied` flag is
    authoritative.
    """

    name: str
    satisfied: bool
    threshold: float
    actual: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "satisfied": self.satisfied,
            "threshold": format_float(self.threshold),
            "actual": format_float(self.actual),
        }


@dataclass
class VerificationReport:
    """Outcome of a single check.

    `observed` is a sampled supremum (or discrepancy maximum), `bound` the
    explicit constant it must stay below, `samples` how many evaluation points
    contributed.  `details` carries check-specific extras such as the disk
    radius or the coarse and refined sups; it is serialized verbatim.
    """

    check: str
    bound: float
    observed: float
    samples: int
    preconditions: list[Precondition] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        """bound / observed; infinite when nothing was observed at all."""
        if self.observed == 0.0:
            return math.inf
        return self.bound / self.observed

    @property
    def preconditions_met(self) -> bool:
        return all(p.satisfied for p in self.preconditions)

    @property
    def verdict(self) -> str:
        if not self.preconditions_met:
            return PASS_UNMET
        return PASS if self.observed <= self.bound else FAIL

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "bound": format_float(self.bound),
            "observed": format_float(self.observed),
            "margin": format_float(self.margin),
            "samples": str(int(self.samples)),
            "preconditions": [p.to_json_dict() for p in self.preconditions],
            "verdict": self.verdict,
            "details": _jsonify(self.details),
        }


def reports_to_json(reports: list[VerificationReport], indent: int = 2) -> str:
    """Serialize a list of reports as a JSON array (deterministic byte-wise)."""
    payload = [r.to_json_dict() for r in reports]
    return json.dumps(payload, indent=indent, sort_keys=False)


def precondition(name: str, satisfied: bool, threshold: float, actual: float) -> Precondition:
    return Precondition(name=name, satisfied=bool(satisfied), threshold=float(threshold), actual=float(actual))
