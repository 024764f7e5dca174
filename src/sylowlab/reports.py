"""Machine-readable reports for verification checks.

Every numeric quantity is an integer or an exact rational serialized as
a num/den pair; floats never appear in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

SCHEMA_VERSION = 1


def encode_value(v):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, bool) or isinstance(v, int) or isinstance(v, str) or v is None:
        return v
    if v == float("inf"):
        return "infinity"
    if isinstance(v, dict):
        return {k: encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    raise TypeError(f"cannot serialize {type(v).__name__} in a report")


@dataclass
class CheckReport:
    ok: bool
    details: dict = field(default_factory=dict)
    notices: list = field(default_factory=list)
