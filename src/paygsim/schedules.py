"""Piecewise-constant year schedules.

Most scenario inputs (contribution rates, inflation, expected return,
retirement thresholds) are a single number that occasionally changes for a few
calendar years. A Schedule holds a default value plus explicit per-year
overrides and answers value-at-year lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CoverageError


def _float(value) -> float:
    """A number field's value as a float; a boolean or a quoted number is a
    ValueError, not read as 1.0 or parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _int(value) -> int:
    """An integer field's value; a boolean, a non-integral number or a quoted
    number is a ValueError, not truncated or parsed."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Schedule:
    """Year-indexed piecewise-constant value.

    Args:
        default: value used for any year without an override. May be None,
            in which case every projection year must have an override.
        overrides: mapping year -> value.
    """

    default: float | None = None
    overrides: dict[int, float] = field(default_factory=dict)

    def value(self, year: int) -> float:
        v = self.overrides.get(year, self.default)
        if v is None:
            raise CoverageError(f"schedule has no value for year {year}")
        return v

    @classmethod
    def from_config(cls, raw) -> "Schedule":
        """Build from a bare number or a {default:, overrides: {year: v}} mapping."""
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return cls(default=float(raw))
        if isinstance(raw, dict):
            default = raw.get("default")
            overrides = raw.get("overrides", {})
            bad = set(raw) - {"default", "overrides"}
            if bad:
                raise ValueError(f"unknown keys {sorted(bad)}")
            if not isinstance(overrides, dict):
                raise ValueError("expected the overrides to be a year->value mapping")
            return cls(
                default=None if default is None else _float(default),
                overrides={_int(y): _float(v) for y, v in overrides.items()},
            )
        raise ValueError(f"expected a number or a mapping, got {type(raw).__name__}")
