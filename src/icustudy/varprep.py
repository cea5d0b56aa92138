"""Variable preparation: daily regularization of irregular timelines,
decision timepoints, the fluids ratio, and assembly of the 58-variable
study rows.

Days are half-open 24-hour windows from ICU admission: day d covers
offsets in [24*(d-1), 24*d).  A timeline is a list of (offset_hours,
value) samples; each is checked, sorted and bucketed by day once, then
regularizes to the daily median (robust to outliers) or, for fluid
amounts, the daily sum.  Point variables are taken at day 1, the decision
day T1, and the fixed days T2 and T3; "average" variables are arithmetic
means over the days present in 1..T1 with missing days skipped.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MissingDay, ZeroDenominator
from .group import N_VARIABLES, PatientKey, StudyGroup
from .cohort import ELIX_BINARY_FIELDS, Record

HOURS_PER_DAY = 24.0


def _by_day(samples) -> dict:
    """Day -> that day's values, in (offset, value) order; every sample must
    have a finite offset >= 0 and a finite value."""
    pairs = []
    for off, val in samples:
        off, val = float(off), float(val)
        if not math.isfinite(off) or off < 0:
            raise DataError(f"timeline offset must be finite and >= 0, got {off}")
        if not math.isfinite(val):
            raise DataError(f"timeline value must be finite, got {val}")
        pairs.append((off, val))
    out: dict = {}
    for off, val in sorted(pairs):
        out.setdefault(int(off // HOURS_PER_DAY) + 1, []).append(val)
    return out


def daily_median(samples) -> dict:
    """Day -> median of that day's samples; days without samples are absent."""
    return {day: statistics.median(vals) for day, vals in _by_day(samples).items()}


def daily_sum(samples) -> dict:
    """Day -> sum of that day's samples (amounts); absent when empty."""
    return {day: float(np.sum(vals)) for day, vals in _by_day(samples).items()}


def fluids_ratio(inputs: dict, outputs: dict, t: int) -> float:
    """(in(t-1) + in(t)) / (out(t-1) + out(t)) over daily sums."""
    if t < 2:
        raise DataError(f"fluids ratio needs t >= 2, got {t}")
    for day in (t - 1, t):
        if day not in inputs:
            raise MissingDay(day, "inputs")
        if day not in outputs:
            raise MissingDay(day, "outputs")
    denom = outputs[t - 1] + outputs[t]
    if denom == 0.0:
        raise ZeroDenominator(f"outputs({t-1}) + outputs({t}) = 0")
    return (inputs[t - 1] + inputs[t]) / denom


def decision_timepoint(first_dose_day: int | None, default_untreated: int = 4) -> int:
    """Day of the treatment decision: actual first-dose day when treated,
    the configured default otherwise."""
    if default_untreated < 1:
        raise DataError("default decision day must be >= 1")
    if first_dose_day is not None:
        if first_dose_day < 1:
            raise DataError("first dose day must be >= 1")
        return int(first_dose_day)
    return int(default_untreated)


@dataclass
class Rejection:
    key: PatientKey
    reason: str


@dataclass
class AssemblyOptions:
    t1_default: int = 4
    t2: int = 3
    t3: int = 4
    mandatory: tuple = tuple(range(1, N_VARIABLES + 1))


def _block(daily: dict, t1: int, t2: int, t3: int) -> list:
    """(mean over the days of 1..t1 present, day 1, day t1, day t2, day t3)."""
    first = [daily[d] for d in range(1, t1 + 1) if d in daily]
    mean = float(np.mean(first)) if first else None
    return [mean, daily.get(1), daily.get(t1), daily.get(t2), daily.get(t3)]


def _binary(value: float | None, name: str) -> float | None:
    if value is None:
        return None
    if value not in (-1.0, 1.0):
        raise DataError(f"{name} must be -1 or +1, got {value}")
    return float(value)


def build_row_values(rec: Record, options: AssemblyOptions) -> list:
    """The 58 per-patient values (None where unavailable), in x order.

    The checks run in one fixed order (first dose, gender, race, the median
    timelines, the Elixhauser binaries, fluids, the other binaries, length
    of stay), so a record with several faults is always rejected for the
    same one.
    """
    attrs = rec.attrs
    first_dose_hours = attrs.get("first_dose_hours")
    treated = first_dose_hours is not None
    first_dose_day = int(first_dose_hours // HOURS_PER_DAY) + 1 if treated else None
    days = (decision_timepoint(first_dose_day, options.t1_default), options.t2, options.t3)

    gender = _binary(attrs.get("gender"), "gender")
    race = _binary(attrs.get("race"), "race")
    saps, sofa, creatinine, bp, bp_mean = [
        _block(daily_median(attrs.get(name) or []), *days)
        for name in ("saps", "sofa", "creatinine", "bp", "bp_mean")
    ]
    elix_bin = attrs.get("elixhauser_binary") or (None,) * len(ELIX_BINARY_FIELDS)
    elix = [_binary(v, name) for v, name in zip(elix_bin, ELIX_BINARY_FIELDS, strict=True)]

    # Days with any fluid record form the grid; a missing side on such a day
    # counts as 0.0 so that balance aggregates equal input-minus-output
    # aggregates exactly.
    sums_in = daily_sum(attrs.get("fluids_in") or [])
    sums_out = daily_sum(attrs.get("fluids_out") or [])
    grid = sorted(sums_in.keys() | sums_out.keys())
    fin = {d: sums_in.get(d, 0.0) for d in grid}
    fout = {d: sums_out.get(d, 0.0) for d in grid}
    fbal = {d: fin[d] - fout[d] for d in grid}

    vasopressors = _binary(attrs.get("vasopressors"), "vasopressors")
    ventilation = _binary(attrs.get("ventilation"), "ventilation")
    mortality = _binary(attrs.get("mortality"), "mortality")
    los = attrs.get("los")
    if los is not None and los < 0:
        raise DataError(f"length of stay must be >= 0, got {los}")
    return [
        1.0 if treated else -1.0, attrs.get("age"), gender, race,
        *saps, *sofa, attrs.get("elixhauser"), *elix, *creatinine,
        *_block(fin, *days), *_block(fout, *days), *_block(fbal, *days),
        vasopressors, ventilation, *bp, *bp_mean, mortality, los,
    ]


def assemble_study_group(records, options: AssemblyOptions | None = None):
    """Build the study group from joined per-patient records.

    Patients missing any mandatory variable are rejected with the first
    missing variable named; rejections are returned as data, not raised.
    Output rows are sorted by patient key.
    """
    options = options or AssemblyOptions()
    mandatory = sorted(options.mandatory)
    rows = []
    rejections = []
    for rec in records:
        key = rec.key()
        try:
            values = build_row_values(rec, options)
        except DataError as exc:
            rejections.append(Rejection(key, str(exc)))
            continue
        missing = next((i for i in mandatory if values[i - 1] is None), None)
        if missing is not None:
            rejections.append(Rejection(key, f"x{missing} missing"))
            continue
        rows.append((key, values))
    rows.sort(key=lambda row: row[0])
    # a None left by a non-default mandatory list becomes NaN
    x = np.array([values for _, values in rows], dtype=float) if rows else np.empty((0, N_VARIABLES))
    return StudyGroup([key for key, _ in rows], x), rejections
