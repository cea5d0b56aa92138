"""Variable preparation: daily regularization of irregular timelines,
decision timepoints, the fluids ratio, and assembly of the 58-variable
study rows.

Days are half-open 24-hour windows from ICU admission: day d covers
offsets in [24*(d-1), 24*d).  Clinical timelines regularize to the daily
median (robust to outliers); fluid amounts to the daily sum.  Point
variables are taken at day 1, the decision day T1, and the fixed days T2
and T3; "average" variables are arithmetic means over the days present in
1..T1 with missing days skipped.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MissingDay, ZeroDenominator
from .group import N_VARIABLES, PatientKey, StudyGroup, StudyRow
from .cohort import ELIX_BINARY_FIELDS, Record

HOURS_PER_DAY = 24.0


@dataclass
class TimelineSeries:
    """Irregular (offset_hours, value) samples, sorted on construction."""

    samples: list

    def __init__(self, samples):
        pairs = [(float(o), float(v)) for o, v in samples]
        for off, val in pairs:
            if not np.isfinite(off) or off < 0:
                raise DataError(f"timeline offset must be finite and >= 0, got {off}")
            if not np.isfinite(val):
                raise DataError(f"timeline value must be finite, got {val}")
        self.samples = sorted(pairs)

    def __len__(self):
        return len(self.samples)

    def by_day(self) -> dict:
        out: dict = {}
        for off, val in self.samples:
            day = int(off // HOURS_PER_DAY) + 1
            out.setdefault(day, []).append(val)
        return out


def daily_median(series: TimelineSeries) -> dict:
    """Day -> median of that day's samples; days without samples are absent."""
    return {day: statistics.median(vals) for day, vals in series.by_day().items()}


def daily_sum(series: TimelineSeries) -> dict:
    """Day -> sum of that day's samples (amounts); absent when empty."""
    return {day: float(np.sum(vals)) for day, vals in series.by_day().items()}


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


@dataclass(frozen=True)
class Timepoints:
    t1: int
    t0: int = 1
    t2: int = 3
    t3: int = 4


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


def _mean_over(daily: dict, last_day: int) -> float | None:
    vals = [daily[d] for d in range(1, last_day + 1) if d in daily]
    return float(np.mean(vals)) if vals else None


def _point(daily: dict, day: int) -> float | None:
    return daily.get(day)


def _timeline_block(daily: dict, tp: Timepoints) -> list:
    return [
        _mean_over(daily, tp.t1),
        _point(daily, 1),
        _point(daily, tp.t1),
        _point(daily, tp.t2),
        _point(daily, tp.t3),
    ]


def _fluids_blocks(rec: Record, tp: Timepoints):
    """Input/output/balance blocks over a shared day grid.

    Days with any fluid record form the grid; a missing side on such a day
    counts as 0.0 so that balance aggregates equal input-minus-output
    aggregates exactly.
    """
    sums_in = daily_sum(TimelineSeries(rec.attrs.get("fluids_in") or []))
    sums_out = daily_sum(TimelineSeries(rec.attrs.get("fluids_out") or []))
    days = sorted(set(sums_in) | set(sums_out))
    filled_in = {d: sums_in.get(d, 0.0) for d in days}
    filled_out = {d: sums_out.get(d, 0.0) for d in days}
    filled_bal = {d: filled_in[d] - filled_out[d] for d in days}
    return (
        _timeline_block(filled_in, tp),
        _timeline_block(filled_out, tp),
        _timeline_block(filled_bal, tp),
    )


def _binary(value: float | None, name: str) -> float | None:
    if value is None:
        return None
    if value not in (-1.0, 1.0):
        raise DataError(f"{name} must be -1 or +1, got {value}")
    return float(value)


def build_row_values(rec: Record, options: AssemblyOptions) -> list:
    """The 58 per-patient values (None where unavailable), in x order."""
    first_dose_hours = rec.attrs.get("first_dose_hours")
    treated = first_dose_hours is not None
    first_dose_day = int(first_dose_hours // HOURS_PER_DAY) + 1 if treated else None
    tp = Timepoints(
        t1=decision_timepoint(first_dose_day, options.t1_default),
        t2=options.t2,
        t3=options.t3,
    )

    values: list = [None] * N_VARIABLES

    def put(index: int, value):
        values[index - 1] = value

    put(1, 1.0 if treated else -1.0)
    put(2, rec.attrs.get("age"))
    put(3, _binary(rec.attrs.get("gender"), "gender"))
    put(4, _binary(rec.attrs.get("race"), "race"))

    for start, name in ((5, "saps"), (10, "sofa"), (25, "creatinine"), (47, "bp"), (52, "bp_mean")):
        daily = daily_median(TimelineSeries(rec.attrs.get(name) or []))
        for offset, value in enumerate(_timeline_block(daily, tp)):
            put(start + offset, value)

    put(15, rec.attrs.get("elixhauser"))
    elix_bin = rec.attrs.get("elixhauser_binary")
    for offset in range(9):
        value = elix_bin[offset] if elix_bin is not None else None
        put(16 + offset, _binary(value, ELIX_BINARY_FIELDS[offset]))

    for start, block in zip((30, 35, 40), _fluids_blocks(rec, tp)):
        for offset, value in enumerate(block):
            put(start + offset, value)

    put(45, _binary(rec.attrs.get("vasopressors"), "vasopressors"))
    put(46, _binary(rec.attrs.get("ventilation"), "ventilation"))
    put(57, _binary(rec.attrs.get("mortality"), "mortality"))
    los = rec.attrs.get("los")
    if los is not None and los < 0:
        raise DataError(f"length of stay must be >= 0, got {los}")
    put(58, los)
    return values


def assemble_study_group(records, options: AssemblyOptions | None = None):
    """Build the study group from joined per-patient records.

    Patients missing any mandatory variable are rejected with the first
    missing variable named; rejections are returned as data, not raised.
    Output rows are sorted by patient key.
    """
    options = options or AssemblyOptions()
    rows = []
    rejections = []
    for rec in records:
        key = rec.key()
        try:
            values = build_row_values(rec, options)
        except DataError as exc:
            rejections.append(Rejection(key, str(exc)))
            continue
        missing = next(
            (i for i in sorted(options.mandatory) if values[i - 1] is None), None
        )
        if missing is not None:
            rejections.append(Rejection(key, f"x{missing} missing"))
            continue
        row = np.array([float("nan") if v is None else float(v) for v in values])
        rows.append(StudyRow(key, row))
    return StudyGroup.from_rows(rows), rejections
