"""Variable preparation: daily regularization of irregular timelines,
decision timepoints, the fluids ratio, and assembly of the 58-variable
study rows.

Days are half-open 24-hour windows from ICU admission: day d covers
offsets in [24*(d-1), 24*d).  A timeline is a sequence of (offset_hours,
value) samples, regularized to the daily median (robust to outliers) or,
for fluid amounts, the daily sum.  Point variables are taken at day 1, the
decision day T1, and the fixed days T2 and T3; "average" variables are
arithmetic means over the days present in 1..T1 with missing days skipped.
Assembly works on the timelines of RECORD_BLOCK records at a time, as
segments of one flattened sample array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MissingDay, ZeroDenominator
from .group import N_VARIABLES, PatientKey, StudyGroup
from .cohort import ELIX_BINARY_FIELDS, TIMELINE_EXTRACTS

HOURS_PER_DAY = 24.0

#: timelines regularized to daily medians; the rest (fluids) to daily sums
MEDIAN_SERIES = 5
#: first x index of each series' five-slot block: the medians, then fluid
#: inputs, outputs and balance over the shared fluid-day grid
BLOCK_START = (5, 10, 25, 47, 52, 30, 35, 40)
BLOCK_COLUMNS = np.array([start - 1 + slot for start in BLOCK_START for slot in range(5)])
#: the x column of each value _scalars returns, in order
SCALAR_COLUMNS = np.array([1, 2, 3, 4, 15, *range(16, 25), 45, 46, 57, 58]) - 1
#: records assembled at once
RECORD_BLOCK = 1024


def _samples(timeline) -> np.ndarray:
    """A timeline (None, a list of pairs or an (m, 2) array) as an (m, 2) array."""
    samples = np.asarray(() if timeline is None else timeline, dtype=float)
    return samples.reshape(len(samples), 2)


def _faults(samples: np.ndarray, owner: np.ndarray) -> tuple:
    """The mask of samples without a finite offset >= 0 and a finite value,
    and owner -> (index, reason) of the first such sample of each owner."""
    off, val = samples[:, 0], samples[:, 1]
    bad_offset = ~(np.isfinite(off) & (off >= 0))
    faulty = bad_offset | ~np.isfinite(val)
    first = {}
    for i in np.flatnonzero(faulty)[::-1].tolist():
        if bad_offset[i]:
            first[int(owner[i])] = (i, f"timeline offset must be finite and >= 0, got {float(off[i])}")
        else:
            first[int(owner[i])] = (i, f"timeline value must be finite, got {float(val[i])}")
    return faulty, first


def _by_length(starts: np.ndarray, lengths: np.ndarray):
    """For the segments of each length c: their mask and an (m, c) array
    whose rows hold the positions of one segment each.  Summing the rows of
    a C-contiguous (m, c) array runs numpy's pairwise kernel on each row,
    so each sum is bit-equal to np.sum of that segment; np.add.reduceat
    sums differently and can differ in the last bit."""
    for length in np.unique(lengths):
        of = lengths == length
        yield of, starts[of, None] + np.arange(length)


@np.errstate(over="ignore", invalid="ignore")
def _daily_values(segment, samples, summed):
    """The daily value of every (segment, day) of valid samples.

    `summed` marks the samples whose segment takes daily sums, added in
    (offset, value) order as np.sum over the day would; the others take the
    median of the day's values, (a + b) / 2 for an even count, as
    statistics.median does.  Returns (segment, day rank, value) sorted by
    segment then day, and the distinct days the ranks index, each as
    offset // 24, one less than its day number.
    """
    off, val = samples[:, 0], samples[:, 1]
    days, rank = np.unique(np.floor_divide(off, HOURS_PER_DAY), return_inverse=True)
    cell = segment * len(days) + rank
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    counts = np.diff(starts, append=len(cell))
    summed = summed[order][starts]
    value = np.empty(len(starts))
    for of, at in _by_length(starts, counts):
        at = order[at]
        o, v, s = off[at], val[at], summed[of, None]
        v = np.take_along_axis(v, np.lexsort((np.where(s, v, o), np.where(s, o, v)), axis=1), 1)
        mid = v.shape[1] // 2
        median = v[:, mid] if v.shape[1] % 2 else (v[:, mid - 1] + v[:, mid]) / 2
        value[of] = np.where(summed[of], v.sum(axis=1), median)
    return cell[starts] // len(days), cell[starts] % len(days), value, days


def _regularize(timeline, summed: bool) -> dict:
    samples = _samples(timeline)
    owner = np.zeros(len(samples), np.int64)
    _, faults = _faults(samples, owner)
    if faults:
        raise DataError(faults[0][1])
    _, rank, value, days = _daily_values(owner, samples, np.full(len(samples), summed))
    return {int(day) + 1: v for day, v in zip(days[rank].tolist(), value.tolist())}


def daily_median(samples) -> dict:
    """Day -> median of that day's samples; days without samples are absent."""
    return _regularize(samples, summed=False)


def daily_sum(samples) -> dict:
    """Day -> sum of that day's samples (amounts); absent when empty."""
    return _regularize(samples, summed=True)


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


def _binary(value: float | None, name: str) -> float | None:
    if value is None:
        return None
    if value not in (-1.0, 1.0):
        raise DataError(f"{name} must be -1 or +1, got {value}")
    return float(value)


def _finite(value: float | None, name: str) -> float | None:
    if value is not None and not math.isfinite(value):
        raise DataError(f"{name} must be finite, got {value}")
    return value


def _scalars(attrs: dict, options: AssemblyOptions, fault: tuple | None) -> tuple:
    """The decision day T1 and the values of SCALAR_COLUMNS (None where
    unavailable), checked in the fixed order; `fault` is the series and
    reason of the record's first faulty timeline sample."""
    first_dose_hours = _finite(attrs.get("first_dose_hours"), "first dose hours")
    treated = first_dose_hours is not None
    first_dose_day = int(first_dose_hours // HOURS_PER_DAY) + 1 if treated else None
    t1 = decision_timepoint(first_dose_day, options.t1_default)
    age = _finite(attrs.get("age"), "age")
    gender = _binary(attrs.get("gender"), "gender")
    race = _binary(attrs.get("race"), "race")
    if fault and fault[0] < MEDIAN_SERIES:
        raise DataError(fault[1])
    elixhauser = _finite(attrs.get("elixhauser"), "Elixhauser score")
    elix_bin = attrs.get("elixhauser_binary") or (None,) * len(ELIX_BINARY_FIELDS)
    elix = [_binary(v, name) for v, name in zip(elix_bin, ELIX_BINARY_FIELDS, strict=True)]
    if fault:  # in a fluid timeline
        raise DataError(fault[1])
    binaries = [_binary(attrs.get(name), name) for name in ("vasopressors", "ventilation", "mortality")]
    los = _finite(attrs.get("los"), "length of stay")
    if los is not None and los < 0:
        raise DataError(f"length of stay must be >= 0, got {los}")
    values = [1.0 if treated else -1.0, age, gender, race, elixhauser]
    return t1, values + elix + binaries + [los]


@np.errstate(over="ignore", invalid="ignore")
def _blocks(segment, samples, t1, options: AssemblyOptions) -> tuple:
    """The five-slot blocks (mean over the days of 1..T1 present, day 1,
    day T1, day T2, day T3) of each series of BLOCK_START for each of the
    len(t1) records: the values of BLOCK_COLUMNS and the mask of those set."""
    k, n_series = len(TIMELINE_EXTRACTS), len(BLOCK_START)
    segment, rank, value, days = _daily_values(segment, samples, segment % k >= MEDIAN_SERIES)
    record, series = segment // k, segment % k
    # fluid inputs and outputs share one day grid, a missing side counting
    # 0.0, so that balance aggregates equal input-minus-output aggregates
    fluid = series >= MEDIAN_SERIES
    grid, at = np.unique(record[fluid] * len(days) + rank[fluid], return_inverse=True)
    sums = np.zeros((2, len(grid)))
    sums[series[fluid] - MEDIAN_SERIES, at] = value[fluid]
    record = np.concatenate([record[~fluid], *[grid // len(days)] * 3])
    day = days[np.concatenate([rank[~fluid], *[grid % len(days)] * 3])]  # offset // 24
    series = np.concatenate([series[~fluid], np.repeat(np.arange(MEDIAN_SERIES, n_series), len(grid))])
    value = np.concatenate([value[~fluid], sums[0], sums[1], sums[0] - sums[1]])
    block = record * n_series + series  # each block's days are contiguous and ascending

    values = np.empty((len(t1) * n_series, 5))
    have = np.zeros(values.shape, bool)
    first = np.zeros(len(values), np.int64)
    present, start = np.unique(block, return_index=True)
    first[present] = start
    counts = np.bincount(block[day < t1[record]], minlength=len(values))
    for of, at in _by_length(first, counts):  # the mean slot: days 1..T1 form a prefix
        values[of, 0] = value[at].sum(axis=1) / max(at.shape[1], 1)
    have[:, 0] = counts > 0
    for slot, target in enumerate((1, t1[record], options.t2, options.t3), start=1):
        on = day == target - 1
        values[block[on], slot], have[block[on], slot] = value[on], True
    return (a.reshape(len(t1), len(BLOCK_COLUMNS)) for a in (values, have))


def _rows(records: list, options: AssemblyOptions) -> tuple:
    """The rejection reasons so far (None for none), values and presence
    mask of the study rows of `records`."""
    n, k = len(records), len(TIMELINE_EXTRACTS)
    timelines = [_samples(rec.attrs.get(name)) for rec in records for name in TIMELINE_EXTRACTS]
    samples = np.concatenate(timelines) if timelines else np.empty((0, 2))
    segment = np.repeat(np.arange(n * k), [len(t) for t in timelines])  # record * k + series
    faulty, first = _faults(samples, segment // k)
    faults = {r: (segment[i] % k, reason) for r, (i, reason) in first.items()}  # (series, reason)

    reasons, scalars = [None] * n, []
    t1 = np.ones(n, dtype=np.int64)
    for r, rec in enumerate(records):
        try:
            t1[r], values = _scalars(rec.attrs, options, faults.get(r))
        except DataError as exc:
            reasons[r], values = str(exc), [None] * len(SCALAR_COLUMNS)
        scalars.append(values)

    # a None left by a non-default mandatory list becomes NaN
    x, have = np.empty((n, N_VARIABLES)), np.empty((n, N_VARIABLES), bool)
    x[:, SCALAR_COLUMNS] = np.array(scalars, float).reshape(n, len(SCALAR_COLUMNS))
    present = [[v is not None for v in row] for row in scalars]
    have[:, SCALAR_COLUMNS] = np.array(present, bool).reshape(n, len(SCALAR_COLUMNS))
    values, have[:, BLOCK_COLUMNS] = _blocks(segment[~faulty], samples[~faulty], t1, options)
    x[:, BLOCK_COLUMNS] = np.where(have[:, BLOCK_COLUMNS], values, np.nan)
    return reasons, x, have


def assemble_study_group(records, options: AssemblyOptions | None = None):
    """Build the study group from joined per-patient records.

    Each record is checked in one fixed order (first dose, age, gender,
    race, the median timelines, the Elixhauser score, the Elixhauser
    binaries, fluid inputs and outputs, the other binaries, length of
    stay), so a record with several
    faults is always rejected for the same one; a record that passes is
    rejected for the first mandatory variable left without a value.
    Rejections are returned as data, not raised.  Output rows are sorted
    by patient key.  Records are assembled RECORD_BLOCK at a time, which
    bounds the memory of the flattened timelines.
    """
    options = options or AssemblyOptions()
    records = list(records)
    n, keys, reasons = len(records), [rec.key() for rec in records], []
    x, have = np.empty((n, N_VARIABLES)), np.empty((n, N_VARIABLES), bool)
    for lo in range(0, n, RECORD_BLOCK):
        block = slice(lo, lo + RECORD_BLOCK)
        block_reasons, x[block], have[block] = _rows(records[block], options)
        reasons += block_reasons

    mandatory = sorted(options.mandatory)
    lacking = ~have[:, np.array(mandatory, dtype=int) - 1]
    for r in np.flatnonzero(lacking.any(axis=1)):
        reasons[r] = reasons[r] or f"x{mandatory[np.argmax(lacking[r])]} missing"
    rejections = [Rejection(key, reason) for key, reason in zip(keys, reasons) if reason]
    kept = sorted((r for r in range(n) if reasons[r] is None), key=keys.__getitem__)
    return StudyGroup([keys[r] for r in kept], x[kept]), rejections
