"""Variable preparation: daily regularization of irregular timelines,
decision timepoints and assembly of the 58-variable study rows.

Days are half-open 24-hour windows from ICU admission: day d covers
offsets in [24*(d-1), 24*d).  A timeline is a sequence of (offset_hours,
value) samples, regularized to the daily median (robust to outliers) or,
for fluid amounts, the daily sum.  Point variables are taken at day 1, the
decision day T1, and the fixed days T2 and T3; "average" variables are
arithmetic means over the days present in 1..T1 with missing days skipped.
Assembly works on consecutive blocks of records holding at most
SAMPLE_BLOCK timeline samples between them (a record with more forms a
block of its own), as segments of one flattened sample array, so the
memory its timelines take is set by the budget, not by the cohort.  Every
value and every rejection is computed per record, so where the blocks are
cut changes no output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .group import KEY_COLUMNS, N_VARIABLES, TREATMENT_INDEX, StudyGroup
from .cohort import ELIX_BINARY_FIELDS, EXTRACT_SCHEMAS, TIMELINE_EXTRACTS

HOURS_PER_DAY = 24.0

#: the timelines from this one on, fluid inputs and outputs, are regularized
#: to daily sums; the ones before it to daily medians
MEDIAN_SERIES = TIMELINE_EXTRACTS.index("fluids_in")
#: first x index of each five-slot block: the timelines', then fluid
#: balance's over the shared fluid-day grid
BLOCK_START = (*(EXTRACT_SCHEMAS[name].study_column for name in TIMELINE_EXTRACTS), 40)
BLOCK_COLUMNS = np.array([start - 1 + slot for start in BLOCK_START for slot in range(5)])
#: the slots of every block that depend on the decision day T1: the mean
#: over days 1..T1 and day T1
T1_DEPENDENT_INDICES = frozenset(start + slot for start in BLOCK_START for slot in (0, 2))
#: value extract -> the 0-based x columns its payload columns fill
VALUE_COLUMNS = {name: s.study_column - 1 + np.arange(len(s.columns))
                 for name, s in EXTRACT_SCHEMAS.items() if s.study_column and name not in TIMELINE_EXTRACTS}
#: the x column of each value _scalars returns, in order
SCALAR_COLUMNS = np.concatenate([[TREATMENT_INDEX - 1], *VALUE_COLUMNS.values()])
#: timeline samples assembled at once; a block holds at least one record
SAMPLE_BLOCK = 1 << 15


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


def _regularize(samples, summed: bool) -> dict:
    samples = np.asarray(samples, dtype=float).reshape(-1, 2)
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


@dataclass
class Rejection:
    key: tuple  # the record's id triple
    reason: str


@dataclass
class AssemblyOptions:
    t1_default: int = 4
    t2: int = 3
    t3: int = 4


def _first_dose(cohort) -> tuple:
    """Each record's first dose hours (NaN for none), whether it has one,
    and the day of a finite dose, as a float: it may not fit int64."""
    joined = cohort.extracts["diuretics"]
    dose = joined.first()
    return dose, joined.hit, np.floor_divide(np.where(np.isfinite(dose), dose, 0.0), HOURS_PER_DAY) + 1


def _scalars(cohort, options: AssemblyOptions, fault: np.ndarray, fault_reason: dict) -> tuple:
    """The values of SCALAR_COLUMNS of each record (NaN where unavailable),
    their presence, and the reason of the record's first failed check in
    the fixed order (None for none).  `fault` is the series of the record's
    first faulty timeline sample (len(TIMELINE_EXTRACTS) for none), and
    `fault_reason` holds its reason."""

    def finite(name, value, have):
        return have & ~np.isfinite(value), lambda r: f"{name} must be finite, got {value[r]}"

    def binary(name, value, have):
        return have & ~np.isin(value, (-1.0, 1.0)), lambda r: f"{name} must be -1 or +1, got {value[r]}"

    n = len(cohort)
    dose, treated, first_dose_day = _first_dose(cohort)
    # each value extract's (values, presence) pair per payload column
    read = {name: [(cohort.extracts[name].first(i), cohort.extracts[name].hit) for i in range(len(at))]
            for name, at in VALUE_COLUMNS.items()}
    (age, gender), [(los, has_los)] = read["demographics"], read["los"]
    checks = [
        finite("first dose hours", dose, treated),
        (treated & (first_dose_day >= 2.0**63), lambda r: f"first dose day must be < 2**63, got {first_dose_day[r]}"),
        (np.full(n, options.t1_default < 1), lambda r: "default decision day must be >= 1"),
        (treated & (first_dose_day < 1), lambda r: "first dose day must be >= 1"),
        finite("age", *age),
        binary("gender", *gender),
        binary("race", *read["race"][0]),
        (fault < MEDIAN_SERIES, fault_reason.get),
        finite("Elixhauser score", *read["elixhauser"][0]),
        *(binary(name, *values) for name, values in zip(ELIX_BINARY_FIELDS, read["elixhauser_binary"], strict=True)),
        (fault < len(TIMELINE_EXTRACTS), fault_reason.get),  # in a fluid timeline
        *(binary(name, *read[name][0]) for name in ("vasopressors", "ventilation", "mortality")),
        finite("length of stay", los, has_los),
        (has_los & (los < 0), lambda r: f"length of stay must be >= 0, got {los[r]}"),
    ]
    reasons = [None] * n
    for failing, reason in checks:
        for r in np.flatnonzero(failing).tolist():
            reasons[r] = reasons[r] or reason(r)
    scalars = [(np.where(treated, 1.0, -1.0), np.ones(n, bool)), *(pair for pairs in read.values() for pair in pairs)]
    return *(np.column_stack(a) for a in zip(*scalars)), reasons


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


def _timelines(cohort) -> tuple:
    """The samples of every record's timelines, one segment per record and
    series (record * len(TIMELINE_EXTRACTS) + series) in that order, each
    segment's rows in file order, and the segment of each sample."""
    spans = [cohort.extracts[name].spans() for name in TIMELINE_EXTRACTS]
    lengths = np.column_stack([count for _, count in spans]).ravel()
    starts = np.cumsum(lengths) - lengths
    samples = np.empty((lengths.sum(), 2))
    for series, (name, (lo, count)) in enumerate(zip(TIMELINE_EXTRACTS, spans)):
        at = starts[series :: len(TIMELINE_EXTRACTS)]
        samples[_ranges(at, count)] = cohort.extracts[name].table[_ranges(lo, count)]
    return samples, np.repeat(np.arange(len(lengths)), lengths)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions starts[i] .. starts[i] + counts[i] - 1 of every i, in order."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _record_blocks(cohort):
    """Consecutive slices of the records, each holding as many records as
    fit in SAMPLE_BLOCK timeline samples, and at least one."""
    counts = sum(cohort.extracts[name].spans()[1] for name in TIMELINE_EXTRACTS)
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(ends):
        hi = max(int(np.searchsorted(ends, ends[lo] - counts[lo] + SAMPLE_BLOCK, side="right")), lo + 1)
        yield slice(lo, hi)
        lo = hi


def assemble_study_group(cohort, options: AssemblyOptions | None = None):
    """Build the study group from the joined records of a cohort.

    Each record is checked in one fixed order (first dose, age, gender,
    race, the median timelines, the Elixhauser score, the Elixhauser
    binaries, fluid inputs and outputs, the other binaries, length of
    stay), so a record with several
    faults is always rejected for the same one; a record that passes is
    rejected for the first cell that its finite samples made non-finite
    (a day's sum or median, a mean, a balance), else for the first
    variable left without a value.
    Rejections are returned as data, not raised.  Output rows are sorted
    by patient key.  Timelines are assembled in blocks of consecutive
    records holding at most SAMPLE_BLOCK samples (one record alone where
    it holds more), so the flattened samples and their daily values take
    memory in proportion to the budget, not to the cohort.
    """
    options = options or AssemblyOptions()
    n, k = len(cohort), len(TIMELINE_EXTRACTS)
    no_id = np.argwhere(cohort.absent | (cohort.ids <= 0))
    if len(no_id):
        raise DataError(f"record {cohort.idents()[no_id[0, 0]]} has no positive {KEY_COLUMNS[no_id[0, 1]]}")
    _, treated, first_dose_day = _first_dose(cohort)
    # the decision day T1: the first-dose day when treated, else the default.
    # A day outside int64 is rejected (see _scalars); the clip only keeps
    # the cast defined
    t1 = np.where(treated, first_dose_day, options.t1_default)
    t1 = t1.clip(-(2.0**63), np.nextafter(2.0**63, 0)).astype(np.int64)
    fault, fault_reason = np.full(n, k), {}  # the series and reason of a record's first faulty sample
    x, have = np.empty((n, N_VARIABLES)), np.empty((n, N_VARIABLES), bool)
    for block in _record_blocks(cohort):
        samples, segment = _timelines(cohort.select(block))
        faulty, first = _faults(samples, segment // k)
        for r, (i, reason) in first.items():
            fault[block.start + r], fault_reason[block.start + r] = segment[i] % k, reason
        values, have[block, BLOCK_COLUMNS] = _blocks(segment[~faulty], samples[~faulty], t1[block], options)
        x[block, BLOCK_COLUMNS] = values
    x[:, SCALAR_COLUMNS], have[:, SCALAR_COLUMNS], reasons = _scalars(cohort, options, fault, fault_reason)

    overflow = have & ~np.isfinite(x)  # a day's sum or median, a mean or a balance of finite samples
    for r in np.flatnonzero(overflow.any(axis=1)):
        c = np.argmax(overflow[r])
        reasons[r] = reasons[r] or f"x{c + 1} must be finite, got {x[r, c]}"
    for r in np.flatnonzero(~have.all(axis=1)):  # every variable is mandatory
        reasons[r] = reasons[r] or f"x{np.argmin(have[r]) + 1} missing"
    rejections = [Rejection(key, reason) for key, reason in zip(map(tuple, cohort.ids.tolist()), reasons) if reason]
    kept = np.flatnonzero([reason is None for reason in reasons])
    kept = kept[np.lexsort(cohort.ids[kept].T[::-1])]  # by key triple
    return StudyGroup(cohort.ids[kept], x[kept]), rejections
