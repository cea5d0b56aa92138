import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import patient, write_extracts
from icustudy import varprep
from icustudy.cli import Run, _survivor_records
from icustudy.cohort import DEFAULT_PIPELINE, TIMELINE_EXTRACTS, load_extracts
from icustudy.cohort import parse_pipeline, run_filter_pipeline
from icustudy.config import RunConfig
from icustudy.errors import DataError
from icustudy.group import KEY_COLUMNS
from icustudy.synth import ATTRITION_KINDS, SynthSpec, synth_generate
from icustudy.varprep import (
    AssemblyOptions,
    assemble_study_group,
    daily_median,
    daily_sum,
)


# --- daily regularization ------------------------------------------------------


def test_daily_median_ignores_outlier():
    assert daily_median([(1, 2.0), (2, 4.0), (3, 100.0)]) == {1: 4.0}


def test_daily_median_even_count_midpoint():
    assert daily_median([(25, 1.0), (26, 3.0)]) == {2: 2.0}


def test_daily_median_matches_sort_oracle():
    rng = np.random.default_rng(3)
    offsets = rng.uniform(0, 7 * 24, size=500)
    values = rng.normal(size=500)
    got = daily_median(list(zip(offsets, values)))
    by_day = {}
    for off, val in zip(offsets, values):
        by_day.setdefault(int(off // 24) + 1, []).append(val)
    for day, vals in by_day.items():
        s = sorted(vals)
        n = len(s)
        want = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
        assert got[day] == pytest.approx(want, rel=1e-12)


def test_daily_median_idempotent_on_daily_series():
    daily_values = {d: float(d) * 1.5 for d in range(1, 8)}
    assert daily_median([(24.0 * (d - 1), v) for d, v in daily_values.items()]) == daily_values


def test_daily_sum_basic():
    assert daily_sum([(1, 0.5), (23, 0.5)]) == {1: 1.0}


def test_daily_sum_empty():
    assert daily_sum([]) == {}


def test_daily_sum_matches_accumulation_oracle():
    rng = np.random.default_rng(5)
    offsets = rng.uniform(0, 5 * 24, size=300)
    values = rng.uniform(0, 2, size=300)
    got = daily_sum(list(zip(offsets, values)))
    want = {}
    for off, val in zip(offsets, values):
        day = int(off // 24) + 1
        want[day] = want.get(day, 0.0) + val
    assert set(got) == set(want)
    for day in want:
        assert got[day] == pytest.approx(want[day], rel=1e-9)


def test_timeline_rejects_negative_offset():
    for regularize in (daily_median, daily_sum):
        with pytest.raises(DataError, match="offset must be finite and >= 0"):
            regularize([(1.0, 2.0), (-1.0, 2.0)])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_timeline_rejects_non_finite_value(value):
    for regularize in (daily_median, daily_sum):
        with pytest.raises(DataError, match="value must be finite"):
            regularize([(1.0, 2.0), (2.0, value)])


def test_window_boundary_is_half_open():
    assert daily_median([(24.0, 9.0), (23.999, 1.0)]) == {1: 1.0, 2: 9.0}


# --- assembly ---------------------------------------------------------------------


def _full_record(i=1, treated=False, first_dose_day=2, days=6):
    return patient(i, days, first_dose_hours=24.0 * (first_dose_day - 1) + 4.0 if treated else None)


def _assemble(directory, patients, options=None):
    """The study group and rejections of `patients` written as extract files."""
    write_extracts(directory, patients)
    return assemble_study_group(load_extracts(directory, study_only=True), options)


# --- decision timepoint --------------------------------------------------------------


def _decision_day(directory, options=None, **values):
    """The decision day T1 of one patient, read off x7 (SAPS on day T1) of
    a SAPS series that holds 10 d on day d."""
    rec = patient(1, 6, **values)
    rec["saps"] = [(24.0 * (d - 1), 10.0 * d) for d in range(1, 7)]
    group, rejections = _assemble(directory, [rec], options)
    assert not rejections
    return group.col(7)[0] / 10.0


def test_decision_timepoint_treated(tmp_path):
    assert _decision_day(tmp_path, first_dose_hours=28.0) == 2


def test_decision_timepoint_untreated_default(tmp_path):
    assert _decision_day(tmp_path) == 4


def test_decision_timepoint_configured_default(tmp_path):
    assert _decision_day(tmp_path, AssemblyOptions(t1_default=5)) == 5


@pytest.mark.parametrize(
    "options, dose, reason",
    [
        (AssemblyOptions(t1_default=0), None, "default decision day must be >= 1"),
        (None, -30.0, "first dose day must be >= 1"),
        # the largest day that fits int64 is a decision day no sample reaches
        (None, 24.0 * 2.0**62, "x7 missing"),
        (None, 24.0 * 2.0**63, "first dose day must be < 2**63, got 9.223372036854776e+18"),
        (None, 1e300, "first dose day must be < 2**63, got 4.166666666666667e+298"),
    ],
)
def test_decision_timepoint_rejections(tmp_path, options, dose, reason):
    group, rejections = _assemble(tmp_path, [patient(1, first_dose_hours=dose)], options)
    assert group.n == 0
    assert [r.reason for r in rejections] == [reason]


def test_assembly_constant_series_all_timepoints_equal(tmp_path):
    group, rejections = _assemble(tmp_path, [_full_record()])
    assert not rejections
    row = group.x[0]
    assert all(row[i] == 15.0 for i in range(4, 9))  # x5..x9
    assert all(row[i] == 8.0 for i in range(9, 14))  # x10..x14
    assert group.col(1)[0] == -1.0  # untreated


def test_assembly_fluids_balance_example(tmp_path):
    rec = _full_record()
    rec["fluids_in"] = [(0.0, 2.0), (24.0, 1.0), (48.0, 1.0), (72.5, 1.0)]  # days 1 to 4
    rec["fluids_out"] = [(0.0, 1.0), (24.0, 1.0), (48.0, 1.0), (72.5, 1.0)]
    group, rejections = _assemble(tmp_path, [rec])
    assert not rejections
    # x41 = day-1 balance, x42 = balance at T1 (day 4 for untreated)
    assert group.col(41)[0] == pytest.approx(1.0)
    assert group.col(42)[0] == pytest.approx(0.0)


def test_assembly_balance_identity(tmp_path):
    # coverage differs by side: some days carry inputs with no output
    # record (and the reverse), which the shared day grid zero-fills
    rng = np.random.default_rng(11)
    records = []
    for i in range(1, 21):
        rec = _full_record(i, treated=bool(rng.random() < 0.4))
        skip_in = {int(rng.integers(2, 7))} if i % 3 == 0 else set()
        skip_out = {int(rng.integers(2, 7))} if i % 3 == 1 else set()
        rec["fluids_in"] = [
            (24.0 * (d - 1) + float(h), float(rng.uniform(0, 1)))
            for d in range(1, 7)
            if d not in skip_in
            for h in (2, 9, 15)
        ]
        rec["fluids_out"] = [
            (24.0 * (d - 1) + float(h), float(rng.uniform(0, 1)))
            for d in range(1, 7)
            if d not in skip_out
            for h in (4, 12)
        ]
        records.append(rec)
    group, rejections = _assemble(tmp_path, records)
    assert not rejections
    for offset in range(5):
        balance = group.col(40 + offset)
        diff = group.col(30 + offset) - group.col(35 + offset)
        assert balance == pytest.approx(diff, abs=1e-9)


def test_assembly_average_within_daily_range(tmp_path):
    rng = np.random.default_rng(13)
    rec = _full_record(treated=True, first_dose_day=4)
    daily = {d: float(rng.uniform(10, 20)) for d in range(1, 7)}
    rec["saps"] = [(24.0 * (d - 1) + 1.0, v) for d, v in daily.items()]
    group, _ = _assemble(tmp_path, [rec])
    x5 = group.col(5)[0]
    used = [daily[d] for d in range(1, 5)]
    assert min(used) <= x5 <= max(used)
    assert x5 == pytest.approx(np.mean(used), rel=1e-12)


def test_assembly_rejects_first_missing_variable(tmp_path):
    rec = _full_record()
    rec["creatinine"] = []  # x25..x29 all missing
    group, rejections = _assemble(tmp_path, [rec])
    assert group.n == 0
    assert len(rejections) == 1
    assert rejections[0].reason == "x25 missing"


def test_assembly_binary_encoding_enforced(tmp_path):
    rec = _full_record()
    rec["gender"] = 0.5
    group, rejections = _assemble(tmp_path, [rec])
    assert group.n == 0
    assert "gender" in rejections[0].reason


@pytest.mark.parametrize(
    "name, sample, reason",
    [
        ("saps", (30.0, float("nan")), "timeline value must be finite, got nan"),
        ("bp_mean", (30.0, float("inf")), "timeline value must be finite, got inf"),
        ("fluids_out", (float("nan"), 1.0), "timeline offset must be finite and >= 0, got nan"),
        ("fluids_in", (float("inf"), 1.0), "timeline offset must be finite and >= 0, got inf"),
    ],
)
def test_assembly_rejects_non_finite_timeline_sample(tmp_path, name, sample, reason):
    rec = _full_record()
    rec[name] = rec[name] + [sample]
    group, rejections = _assemble(tmp_path, [rec])
    assert group.n == 0
    assert [r.reason for r in rejections] == [reason]


@pytest.mark.parametrize(
    "name, value, reason",
    [
        ("age", float("inf"), "age must be finite, got inf"),
        ("age", float("nan"), "age must be finite, got nan"),
        ("elixhauser", float("nan"), "Elixhauser score must be finite, got nan"),
        ("elixhauser", float("-inf"), "Elixhauser score must be finite, got -inf"),
        ("los", float("nan"), "length of stay must be finite, got nan"),
        ("los", float("inf"), "length of stay must be finite, got inf"),
    ],
)
def test_assembly_rejects_non_finite_scalar(tmp_path, name, value, reason):
    # the record is rejected alone; it must not reach the study matrix,
    # where an infinite cell fails the whole group and a NaN passes
    records = [_full_record(1), _full_record(2)]
    records[1][name] = value
    group, rejections = _assemble(tmp_path, records)
    assert [k.subject_id for k in group.keys] == [1]
    assert [(r.key[0], r.reason) for r in rejections] == [(2, reason)]


def _huge_on(days, level, huge=1e308):
    """One sample a day over six days: `huge` on `days`, `level` on the others."""
    return [(24.0 * (d - 1) + 6.0, huge if d in days else level) for d in range(1, 7)]


@pytest.mark.parametrize(
    "values, reason",
    [
        # a day's sum: 2e308 overflows
        ({"fluids_in": [(1.0, 1e308), (2.0, 1e308), (3.0, 1e308)]}, "x30 must be finite, got inf"),
        # the median of two huge values: (a + b) / 2
        ({"saps": _huge_on({2}, 15.0) + [(31.0, 1e308)]}, "x5 must be finite, got inf"),
        # the mean over days 1..T1 of finite daily values
        ({"sofa": _huge_on({1, 2}, 8.0)}, "x10 must be finite, got inf"),
        # the balance, inputs minus outputs
        ({"fluids_in": _huge_on({3}, 2.0), "fluids_out": _huge_on({3}, 1.0, huge=-1e308)},
         "x40 must be finite, got inf"),
    ],
)
def test_assembly_rejects_non_finite_derived_cell(tmp_path, values, reason):
    # finite samples whose daily value, mean or balance overflows reject
    # their record alone, naming the first such column
    records = [_full_record(1), _full_record(2)]
    records[1].update(values)
    group, rejections = _assemble(tmp_path, records)
    assert [k.subject_id for k in group.keys] == [1]
    assert [(r.key[0], r.reason) for r in rejections] == [(2, reason)]


def test_assembly_checks_gender_before_timelines(tmp_path):
    rec = _full_record()
    rec["gender"] = 0.0
    rec["saps"] = rec["saps"] + [(30.0, float("nan"))]
    _, rejections = _assemble(tmp_path, [rec])
    assert [r.reason for r in rejections] == ["gender must be -1 or +1, got 0.0"]


def test_assembly_checks_fluid_offsets_before_los(tmp_path):
    rec = _full_record()
    rec["los"] = -1.0
    rec["fluids_in"] = [(-2.0, 1.0)] + rec["fluids_in"]
    _, rejections = _assemble(tmp_path, [rec])
    assert [r.reason for r in rejections] == ["timeline offset must be finite and >= 0, got -2.0"]


def test_assembly_check_order_is_fixed(tmp_path):
    # each fault alone, then every pair: the one earlier in this list names the rejection
    faults = [
        ("first_dose_hours", float("nan")),
        ("first_dose_hours", 24.0 * 2.0**63),
        ("first_dose_hours", -30.0),
        ("age", float("inf")),
        ("gender", 0.5),
        ("race", 2.0),
        ("saps", [(1.0, float("nan"))]),
        ("bp_mean", [(-1.0, 70.0)]),
        ("elixhauser", float("nan")),
        ("elixhauser_binary", [1.0] * 8 + [0.0]),
        ("fluids_in", [(float("inf"), 1.0)]),
        ("fluids_out", [(1.0, float("-inf"))]),
        ("vasopressors", 0.0),
        ("ventilation", 3.0),
        ("mortality", 0.25),
        ("los", float("-inf")),
        ("los", -1.0),
        ("fluids_in", [(1.0, 1e308), (2.0, 1e308)]),
        ("creatinine", []),
    ]
    reasons = []
    for name, value in faults:
        rec = _full_record()
        rec[name] = value
        _, rejections = _assemble(tmp_path, [rec])
        reasons.append(rejections[0].reason)
    assert len(set(reasons)) == len(reasons)
    for a in range(len(faults)):
        for b in range(a + 1, len(faults)):
            rec = _full_record()
            for name, value in (faults[b], faults[a]):
                rec[name] = value
            _, rejections = _assemble(tmp_path, [rec])
            assert rejections[0].reason == reasons[a], (faults[a][0], faults[b][0])


def test_assembly_treated_t1_from_first_dose(tmp_path):
    rec = _full_record(treated=True, first_dose_day=2)
    daily = {d: float(d * 10) for d in range(1, 7)}
    rec["saps"] = [(24.0 * (d - 1), v) for d, v in daily.items()]
    group, _ = _assemble(tmp_path, [rec])
    assert group.col(1)[0] == 1.0
    assert group.col(7)[0] == 20.0  # value at T1 = day 2
    assert group.col(5)[0] == pytest.approx(15.0)  # mean of days 1..2
    assert group.col(8)[0] == 30.0  # T2 = day 3
    assert group.col(9)[0] == 40.0  # T3 = day 4


def test_decision_day_moves_exactly_the_t1_dependent_columns(tmp_path):
    # an untreated record's T1 is the default; every timeline (and so the
    # fluid balance) takes another value each day
    rec = _full_record()
    for step, name in enumerate(TIMELINE_EXTRACTS, 1):
        rec[name] = [(offset, level + step * d) for d, (offset, level) in enumerate(rec[name])]
    rows = [_assemble(tmp_path / f"t1-{t1}", [rec], AssemblyOptions(t1_default=t1))[0].x[0] for t1 in (2, 4)]
    assert set(np.flatnonzero(rows[0] != rows[1]) + 1) == varprep.T1_DEPENDENT_INDICES


def test_assembly_sorted_by_key(tmp_path):
    records = [_full_record(i) for i in (5, 2, 9, 1)]
    group, _ = _assemble(tmp_path, records)
    subjects = [k.subject_id for k in group.keys]
    assert subjects == sorted(subjects)


@given(st.lists(st.tuples(st.floats(0, 167.9), st.floats(-50, 50)), min_size=1, max_size=40))
@settings(max_examples=100)
def test_daily_median_within_sample_range(samples):
    daily = daily_median(samples)
    by_day = {}
    for off, val in samples:
        by_day.setdefault(int(off // 24) + 1, []).append(val)
    assert set(daily) == set(by_day)
    for day, value in daily.items():
        assert min(by_day[day]) <= value <= max(by_day[day])


# --- the columnar path against the per-record oracle ------------------------------------

_FAULTY_SAMPLES = [
    (float("nan"), 1.0), (float("inf"), 1.0), (-0.5, 1.0),
    (3.0, float("nan")), (3.0, float("inf")), (3.0, float("-inf")), (-2.0, float("nan")),
]


def _crowd(rng, samples):
    """`samples` plus 0-9 samples on one day that already holds some, with
    values of widely different magnitude, repeated offsets and signed zeros."""
    if not len(samples):
        return samples
    day = int(samples[rng.integers(len(samples)), 0] // 24)
    extra = int(rng.integers(0, 10))
    offsets = 24.0 * day + rng.choice([0.0, 5.5, 11.0, rng.uniform(0, 24)], size=extra)
    values = rng.normal(size=extra) * 10.0 ** rng.integers(-3, 5, size=extra)
    values[rng.random(extra) < 0.1] = rng.choice([0.0, -0.0])
    return np.concatenate([samples, np.column_stack([offsets, values])])


def _inject_faults(rng, rec):
    """The values of `rec` (an oracle Record) with crowded days in every
    timeline and 0-4 faults, as a patient for `write_extracts`."""
    attrs = dict(rec.attrs)
    for name in TIMELINE_EXTRACTS:
        if attrs.get(name) is not None:
            attrs[name] = _crowd(rng, np.asarray(attrs[name]))
    for _ in range(int(rng.integers(0, 5))):
        kind = int(rng.integers(0, 9))
        name = str(rng.choice(TIMELINE_EXTRACTS))
        if kind == 0:  # one faulty sample among the others
            samples = np.asarray(attrs.get(name) if attrs.get(name) is not None else np.empty((0, 2)))
            bad = _FAULTY_SAMPLES[int(rng.integers(len(_FAULTY_SAMPLES)))]
            attrs[name] = np.insert(samples, int(rng.integers(len(samples) + 1)), bad, axis=0)
        elif kind == 1:
            binary = str(rng.choice(["gender", "race", "vasopressors", "ventilation", "mortality"]))
            attrs[binary] = float(rng.choice([0.0, 0.5, 2.0, -3.0]))
        elif kind == 2 and attrs.get("elixhauser_binary") is not None:
            elix = list(attrs["elixhauser_binary"])
            elix[int(rng.integers(len(elix)))] = 0.0
            attrs["elixhauser_binary"] = tuple(elix)
        elif kind == 3:
            attrs["los"] = -float(rng.uniform(0.1, 5.0))
        elif kind == 4:  # an emptied series
            attrs[name] = None if rng.random() < 0.5 else np.empty((0, 2))
        elif kind == 5:  # a negative, NaN or infinite first dose
            attrs["first_dose_hours"] = float(rng.choice([-rng.uniform(1.0, 30.0), np.nan, np.inf, -np.inf]))
        elif kind == 6:
            attrs[str(rng.choice(["age", "elixhauser", "los", "first_dose_hours"]))] = None
        elif kind == 7:  # a NaN or infinite scalar
            attrs[str(rng.choice(["age", "elixhauser", "los"]))] = float(rng.choice([np.nan, np.inf, -np.inf]))
        else:  # two finite samples whose day's sum or median overflows
            samples = np.asarray(attrs.get(name) if attrs.get(name) is not None else np.empty((0, 2)))
            day = float(rng.integers(0, 6)) * 24.0
            attrs[name] = np.concatenate([samples, [[day + 1.0, 1e308], [day + 2.0, 1e308]]])
    return dict(zip(KEY_COLUMNS, rec.ident), **attrs)


def _assert_same_assembly(cohort, options):
    got, got_rejections = assemble_study_group(cohort, options)
    want, want_rejections = oracles.assemble_study_group_oracle(oracles.cohort_records(cohort), options)
    assert got.keys == want.keys
    assert got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()
    assert [(r.key, r.reason) for r in got_rejections] == [(r.key, r.reason) for r in want_rejections]
    return got, got_rejections


#: the defaults, other decision days that the synthetic timelines reach,
#: and a T3 that none reaches, so that every record is rejected
_ORACLE_OPTIONS = [
    AssemblyOptions(),
    AssemblyOptions(t1_default=2, t2=2, t3=6),
    AssemblyOptions(t1_default=2, t2=2, t3=9),
]


#: the default sample budget, which takes the whole cohort as one block;
#: 1, which makes every record a block, most of them over the budget; and
#: a budget that cuts the cohort into blocks of several records
_BUDGETS = [(0, varprep.SAMPLE_BLOCK), (1, 1), (2, 1000)]


@pytest.mark.parametrize("seed, sample_block", _BUDGETS)
def test_assembly_matches_per_record_oracle(tmp_path, monkeypatch, seed, sample_block):
    monkeypatch.setattr(varprep, "SAMPLE_BLOCK", sample_block)
    synth_generate(SynthSpec(n=120, seed=seed, attrition={k: 2 for k in ATTRITION_KINDS}), tmp_path / "synth")
    loaded = load_extracts(tmp_path / "synth")
    loaded = loaded.select(np.flatnonzero(~loaded.absent.any(axis=1)))
    rng = np.random.default_rng(seed)
    write_extracts(tmp_path / "injected", [_inject_faults(rng, rec) for rec in oracles.cohort_records(loaded)])
    injected = load_extracts(tmp_path / "injected")
    empty = loaded.select(np.arange(0))
    blocks = [b.stop - b.start for b in varprep._record_blocks(injected)]
    if seed < 2:  # the cohort whole, or a record a block
        assert blocks == ([len(injected)] if seed == 0 else [1] * len(injected))
    else:
        assert sum(blocks) == len(injected) and 5 < len(blocks) < len(injected) / 4
    *reached, late_t3 = _ORACLE_OPTIONS
    for options in reached:
        group, _ = _assert_same_assembly(loaded, options)
        assert group.n > 100
        group, rejections = _assert_same_assembly(injected, options)
        assert group.n > 10 and len(rejections) > 50
    for cohort in (loaded, injected):
        group, rejections = _assert_same_assembly(cohort, late_t3)
        assert group.n == 0 and sum(r.reason == "x9 missing" for r in rejections) > 20
    for options in _ORACLE_OPTIONS:
        group, rejections = _assert_same_assembly(empty, options)
        assert group.n == 0 and not rejections


def test_assembly_memory_is_bounded_by_the_sample_budget(tmp_path):
    """The transient memory of assembly (its peak less what it still holds
    after) stays flat from 300 to 4800 records; blocks of a fixed record
    count grew it 3.5-fold."""
    transient = {}
    for n in (300, 1200, 4800):
        synth_generate(SynthSpec(n, seed=3), tmp_path / str(n))
        cohort = load_extracts(tmp_path / str(n))
        tracemalloc.start()
        try:
            group, _ = assemble_study_group(cohort)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.n == n
        transient[n] = peak - held
    assert transient[1200] <= 1.25 * transient[300] and transient[4800] <= 1.25 * transient[300], transient


def test_staged_survivors_assemble_like_a_full_reload(tmp_path):
    extracts = tmp_path / "extracts"
    synth_generate(SynthSpec(n=150, seed=4, attrition={k: 2 for k in ATTRITION_KINDS}), extracts)
    survivors, _ = run_filter_pipeline(load_extracts(extracts), parse_pipeline(DEFAULT_PIPELINE))
    path = tmp_path / "survivors.csv"
    path.write_text(",".join(KEY_COLUMNS) + "\n" + "".join(",".join(map(str, ident)) + "\n" for ident in survivors.idents()))
    config = RunConfig()
    config.set_option("extracts_dir", str(extracts))
    got = _survivor_records(Run(config, tmp_path), path)
    want = oracles.survivor_records_oracle(extracts, path)
    assert got.idents() == [r.ident for r in want] == survivors.idents()
    group, _ = assemble_study_group(got)
    oracle_group, oracle_rejections = oracles.assemble_study_group_oracle(want)
    assert group.keys == oracle_group.keys and group.x.tobytes() == oracle_group.x.tobytes()
    assert group.n == 150 and not oracle_rejections


_SAMPLE_VALUES = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 6.0, 23.5, 24.0, 30.0, 30.0]), st.floats(0, 200)),
            st.one_of(_SAMPLE_VALUES, st.sampled_from([0.0, -0.0, 1e-300, 1e300])),
        ),
        max_size=60,
    ),
    st.one_of(st.none(), st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True))),
)
@settings(max_examples=300)
def test_daily_regularizers_match_per_record_oracle(samples, extra):
    if extra is not None:
        samples = samples + [extra]
    for regularize, oracle in ((daily_median, oracles.daily_median), (daily_sum, oracles.daily_sum)):
        try:
            want = {day: repr(value) for day, value in oracle(samples).items()}
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                regularize(samples)
            continue
        assert {day: repr(value) for day, value in regularize(samples).items()} == want
