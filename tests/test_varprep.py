import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icustudy.cohort import Record
from icustudy.errors import DataError, MissingDay, ZeroDenominator
from icustudy.varprep import (
    AssemblyOptions,
    assemble_study_group,
    daily_median,
    daily_sum,
    decision_timepoint,
    fluids_ratio,
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


# --- fluids ratio -----------------------------------------------------------------


def test_fluids_ratio_symmetric_is_one():
    assert fluids_ratio({1: 2.0, 2: 3.0}, {1: 2.0, 2: 3.0}, 2) == 1.0


def test_fluids_ratio_value():
    assert fluids_ratio({1: 2.0, 2: 2.0}, {1: 1.0, 2: 1.0}, 2) == 2.0


def test_fluids_ratio_matches_formula():
    rng = np.random.default_rng(7)
    inputs = {d: float(v) for d, v in enumerate(rng.uniform(0.5, 3, 8), start=1)}
    outputs = {d: float(v) for d, v in enumerate(rng.uniform(0.5, 3, 8), start=1)}
    for t in range(2, 9):
        want = (inputs[t - 1] + inputs[t]) / (outputs[t - 1] + outputs[t])
        assert fluids_ratio(inputs, outputs, t) == pytest.approx(want, rel=1e-12)


def test_fluids_ratio_missing_day():
    with pytest.raises(MissingDay):
        fluids_ratio({2: 1.0}, {1: 1.0, 2: 1.0}, 2)


def test_fluids_ratio_zero_denominator():
    with pytest.raises(ZeroDenominator):
        fluids_ratio({1: 1.0, 2: 1.0}, {1: 0.0, 2: 0.0}, 2)


# --- decision timepoint --------------------------------------------------------------


def test_decision_timepoint_treated():
    assert decision_timepoint(2) == 2


def test_decision_timepoint_untreated_default():
    assert decision_timepoint(None) == 4


def test_decision_timepoint_configured_default():
    assert decision_timepoint(None, default_untreated=5) == 5


# --- assembly ---------------------------------------------------------------------


def _full_record(i=1, treated=False, first_dose_day=2, days=6):
    attrs = {
        "age": 60.0,
        "gender": 1.0,
        "race": -1.0,
        "elixhauser": 3.0,
        "elixhauser_binary": [1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0],
        "vasopressors": 1.0,
        "ventilation": -1.0,
        "mortality": -1.0,
        "los": 5.5,
        "first_dose_hours": 24.0 * (first_dose_day - 1) + 4.0 if treated else None,
    }
    for name, level in (
        ("saps", 15.0),
        ("sofa", 8.0),
        ("creatinine", 1.5),
        ("bp", 110.0),
        ("bp_mean", 78.0),
    ):
        attrs[name] = [(24.0 * (d - 1) + 6.0, level) for d in range(1, days + 1)]
    attrs["fluids_in"] = [(24.0 * (d - 1) + 6.0, 2.0) for d in range(1, days + 1)]
    attrs["fluids_out"] = [(24.0 * (d - 1) + 6.0, 1.0) for d in range(1, days + 1)]
    return Record(i, 100 + i, 1000 + i, attrs)


def test_assembly_constant_series_all_timepoints_equal():
    group, rejections = assemble_study_group([_full_record()])
    assert not rejections
    row = group.x[0]
    assert all(row[i] == 15.0 for i in range(4, 9))  # x5..x9
    assert all(row[i] == 8.0 for i in range(9, 14))  # x10..x14
    assert group.col(1)[0] == -1.0  # untreated


def test_assembly_fluids_balance_example():
    rec = _full_record()
    rec.attrs["fluids_in"] = [(0.0, 2.0), (72.5, 1.0)]  # days 1 and 4
    rec.attrs["fluids_out"] = [(0.0, 1.0), (72.5, 1.0)]
    group, rejections = assemble_study_group(
        [rec], AssemblyOptions(mandatory=(1, 2, 3, 57, 58))
    )
    assert not rejections
    # x41 = day-1 balance, x42 = balance at T1 (day 4 for untreated)
    assert group.col(41)[0] == pytest.approx(1.0)
    assert group.col(42)[0] == pytest.approx(0.0)


def test_assembly_balance_identity():
    # coverage differs by side: some days carry inputs with no output
    # record (and the reverse), which the shared day grid zero-fills
    rng = np.random.default_rng(11)
    records = []
    for i in range(1, 21):
        rec = _full_record(i, treated=bool(rng.random() < 0.4))
        skip_in = {int(rng.integers(2, 7))} if i % 3 == 0 else set()
        skip_out = {int(rng.integers(2, 7))} if i % 3 == 1 else set()
        rec.attrs["fluids_in"] = [
            (24.0 * (d - 1) + float(h), float(rng.uniform(0, 1)))
            for d in range(1, 7)
            if d not in skip_in
            for h in (2, 9, 15)
        ]
        rec.attrs["fluids_out"] = [
            (24.0 * (d - 1) + float(h), float(rng.uniform(0, 1)))
            for d in range(1, 7)
            if d not in skip_out
            for h in (4, 12)
        ]
        records.append(rec)
    group, rejections = assemble_study_group(records)
    assert not rejections
    for offset in range(5):
        balance = group.col(40 + offset)
        diff = group.col(30 + offset) - group.col(35 + offset)
        assert balance == pytest.approx(diff, abs=1e-9)


def test_assembly_average_within_daily_range():
    rng = np.random.default_rng(13)
    rec = _full_record(treated=True, first_dose_day=4)
    daily = {d: float(rng.uniform(10, 20)) for d in range(1, 7)}
    rec.attrs["saps"] = [(24.0 * (d - 1) + 1.0, v) for d, v in daily.items()]
    group, _ = assemble_study_group([rec])
    x5 = group.col(5)[0]
    used = [daily[d] for d in range(1, 5)]
    assert min(used) <= x5 <= max(used)
    assert x5 == pytest.approx(np.mean(used), rel=1e-12)


def test_assembly_rejects_first_missing_variable():
    rec = _full_record()
    rec.attrs["creatinine"] = []  # x25..x29 all missing
    group, rejections = assemble_study_group([rec])
    assert group.n == 0
    assert len(rejections) == 1
    assert rejections[0].reason == "x25 missing"


def test_assembly_mandatory_list_is_configuration():
    rec = _full_record()
    rec.attrs["creatinine"] = []
    options = AssemblyOptions(mandatory=tuple(i for i in range(1, 59) if not 25 <= i <= 29))
    group, rejections = assemble_study_group([rec], options)
    assert group.n == 1
    assert not rejections


def test_assembly_binary_encoding_enforced():
    rec = _full_record()
    rec.attrs["gender"] = 0.5
    group, rejections = assemble_study_group([rec])
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
def test_assembly_rejects_non_finite_timeline_sample(name, sample, reason):
    rec = _full_record()
    rec.attrs[name] = rec.attrs[name] + [sample]
    group, rejections = assemble_study_group([rec])
    assert group.n == 0
    assert [r.reason for r in rejections] == [reason]


def test_assembly_checks_gender_before_timelines():
    rec = _full_record()
    rec.attrs["gender"] = 0.0
    rec.attrs["saps"] = rec.attrs["saps"] + [(30.0, float("nan"))]
    _, rejections = assemble_study_group([rec])
    assert [r.reason for r in rejections] == ["gender must be -1 or +1, got 0.0"]


def test_assembly_checks_fluid_offsets_before_los():
    rec = _full_record()
    rec.attrs["los"] = -1.0
    rec.attrs["fluids_in"] = [(-2.0, 1.0)] + rec.attrs["fluids_in"]
    _, rejections = assemble_study_group([rec])
    assert [r.reason for r in rejections] == ["timeline offset must be finite and >= 0, got -2.0"]


def test_assembly_check_order_is_fixed():
    # each fault alone, then every pair: the one earlier in this list names the rejection
    faults = [
        ("gender", 0.5),
        ("race", 2.0),
        ("saps", [(1.0, float("nan"))]),
        ("bp_mean", [(-1.0, 70.0)]),
        ("elixhauser_binary", [1.0] * 8 + [0.0]),
        ("fluids_in", [(float("inf"), 1.0)]),
        ("fluids_out", [(1.0, float("-inf"))]),
        ("vasopressors", 0.0),
        ("ventilation", 3.0),
        ("mortality", 0.25),
        ("los", -1.0),
    ]
    reasons = []
    for name, value in faults:
        rec = _full_record()
        rec.attrs[name] = value
        _, rejections = assemble_study_group([rec])
        reasons.append(rejections[0].reason)
    assert len(set(reasons)) == len(reasons)
    for a in range(len(faults)):
        for b in range(a + 1, len(faults)):
            rec = _full_record()
            for name, value in (faults[b], faults[a]):
                rec.attrs[name] = value
            _, rejections = assemble_study_group([rec])
            assert rejections[0].reason == reasons[a], (faults[a][0], faults[b][0])


def test_assembly_treated_t1_from_first_dose():
    rec = _full_record(treated=True, first_dose_day=2)
    daily = {d: float(d * 10) for d in range(1, 7)}
    rec.attrs["saps"] = [(24.0 * (d - 1), v) for d, v in daily.items()]
    group, _ = assemble_study_group([rec])
    assert group.col(1)[0] == 1.0
    assert group.col(7)[0] == 20.0  # value at T1 = day 2
    assert group.col(5)[0] == pytest.approx(15.0)  # mean of days 1..2
    assert group.col(8)[0] == 30.0  # T2 = day 3
    assert group.col(9)[0] == 40.0  # T3 = day 4


def test_assembly_sorted_by_key():
    records = [_full_record(i) for i in (5, 2, 9, 1)]
    group, _ = assemble_study_group(records)
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
