import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import synth_generate_oracle, synth_study_group_oracle

from icustudy.cohort import DEFAULT_PIPELINE, load_extracts, parse_pipeline, run_filter_pipeline
from icustudy.errors import InvalidSpec
from icustudy.group import COVARIATE_INDICES
from icustudy.varprep import T1_DEPENDENT_INDICES
from icustudy.synth import (
    ATTRITION_KINDS,
    LosModel,
    MortalityModel,
    SynthSpec,
    synth_generate,
    synth_study_group,
)
from icustudy.varprep import assemble_study_group

ATTRITION = {kind: 2 for kind in ATTRITION_KINDS}


def _dir_digest(path: Path) -> dict:
    out = {}
    for f in sorted(path.iterdir()):
        out[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def test_empty_spec_produces_empty_files(tmp_path):
    manifest = synth_generate(SynthSpec(n=0, seed=1), tmp_path)
    assert manifest.n_records == 0
    assert manifest.expected_rows == []
    assert all(count["surviving"] == 0 for count in manifest.step_counts)
    ids = (tmp_path / "ids.csv").read_text().strip().splitlines()
    assert ids == ["subject_id,hadm_id,icustay_id"]


def test_prevalence_target_realized(tmp_path):
    manifest = synth_generate(
        SynthSpec(n=1500, seed=2, prevalence_target=0.12), tmp_path
    )
    assert manifest.prevalence == pytest.approx(0.12, abs=0.03)


def test_same_seed_byte_identical(tmp_path):
    spec = SynthSpec(n=80, seed=3, attrition=ATTRITION)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    synth_generate(spec, d1)
    synth_generate(SynthSpec(n=80, seed=3, attrition=ATTRITION), d2)
    assert _dir_digest(d1) == _dir_digest(d2)


def test_different_seed_differs(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    synth_generate(SynthSpec(n=40, seed=4), d1)
    synth_generate(SynthSpec(n=40, seed=5), d2)
    assert _dir_digest(d1) != _dir_digest(d2)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        SynthSpec(n=10, treatment_beta={5: 1.0})  # depends on the decision day
    with pytest.raises(InvalidSpec):
        SynthSpec(n=10, attrition={"bad_kind": 1})
    with pytest.raises(InvalidSpec):
        SynthSpec(n=-1)
    with pytest.raises(InvalidSpec):
        SynthSpec(n=10, prevalence_target=1.5)
    for beta in ({1: 1.0}, {0: 1.0}, {57: 1.0}):  # x1 is the treatment, x57 an outcome
        with pytest.raises(InvalidSpec):
            SynthSpec(n=10, treatment_beta=beta)
    for idx in (0, 57, 58, 59):  # outcome models read x1..x56
        with pytest.raises(InvalidSpec):
            SynthSpec(n=10, mortality=MortalityModel(beta={idx: 0.1}))
        with pytest.raises(InvalidSpec):
            SynthSpec(n=10, los=LosModel(beta={idx: 0.1}))
    for days in (((0, 1.0),), ((2, 0.5), (7, 0.5)), ((2, 0.0), (3, 0.0)), ((2, -0.5), (3, 1.0))):
        with pytest.raises(InvalidSpec):
            SynthSpec(n=10, first_dose_days=days)
    for t1 in (0, 9):
        with pytest.raises(InvalidSpec):
            SynthSpec(n=10, t1_default=t1)


def test_pipeline_trace_matches_manifest(tmp_path):
    spec = SynthSpec(n=120, seed=6, attrition=ATTRITION)
    manifest = synth_generate(spec, tmp_path)
    records = load_extracts(tmp_path)
    assert len(records) == manifest.n_records
    survivors, trace = run_filter_pipeline(records, parse_pipeline(DEFAULT_PIPELINE))
    got = [(s.index, s.label, s.surviving_count) for s in trace.steps]
    want = [(c["index"], c["label"], c["surviving"]) for c in manifest.step_counts]
    assert got == want
    assert len(survivors) == manifest.step_counts[-1]["surviving"] == 120


def test_assembled_rows_match_manifest_field_by_field(tmp_path):
    spec = SynthSpec(n=50, seed=7, attrition=ATTRITION)
    manifest = synth_generate(spec, tmp_path)
    records = load_extracts(tmp_path)
    survivors, _ = run_filter_pipeline(records, parse_pipeline(DEFAULT_PIPELINE))
    group, rejections = assemble_study_group(survivors)
    assert not rejections
    assert group.n == len(manifest.expected_rows) == 50
    by_key = {
        (row["subject_id"], row["hadm_id"], row["icustay_id"]): row["x"]
        for row in manifest.expected_rows
    }
    for key, got in zip(group.keys, group.x):
        want = by_key[(key.subject_id, key.hadm_id, key.icustay_id)]
        assert got == pytest.approx(want, abs=1e-9)


def test_manifest_json_round_trip(tmp_path):
    manifest = synth_generate(SynthSpec(n=12, seed=8), tmp_path)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["seed"] == 8
    assert payload["n_requested"] == 12
    assert len(payload["expected_rows"]) == 12
    assert len(payload["step_counts"]) == 16


def test_in_memory_group_matches_file_route(tmp_path):
    spec_args = dict(n=40, seed=9, prevalence_target=0.2)
    manifest = synth_generate(SynthSpec(**spec_args), tmp_path)
    group = synth_study_group(SynthSpec(**spec_args))
    assert group.n == 40
    by_key = {
        (r["subject_id"], r["hadm_id"], r["icustay_id"]): r["x"]
        for r in manifest.expected_rows
    }
    for key, got in zip(group.keys, group.x):
        want = by_key[(key.subject_id, key.hadm_id, key.icustay_id)]
        assert got == pytest.approx(want, abs=1e-9)


def test_planted_outcome_models_recorded(tmp_path):
    spec = SynthSpec(
        n=30,
        seed=10,
        mortality=MortalityModel(alpha=-0.5, beta={2: 0.01}, interaction_treated_saps=-0.04),
        los=LosModel(alpha=7.0, treated_effect=2.6, noise_sd=1.0),
    )
    manifest = synth_generate(spec, tmp_path)
    assert manifest.params["mortality"]["interaction_treated_saps"] == -0.04
    assert manifest.params["los"]["treated_effect"] == 2.6
    assert manifest.params["los"]["alpha"] == 7.0


@pytest.mark.parametrize(
    "spec, column",
    [
        (SynthSpec(n=5, mortality=MortalityModel(beta={2: -20.0})), 57),
        (SynthSpec(n=5, treatment_beta={2: -20.0}), 1),
    ],
)
def test_linear_predictor_below_exp_range_draws_probability_zero(tmp_path, spec, column):
    """-20 per year of age puts the linear predictor near -1000, past where
    exp(-v) overflows; the probability is the formula's limit, 0."""
    group = synth_study_group(spec)
    assert (group.col(2) * 20.0 > 710.0).all()
    assert (group.col(column) == -1.0).all()
    manifest = synth_generate(spec, tmp_path)
    assert all(row["x"][column - 1] == -1.0 for row in manifest.expected_rows)


def test_los_always_non_negative():
    group = synth_study_group(
        SynthSpec(n=300, seed=11, los=LosModel(alpha=1.0, treated_effect=0.0, noise_sd=5.0))
    )
    assert (group.col(58) >= 0).all()


_DRIVERS = sorted(set(COVARIATE_INDICES) - T1_DEPENDENT_INDICES)
_COEFS = st.floats(-0.5, 0.5, allow_nan=False)


@st.composite
def _specs(draw) -> dict:
    """SynthSpec arguments: a small cohort with outcome betas on any study
    column (fluid and decision-day ones too), a SAPS interaction, its own
    first-dose days and decision day, and a few records of each attrition kind."""
    days = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True))
    return dict(
        n=draw(st.integers(0, 60)),
        seed=draw(st.integers(0, 2**32 - 1)),
        treatment_alpha=draw(st.floats(-3.0, 1.0)),
        treatment_beta=draw(st.dictionaries(st.sampled_from(_DRIVERS), _COEFS, max_size=4)),
        prevalence_target=draw(st.none() | st.floats(0.02, 0.98)),
        first_dose_days=tuple((d, draw(st.floats(0.05, 2.0))) for d in days),
        mortality=MortalityModel(
            alpha=draw(st.floats(-2.0, 1.0)),
            beta=draw(st.dictionaries(st.integers(1, 56), st.floats(-0.05, 0.05), max_size=4)),
            interaction_treated_saps=draw(st.floats(-0.1, 0.1)),
            treated_effect=draw(st.floats(-1.0, 1.0)),
        ),
        los=LosModel(
            alpha=draw(st.floats(0.0, 10.0)),
            treated_effect=draw(st.floats(-3.0, 3.0)),
            beta=draw(st.dictionaries(st.integers(1, 56), st.floats(-0.5, 0.5), max_size=4)),
            noise_sd=draw(st.floats(0.0, 5.0)),
        ),
        attrition=draw(st.dictionaries(st.sampled_from(ATTRITION_KINDS), st.integers(0, 3))),
        saps_sd=draw(st.floats(0.0, 8.0)),
        t1_default=draw(st.integers(1, 6)),
    )


@given(_specs())
@settings(max_examples=200, deadline=None)
def test_generator_matches_per_record_oracle(tmp_path_factory, args):
    """The columnar generator draws the same numbers in the same order as
    the per-record one, so every file it writes and every planted study row
    is the same to the last bit."""
    base = tmp_path_factory.mktemp("synth")
    got, want = base / "got", base / "want"
    synth_generate(SynthSpec(**args), got)
    synth_generate_oracle(SynthSpec(**args), want)
    assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in sorted(want.iterdir()):
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name
    group, oracle = synth_study_group(SynthSpec(**args)), synth_study_group_oracle(SynthSpec(**args))
    assert group.keys == oracle.keys
    assert group.x.tobytes() == oracle.x.tobytes()
