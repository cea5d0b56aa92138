import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icustudy
from icustudy import cli
from icustudy.cli import ALL_STAGES, Run, main, run_all
from icustudy.cohort import Cohort
from icustudy.config import RunConfig
from icustudy.errors import ConfigError, DataError
from icustudy.evoml import GpRun


# --- configuration -------------------------------------------------------------


def test_config_defaults_documented():
    config = RunConfig()
    assert config.t1_default == 4
    assert config.t2_day == 3
    assert config.t3_day == 4
    assert config.p_enter == 0.05
    assert config.refine_fraction == 0.25
    assert config.gp_population_size == 100
    assert config.gp_generations == 10
    assert config.gp_max_depth == 17


def test_config_parses_flat_file():
    config = RunConfig.from_text("seed = 9\n# comment\n\np_enter = 0.1\nout_dir = x\n")
    assert config.seed == 9
    assert config.p_enter == 0.1
    assert config.out_dir == "x"


def test_config_unknown_key_is_error():
    with pytest.raises(ConfigError):
        RunConfig.from_text("bogus_key = 1\n")


def test_config_bad_value_is_error():
    with pytest.raises(ConfigError):
        RunConfig.from_text("seed = notanumber\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("just a line\n")


# --- CLI ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    """One small synthetic cohort and a full pipeline run."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.cfg"
    config.write_text(
        "extracts_dir = {0}/extracts\nout_dir = {0}/out\nseed = 7\n"
        "synth_n = 150\nsynth_prevalence = 0.15\n".format(root)
    )
    assert main(["synth", "--config", str(config), "--out", str(root / "extracts")]) == 0
    assert main(["run-all", "--config", str(config)]) == 0
    return root, config


EXPECTED_REPORTS = [
    "trace.csv",
    "survivors.csv",
    "studygroup.csv",
    "rejections.csv",
    "model.txt",
    "model_refined.txt",
    "propensity_fit.csv",
    "strata.csv",
    "quintile_table.csv",
    "balance.csv",
    "balance_summary.csv",
    "refinement_log.csv",
    "outcome_models.csv",
    "stratified_tests.csv",
    "clusters.csv",
    "gp_run.csv",
    "gp_metrics.csv",
    "counterfactual.csv",
]


def test_run_all_emits_report_bundle(fixture_dirs):
    root, _ = fixture_dirs
    for name in EXPECTED_REPORTS:
        assert (root / "out" / name).exists(), name


def test_run_all_deterministic(fixture_dirs):
    root, config = fixture_dirs
    assert main(["run-all", "--config", str(config), "--out", str(root / "out_b")]) == 0
    for name in EXPECTED_REPORTS:
        a = (root / "out" / name).read_bytes()
        b = (root / "out_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_run_all_drops_the_joined_extracts_after_varprep(fixture_dirs, tmp_path, monkeypatch):
    """No stage after varprep reads the joined cohort, so run-all lets it
    go once the group is assembled; the bundle is the same."""
    root, config = fixture_dirs
    seen = []
    for name in ("stage_varprep", "stage_propensity"):
        stage = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda run, stage=stage: (seen.append(run.survivors), stage(run)))
    run = Run(RunConfig.from_file(config), tmp_path)
    run_all(run)
    assert isinstance(seen[0], Cohort) and seen[1:] == [None] and run.survivors is None and run.group.n
    for name in EXPECTED_REPORTS:
        assert (tmp_path / name).read_bytes() == (root / "out" / name).read_bytes(), name


def test_missing_extracts_dir_is_config_error(fixture_dirs, capsys):
    root, config = fixture_dirs
    rc = main(
        [
            "run-all",
            "--config",
            str(config),
            "--extracts",
            "/nonexistent/extracts",
            "--out",
            str(root / "out_err"),
        ]
    )
    assert rc == 2
    assert "/nonexistent/extracts" in capsys.readouterr().err


def test_stage_gating_regenerates_only_requested(fixture_dirs, tmp_path):
    root, config = fixture_dirs
    gated = tmp_path / "gated"
    gated.mkdir()
    (gated / "studygroup.csv").write_bytes((root / "out" / "studygroup.csv").read_bytes())
    rc = main(
        ["run-all", "--config", str(config), "--out", str(gated), "--stages", "propensity"]
    )
    assert rc == 0
    assert (gated / "strata.csv").exists()
    assert (gated / "balance.csv").exists()
    assert not (gated / "outcome_models.csv").exists()
    assert not (gated / "trace.csv").exists()


def test_unknown_stage_rejected(fixture_dirs):
    _, config = fixture_dirs
    assert main(["run-all", "--config", str(config), "--stages", "nonsense"]) == 2


def test_cohort_run_with_trace_out(fixture_dirs, tmp_path):
    root, config = fixture_dirs
    trace_path = tmp_path / "trace_copy.csv"
    rc = main(
        [
            "cohort",
            "run",
            "--config",
            str(config),
            "--out",
            str(tmp_path),
            "--trace-out",
            str(trace_path),
        ]
    )
    assert rc == 0
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "kind", "label", "surviving", "pct_of_original", "pct_of_previous"]
    assert len(rows) == 17


def test_trace_out_in_a_missing_directory_is_config_error(fixture_dirs, tmp_path, monkeypatch, capsys):
    # rejected before any extract is read
    _, config = fixture_dirs
    monkeypatch.setattr(cli.cohort_mod, "load_extracts", lambda *a, **k: pytest.fail("extracts were read"))
    trace_path = tmp_path / "missing" / "trace.csv"
    argv = ["cohort", "run", "--config", str(config), "--out", str(tmp_path / "out"), "--trace-out", str(trace_path)]
    assert main(argv) == 2
    assert f"--trace-out directory not found: {tmp_path / 'missing'}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_outcome_subcommand_from_files(fixture_dirs, tmp_path):
    root, config = fixture_dirs
    rc = main(
        [
            "outcome",
            "run",
            "--config",
            str(config),
            "--out",
            str(tmp_path),
            "--group",
            str(root / "out" / "studygroup.csv"),
            "--strata",
            str(root / "out" / "strata.csv"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "outcome_models.csv").exists()
    assert (tmp_path / "stratified_tests.csv").exists()


def test_report_csvs_have_expected_headers(fixture_dirs):
    root, _ = fixture_dirs
    expectations = {
        "balance.csv": ["covariate", "f_pre", "f_primary_main_effect", "f_secondary_interaction", "warnings"],
        "strata.csv": ["subject_id", "hadm_id", "icustay_id", "score", "quintile"],
        "outcome_models.csv": ["model", "term", "beta", "p", "band"],
        "refinement_log.csv": ["variable", "form", "f_before", "f_after", "accepted"],
        "gp_run.csv": ["task", "generation", "best_fitness"],
    }
    for name, header in expectations.items():
        with open(root / "out" / name, newline="") as fh:
            assert next(csv.reader(fh)) == header


def test_balance_report_covers_all_covariates(fixture_dirs):
    root, _ = fixture_dirs
    with open(root / "out" / "balance.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["covariate"] for r in rows] == [f"x{i}" for i in range(2, 57)]


def test_numeric_failure_exits_4(fixture_dirs, tmp_path, capsys):
    import numpy as np

    from icustudy.group import write_studygroup_csv

    from helpers import make_group

    _, config = fixture_dirs
    rng = np.random.default_rng(0)
    group = make_group(rng, 120, {1: np.full(120, -1.0)})  # nobody treated
    group_path = tmp_path / "degenerate.csv"
    write_studygroup_csv(group, group_path)
    strata_path = tmp_path / "strata.csv"
    with open(strata_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "hadm_id", "icustay_id", "score", "quintile"])
        for i, key in enumerate(group.keys):
            writer.writerow(
                [key.subject_id, key.hadm_id, key.icustay_id, (i + 1) / 121, i % 5 + 1]
            )
    rc = main(
        [
            "outcome",
            "run",
            "--config",
            str(config),
            "--out",
            str(tmp_path),
            "--group",
            str(group_path),
            "--strata",
            str(strata_path),
        ]
    )
    assert rc == 4  # constant treatment column is a rank failure
    err = capsys.readouterr().err
    assert "error:" in err and "x1" in err


def test_ml_subcommands_write_their_files(fixture_dirs, tmp_path):
    root, config = fixture_dirs
    out = tmp_path / "ml"
    out.mkdir()
    for name in ("studygroup.csv", "strata.csv"):
        (out / name).write_bytes((root / "out" / name).read_bytes())

    assert main(["ml", "kmeans", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "clusters.csv").exists()
    assert not (out / "gp_run.csv").exists()

    assert main(["ml", "gp-classify", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "gp_run.csv", newline="") as fh:
        tasks = {row["task"] for row in csv.DictReader(fh)}
    assert tasks == {"classify"}

    assert main(["ml", "gp-regress", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "gp_run.csv", newline="") as fh:
        tasks = {row["task"] for row in csv.DictReader(fh)}
    assert tasks == {"regress"}

    assert main(["ml", "simulate", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "counterfactual.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["task"] for row in rows} == {"classify", "regress"}


def test_counterfactual_arms_set_every_treatment_feature(fixture_dirs, tmp_path, monkeypatch):
    """A tree reading only the x1*x5 column (7) must see +x5 in the treated
    arm and -x5 in the untreated one, not the observed x1*x5 in both."""
    root, config = fixture_dirs
    for name in ("studygroup.csv", "strata.csv"):
        (tmp_path / name).write_bytes((root / "out" / name).read_bytes())
    monkeypatch.setattr(cli.evoml, "gp_evolve", lambda config, x, y, task: GpRun(((None, 7, None),), 0.0, [0.0], task))
    assert main(["ml", "simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    key = ("subject_id", "hadm_id", "icustay_id")
    with open(tmp_path / "studygroup.csv", newline="") as fh:
        x5 = {tuple(row[k] for k in key): float(row["x5"]) for row in csv.DictReader(fh)}
    with open(tmp_path / "counterfactual.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["task"] == "regress"]
    want = np.array([x5[tuple(row[k] for k in key)] for row in rows])
    assert len(rows) == len(x5) and (want != 0).any()
    # the file rounds to 12 significant digits
    np.testing.assert_allclose([float(row["outcome_treated"]) for row in rows], want, rtol=1e-11)
    np.testing.assert_allclose([float(row["outcome_untreated"]) for row in rows], -want, rtol=1e-11)


@pytest.mark.parametrize(
    "argv, present",
    [
        (["propensity", "fit"], ()),
        (["outcome", "run"], ()),
        (["run-all", "--stages", "propensity"], ()),
        (["run-all", "--stages", "ml"], ()),
        (["ml", "gp-classify"], ("studygroup.csv",)),
    ],
    ids=["propensity-fit", "outcome-run", "run-all-propensity", "run-all-ml", "ml-gp-classify"],
)
def test_missing_input_is_data_error(fixture_dirs, tmp_path, capsys, argv, present):
    root, config = fixture_dirs
    for name in present:
        (tmp_path / name).write_bytes((root / "out" / name).read_bytes())
    assert main(argv + ["--config", str(config), "--out", str(tmp_path)]) == 3
    assert "file not found" in capsys.readouterr().err


def test_kmeans_needs_no_strata(fixture_dirs, tmp_path):
    root, config = fixture_dirs
    (tmp_path / "studygroup.csv").write_bytes((root / "out" / "studygroup.csv").read_bytes())
    assert main(["ml", "kmeans", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "clusters.csv").read_bytes() == (root / "out" / "clusters.csv").read_bytes()


def test_stage_by_stage_bundle_equals_run_all(fixture_dirs, tmp_path):
    """Each stage in its own process, handing off through the CSVs only."""
    root, config = fixture_dirs
    src = str(Path(icustudy.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    for stage in ALL_STAGES:
        argv = ["run-all", "--config", str(config), "--out", str(tmp_path), "--stages", stage]
        subprocess.run([sys.executable, "-m", "icustudy.cli", *argv], env=env, check=True)
    for name in EXPECTED_REPORTS:
        assert (tmp_path / name).read_bytes() == (root / "out" / name).read_bytes(), name


def test_refinement_keeps_configured_strata_count(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "extracts_dir = {0}/extracts\nout_dir = {0}/out\nseed = 3\nsynth_n = 300\n"
        "n_strata = 4\n".format(tmp_path)
    )
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "extracts")]) == 0
    assert main(["run-all", "--config", str(config)]) == 0
    with open(tmp_path / "out" / "strata.csv", newline="") as fh:
        assert {int(row["quintile"]) for row in csv.DictReader(fh)} == {1, 2, 3, 4}
    with open(tmp_path / "out" / "quintile_table.csv", newline="") as fh:
        assert [int(row["quintile"]) for row in csv.DictReader(fh)] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "line, message",
    [
        ("seed = -1", "seed must be at least 0, got -1"),
        ("n_strata = 0", "n_strata must be at least 2, got 0"),
        ("n_strata = 1", "n_strata must be at least 2, got 1"),
        ("t_test_variant = welch", "unknown option 't_test_variant'"),  # Welch's test is the only one
        ("t1_default = 0", "t1_default must be at least 1, got 0"),
        ("t2_day = 0", "t2_day must be at least 1, got 0"),
        ("t3_day = -2", "t3_day must be at least 1, got -2"),
        ("kmeans_k = 0", "kmeans_k must be at least 1, got 0"),
        ("gp_tournament_size = 0", "GP options: tournament_size must be >= 1, got 0"),
        ("gp_init_depth = 0", "GP options: init_depth must be >= 1, got 0"),
        ("gp_population_size = 1", "GP options: population_size must be >= 2, got 1"),
        ("gp_p_mutation = 2", "GP options: p_mutation must be in [0, 1], got 2.0"),
        ("gp_init_depth = 18", "GP options: init_depth cannot exceed max_depth, got 18 > 17"),
        ("p_enter = nan", "p_enter must be in (0, 1], got nan"),
        ("p_enter = 0", "p_enter must be in (0, 1], got 0.0"),
        ("p_enter = 1.5", "p_enter must be in (0, 1], got 1.5"),
        ("refine_fraction = nan", "refine_fraction must be in (0, 1], got nan"),
        ("refine_fraction = inf", "refine_fraction must be in (0, 1], got inf"),
        ("refine_fraction = -0.25", "refine_fraction must be in (0, 1], got -0.25"),
        ("refine_passes = -1", "refine_passes must be at least 0, got -1"),
        ("synth_n = -5", "synth_n must be at least 0, got -5"),
        ("synth_prevalence = nan", "synth_prevalence must be in (0, 1), got nan"),
        ("synth_prevalence = 0", "synth_prevalence must be in (0, 1), got 0.0"),
        ("synth_prevalence = 1", "synth_prevalence must be in (0, 1), got 1.0"),
    ],
)
def test_bad_config_value_is_config_error(fixture_dirs, tmp_path, capsys, line, message):
    # rejected when the config is loaded, before any stage runs
    root, config = fixture_dirs
    bad = tmp_path / "run.cfg"
    bad.write_text(config.read_text() + line + "\n")
    argv = ["run-all", "--config", str(bad), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()
    assert not (tmp_path / "out" / "stratified_tests.csv").exists()


def test_config_path_naming_a_directory_is_config_error(tmp_path, capsys):
    assert main(["run-all", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert f"config file not found: {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["file", "under-a-file"])
def test_output_path_naming_a_file_is_config_error(fixture_dirs, tmp_path, capsys, out):
    _, config = fixture_dirs
    (tmp_path / "file").write_text("")
    assert main(["run-all", "--config", str(config), "--out", str(tmp_path / out)]) == 2
    assert f"cannot create output directory {tmp_path / out}: " in capsys.readouterr().err


def _corrupt_cell(cells):
    cells[-1] = "1.5x"


def _drop_cell(cells):
    del cells[-1]


@pytest.mark.parametrize("corrupt", [_corrupt_cell, _drop_cell], ids=["non-numeric", "short-row"])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("studygroup.csv", ["propensity", "fit"]),
        ("strata.csv", ["outcome", "run"]),
        ("survivors.csv", ["varprep", "run"]),
    ],
    ids=["studygroup", "strata", "survivors"],
)
def test_corrupt_handoff_file_is_data_error(fixture_dirs, tmp_path, capsys, name, argv, corrupt):
    root, config = fixture_dirs
    for present in ("studygroup.csv", "strata.csv", "survivors.csv"):
        (tmp_path / present).write_bytes((root / "out" / present).read_bytes())
    with open(tmp_path / name, newline="") as fh:
        rows = list(csv.reader(fh))
    corrupt(rows[2])
    with open(tmp_path / name, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(argv + ["--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"{tmp_path / name}: line 3: " in capsys.readouterr().err


def test_relabelled_top_stratum_is_data_error(fixture_dirs, tmp_path, capsys):
    """Quintile 5 relabelled 7: outcome run used to report stratum 5 as
    an empty treatment arm and never test the patients labelled 7."""
    root, config = fixture_dirs
    (tmp_path / "studygroup.csv").write_bytes((root / "out" / "studygroup.csv").read_bytes())
    with open(root / "out" / "strata.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[-1] = "7" if row[-1] == "5" else row[-1]
    with open(tmp_path / "strata.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["outcome", "run", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"{tmp_path / 'strata.csv'}: stratum labels must be 1..5, each used, got 7" in capsys.readouterr().err
    assert not (tmp_path / "stratified_tests.csv").exists()


@pytest.mark.parametrize(
    "text, reason",
    [
        ("1 + x0", "model term x0 is not xI or xI*xJ with 1 <= I <= J <= 58"),
        ("1 + x99", "model term x99 is not xI or xI*xJ with 1 <= I <= J <= 58"),
        ("1 + x5 + x3*x59", "model term x3*x59 is not xI or xI*xJ with 1 <= I <= J <= 58"),
        ("1 + x5 + 1", "duplicate terms in model spec"),
        ("x5 + 1 + 1", "duplicate terms in model spec"),
        ("1 + x5 + y2", "cannot parse model term 'y2'"),
    ],
    ids=["x0", "x99", "x59 in an interaction", "second intercept", "two intercepts after x5", "unparsable"],
)
def test_bad_model_file_is_data_error_naming_it(fixture_dirs, tmp_path, capsys, text, reason):
    root, config = fixture_dirs
    model = tmp_path / "bad.txt"
    model.write_text(text + "\n")
    group = str(root / "out" / "studygroup.csv")
    argv = ["propensity", "stratify", "--config", str(config), "--out", str(tmp_path), "--group", group]
    assert main(argv + ["--model", str(model)]) == 3
    assert f"error: {model}: {reason}\n" == capsys.readouterr().err
    assert not (tmp_path / "strata.csv").exists()


def test_refinement_from_strata_of_another_count_is_data_error(fixture_dirs, tmp_path, capsys):
    root, config = fixture_dirs
    for name in ("studygroup.csv", "model.txt", "strata.csv"):
        (tmp_path / name).write_bytes((root / "out" / name).read_bytes())
    four = tmp_path / "four.cfg"
    four.write_text(config.read_text() + "n_strata = 4\n")
    assert main(["propensity", "refine", "--config", str(four), "--out", str(tmp_path)]) == 3
    assert "the starting stratification holds 5 strata, but n_strata is 4" in capsys.readouterr().err
    assert not (tmp_path / "refinement_log.csv").exists()


def test_refinement_from_a_missing_strata_flag_is_data_error(fixture_dirs, tmp_path, capsys):
    """refine --strata /no/such.csv used to exit 0, refining from the model's
    own stratification as if the flag were absent."""
    root, config = fixture_dirs
    for name in ("studygroup.csv", "model.txt"):
        (tmp_path / name).write_bytes((root / "out" / name).read_bytes())
    missing = tmp_path / "no" / "such.csv"
    argv = ["propensity", "refine", "--config", str(config), "--out", str(tmp_path), "--strata", str(missing)]
    assert main(argv) == 3
    assert f"error: strata file not found: {missing}\n" == capsys.readouterr().err
    assert not (tmp_path / "refinement_log.csv").exists()


def test_negative_max_passes_is_config_error(fixture_dirs, tmp_path, capsys):
    """--max-passes -1 used to exit 0 with a header-only refinement_log.csv."""
    root, config = fixture_dirs
    for name in ("studygroup.csv", "model.txt", "strata.csv"):
        (tmp_path / name).write_bytes((root / "out" / name).read_bytes())
    argv = ["propensity", "refine", "--config", str(config), "--out", str(tmp_path), "--max-passes", "-1"]
    assert main(argv) == 2
    assert "error: refine_passes must be at least 0, got -1\n" == capsys.readouterr().err
    assert not (tmp_path / "refinement_log.csv").exists()


def test_survivor_id_beyond_64_bits_is_data_error(fixture_dirs, tmp_path, capsys):
    root, config = fixture_dirs
    with open(root / "out" / "survivors.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][0] = str(2**63)
    with open(tmp_path / "survivors.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["varprep", "run", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"{tmp_path / 'survivors.csv'}: line 3: " in capsys.readouterr().err


def test_empty_study_group_is_data_error(fixture_dirs, tmp_path, capsys):
    root, config = fixture_dirs
    with open(root / "out" / "survivors.csv", newline="") as fh:
        header = next(csv.reader(fh))
    with open(tmp_path / "survivors.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(header)
    assert main(["varprep", "run", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert "the study group is empty" in capsys.readouterr().err
    assert (tmp_path / "rejections.csv").exists()
    assert not (tmp_path / "studygroup.csv").exists()


def test_header_only_studygroup_is_data_error(fixture_dirs, tmp_path, capsys):
    root, config = fixture_dirs
    with open(root / "out" / "studygroup.csv", newline="") as fh:
        header = next(csv.reader(fh))
    group = tmp_path / "header_only.csv"
    with open(group, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
    argv = ["propensity", "fit", "--config", str(config), "--out", str(tmp_path), "--group", str(group)]
    assert main(argv) == 3
    assert f"{group}: the study group is empty" in capsys.readouterr().err
    assert not (tmp_path / "model.txt").exists()


def _studygroup_with_nan(root, tmp_path, name: str):
    """The fixture's studygroup.csv with NaN in column `name` of rows 1-5, in tmp_path."""
    with open(root / "out" / "studygroup.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index(name)
    for row in rows[1:6]:
        row[column] = "nan"
    with open(tmp_path / "studygroup.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return tmp_path / "studygroup.csv"


def test_non_finite_studygroup_cell_is_data_error(fixture_dirs, tmp_path, capsys):
    root, config = fixture_dirs
    path = _studygroup_with_nan(root, tmp_path, "x41")
    assert main(["propensity", "fit", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"error: {path}: x41 must be finite, got nan\n" == capsys.readouterr().err


@pytest.mark.parametrize(
    "name, argv",
    [("x1", ["propensity", "fit"]), ("x1", ["propensity", "stratify"]), ("x58", ["outcome", "run"])],
    ids=["treatment-fit", "treatment-stratify", "length-of-stay"],
)
def test_nan_in_a_study_column_is_data_error_naming_it(fixture_dirs, tmp_path, capsys, name, argv):
    """NaN in x1 used to count the patient as untreated, and NaN in x58 to
    write nan rows to outcome_models.csv; both exited 0."""
    root, config = fixture_dirs
    for present in ("model.txt", "strata.csv"):
        (tmp_path / present).write_bytes((root / "out" / present).read_bytes())
    path = _studygroup_with_nan(root, tmp_path, name)
    assert main(argv + ["--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"error: {path}: {name} must be finite, got nan\n" == capsys.readouterr().err
    assert not {"propensity_fit.csv", "quintile_table.csv", "outcome_models.csv"} & {p.name for p in tmp_path.iterdir()}


@pytest.mark.parametrize(
    "name, column, cell",
    [("saps.csv", "value", "abc"), ("los.csv", "icustay_id", "x12"), ("ids.csv", "hadm_id", "x12")],
    ids=["payload", "key", "id"],
)
def test_unparsable_extract_cell_is_data_error(tmp_path, capsys, name, column, cell):
    config = tmp_path / "run.cfg"
    config.write_text(f"extracts_dir = {tmp_path}/extracts\nseed = 1\nsynth_n = 30\n")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "extracts")]) == 0
    path = tmp_path / "extracts" / name
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][rows[0].index(column)] = cell
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["cohort", "run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{path}: line 3: " in err and repr(cell) in err


@pytest.mark.parametrize(
    "column, cell",
    [
        ("hadm_id", "-5"), ("subject_id", "-3"), ("hadm_id", "0"), ("subject_id", "0"),
        ("icustay_id", ""), ("icustay_id", "0"), ("icustay_id", "-1"),
    ],
)
def test_non_positive_id_is_dropped_at_step_a(tmp_path, column, cell):
    config = tmp_path / "run.cfg"
    config.write_text(f"extracts_dir = {tmp_path}/extracts\nseed = 1\nsynth_n = 30\n")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "extracts")]) == 0
    assert main(["cohort", "run", "--config", str(config), "--out", str(tmp_path / "before")]) == 0
    path = tmp_path / "extracts" / "ids.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    dropped = tuple(rows[2])
    rows[2][rows[0].index(column)] = cell
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["cohort", "run", "--config", str(config), "--out", str(tmp_path / "after")]) == 0

    def step_a(out):
        with open(out / "trace.csv", newline="") as fh:
            return int(next(csv.DictReader(fh))["surviving"])

    def survivors(out):
        with open(out / "survivors.csv", newline="") as fh:
            return {tuple(row) for row in list(csv.reader(fh))[1:]}

    assert step_a(tmp_path / "after") == step_a(tmp_path / "before") - 1
    assert survivors(tmp_path / "after") == survivors(tmp_path / "before") - {dropped}


def test_survivor_without_three_ids_is_data_error_on_both_paths(tmp_path, capsys):
    """A pipeline without has_all_ids passes the synth's missing_ids records
    (blank hadm_id) on: in memory, assembly names the record and its id
    column; through survivors.csv, the blank cell is the error."""
    config = tmp_path / "run.cfg"
    config.write_text(f"extracts_dir = {tmp_path}/extracts\nout_dir = {tmp_path}/out\nseed = 1\nsynth_n = 30\n")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "extracts")]) == 0
    pipeline = tmp_path / "pipeline.txt"
    pipeline.write_text("1,extract,A,always_true\n")
    run = Run(RunConfig.from_file(config), tmp_path / "in_memory", {"pipeline": str(pipeline), "stages": "cohort,varprep"})
    run.out.mkdir()
    with pytest.raises(DataError, match=r"^stage varprep: record \(\d+, None, \d+\) has no positive hadm_id$"):
        run_all(run)

    assert main(["cohort", "run", "--config", str(config), "--pipeline", str(pipeline)]) == 0
    assert main(["varprep", "run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "survivors.csv: line " in err and "invalid literal for int() with base 10: ''" in err, err


@pytest.mark.parametrize(
    "step, reason",
    [
        ("2,extract,B,age_at_least abc", "predicate argument 'abc' is not a number"),
        ("2,extract,B,age_at_least nan", "predicate argument 'nan' is not a number"),
        ("x,extract,B,has_all_ids", "step index 'x' is not an integer"),
        ("2,extract,B,has_all_ids 5", "predicate 'has_all_ids' does not take 1 argument"),
        ("2,extract,B,age_at_least 18 65", "predicate 'age_at_least' does not take 2 arguments"),
        ("2,extract,B,no_such_predicate", "unknown predicate 'no_such_predicate'"),
        ("2,merge,B,has_all_ids", "unknown step kind 'merge'"),
        ("2,intersect,B,A", "intersect step needs exactly two operand labels"),
        ("2,extract,B", "want 4 comma-separated cells"),
    ],
)
def test_bad_pipeline_step_is_data_error_naming_its_line(tmp_path, capsys, step, reason):
    # no extract file exists: the pipeline is checked before any is read
    (tmp_path / "extracts").mkdir()
    pipeline = tmp_path / "pipeline.txt"
    pipeline.write_text(f"# steps\n1,extract,A,has_all_ids\n{step}\n")
    argv = ["cohort", "run", "--extracts", str(tmp_path / "extracts"), "--out", str(tmp_path / "out")]
    assert main(argv + ["--pipeline", str(pipeline)]) == 3
    err = capsys.readouterr().err
    assert f"pipeline line 3: {reason}" in err, err


@pytest.mark.parametrize(
    "text, reason", [("# no step\n\n", "pipeline has no step"), (None, "pipeline file not found")]
)
def test_empty_or_missing_pipeline_file_is_data_error(tmp_path, capsys, text, reason):
    (tmp_path / "extracts").mkdir()
    pipeline = tmp_path / "pipeline.txt"
    if text is not None:
        pipeline.write_text(text)
    argv = ["cohort", "run", "--extracts", str(tmp_path / "extracts"), "--out", str(tmp_path / "out")]
    assert main(argv + ["--pipeline", str(pipeline)]) == 3
    assert reason in capsys.readouterr().err
