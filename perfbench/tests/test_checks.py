"""Each benchmark check passes on a real bundle and fails on a corrupted copy.

    python3 -m pytest perfbench/tests -q
"""

import csv
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import bench_checks as checks  # noqa: E402
import bench_workloads as workloads  # noqa: E402
from icustudy import cli  # noqa: E402

SEED = 5
SMALL = workloads.Workload("small", 300, 7, "extracts", workloads.WORKLOADS["study-3000"].ops)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """Inputs and run-all outputs of a 300-patient study."""
    root = tmp_path_factory.mktemp("bundle")
    inputs, out = root / "inputs", root / "out"
    workloads.generate(SMALL, SEED, inputs)
    out.mkdir()
    cfg = workloads.write_config(SMALL, inputs, out)
    assert cli.main(["run-all", "--config", str(cfg)]) == 0
    return inputs, out


@pytest.fixture
def copy(bundle, tmp_path):
    inputs, out = bundle
    shutil.copytree(out, tmp_path / "out")
    return inputs, tmp_path / "out"


def problems(inputs, out):
    return workloads.run_checks(SMALL.ops[0], SMALL, SEED, inputs, out)


def edit_csv(path: Path, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows = change(rows) or rows
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def scale(row, column, factor):
    row[column] = repr(float(row[column]) * factor)


def test_real_bundle_passes(bundle):
    assert problems(*bundle) == []


def test_shifted_ids_keep_the_analysis(tmp_path):
    """Two run seeds give different identifiers and the same study rows."""
    a, b = tmp_path / "a", tmp_path / "b"
    wl = workloads.Workload("tiny", 40, 7, "studygroup", ())
    workloads.generate(wl, 1, a)
    workloads.generate(wl, 2, b)
    keys_a, x_a = checks.read_group(a / "studygroup.csv")
    keys_b, x_b = checks.read_group(b / "studygroup.csv")
    assert keys_a != keys_b and sorted(keys_b) == keys_b
    assert (x_a == x_b).all()


def _drop_survivor(inputs, out):
    edit_csv(out / "survivors.csv", lambda rows: rows[1:])


def _wrong_step_count(inputs, out):
    edit_csv(out / "trace.csv", lambda rows: rows[-1].update(surviving=str(int(rows[-1]["surviving"]) - 1)))


def _perturbed_study_value(inputs, out):
    path = out / "studygroup.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[7] = repr(float(cells[7]) * (1 + 1e-6))  # x5, SAPS average
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _rejection(inputs, out):
    with open(out / "rejections.csv", "a") as fh:
        fh.write("1,2,3,x5 missing\n")


def _perturbed_propensity_coefficient(inputs, out):
    edit_csv(out / "propensity_fit.csv", lambda rows: scale(rows[1], "coef", 1 + 1e-6))


def _swapped_stratum_labels(inputs, out):
    def swap(rows):
        lo = next(r for r in rows if r["quintile"] == "1")
        hi = next(r for r in rows if r["quintile"] == "5")
        lo["quintile"], hi["quintile"] = "5", "1"

    edit_csv(out / "strata.csv", swap)


def _perturbed_score(inputs, out):
    edit_csv(out / "strata.csv", lambda rows: scale(rows[0], "score", 1 + 1e-4))


def _perturbed_balance_f(inputs, out):
    edit_csv(out / "balance.csv", lambda rows: scale(rows[3], "f_secondary_interaction", 1 + 1e-6))


def _flipped_refinement(inputs, out):
    edit_csv(out / "refinement_log.csv", lambda rows: rows[0].update(accepted=str(1 - int(rows[0]["accepted"]))))


def _perturbed_los_coefficient(inputs, out):
    edit_csv(out / "outcome_models.csv", lambda rows: scale(next(r for r in rows if r["model"] == "A.LOS"), "beta", 1 + 1e-6))


def _perturbed_mortality_coefficient(inputs, out):
    def change(rows):
        row = next(r for r in rows if r["model"] == "B" and r["term"] == "x2")
        scale(row, "beta", 1 + 1e-6)

    edit_csv(out / "outcome_models.csv", change)


def _perturbed_test_statistic(inputs, out):
    edit_csv(out / "stratified_tests.csv", lambda rows: scale(next(r for r in rows if r["testable"] == "1"), "statistic", 1 + 1e-6))


def _rising_gp_trace(inputs, out):
    def change(rows):
        rows[-1]["best_fitness"] = repr(float(rows[0]["best_fitness"]) + 1.0)

    edit_csv(out / "gp_run.csv", change)


def _wrong_confusion_count(inputs, out):
    def change(rows):
        row = next(r for r in rows if r["metric"] == "tp")
        row["value"] = str(int(row["value"]) + 1)

    edit_csv(out / "gp_metrics.csv", change)


def _wrong_counterfactual_rate(inputs, out):
    def change(rows):
        row = next(r for r in rows if r["metric"] == "counterfactual_rate_treated" and r["task"] == "regress")
        scale(row, "value", 1 + 1e-6)

    edit_csv(out / "gp_metrics.csv", change)


def _missing_cluster(inputs, out):
    edit_csv(out / "clusters.csv", lambda rows: rows[:-1])


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (_drop_survivor, "survivors.csv"),
        (_wrong_step_count, "trace.csv"),
        (_perturbed_study_value, "studygroup.csv"),
        (_rejection, "rejections.csv"),
        (_perturbed_propensity_coefficient, "propensity_fit.csv"),
        (_swapped_stratum_labels, "largest-remainder"),
        (_perturbed_score, "scores sum"),
        (_perturbed_balance_f, "balance.csv x5"),
        (_flipped_refinement, "refinement_log.csv"),
        (_perturbed_los_coefficient, "A.LOS"),
        (_perturbed_mortality_coefficient, "B: score equation"),
        (_perturbed_test_statistic, "stratified_tests.csv"),
        (_rising_gp_trace, "best-fitness trace increases"),
        (_wrong_confusion_count, "confusion counts"),
        (_wrong_counterfactual_rate, "counterfactual_rate_treated"),
        (_missing_cluster, "clusters.csv"),
    ],
    ids=lambda v: v.__name__.strip("_") if callable(v) else None,
)
def test_corruption_is_caught(copy, corrupt, expected):
    corrupt(*copy)
    found = problems(*copy)
    assert any(expected in p for p in found), found
