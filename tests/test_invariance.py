"""Path and representation invariance: the cohort and varprep outputs must
not depend on the order of rows that share a key, and no output may depend
on whether the stages hand off in memory (`run-all`) or through their
files."""

import csv
import itertools
import random

import pytest

from icustudy.cli import main
from icustudy.cohort import EXTRACT_SCHEMAS

ETL_OUTPUTS = ("trace.csv", "survivors.csv", "studygroup.csv", "rejections.csv")


@pytest.fixture(scope="module")
def extracts(tmp_path_factory):
    root = tmp_path_factory.mktemp("invariance")
    config = root / "run.cfg"
    config.write_text(f"seed = 7\nsynth_n = 300\nextracts_dir = {root / 'extracts'}\n")
    assert main(["synth", "--config", str(config), "--out", str(root / "extracts")]) == 0
    return root, config


def _staged(config, extracts_dir, out):
    for command in (["cohort", "run"], ["varprep", "run"]):
        argv = command + ["--config", str(config), "--extracts", str(extracts_dir), "--out", str(out)]
        assert main(argv) == 0


def _shuffle_within_keys(src, dest, rng):
    """Copy every extract with the rows of each key in a random order;
    returns how many files changed order."""
    changed = 0
    dest.mkdir()
    (dest / "ids.csv").write_bytes((src / "ids.csv").read_bytes())
    for name, schema in EXTRACT_SCHEMAS.items():
        with open(src / f"{name}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        key = header.index(schema.key)
        shuffled = []
        for _, run in itertools.groupby(rows, key=lambda row: row[key]):
            run = list(run)
            rng.shuffle(run)
            shuffled += run
        changed += shuffled != rows
        with open(dest / f"{name}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([header, *shuffled])
    return changed


def test_shuffling_rows_within_equal_keys_keeps_outputs(extracts, tmp_path):
    root, config = extracts
    _staged(config, root / "extracts", tmp_path / "plain")
    assert _shuffle_within_keys(root / "extracts", tmp_path / "shuffled", random.Random(7)) >= 7
    _staged(config, tmp_path / "shuffled", tmp_path / "out")
    for name in ETL_OUTPUTS:
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


#: every stage as its own commands, in run-all's order; run-all keeps the
#: balance assessed before refinement as balance_initial*.csv
STAGED_COMMANDS = (
    ["cohort", "run"], ["varprep", "run"],
    ["propensity", "fit"], ["propensity", "stratify"], ["propensity", "balance"],
    ["propensity", "refine"], ["propensity", "balance"],
    ["outcome", "run"], ["ml", "run"],
)


def test_stage_by_stage_equals_run_all(extracts, tmp_path):
    root, config = extracts
    assert main(["run-all", "--config", str(config), "--out", str(tmp_path / "all")]) == 0
    staged = tmp_path / "staged"
    for k, command in enumerate(STAGED_COMMANDS):
        assert main(command + ["--config", str(config), "--out", str(staged)]) == 0, command
        if k == 4:
            for name in ("balance", "balance_summary"):
                (staged / f"{name}.csv").rename(staged / f"{name.replace('balance', 'balance_initial')}.csv")
    names = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert sorted(p.name for p in staged.iterdir()) == names
    assert {"balance_initial.csv", "counterfactual.csv", *ETL_OUTPUTS} <= set(names)
    for name in names:
        assert (staged / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name
