"""Path and representation invariance: the cohort and varprep outputs must
not depend on the order of rows that share a key, nor on whether the
stages hand off in memory (`run-all`) or through survivors.csv."""

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


def test_staged_cohort_and_varprep_equal_run_all(extracts, tmp_path):
    root, config = extracts
    argv = ["run-all", "--config", str(config), "--out", str(tmp_path / "all"), "--stages", "cohort,varprep"]
    assert main(argv) == 0
    _staged(config, root / "extracts", tmp_path / "staged")
    for name in ETL_OUTPUTS:
        assert (tmp_path / "staged" / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name
