"""Path and representation invariance: the cohort and varprep outputs must
not depend on the order of rows that share a key, no output may depend
on whether the stages hand off in memory (`run-all`) or through their
files, and an order-preserving shift of the ids moves only the key
columns of the bundle."""

import csv
import itertools
import random

import numpy as np
import pytest

from icustudy.cli import main
from icustudy.cohort import EXTRACT_SCHEMAS
from icustudy.group import KEY_COLUMNS, read_csv_rows, read_strata_csv, read_studygroup_csv
from icustudy.group import write_strata_csv, write_studygroup_csv, write_table
from icustudy.regress import ModelSpec

ETL_OUTPUTS = ("trace.csv", "survivors.csv", "studygroup.csv", "rejections.csv")


@pytest.fixture(scope="module")
def extracts(tmp_path_factory):
    root = tmp_path_factory.mktemp("invariance")
    config = root / "run.cfg"
    config.write_text(f"seed = 7\nsynth_n = 300\nextracts_dir = {root / 'extracts'}\n")
    assert main(["synth", "--config", str(config), "--out", str(root / "extracts")]) == 0
    return root, config


@pytest.fixture(scope="module")
def bundle(extracts):
    """One run-all bundle on the extracts."""
    root, config = extracts
    assert main(["run-all", "--config", str(config), "--out", str(root / "bundle")]) == 0
    return root / "bundle"


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


def test_stage_by_stage_equals_run_all(extracts, bundle, tmp_path):
    root, config = extracts
    staged = tmp_path / "staged"
    for k, command in enumerate(STAGED_COMMANDS):
        assert main(command + ["--config", str(config), "--out", str(staged)]) == 0, command
        if k == 4:
            for name in ("balance", "balance_summary"):
                (staged / f"{name}.csv").rename(staged / f"{name.replace('balance', 'balance_initial')}.csv")
    names = sorted(p.name for p in bundle.iterdir())
    assert sorted(p.name for p in staged.iterdir()) == names
    assert {"balance_initial.csv", "counterfactual.csv", *ETL_OUTPUTS} <= set(names)
    for name in names:
        assert (staged / name).read_bytes() == (bundle / name).read_bytes(), name


def test_handoff_files_read_and_written_back_keep_their_bytes(bundle, tmp_path):
    """Each hand-off file of a run-all bundle, read with the program's
    reader and written back with its writer, is the same bytes."""
    ids = read_csv_rows(bundle / "survivors.csv", KEY_COLUMNS, lambda row: [int(row[c]) for c in KEY_COLUMNS])
    write_table(tmp_path / "survivors.csv", KEY_COLUMNS, np.array(ids, dtype=np.int64).T)
    group = read_studygroup_csv(bundle / "studygroup.csv")
    write_studygroup_csv(group, tmp_path / "studygroup.csv")
    write_strata_csv(group, *read_strata_csv(bundle / "strata.csv", group), tmp_path / "strata.csv")
    for name in ("model.txt", "model_refined.txt"):
        spec = ModelSpec.from_text((bundle / name).read_text().strip())
        (tmp_path / name).write_text(spec.to_text() + "\n")
    assert len(ids) > 250 and len(spec.terms) > 3
    for path in sorted(tmp_path.iterdir()):
        assert path.read_bytes() == (bundle / path.name).read_bytes(), path.name


#: fixed positive shifts of (subject_id, hadm_id, icustay_id)
ID_SHIFT = dict(zip(KEY_COLUMNS, (1_000_000, 20_000_000, 300_000_000)))


def _shift_key_columns(src, dest):
    """Write the CSV file `src` to `dest` with every non-blank cell of a key
    column shifted by ID_SHIFT; the other cells are written back as read."""
    with open(src, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    shifted = [(i, ID_SHIFT[name]) for i, name in enumerate(header) if name in ID_SHIFT]
    for row in rows:
        for i, offset in shifted:
            row[i] = str(int(row[i]) + offset) if row[i].strip() else row[i]
    with open(dest, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return bool(shifted)


def test_id_shift_moves_only_the_key_columns(extracts, bundle, tmp_path):
    """Metamorphic: shifting every id column of the extracts by a fixed
    positive offset keeps every sort order, so each bundle file equals the
    unshifted one after the same shift of its key columns."""
    root, config = extracts
    (tmp_path / "extracts").mkdir()
    for path in (root / "extracts").glob("*.csv"):
        _shift_key_columns(path, tmp_path / "extracts" / path.name)
    plain, moved = bundle, tmp_path / "moved"
    argv = ["run-all", "--config", str(config), "--extracts", str(tmp_path / "extracts"), "--out", str(moved)]
    assert main(argv) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in moved.iterdir()) == names
    keyed = 0
    for name in names:
        want = plain / name
        if name.endswith(".csv"):
            keyed += _shift_key_columns(want, tmp_path / name)
            want = tmp_path / name
        assert (moved / name).read_bytes() == want.read_bytes(), name
    assert keyed == 6  # survivors, rejections, studygroup, strata, clusters, counterfactual
