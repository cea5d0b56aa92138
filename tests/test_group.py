import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from icustudy import group as group_module
from icustudy.errors import DataError
from icustudy.group import (
    STRATA_COLUMNS,
    StudyGroup,
    match_keys,
    read_strata_csv,
    read_studygroup_csv,
    write_strata_csv,
    write_studygroup_csv,
    write_table,
)

import oracles
from helpers import make_group


def test_handoff_files_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(5)
    group = make_group(rng, 40)
    scores = rng.uniform(0.0, 1.0, size=40)
    assignment = np.arange(40) % 5 + 1
    # values that need all 17 significant digits, so any rounding shows
    assert any(float(format(v, ".16g")) != v for v in scores)
    assert any(float(format(v, ".16g")) != v for v in group.x.ravel())

    write_studygroup_csv(group, tmp_path / "studygroup.csv")
    back = read_studygroup_csv(tmp_path / "studygroup.csv")
    assert back.keys == group.keys
    assert back.x.tobytes() == group.x.tobytes()

    write_strata_csv(group, scores, assignment, tmp_path / "strata.csv")
    read_scores, read_assignment = read_strata_csv(tmp_path / "strata.csv", back)
    assert read_scores.tobytes() == scores.tobytes()
    assert np.array_equal(read_assignment, assignment)


def test_match_keys_takes_the_last_row_holding_each_triple():
    held = np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3], [7, 8, 9], [1, 2, 4]])
    wanted = np.array([[1, 2, 3], [7, 8, 9], [9, 9, 9], [1, 2, 4], [4, 5, 6], [1, 2, 3]])
    assert match_keys(wanted, held).tolist() == [2, 3, -1, 4, 1, 2]
    assert match_keys(wanted, []).tolist() == [-1] * 6
    assert match_keys(np.empty((0, 3), np.int64), held).tolist() == []


def test_strata_row_repeating_a_key_overrides_the_earlier_row(tmp_path):
    group = make_group(np.random.default_rng(1), 5)
    write_strata_csv(group, np.linspace(0.1, 0.5, 5), np.array([1, 1, 2, 3, 4]), tmp_path / "strata.csv")
    with open(tmp_path / "strata.csv", "a", newline="") as fh:
        fh.write(f"{group.keys[1].subject_id},{group.keys[1].hadm_id},{group.keys[1].icustay_id},0.9,5\r\n")
    scores, assignment = read_strata_csv(tmp_path / "strata.csv", group)
    assert scores.tolist() == [0.1, 0.9, 0.30000000000000004, 0.4, 0.5]
    assert assignment.tolist() == [1, 5, 2, 3, 4]


@pytest.mark.parametrize(
    "labels, k, bad",
    [
        ([1, 2, 3, 4, 7], 5, 7),  # the top stratum relabelled
        ([0, 1, 2, 3, 4], 5, 0),
        ([-1, 1, 2, 3, 4], 5, -1),
        ([1, 2, 4, 5, 5], 4, 5),  # stratum 3 unused
        ([2, 2, 3, 3, 3], 2, 3),
    ],
)
def test_strata_labels_other_than_one_to_k_are_data_error(tmp_path, labels, k, bad):
    group = make_group(np.random.default_rng(1), 5)
    path = tmp_path / "strata.csv"
    write_strata_csv(group, np.linspace(0.1, 0.5, 5), np.array(labels), path)
    message = f"{path}: stratum labels must be 1..{k}, each used, got {bad}"
    for read in (read_strata_csv, oracles.read_strata_csv_oracle):
        with pytest.raises(DataError) as caught:
            read(path, group)
        assert str(caught.value) == message
    # a label only a row outside the group holds is not used
    write_strata_csv(group, np.linspace(0.1, 0.5, 5), np.array([1, 2, 3, 4, 5]), path)
    scores, assignment = read_strata_csv(path, StudyGroup(group.ids[:4], group.x[:4]))
    assert assignment.tolist() == [1, 2, 3, 4]


def test_strata_file_short_of_the_group_is_data_error_naming_it(tmp_path):
    group = make_group(np.random.default_rng(1), 5)
    path = tmp_path / "strata.csv"
    write_strata_csv(StudyGroup(group.ids[:4], group.x[:4]), np.linspace(0.1, 0.4, 4), np.array([1, 2, 3, 4]), path)
    for read in (read_strata_csv, oracles.read_strata_csv_oracle):
        with pytest.raises(DataError) as caught:
            read(path, group)
        assert str(caught.value) == f"{path}: does not cover patient 1004/2004/3004"


def test_study_group_reads_a_key_list_and_an_id_array_alike():
    group = make_group(np.random.default_rng(2), 4)
    again = StudyGroup(group.keys, group.x)
    assert again.ids.dtype == np.int64 and again.ids.tobytes() == group.ids.tobytes()
    assert again.keys == group.keys and group.keys[0].hadm_id == 2000


# --- the C reader against csv.reader on hand-off files ------------------------------

_ODD_CELLS = ["nan", "-inf", "-0.0", " 1.5 ", "+1", "1e400", "1_0", "abc", "", '"1.0"']
_ODD_KEYS = ["0", "-5", " 7", "+7", "007", "7.0", "x12", "99999999999999999999"]


@st.composite
def _handoff_lines(draw, lines: list) -> str:
    """The lines of a written hand-off file with 0-4 edits of cells, rows and line ends."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 4]))):
        edit = draw(st.sampled_from(["blank", "extra", "extra all", "drop", "cell", "key", "cr", "header only"]))
        at = draw(st.integers(1, len(lines) - 1))
        cells = lines[at].split(",")
        if edit == "blank":
            lines.insert(at, "")
        elif edit == "extra":
            lines[at] += ",1.0"
        elif edit == "extra all":
            lines[1:] = [line + ",1.0" for line in lines[1:]]
        elif edit == "drop":
            lines[at] = ",".join(cells[:-1])
        elif edit in ("cell", "key"):
            i = draw(st.integers(0, min(2 if edit == "key" else len(cells), len(cells)) - 1))
            cells[i] = draw(st.sampled_from(_ODD_KEYS if edit == "key" else _ODD_CELLS))
            lines[at] = ",".join(cells)
        elif edit == "cr":
            lines[at] += "\r"
        else:
            del lines[1:]
            break
    return "\r\n".join(lines) + draw(st.sampled_from(["", "\r\n"]))


def _verdict(path, row, usecols=None) -> str:
    return "rejects" if group_module.read_numeric_csv(path, row, usecols) is None else "reads"


def _outcome(read, *args):
    try:
        return [np.asarray(a).tobytes() if isinstance(a, np.ndarray) else a for a in read(*args)]
    except Exception as exc:  # the same error, down to its message
        return type(exc).__name__, str(exc)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_handoff_readers_match_csv_reader_oracles(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("handoff")
    rng = np.random.default_rng(data.draw(st.integers(0, 3)))
    group = make_group(rng, 6)
    write_studygroup_csv(group, directory / "written.csv")
    written = (directory / "written.csv").read_text().splitlines()
    path = directory / "studygroup.csv"
    path.write_bytes(data.draw(_handoff_lines(written)).encode())
    event(f"studygroup.csv: C reader {_verdict(path, group_module._STUDYGROUP_ROW)}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda p: (lambda g: (g.keys, g.x))(read_studygroup_csv(p)), path)
    assert got == _outcome(lambda p: (lambda g: (g.keys, g.x))(oracles.read_studygroup_csv_oracle(p)), path)

    write_strata_csv(group, rng.uniform(size=6), np.arange(6) % 5 + 1, directory / "written.csv")
    written = (directory / "written.csv").read_text().splitlines()
    header = data.draw(st.sampled_from([written[0], "quintile,score,icustay_id,hadm_id,subject_id,note",
                                        written[0] + ",score"]))
    path = directory / "strata.csv"
    path.write_bytes(data.draw(_handoff_lines([header, *written[1:]])).encode())
    at = {name: i for i, name in enumerate(header.split(","))}
    event(f"strata.csv: C reader {_verdict(path, group_module._STRATA_ROW, [at[c] for c in STRATA_COLUMNS])}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(read_strata_csv, path, group)
    assert got == _outcome(oracles.read_strata_csv_oracle, path, group)


# --- write_table against the per-cell writer ----------------------------------------

#: NaN, the infinities, -0.0, a subnormal, and values where .12g switches to exponent form
_FLOATS = np.array([0.1, 1 / 3, np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 123456789012.5, 2.0**70])
_LONG = group_module._BLOCK_ROWS + 1
_TEXTS = np.array(["plain", "a, b", 'say "hi"', "two\nlines", "", "x", "é", " ", "\r\n", "1.5", ","])
#: text that csv.writer writes as it is: spaces, a number's look, a % code, no delimiter, quote or line end
_PLAIN = np.array(["classify", "regress", "é", " lead", "trail ", "1.5", "%s", "x;y", "tab\there", "'", "-"])

_TABLES = {
    "float64 arrays": [np.arange(11), _FLOATS, -_FLOATS[::-1]],
    "np.float64 and float lists": [list(_FLOATS), _FLOATS.tolist(), list(np.float32(_FLOATS))],
    "bool and np.bool_": [np.arange(11) % 2 == 0, [True, np.bool_(False)] * 5 + [np.bool_(True)], _FLOATS > 0],
    "None, str and np.str_": [[None, "", *_TEXTS[2:]], _TEXTS, list(_TEXTS), _TEXTS.astype(object)],
    "ints": [np.arange(-5, 6), np.arange(11, dtype=np.uint8), [2**70, -1, *range(9)], list(np.arange(11))],
    "object array": [np.array([1 / 3, np.float64(-0.0), True, np.bool_(False), None, "a, b", 7], dtype=object)],
    "header, no rows": [np.array([]), np.array([], dtype=bool), []],
    "one empty cell": [[None]],
    "one empty string": [np.array([""])],
    "longer than one block": [
        np.arange(_LONG), np.resize(_FLOATS, _LONG), np.arange(_LONG) % 3 == 0, np.arange(_LONG, dtype=np.uint8),
        np.resize(_FLOATS, _LONG).astype(np.float32),
    ],
}


@pytest.mark.parametrize("columns", _TABLES.values(), ids=_TABLES.keys())
def test_write_table_matches_per_cell_writer(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    write_table(tmp_path / "got.csv", header, columns)
    oracles.write_table_oracle(tmp_path / "want.csv", header, zip(*columns))
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b"True" not in got and b"False" not in got


@pytest.mark.parametrize(
    "cell, block",
    [("plain", True), ("a, b", False), ('say "hi"', False), ("two\nlines", False), ("cr\r", False), ("", False)],
    ids=["plain", "comma", "quote", "newline", "carriage-return", "empty"],
)
def test_text_column_takes_the_block_writer_only_where_csv_writer_would_not_quote(tmp_path, monkeypatch, cell, block):
    blocks, real = [], group_module._write_rows
    monkeypatch.setattr(group_module, "_write_rows", lambda *args: blocks.append(args) or real(*args))
    text = np.resize(np.append(_PLAIN, cell), _LONG)
    columns = [np.arange(_LONG), text, np.resize(_FLOATS, _LONG)]
    write_table(tmp_path / "got.csv", ["i", "text", "value"], columns)
    oracles.write_table_oracle(tmp_path / "want.csv", ["i", "text", "value"], zip(*columns))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert bool(blocks) == block


@given(arrays(np.float64, st.integers(0, 20)), arrays(np.int64, 20), st.booleans())
@settings(max_examples=100, deadline=None)
def test_write_table_float_columns_match_per_cell_writer(tmp_path_factory, values, ints, rows_given):
    directory = tmp_path_factory.mktemp("write_table")
    columns = [ints[: len(values)], values, values[::-1]]
    # a caller holding rows passes them transposed
    write_table(directory / "got.csv", ["a", "b", "c"], zip(*zip(*columns)) if rows_given else columns)
    oracles.write_table_oracle(directory / "want.csv", ["a", "b", "c"], zip(*columns))
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()


# --- the hand-off writers against the per-row writers ------------------------------


@pytest.mark.parametrize("rows", [0, 1, group_module._BLOCK_ROWS - 1, group_module._BLOCK_ROWS, _LONG])
def test_handoff_writers_match_per_row_writers(tmp_path, rows):
    rng = np.random.default_rng(rows)
    x = rng.normal(0.0, 1e3, size=(rows, 58)) ** 3
    x[:, 0] = rng.choice([-1.0, 1.0, np.nan], size=rows)  # NaN in a binary column
    # -0.0, a subnormal, 1e16 and 1e-5 scattered over the matrix
    x.flat[rng.integers(0, x.size, size=min(x.size, 60))] = np.resize(_FLOATS[5:9], min(x.size, 60))
    ids = 2**63 - 1 - np.arange(rows * 3, dtype=np.int64).reshape(rows, 3) * rng.integers(1, 2**40)
    group = StudyGroup(ids, x, validate=False)
    scores = np.resize(np.concatenate([_FLOATS, rng.uniform(size=7)]), rows)
    for write, oracle, args in [
        (write_studygroup_csv, oracles.write_studygroup_csv_oracle, (group,)),
        (write_strata_csv, oracles.write_strata_csv_oracle, (group, scores, np.arange(rows) % 5 + 1)),
    ]:
        write(*args, tmp_path / "got.csv")
        oracle(*args, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
