"""Core study-group data structures and their CSV form.

A study group is the central analysis table: one row per patient, 58
variables x1..x58 plus the identifying key triple.  Variable layout:

    x1   diuretics given (-1/+1)        x30-x34  fluids inputs (liters)
    x2   age (years)                    x35-x39  fluids outputs (liters)
    x3   gender (-1 male / +1 female)   x40-x44  fluids balance (in - out)
    x4   race (-1 not white / +1 white) x45      vasopressors (-1/+1)
    x5-x9    SAPS                       x46      ventilation (-1/+1)
    x10-x14  SOFA                       x47-x51  arterial blood pressure
    x15      Elixhauser overall         x52-x56  mean arterial pressure
    x16-x24  Elixhauser binaries        x57      30-day mortality (-1/+1)
    x25-x29  creatinine                 x58      ICU length of stay (days)

Each five-slot timeline block is (average day 1..T1, day 1, day T1,
day T2, day T3); fluids blocks hold daily sums rather than medians.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError

N_VARIABLES = 58

#: columns restricted to {-1, +1}
BINARY_INDICES = frozenset({1, 3, 4, 16, 17, 18, 19, 20, 21, 22, 23, 24, 45, 46, 57})

#: the 55 covariates considered for propensity modeling and balance checks
COVARIATE_INDICES = tuple(range(2, 57))

TREATMENT_INDEX = 1
MORTALITY_INDEX = 57
LOS_INDEX = 58


class PatientKey(NamedTuple):
    """Identifying triple: patient, hospital admission, ICU stay."""

    subject_id: int
    hadm_id: int
    icustay_id: int


class StudyGroup:
    """Immutable table of study rows, ordered by patient key.  `ids` holds the
    rows' id triples as an (n, 3) int64 array; a PatientKey list reads alike."""

    def __init__(self, ids, x: np.ndarray, validate: bool = True):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != N_VARIABLES:
            raise DataError(f"study matrix must be (n, {N_VARIABLES}), got {x.shape}")
        self.ids, self.x = np.asarray(ids, dtype=np.int64).reshape(-1, 3), x
        if len(self.ids) != len(x):
            raise DataError("key count does not match row count")
        if validate:
            self._validate()

    def _validate(self):
        check_ids(self.ids)
        if len(np.unique(self.ids, axis=0)) != len(self.ids):
            raise DataError("duplicate patient keys in study group")
        bad = np.argwhere(~np.isfinite(self.x))
        if len(bad):
            r, c = bad[0]
            raise DataError(f"x{c + 1} must be finite, got {self.x[r, c]}")
        for i in sorted(BINARY_INDICES):
            col = self.col(i)
            bad = ~np.isin(col, (-1.0, 1.0))
            if bad.any():
                raise DataError(f"x{i} contains non-binary value {col[bad][0]}")
        if (self.col(LOS_INDEX) < 0).any():
            raise DataError("x58 (length of stay) must be non-negative")

    # --- access ------------------------------------------------------------

    def __len__(self):
        return len(self.ids)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def keys(self) -> list:
        """The rows' ids as PatientKeys."""
        return [PatientKey(*key) for key in self.ids.tolist()]

    def col(self, index: int) -> np.ndarray:
        """Column for variable x<index> (1-based)."""
        if not 1 <= index <= N_VARIABLES:
            raise DataError(f"variable index out of range: {index}")
        return self.x[:, index - 1]

    @property
    def treated(self) -> np.ndarray:
        return self.col(TREATMENT_INDEX) > 0

    @property
    def n_treated(self) -> int:
        return int(self.treated.sum())

    @property
    def n_untreated(self) -> int:
        return self.n - self.n_treated

    def subset(self, mask: np.ndarray) -> "StudyGroup":
        mask = np.asarray(mask, dtype=bool)
        return StudyGroup(self.ids[mask], self.x[mask], validate=False)


# --- CSV form ---------------------------------------------------------------
#
# studygroup.csv and strata.csv hand values from one stage to the next, so
# they are written with repr, which reads back bit for bit; reports use fnum.

KEY_COLUMNS = ("subject_id", "hadm_id", "icustay_id")
STRATA_COLUMNS = KEY_COLUMNS + ("score", "quintile")


def fnum(value: float) -> str:
    """Stable float formatting used by every report writer."""
    return format(float(value), ".12g")


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return fnum(value)
    return value  # csv writes None as an empty cell


#: rows per formatted block: the writer holds one block's text, not a file's
_BLOCK_ROWS = 1024


def _write_rows(path: str | Path, header: Sequence[str], columns, codes: Sequence[str]) -> None:
    """A CSV of 1-D numpy columns with one %-code each: %d, %.12g (fnum),
    %r (repr) or %s (text that csv.writer would not quote).  The header
    goes through csv.writer and each block of rows through one format
    string; the bytes are those csv.writer gives."""
    rows, width = min(map(len, columns)), len(columns)
    line = ",".join(codes) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            cells = [None] * ((stop - start) * width)
            for i, column in enumerate(columns):
                cells[i::width] = column[start:stop].tolist()
            fh.write(line * (stop - start) % tuple(cells))


_QUOTED = re.compile(r'[,"\r\n]')  # a cell holding one of these is quoted by csv.writer


def _block_code(column) -> str | None:
    """The %-code `_write_rows` writes a column with, or None where only
    csv.writer writes it as write_table must: a column that is not a 1-D
    numpy array of numbers or text, or text with an empty cell (csv.writer
    writes a lone one as "") or a cell it would quote."""
    if not isinstance(column, np.ndarray) or column.ndim != 1:
        return None
    if column.dtype.kind == "U":
        cells = column.tolist()
        return "%s" if all(cells) and not _QUOTED.search("".join(cells)) else None
    return {"b": "%d", "i": "%d", "u": "%d", "f": "%.12g"}.get(column.dtype.kind)


def write_table(path: str | Path, header: Sequence[str], columns) -> None:
    """A report or extract CSV from its columns: floats through fnum,
    booleans as 0/1, None as empty.  A caller holding rows passes zip(*rows).
    A table of numpy number and plain text columns goes through
    _write_rows; one holding other text, None or Python objects through
    csv.writer, cell by cell."""
    columns = list(columns)
    codes = [_block_code(c) for c in columns]
    if columns and None not in codes:
        _write_rows(path, header, columns, codes)
        return
    cells = [[_cell(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)] for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def check_ids(ids: np.ndarray) -> None:
    """A DataError naming the first id, row by row, that is not positive."""
    bad = np.argwhere(ids <= 0)
    if len(bad):
        r, c = bad[0]
        raise DataError(f"PatientKey.{KEY_COLUMNS[c]} must be a positive integer, got {int(ids[r, c])!r}")


def match_keys(wanted: np.ndarray, held: np.ndarray) -> np.ndarray:
    """For each id triple of `wanted`, the last row of `held` holding the
    same triple, or -1 where none does."""
    held = np.asarray(held, dtype=np.int64).reshape(-1, 3)
    code = np.unique(np.concatenate([held, wanted]), axis=0, return_inverse=True)[1].ravel()
    last = np.full(len(code), -1)
    np.maximum.at(last, code[: len(held)], np.arange(len(held)))
    return last[code[len(held) :]]


_STUDYGROUP_HEADER = list(KEY_COLUMNS) + [f"x{i}" for i in range(1, N_VARIABLES + 1)]
_STUDYGROUP_ROW = np.dtype([("key", np.int64, (3,)), ("x", float, (N_VARIABLES,))])
_NON_SPACE = re.compile(rb"\S")  # a byte that bytes.strip() keeps


def write_studygroup_csv(group: StudyGroup, path: str | Path) -> None:
    _write_rows(path, _STUDYGROUP_HEADER, [*group.ids.T, *group.x.T], ["%d"] * 3 + ["%r"] * N_VARIABLES)


def read_numeric_csv(path: str | Path, dtype: np.dtype, usecols: Sequence[int] | None = None) -> np.ndarray | None:
    """The rows past the header of a CSV of numbers as one structured array
    of `dtype`, parsed by numpy's C reader, or None where that reader cannot
    stand in for csv.reader: a file with a quote character or no row, or
    one the reader rejects (a short row, a cell that does not parse).

    With `usecols`, rows may hold more cells and blank lines are skipped, as
    the extract and strata readers allow.  Without, every line is one row
    of exactly the cells of `dtype`, as `read_studygroup_csv` demands.
    Where this returns None, the caller reads the file with csv.reader,
    which gives the same values or the DataError naming the line.
    """
    data = Path(path).read_bytes()
    start = data.find(b"\n") + 1 or len(data)  # the rows, checked at offsets rather than copied
    if b'"' in data or _NON_SPACE.search(data, start) is None:
        return None
    try:
        rows = np.loadtxt(path, dtype, delimiter=",", skiprows=1, usecols=usecols, comments=None, ndmin=1)
    except ValueError:
        return None
    if usecols is None:  # csv.reader reads a blank line as a short row and a lone \r as a line end
        lines = data.count(b"\n", start) + (not data.endswith(b"\n"))
        if len(rows) != lines or data.count(b"\r") != data.count(b"\r\n"):
            return None
    return rows


def _key(cells) -> np.ndarray:
    """One key triple of a hand-off file as int64 ids, each checked positive."""
    key = np.array([int(v) for v in cells], dtype=np.int64)
    check_ids(key[None])
    return key


def read_studygroup_csv(path: str | Path) -> StudyGroup:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if header != _STUDYGROUP_HEADER:
            raise DataError(f"{path}: unexpected header (want key columns plus x1..x{N_VARIABLES})")
        rows = read_numeric_csv(path, _STUDYGROUP_ROW)
        if rows is not None and (rows["key"] > 0).all():
            ids, x = rows["key"], np.ascontiguousarray(rows["x"])
        else:  # csv.reader names the line at fault
            ids, x = [], []
            try:
                for line in reader:
                    if len(line) != len(header):
                        raise ValueError(f"{len(line)} cells, want {len(header)}")
                    ids.append(_key(line[:3]))
                    x.append([float(v) for v in line[3:]])
            except (ValueError, OverflowError, DataError) as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not len(ids):
        raise DataError(f"{path}: the study group is empty")
    try:
        return StudyGroup(ids, x)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_strata_csv(group: StudyGroup, scores, assignment, path: str | Path) -> None:
    """One row per patient: key, propensity score and stratum label 1..K."""
    columns = [*group.ids.T, np.asarray(scores), np.asarray(assignment)]
    _write_rows(path, STRATA_COLUMNS, columns, ["%d", "%d", "%d", "%r", "%d"])


def read_csv_rows(path: str | Path, columns: Sequence[str], parse) -> list:
    """parse(row) for each row, as a dict, of a CSV file holding `columns`;
    a missing column, a short row or a cell `parse` rejects is a DataError
    naming the file (and the line)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        try:
            return [parse(row) for row in reader]
        except (TypeError, ValueError, OverflowError, DataError) as exc:  # a short row leaves None cells
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


_STRATA_ROW = np.dtype([("key", np.int64, (3,)), ("score", float), ("quintile", np.int64)])


def read_strata_csv(path: str | Path, group: StudyGroup):
    """strata.csv as (scores, stratum labels) in the order of `group`; where
    a key is on several rows, the last one counts.  The labels the group's
    rows hold must be 1..K, each used, for the K labels they hold."""
    with open(path, newline="") as fh:
        # the last column of a repeated name, as csv.DictReader takes it
        at = {name: i for i, name in enumerate(next(csv.reader(fh), []))}
    rows = None
    if all(c in at for c in STRATA_COLUMNS):
        rows = read_numeric_csv(path, _STRATA_ROW, [at[c] for c in STRATA_COLUMNS])
    if rows is not None and (rows["key"] > 0).all():
        ids, values = rows["key"], rows[["score", "quintile"]].tolist()
    else:  # csv.reader names the line at fault
        read = read_csv_rows(
            path, STRATA_COLUMNS,
            lambda r: (_key(r[c] for c in KEY_COLUMNS), (float(r["score"]), int(r["quintile"]))),
        )
        ids, values = [key for key, _ in read], [value for _, value in read]
    row = match_keys(group.ids, ids)
    if (row < 0).any():
        raise DataError(f"{path}: does not cover patient {'/'.join(map(str, group.ids[np.argmax(row < 0)]))}")
    values = [values[r] for r in row.tolist()]
    labels = np.array([q for _, q in values], dtype=int)
    used = np.unique(labels)
    stray = used[(used < 1) | (used > len(used))]
    if len(stray):
        raise DataError(f"{path}: stratum labels must be 1..{len(used)}, each used, got {stray[0]}")
    return np.array([score for score, _ in values]), labels
