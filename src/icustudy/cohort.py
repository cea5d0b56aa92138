"""Cohort extraction: flat-file ingestion, sorted joins by array lookup, the
extract/intersect/filter pipeline with attrition accounting, and
treatment-naive detection by lexicon search over discharge summaries.

Extract files are headered CSVs keyed by one identifier component.  The
cohort is one table: the id arrays of ids.csv and, per extract, its parsed
payload, its runs of equal keys and each record's run.  Pipeline
predicates are masks over that table; every step reports survivors plus
percentages of the original set and of the previous step.
"""

from __future__ import annotations

import csv
import inspect
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DataError,
    PredicateFailure,
    UnknownSetReference,
    UnsortedInput,
)
from .group import KEY_COLUMNS, read_numeric_csv, write_table

# Diuretic generic and brand names used for the naive check; lowercase,
# matched on word boundaries.
DEFAULT_DIURETIC_LEXICON = frozenset(
    {
        "acetazolamide", "diamox",
        "dichlorphenamide", "daranide",
        "methazolamide", "glauctabs", "mzm", "neptazane",
        "torsemide", "demadex",
        "furosemide", "lasix",
        "spironolactone", "pironolactone", "aldactone",
        "amiloride", "midamor",
        "triamterene", "dyrenium",
        "hydrochlorothiazide", "hctz", "hydrodiuril", "aquazide h", "esidrix", "microzide",
        "metolazone", "mykrox", "zaroxolyn",
        "methyclothiazide", "enduron", "aquatensen",
        "chlorothiazide", "diuril",
        "indapamide", "lozol",
        "bendroflumethiazide", "naturetin",
        "polythiazide", "renese",
        "hydroflumethiazide", "saluron",
        "chlorthalidone", "thalitone",
    }
)

#: summary sections describing the pre-admission drug history
DEFAULT_PREADMISSION_HEADINGS = (
    "DRUGS ON ADMISSION",
    "MEDICATIONS ON ADMISSION",
    "ON ADMISSION",
)

# a heading-like line: run of capitals/digits/spaces followed by a colon
_HEADING_RE = re.compile(r"^[ \t]*[A-Z][A-Z0-9 /\-]{2,}:", re.MULTILINE)

#: any pre-admission heading, in any case
_PREADMISSION_RE = re.compile("|".join(map(re.escape, DEFAULT_PREADMISSION_HEADINGS)), re.IGNORECASE)

#: any lexicon entry with no letter or digit (``str.isalnum``) on either
#: side; ``[^\W_]`` is exactly the characters ``isalnum`` accepts
_LEXICON_RE = re.compile(rf"(?<![^\W_])(?:{'|'.join(map(re.escape, sorted(DEFAULT_DIURETIC_LEXICON)))})(?![^\W_])")


def _mentions_drug(text: str) -> bool:
    return _LEXICON_RE.search(text.lower()) is not None


def detect_naive(summary: str) -> bool:
    """True when no lexicon drug is mentioned in the pre-admission context.

    The pre-admission headings locate sections; each section runs to the
    next heading-like line or the end of the document.  When no heading
    matches, the whole document is searched (conservative).  Matching is
    case-insensitive on word boundaries, so "lasixol" does not count as
    "lasix".
    """
    # headings are found on the summary itself: str.upper() can lengthen
    # the text ("ß" -> "SS"), so positions in it need not be positions here
    sections = []
    for found in _PREADMISSION_RE.finditer(summary):
        nxt = _HEADING_RE.search(summary, found.end())
        sections.append(summary[found.end() : nxt.start() if nxt else len(summary)])
    return not any(map(_mentions_drug, sections or [summary]))


# --- sorted merge join --------------------------------------------------------

class JoinResult(NamedTuple):
    index: np.ndarray  # per id, its key's first value row, -1 where none
    cursor_advances: int


def sorted_merge_join(ids: np.ndarray, values: np.ndarray) -> JoinResult:
    """Join sorted id keys against sorted value keys.

    Both inputs must be ascending; duplicates are legal on either side.
    Each id looks its key up among the value keys by binary search and
    gets the index of the first value row with that key, or -1 where there
    is none.  The cursor-advance total is what a linear merge reads: every
    id, and every value row up to the largest id key, so it never exceeds
    len(ids) + len(values).
    """
    ids, values = np.asarray(ids, dtype=np.int64), np.asarray(values, dtype=np.int64)
    for name, keys in (("ids", ids), ("values", values)):
        down = np.flatnonzero(np.diff(keys) < 0)
        if len(down):
            raise UnsortedInput(name, int(down[0]) + 1)
    lo = np.searchsorted(values, ids, "left")
    hi = np.searchsorted(values, ids, "right")
    index = np.where(lo < hi, lo, -1)
    return JoinResult(index, len(ids) + (int(hi[-1]) if len(hi) else 0))


# --- the cohort table -------------------------------------------------------------


class Joined(NamedTuple):
    """One extract joined onto the records of a cohort."""

    table: np.ndarray  # the payload of every keyed row, in file order
    bounds: np.ndarray  # run r of equal keys holds rows bounds[r]:bounds[r + 1]
    run: np.ndarray  # each record's run, -1 where it joins no row

    @property
    def hit(self) -> np.ndarray:
        return self.run >= 0

    def spans(self) -> tuple:
        """Each record's first row and row count (0 where it joins none)."""
        hit = self.hit
        lo = np.where(hit, self.bounds[self.run], 0)
        return lo, np.where(hit, self.bounds[self.run + 1] - lo, 0)

    def first(self, column: int = 0) -> np.ndarray:
        """The `column` cell of each record's first row; NaN where none."""
        values, hit = np.full(len(self.run), np.nan), self.hit
        values[hit] = self.table[self.bounds[self.run[hit]], column]
        return values


@dataclass
class Cohort:
    """The records of ids.csv as key arrays, with every extract joined on."""

    ids: np.ndarray  # (n, 3) subject, hadm and icustay ids; 0 for a blank cell
    absent: np.ndarray  # (n, 3) True for a blank cell, which is no id at all
    admissions: np.ndarray  # each record's subject's admissions over all of ids.csv
    extracts: dict  # extract name -> Joined

    def __len__(self) -> int:
        return len(self.ids)

    def select(self, rows) -> Cohort:
        """The records at `rows`, in that order, sharing the parsed extracts."""
        joined = {name: j._replace(run=j.run[rows]) for name, j in self.extracts.items()}
        return Cohort(self.ids[rows], self.absent[rows], self.admissions[rows], joined)

    def idents(self) -> list:
        """Each record's id triple, None for a blank cell."""
        return list(map(tuple, np.where(self.absent, None, self.ids).tolist()))


# --- the filter pipeline --------------------------------------------------------


@dataclass(frozen=True)
class FilterStep:
    index: int
    kind: str  # "extract" | "intersect" | "filter"
    label: str
    predicate: str | None = None  # extract/filter steps
    operands: tuple = ()  # intersect steps: two prior labels
    args: tuple = ()  # numbers, as written

    def __post_init__(self):
        if self.kind not in ("extract", "intersect", "filter"):
            raise DataError(f"unknown step kind {self.kind!r}")
        if self.kind == "intersect":
            if len(self.operands) != 2:
                raise DataError("intersect step needs exactly two operand labels")
            return
        if self.predicate not in PREDICATES:
            raise DataError(f"unknown predicate {self.predicate!r}" if self.predicate else f"{self.kind} step needs a predicate name")
        try:
            inspect.signature(PREDICATES[self.predicate]).bind(None, *self.args)
        except TypeError:
            n = len(self.args)
            raise DataError(f"predicate {self.predicate!r} does not take {n} argument{'s' * (n != 1)}") from None
        for arg in self.args:
            try:
                number = float(arg)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                raise DataError(f"predicate argument {arg!r} is not a number")


@dataclass
class StepTrace:
    index: int
    kind: str
    label: str
    surviving_count: int
    pct_of_original: float
    pct_of_previous: float


@dataclass
class FilterTrace:
    original_count: int
    steps: list


# predicate registry: name -> callable(cohort, *args) -> mask over its records


def _p_has_all_ids(c: Cohort) -> np.ndarray:
    return (c.ids > 0).all(axis=1)


def _p_single_admission(c: Cohort) -> np.ndarray:
    return c.admissions == 1


def _p_full_day_data(c: Cohort) -> np.ndarray:
    # the largest offset over every timeline: NaN when any offset is NaN,
    # and -inf without a timeline, so that both fail
    span = np.full(len(c), -np.inf)
    for name in TIMELINE_EXTRACTS:
        j = c.extracts[name]
        if len(j.table):
            run_max = np.maximum.reduceat(j.table[:, 0], j.bounds[:-1])
            span[j.hit] = np.maximum(span[j.hit], run_max[j.run[j.hit]])
    return span >= 24.0


def _p_age_at_least(c: Cohort, years: str = "18") -> np.ndarray:
    # a record without three positive ids joins no row by the ids it
    # lacks, and step A drops it: a missing age fails the test
    lacking = ~c.extracts["demographics"].hit & _p_has_all_ids(c)
    if lacking.any():
        raise PredicateFailure("age_at_least", c.idents()[np.argmax(lacking)], "age")
    return c.extracts["demographics"].first(EXTRACT_SCHEMAS["demographics"].columns.index("age")) >= float(years)


def _p_sepsis(c: Cohort) -> np.ndarray:
    return c.extracts["sepsis"].hit


def _p_not_cmo(c: Cohort) -> np.ndarray:
    return ~c.extracts["cmo"].hit


# a record that joins no summary has run -1, which indexes the value
# appended after those of the runs


def _p_has_summary(c: Cohort) -> np.ndarray:
    j = c.extracts["summaries"]
    return np.append(j.table[j.bounds[:-1], 0] != "", False)[j.run]


def _p_naive(c: Cohort) -> np.ndarray:
    # one lexicon search per summary some record joins; naive without one
    j = c.extracts["summaries"]
    runs = np.unique(j.run[j.hit])
    verdict = np.ones(len(j.bounds), bool)
    verdict[runs] = [detect_naive(text) for text in j.table[j.bounds[runs], 0]]
    return verdict[j.run]


def _p_has_mandatory(c: Cohort) -> np.ndarray:
    return np.logical_and.reduce([c.extracts[n].hit for n, s in EXTRACT_SCHEMAS.items() if s.study_column])


def _p_always_true(c: Cohort) -> np.ndarray:
    return np.ones(len(c), bool)


PREDICATES: dict = {
    "has_all_ids": _p_has_all_ids,
    "single_admission": _p_single_admission,
    "full_day_data": _p_full_day_data,
    "age_at_least": _p_age_at_least,
    "sepsis": _p_sepsis,
    "not_cmo": _p_not_cmo,
    "has_summary": _p_has_summary,
    "naive": _p_naive,
    "has_mandatory": _p_has_mandatory,
    "always_true": _p_always_true,
}


def parse_pipeline(text: str) -> list:
    """Parse a pipeline file: `index,kind,label,spec` per line.

    `spec` is a predicate name (plus optional space-separated numeric
    arguments) for extract/filter steps, or two operand labels for
    intersect steps.  Blank lines and lines starting with # are skipped.
    A step that does not parse is a DataError naming its line.
    """
    steps = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            if len(parts) != 4:
                raise DataError(f"want 4 comma-separated cells, got {len(parts)}")
            index, kind, label, spec = parts[0], parts[1].lower(), parts[2], parts[3].split()
            try:
                index = int(index)
            except ValueError:
                raise DataError(f"step index {index!r} is not an integer") from None
            if kind == "intersect":
                steps.append(FilterStep(index, kind, label, operands=tuple(spec)))
            else:
                steps.append(FilterStep(index, kind, label, *spec[:1], args=tuple(spec[1:])))
        except DataError as exc:
            raise DataError(f"pipeline line {number}: {exc}: {line!r}") from None
    if not steps:
        raise DataError("pipeline has no step")
    if [s.index for s in steps] != list(range(1, len(steps) + 1)):
        raise DataError("pipeline step indices must be contiguous from 1")
    return steps


def run_filter_pipeline(base: Cohort, steps: Sequence[FilterStep]):
    """Run the extract/intersect/filter pipeline over the base cohort.

    Returns (the final records as a Cohort, FilterTrace).  Every result is
    a mask over the base records.  Extract steps evaluate their predicate
    over the base set; intersect steps keep the records in both prior
    results (a record's predicates depend only on its ids, so this is the
    first operand's records whose ids the second holds); filter steps
    narrow the previous result.  Percentages are exact fractions of the
    original set and of the previous step's survivors.
    """
    original = len(base)
    results: dict = {}
    trace_steps = []
    previous = current = np.ones(original, bool)

    for step in steps:
        if step.kind == "extract":
            current = PREDICATES[step.predicate](base, *step.args)
        elif step.kind == "intersect":
            for label in step.operands:
                if label not in results:
                    raise UnknownSetReference(label)
            left, right = (results[label] for label in step.operands)
            current = left & right
        else:  # filter
            rows = np.flatnonzero(previous)
            current = np.zeros(original, bool)
            current[rows] = PREDICATES[step.predicate](base.select(rows), *step.args)
        results[step.label] = current
        surviving, before = int(current.sum()), int(previous.sum())
        trace_steps.append(StepTrace(
            step.index, step.kind, step.label, surviving,
            surviving / original if original else 0.0, surviving / before if before else 0.0,
        ))
        previous = current

    return base.select(np.flatnonzero(current)), FilterTrace(original_count=original, steps=trace_steps)


DEFAULT_PIPELINE = """\
1,extract,A,has_all_ids
2,extract,B,single_admission
3,intersect,C,A B
4,extract,D,full_day_data
5,intersect,E,C D
6,extract,F,age_at_least 18
7,intersect,G,E F
8,extract,H,sepsis
9,intersect,I,G H
10,extract,L,not_cmo
11,intersect,M,I L
12,extract,N,has_summary
13,intersect,O,M N
14,extract,P,naive
15,intersect,Q,O P
16,filter,R,has_mandatory
"""


def write_trace_csv(trace: FilterTrace, path: str | Path) -> None:
    write_table(
        path,
        ["step", "kind", "label", "surviving", "pct_of_original", "pct_of_previous"],
        zip(*[
            [s.index, s.kind, s.label, s.surviving_count,
             format(s.pct_of_original, ".10g"), format(s.pct_of_previous, ".10g")]
            for s in trace.steps
        ]),
    )


# --- extract ingestion ----------------------------------------------------------

TIMELINE_EXTRACTS = ("saps", "sofa", "creatinine", "bp", "bp_mean", "fluids_in", "fluids_out")

ELIX_BINARY_FIELDS = (
    "chf", "arrhythmia", "valvular", "hypertension", "diabetes_unc", "diabetes_comp",
    "renal_failure", "liver_disease", "obesity",
)


class ExtractSchema(NamedTuple):
    key: str  # the id component the file is keyed and sorted by
    columns: tuple  # payload columns
    #: the x index its first payload column fills (a timeline: its block's
    #: first); joining no row of such an extract fails has_mandatory
    study_column: int | None = None
    study: bool = True  # the study row uses it, so `varprep run` reads it
    text: bool = False  # the payload is kept as text, not read as floats


#: every extract joined onto the id triples of ids.csv, in join order
EXTRACT_SCHEMAS = {
    "demographics": ExtractSchema("icustay_id", ("age", "gender"), 2),
    "race": ExtractSchema("hadm_id", ("value",), 4),
    "elixhauser": ExtractSchema("hadm_id", ("value",), 15),
    "elixhauser_binary": ExtractSchema("hadm_id", ELIX_BINARY_FIELDS, 16),
    "vasopressors": ExtractSchema("icustay_id", ("value",), 45),
    "ventilation": ExtractSchema("icustay_id", ("value",), 46),
    "mortality": ExtractSchema("icustay_id", ("value",), 57),
    "los": ExtractSchema("icustay_id", ("value",), 58),
    "diuretics": ExtractSchema("icustay_id", ("first_dose_hours",)),
    "summaries": ExtractSchema("hadm_id", ("text",), study=False, text=True),
    "sepsis": ExtractSchema("icustay_id", (), study=False),
    "cmo": ExtractSchema("icustay_id", (), study=False),
    **{
        name: ExtractSchema("icustay_id", ("offset_hours", "value"), start)
        for name, start in zip(TIMELINE_EXTRACTS, (5, 10, 25, 47, 52, 30, 35), strict=True)
    },
}


def _locate(directory: Path, name: str, columns: Sequence[str]) -> tuple:
    """The path of `name`.csv and the index of each of `columns` in its header."""
    path = directory / f"{name}.csv"
    if not path.exists():
        raise DataError(f"missing extract file: {path}")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    return path, [header.index(c) for c in columns]


def _read_extract(path: Path, at: Sequence[int]) -> list:
    """The cells at `at` of every row past the header, one list per column."""
    width = max(at) + 1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = list(filter(None, reader))  # blank lines are skipped
        if min(map(len, rows), default=width) < width:
            fh.seek(0)
            reader = csv.reader(fh)
            line = next(reader.line_num for row in reader if 0 < len(row) < width)
            raise DataError(f"{path}: line {line} is short of cells")
    return [[row[i] for row in rows] for i in at]


def _cell_error(path: Path, at: Sequence[int], parse: Callable) -> DataError:
    """The data error naming the first row whose cells at `at` `parse` rejects."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):
            try:
                parse(*(row[i] for i in at))
            except (ValueError, OverflowError) as exc:
                return DataError(f"{path}: line {reader.line_num}: {exc}")
    raise AssertionError(f"{path}: no cell fails to parse")


def _ids(cells: np.ndarray) -> tuple:
    """The (n, 3) int64 ids of ids.csv's (n, 3) text cells, 0 for a blank
    cell, and the mask of the blank cells."""
    absent = np.frompyfunc(str.strip, 1, 1)(cells) == ""
    return np.where(absent, "0", cells).astype(np.int64), absent


def _admissions(ids: np.ndarray, absent: np.ndarray) -> np.ndarray:
    """Each record's count of records with its subject id; a blank subject
    id counts as one admission of its own."""
    subject, present = ids[:, 0], ~absent[:, 0]
    distinct, counts = np.unique(subject[present], return_counts=True)
    admissions = np.ones(len(ids), np.int64)
    admissions[present] = counts[np.searchsorted(distinct, subject[present])]
    return admissions


def _parse_cells(path: Path, at: Sequence[int], payload: type) -> tuple:
    """The int64 keys and the (n, c) `payload` table of the keyed rows, by
    csv.reader; rows without a key are skipped before they are parsed."""
    keys, *columns = _read_extract(path, at)
    if not all(map(str.strip, keys)):
        keep = [i for i, key in enumerate(keys) if key.strip()]
        keys, *columns = ([column[i] for i in keep] for column in (keys, *columns))
    try:
        keys = np.array(keys, dtype=np.int64)
        table = np.array(columns, dtype=payload)
    except (ValueError, OverflowError):

        def parse(key, *cells):  # rows without a key are skipped
            if key.strip():
                np.array([key], dtype=np.int64), np.array(cells, dtype=payload)

        raise _cell_error(path, at, parse) from None
    return keys, table.reshape(len(columns), len(keys)).T


def _parse_extract(directory: Path, name: str, schema: ExtractSchema) -> tuple:
    """The keys and payload table of the keyed rows of `name`.csv: by
    numpy's C reader for numbers, by csv.reader for text and for a file the
    C reader rejects (see `read_numeric_csv`)."""
    path, at = _locate(directory, name, (schema.key, *schema.columns))
    if schema.text:
        return _parse_cells(path, at, object)
    row = np.dtype([("key", np.int64), ("payload", float, (len(schema.columns),))])
    rows = read_numeric_csv(path, row, at)
    if rows is None:
        return _parse_cells(path, at, float)
    # a copy, so that the cohort does not hold the key column too
    return rows["key"], np.ascontiguousarray(rows["payload"])


def _key_runs(directory: Path, name: str, schema: ExtractSchema) -> tuple:
    """The key of each run of equal keys of `name`.csv, in file order, the
    run bounds (run r holds rows bounds[r]:bounds[r + 1]) and the payload
    table.  The key column must ascend over every row."""
    keys, table = _parse_extract(directory, name, schema)
    # extract files must arrive sorted by their key component; a re-sort
    # here would mask corrupt extracts
    step = np.diff(keys, prepend=keys[:1] - 1)
    if (step < 0).any():
        raise UnsortedInput(f"{name}.csv", int(np.argmax(step < 0)))
    starts = np.flatnonzero(step)
    return keys[starts], np.append(starts, len(keys)), table


def load_extracts(directory: str | Path, study_only: bool = False) -> Cohort:
    """Read ids.csv and join the extracts of EXTRACT_SCHEMAS onto its triples.

    Each extract is parsed into arrays (see `_parse_extract`) and checked
    sorted by its key over every row; one join then looks each record's
    key up among the extract's run keys.  Returns the Cohort holding, per
    extract, the payload table, its runs and each record's run.  With
    `study_only`, only the extracts the study row uses are read.
    """
    directory = Path(directory)
    path, at = _locate(directory, "ids", KEY_COLUMNS)
    cells = np.array(_read_extract(path, at), dtype=object).T
    try:
        ids, absent = _ids(cells)
    except (ValueError, OverflowError):
        raise _cell_error(path, at, lambda *row: _ids(np.array(row, dtype=object))) from None
    cohort = Cohort(ids, absent, _admissions(ids, absent), {})

    # joins run before step A drops the records without three positive ids:
    # an absent or non-positive component joins no row.  Each side holds
    # the records with a positive id of its component, ascending by it
    sides = {}
    for c, component in enumerate(KEY_COLUMNS):
        side = np.flatnonzero(ids[:, c] > 0)
        sides[component] = side[np.argsort(ids[side, c], kind="stable")], c
    for name, schema in EXTRACT_SCHEMAS.items():
        if study_only and not schema.study:
            continue
        run_keys, bounds, table = _key_runs(directory, name, schema)
        side, c = sides[schema.key]
        run = np.full(len(ids), -1)
        run[side] = sorted_merge_join(ids[side, c], run_keys).index
        cohort.extracts[name] = Joined(table, bounds, run)
    return cohort
