"""Cohort extraction: flat-file ingestion, sorted joins by array lookup, the
extract/intersect/filter pipeline with attrition accounting, and
treatment-naive detection by lexicon search over discharge summaries.

Extract files are headered CSVs keyed by one identifier component.  The
pipeline works over in-memory records carrying an attribute dict; every
step reports survivors plus percentages of the original set and of the
previous step.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DataError,
    PredicateFailure,
    UnknownSetReference,
    UnsortedInput,
)
from .group import PatientKey, read_numeric_csv

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


@dataclass(frozen=True)
class DrugLexicon:
    entries: frozenset
    #: any entry with no letter or digit (``str.isalnum``) on either side;
    #: ``[^\W_]`` is exactly the characters ``isalnum`` accepts
    pattern: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise DataError("drug lexicon must not be empty")
        for entry in self.entries:
            if entry != entry.strip() or entry != entry.lower():
                raise DataError(f"lexicon entries must be trimmed lowercase: {entry!r}")
        alternatives = "|".join(map(re.escape, sorted(self.entries)))
        pattern = re.compile(rf"(?<![^\W_])(?:{alternatives})(?![^\W_])")
        object.__setattr__(self, "pattern", pattern)


DEFAULT_LEXICON = DrugLexicon(DEFAULT_DIURETIC_LEXICON)


def _mentions_drug(text: str, lexicon: DrugLexicon) -> bool:
    return lexicon.pattern.search(text.lower()) is not None


def detect_naive(
    summary: str,
    lexicon: DrugLexicon | None = None,
    headings: Sequence[str] | None = None,
) -> bool:
    """True when no lexicon drug is mentioned in the pre-admission context.

    The configured headings locate pre-admission sections; each section
    runs to the next heading-like line or the end of the document.  When no
    heading matches, the whole document is searched (conservative).
    Matching is case-insensitive on word boundaries, so "lasixol" does not
    count as "lasix".
    """
    if not summary:
        return True
    lexicon = lexicon or DEFAULT_LEXICON
    headings = tuple(headings) if headings is not None else DEFAULT_PREADMISSION_HEADINGS

    upper = summary.upper()
    sections = []
    for heading in headings:
        start = 0
        while True:
            pos = upper.find(heading.upper(), start)
            if pos < 0:
                break
            body_start = pos + len(heading)
            nxt = _HEADING_RE.search(summary, body_start)
            body_end = nxt.start() if nxt else len(summary)
            sections.append(summary[body_start:body_end])
            start = body_start
    if not sections:
        return not _mentions_drug(summary, lexicon)
    return not any(_mentions_drug(section, lexicon) for section in sections)


# --- sorted merge join --------------------------------------------------------

MISSING = None

_COMPONENTS = ("subject_id", "hadm_id", "icustay_id")


@dataclass
class JoinResult:
    groups: list  # (PatientKey, list-of-payloads or None)
    cursor_advances: int


def sorted_merge_join(
    ids: Sequence[PatientKey],
    values: Sequence[tuple],
    component: str = "icustay_id",
) -> JoinResult:
    """Join sorted id triples against sorted (key, payload) rows.

    Both inputs must be ascending in the chosen component; duplicates are
    legal on either side.  Each id looks its key up in the value keys by
    binary search and gets the payloads of that key's rows, or a None
    payload group where there is none.  The cursor-advance total is what
    a linear merge reads: every id, and every value row up to the largest
    id key, so it never exceeds len(ids) + len(values).
    """
    if component not in _COMPONENTS:
        raise DataError(f"unknown join component {component!r}")
    id_keys = np.fromiter(map(attrgetter(component), ids), np.int64, len(ids))
    value_keys, payloads = zip(*values) if values else ((), ())
    value_keys, payloads = np.array(value_keys, dtype=np.int64), list(payloads)
    for name, keys in (("ids", id_keys), ("values", value_keys)):
        down = np.flatnonzero(np.diff(keys) < 0)
        if len(down):
            raise UnsortedInput(name, int(down[0]) + 1)
    lo = np.searchsorted(value_keys, id_keys, "left").tolist()
    hi = np.searchsorted(value_keys, id_keys, "right").tolist()
    groups = [(pid, payloads[a:b] if a < b else MISSING) for pid, a, b in zip(ids, lo, hi)]
    return JoinResult(groups=groups, cursor_advances=len(ids) + (hi[-1] if hi else 0))


# --- records and the filter pipeline -------------------------------------------


@dataclass
class Record:
    subject_id: int | None
    hadm_id: int | None
    icustay_id: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def ident(self) -> tuple:
        return (self.subject_id, self.hadm_id, self.icustay_id)

    def key(self) -> PatientKey:
        return PatientKey(self.subject_id, self.hadm_id, self.icustay_id)

    def need(self, predicate: str, name: str):
        if name not in self.attrs or self.attrs[name] is None:
            raise PredicateFailure(predicate, self.ident, name)
        return self.attrs[name]


@dataclass(frozen=True)
class FilterStep:
    index: int
    kind: str  # "extract" | "intersect" | "filter"
    label: str
    predicate: str | None = None  # extract/filter steps
    operands: tuple = ()  # intersect steps: two prior labels
    args: tuple = ()

    def __post_init__(self):
        if self.kind not in ("extract", "intersect", "filter"):
            raise DataError(f"unknown step kind {self.kind!r}")
        if self.kind == "intersect" and len(self.operands) != 2:
            raise DataError("intersect step needs exactly two operand labels")
        if self.kind != "intersect" and not self.predicate:
            raise DataError(f"{self.kind} step needs a predicate name")


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


# predicate registry: name -> callable(record, *args) -> bool


def _p_has_all_ids(r: Record) -> bool:
    return all(v is not None and v > 0 for v in r.ident)


def _p_single_admission(r: Record) -> bool:
    return r.need("single_admission", "n_admissions") == 1


def _p_full_day_data(r: Record) -> bool:
    span = r.attrs.get("max_offset_hours")
    return span is not None and span >= 24.0


def _p_age_at_least(r: Record, years: str = "18") -> bool:
    return r.need("age_at_least", "age") >= float(years)


def _p_sepsis(r: Record) -> bool:
    return bool(r.attrs.get("sepsis"))


def _p_not_cmo(r: Record) -> bool:
    return not r.attrs.get("cmo")


def _p_has_summary(r: Record) -> bool:
    return bool(r.attrs.get("summary"))


def _p_naive(r: Record) -> bool:
    naive = r.attrs.get("naive")
    return True if naive is None else bool(naive)


def _p_has_mandatory(r: Record) -> bool:
    missing = r.attrs.get("missing_mandatory")
    return not missing


def _p_always_true(r: Record) -> bool:
    return True


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

    `spec` is a predicate name (plus optional space-separated arguments)
    for extract/filter steps, or two operand labels for intersect steps.
    Blank lines and lines starting with # are skipped.
    """
    steps = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise DataError(f"bad pipeline line: {raw!r}")
        index, kind, label, spec = int(parts[0]), parts[1].lower(), parts[2], parts[3]
        if kind == "intersect":
            operands = tuple(spec.split())
            steps.append(FilterStep(index, kind, label, operands=operands))
        else:
            tokens = spec.split()
            steps.append(
                FilterStep(index, kind, label, predicate=tokens[0], args=tuple(tokens[1:]))
            )
    if [s.index for s in steps] != list(range(1, len(steps) + 1)):
        raise DataError("pipeline step indices must be contiguous from 1")
    return steps


def run_filter_pipeline(base: Sequence[Record], steps: Sequence[FilterStep]):
    """Run the extract/intersect/filter pipeline over the base record set.

    Returns (final records, FilterTrace).  Extract steps evaluate their
    predicate over the base set; intersect steps combine two prior results
    preserving first-operand order; filter steps narrow the previous
    result.  Percentages are exact fractions of the original set and of
    the previous step's survivors.
    """
    original = len(base)
    results: dict = {}
    trace_steps = []
    previous: Sequence[Record] = base
    current: Sequence[Record] = base

    for step in steps:
        if step.kind == "extract":
            pred = _predicate(step)
            current = [r for r in base if pred(r)]
        elif step.kind == "intersect":
            for label in step.operands:
                if label not in results:
                    raise UnknownSetReference(label)
            left, right = (results[label] for label in step.operands)
            right_ids = {r.ident for r in right}
            current = [r for r in left if r.ident in right_ids]
        else:  # filter
            pred = _predicate(step)
            current = [r for r in previous if pred(r)]
        results[step.label] = current
        trace_steps.append(
            StepTrace(
                index=step.index,
                kind=step.kind,
                label=step.label,
                surviving_count=len(current),
                pct_of_original=len(current) / original if original else 0.0,
                pct_of_previous=len(current) / len(previous) if len(previous) else 0.0,
            )
        )
        previous = current

    return list(current), FilterTrace(original_count=original, steps=trace_steps)


def _predicate(step: FilterStep) -> Callable[[Record], bool]:
    if step.predicate not in PREDICATES:
        raise UnknownSetReference(step.predicate)
    fn, args = PREDICATES[step.predicate], step.args

    def pred(r: Record) -> bool:
        try:
            return fn(r, *args)
        except PredicateFailure:
            # a record without three positive ids joins no row by the ids
            # it lacks, and step A drops it: a missing field fails the test
            if _p_has_all_ids(r):
                raise
            return False

    return pred


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "kind", "label", "surviving", "pct_of_original", "pct_of_previous"]
        )
        for s in trace.steps:
            writer.writerow(
                [
                    s.index,
                    s.kind,
                    s.label,
                    s.surviving_count,
                    format(s.pct_of_original, ".10g"),
                    format(s.pct_of_previous, ".10g"),
                ]
            )


# --- extract ingestion ----------------------------------------------------------

TIMELINE_EXTRACTS = ("saps", "sofa", "creatinine", "bp", "bp_mean", "fluids_in", "fluids_out")

ELIX_BINARY_FIELDS = (
    "chf", "arrhythmia", "valvular", "hypertension", "diabetes_unc", "diabetes_comp",
    "renal_failure", "liver_disease", "obesity",
)


class ExtractSchema(NamedTuple):
    key: str  # the id component the file is keyed and sorted by
    columns: tuple  # payload columns, read as floats unless attached as "text"
    attrs: tuple  # the Record.attrs names it fills
    attach: str  # how a patient's joined rows attach, see _attach
    mandatory: bool = False  # joining no row fails the has_mandatory step
    study: bool = True  # the study row uses it, so `varprep run` reads it


#: every extract joined onto the id triples of ids.csv, in join order
EXTRACT_SCHEMAS = {
    "demographics": ExtractSchema(
        "icustay_id", ("age", "gender"), ("age", "gender"), "first", True
    ),
    **{
        name: ExtractSchema("hadm_id", ("value",), (name,), "first", True)
        for name in ("race", "elixhauser")
    },
    "elixhauser_binary": ExtractSchema(
        "hadm_id", ELIX_BINARY_FIELDS, ("elixhauser_binary",), "tuple", True
    ),
    **{
        name: ExtractSchema("icustay_id", ("value",), (name,), "first", True)
        for name in ("vasopressors", "ventilation", "mortality", "los")
    },
    "diuretics": ExtractSchema(
        "icustay_id", ("first_dose_hours",), ("first_dose_hours",), "first"
    ),
    "summaries": ExtractSchema("hadm_id", ("text",), ("summary",), "text", study=False),
    "sepsis": ExtractSchema("icustay_id", (), ("sepsis",), "flag", study=False),
    "cmo": ExtractSchema("icustay_id", (), ("cmo",), "flag", study=False),
    **{
        name: ExtractSchema("icustay_id", ("offset_hours", "value"), (name,), "rows", True)
        for name in TIMELINE_EXTRACTS
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
        cells = [[] for _ in at]
        # in chunks of fewer rows than CPython's young-generation threshold
        # (700 allocations), so that the row lists die before a collection
        # promotes them and later full collections rescan them
        for chunk in iter(lambda: list(islice(reader, 512)), []):
            rows = list(filter(None, chunk))  # blank lines are skipped
            if min(map(len, rows), default=width) < width:
                fh.seek(0)
                reader = csv.reader(fh)
                line = next(reader.line_num for row in reader if 0 < len(row) < width)
                raise DataError(f"{path}: line {line} is short of cells")
            for column, i in zip(cells, at):
                column += [row[i] for row in rows]
    return cells


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


def _int_or_none(raw: str) -> int | None:
    raw = raw.strip()
    return int(raw) if raw else None


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
    if schema.attach == "text":
        return _parse_cells(path, at, object)
    row = np.dtype([("key", np.int64), ("payload", float, (len(schema.columns),))])
    rows = read_numeric_csv(path, row, at)
    if rows is None:
        return _parse_cells(path, at, float)
    # a copy, so that the timeline views do not hold the key column too
    return rows["key"], np.ascontiguousarray(rows["payload"])


def _key_runs(directory: Path, name: str, schema: ExtractSchema) -> list:
    """(key, payload) for each distinct key of `name`.csv, in file order.

    The key column must ascend over every row.  The payload is an (m, 2)
    array view of the key's run of (offset, value) rows for a timeline,
    else the run's first row as a tuple.
    """
    keys, table = _parse_extract(directory, name, schema)
    # extract files must arrive sorted by their key component; a re-sort
    # here would mask corrupt extracts
    step = np.diff(keys, prepend=keys[:1] - 1)
    if (step < 0).any():
        raise UnsortedInput(f"{name}.csv", int(np.argmax(step < 0)))
    starts = np.flatnonzero(step)
    if schema.attach == "rows":
        bounds = np.append(starts, len(keys)).tolist()
        payloads = [table[a:b] for a, b in zip(bounds, bounds[1:])]
    else:
        payloads = map(tuple, table[starts].tolist())
    return list(zip(keys[starts].tolist(), payloads))


def _attach(rec: Record, schema: ExtractSchema, rows: list | None) -> None:
    how, attrs = schema.attach, schema.attrs
    first = rows[0] if rows else None  # the payload of the record's key run
    if how == "flag":  # presence
        rec.attrs[attrs[0]] = bool(rows)
    elif how in ("rows", "tuple"):  # the (offset, value) rows as one array; one tuple
        rec.attrs[attrs[0]] = first
    else:  # "first", "text": the first row spread over the attrs
        rec.attrs.update(zip(attrs, first or [None] * len(attrs)))


def load_extracts(directory: str | Path, study_only: bool = False) -> list:
    """Read ids.csv and join the extracts of EXTRACT_SCHEMAS onto its triples.

    Each extract is parsed into arrays (see `_parse_extract`) and checked
    sorted by its key over every row; the join then looks each record's
    key up among the extract's run keys and attaches that key's run of
    rows.  Returns records with attributes filled:
    demographics, flags, outcome values, timelines as (offset, value) array
    views, the naive decision and the missing-mandatory marker used by the
    final pipeline step.  With `study_only`, only the extracts the study
    row uses are read and the pipeline's own attributes are left unset.
    """
    directory = Path(directory)
    path, at = _locate(directory, "ids", _COMPONENTS)
    try:  # a blank cell is an absent id
        records = [Record(*map(_int_or_none, row)) for row in zip(*_read_extract(path, at))]
    except ValueError:
        raise _cell_error(path, at, lambda *ids: list(map(_int_or_none, ids))) from None
    admissions = Counter(r.subject_id for r in records if r.subject_id is not None)
    for rec in records:
        rec.attrs["n_admissions"] = admissions.get(rec.subject_id, 1)

    # joins run before step A drops the records without three positive ids:
    # an absent or non-positive component joins no row, and 1 stands in for
    # it in the record's join key
    def joinable(value):
        return value is not None and value > 0

    keyed = [
        (rec, PatientKey(*(v if joinable(v) else 1 for v in rec.ident)))
        for rec in records
        if joinable(rec.hadm_id) or joinable(rec.icustay_id)
    ]
    sides = {}  # component -> (records with it, ascending; their join keys)
    for component in {schema.key for schema in EXTRACT_SCHEMAS.values()}:
        side = [pair for pair in keyed if joinable(getattr(pair[0], component))]
        side.sort(key=lambda pair: getattr(pair[0], component))
        sides[component] = ([rec for rec, _ in side], [key for _, key in side])

    for name, schema in EXTRACT_SCHEMAS.items():
        if study_only and not schema.study:
            continue
        side, keys = sides[schema.key]
        result = sorted_merge_join(keys, _key_runs(directory, name, schema), schema.key)
        for rec, (_, rows) in zip(side, result.groups):
            _attach(rec, schema, rows)
    if study_only:
        return records

    mandatory = [(name, s.attrs[0]) for name, s in EXTRACT_SCHEMAS.items() if s.mandatory]
    for rec in records:
        # the largest timeline offset, NaN when any offset is NaN
        spans = [rec.attrs[name][:, 0].max() for name in TIMELINE_EXTRACTS if rec.attrs.get(name) is not None]
        rec.attrs["max_offset_hours"] = float(np.max(spans)) if spans else None
        rec.attrs["naive"] = detect_naive(rec.attrs.get("summary") or "")
        # an extract joined no row when its first attr is absent or None
        rec.attrs["missing_mandatory"] = next(
            (name for name, attr in mandatory if rec.attrs.get(attr) is None), None
        )
    return records
