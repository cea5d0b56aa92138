import csv
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from icustudy import cohort
from icustudy.cli import main
from icustudy.cohort import (
    DEFAULT_DIURETIC_LEXICON,
    DEFAULT_PIPELINE,
    EXTRACT_SCHEMAS,
    TIMELINE_EXTRACTS,
    FilterStep,
    detect_naive,
    load_extracts,
    parse_pipeline,
    run_filter_pipeline,
    sorted_merge_join,
)
from icustudy.errors import (
    DataError,
    PredicateFailure,
    UnknownSetReference,
    UnsortedInput,
)
from icustudy.synth import ATTRITION_KINDS, SynthSpec, synth_generate

from helpers import patient, write_extracts
from oracles import cohort_records, mentions_drug_oracle, nested_loop_join


# --- sorted merge join ------------------------------------------------------


def test_join_single_match():
    result = sorted_merge_join([1, 2, 3], [2])
    assert result.index.tolist() == [-1, 0, -1]


def test_join_empty_ids():
    assert sorted_merge_join([], [5]).index.tolist() == []


def test_join_duplicate_value_keys_grouped():
    # an id joins the run of equal keys from its first row
    result = sorted_merge_join([1, 2], [1, 1, 1])
    assert result.index.tolist() == [0, -1]


def test_join_duplicate_ids_share_group():
    # two stays of one admission joined against an admission-keyed extract
    result = sorted_merge_join([7, 7], [3, 7])
    assert result.index.tolist() == [1, 1]


def test_join_unsorted_ids_raises_with_index():
    with pytest.raises(UnsortedInput) as excinfo:
        sorted_merge_join([1, 3, 2], [])
    assert excinfo.value.index == 2
    assert excinfo.value.name == "ids"


def test_join_unsorted_values_raises_with_index():
    with pytest.raises(UnsortedInput) as excinfo:
        sorted_merge_join([1, 2, 3], [2, 1])
    assert excinfo.value.name == "values"
    assert excinfo.value.index == 1


def test_join_large_random_matches_nested_loop_oracle():
    rng = np.random.default_rng(31)
    ids = sorted(rng.integers(1, 2000, size=1000).tolist())
    values = sorted(rng.integers(1, 2000, size=5000).tolist())
    result = sorted_merge_join(ids, values)
    assert result.index.tolist() == nested_loop_join(ids, values)
    assert result.cursor_advances <= len(ids) + len(values)


@given(
    st.lists(st.integers(1, 60), min_size=0, max_size=40),
    st.lists(st.integers(1, 60), min_size=0, max_size=60),
)
@settings(max_examples=200)
def test_join_equals_oracle_property(raw_ids, raw_values):
    ids, values = sorted(raw_ids), sorted(raw_values)
    result = sorted_merge_join(ids, values)
    assert result.index.tolist() == nested_loop_join(ids, values)
    assert result.cursor_advances <= len(ids) + len(values)
    # what a linear merge reads: every id, and the values up to the largest id key
    read = sum(key <= max(raw_ids) for key in values) if ids else 0
    assert result.cursor_advances == len(ids) + read


# --- naive detection ---------------------------------------------------------


def test_naive_false_on_admission_drug():
    assert detect_naive("ON ADMISSION: lasix 20mg") is False


def test_naive_empty_summary_true():
    assert detect_naive("") is True


def test_naive_discharge_only_mention_stays_naive():
    text = (
        "MEDICATIONS ON ADMISSION: aspirin.\n"
        "DISCHARGE MEDS: furosemide 40mg daily.\n"
    )
    assert detect_naive(text) is True


def test_naive_case_insensitive():
    text = "on admission: FUROSEMIDE started at home"
    assert detect_naive(text) is False
    assert detect_naive(text.upper()) is False
    assert detect_naive(text.lower()) is False


@pytest.mark.parametrize("prefix", ["straße " * 8, "ﬁle " * 8], ids=["sharp-s", "fi-ligature"])
def test_naive_heading_found_after_text_whose_upper_case_is_longer(prefix):
    # "ß".upper() is "SS" and "ﬁ".upper() is "FI": positions found in the
    # upper-cased text run ahead of the summary's own
    assert detect_naive(prefix + "DRUGS ON ADMISSION: lasix 40mg\nPLAN: rest") is False
    assert detect_naive(prefix + "DRUGS ON ADMISSION: aspirin\nPLAN: lasix") is True


def test_naive_word_boundaries():
    # "lasixol" must not match "lasix"
    assert detect_naive("ON ADMISSION: lasixol 5mg") is True
    assert detect_naive("ON ADMISSION: (lasix)") is False


def test_naive_no_heading_searches_whole_text():
    assert detect_naive("patient took hydrochlorothiazide at home") is False
    assert detect_naive("patient took vitamins at home") is True


def test_naive_only_lexicon_drugs_count():
    assert detect_naive("ON ADMISSION: examplamide") is True
    assert detect_naive("ON ADMISSION: examplamide, aquazide h") is False


_ENTRIES = sorted(DEFAULT_DIURETIC_LEXICON)

# lexicon entries (two-word "aquazide h" among them), their capitals and
# fragments, next to separators, digits and characters whose case mapping
# or isalnum status is unusual
_TEXT = st.lists(
    st.one_of(
        st.sampled_from(_ENTRIES),
        st.sampled_from(_ENTRIES).map(str.upper),
        st.sampled_from(["_", "-", "(", " ", "é", "²", "½", "İ", "ß", "ol", "h", "s"]),
        st.text(alphabet="0123456789", min_size=1, max_size=2),
    ),
    max_size=12,
).map("".join)


@settings(max_examples=600, deadline=None)
@given(text=_TEXT)
def test_lexicon_pattern_agrees_with_per_entry_search(text):
    assert cohort._mentions_drug(text) == mentions_drug_oracle(text)


def test_detect_naive_agrees_with_per_entry_search_on_synthetic_summaries(
    synth_extracts, monkeypatch
):
    root, _ = synth_extracts
    with open(root / "summaries.csv", newline="") as fh:
        texts = [row["text"] for row in csv.DictReader(fh)]
    got = [detect_naive(text) for text in texts]
    monkeypatch.setattr(cohort, "_mentions_drug", mentions_drug_oracle)
    assert got == [detect_naive(text) for text in texts]
    assert True in got and False in got


# --- filter pipeline -----------------------------------------------------------


def _cohort(directory, patients):
    write_extracts(directory, patients)
    return load_extracts(directory)


def test_pipeline_always_true_extract(tmp_path):
    base = _cohort(tmp_path, [patient(i) for i in range(1, 11)])
    steps = [FilterStep(1, "extract", "A", predicate="always_true")]
    final, trace = run_filter_pipeline(base, steps)
    assert len(final) == 10
    assert trace.steps[0].surviving_count == 10
    assert trace.steps[0].pct_of_original == 1.0


def test_pipeline_intersection_set_algebra(tmp_path):
    # extracts of sizes 8 and 6 overlapping in 5 records
    patients = [patient(i) for i in range(1, 10)]
    for p in patients[:3]:
        p["age"] = 10.0  # fails age filter -> in B-complement
    # A: records 1..8 (drop record 9 via sepsis), B: age >= 18
    for p in patients[8:]:
        p["sepsis"] = False
    steps = parse_pipeline(
        "1,extract,A,sepsis\n2,extract,B,age_at_least 18\n3,intersect,C,A B\n"
    )
    final, trace = run_filter_pipeline(_cohort(tmp_path, patients), steps)
    assert trace.steps[0].surviving_count == 8
    assert trace.steps[1].surviving_count == 6
    assert trace.steps[2].surviving_count == 5
    assert len(final) == 5
    assert [ident[0] for ident in final.idents()] == [4, 5, 6, 7, 8]


def test_pipeline_unknown_set_reference(tmp_path):
    base = _cohort(tmp_path, [patient(1)])
    steps = [FilterStep(1, "intersect", "C", operands=("A", "B"))]
    with pytest.raises(UnknownSetReference):
        run_filter_pipeline(base, steps)


def test_pipeline_predicate_failure_carries_key(tmp_path):
    # record 3 lacks an age too, but it has no hadm_id: step A drops it
    patients = [patient(1), patient(2, age=None), patient(3, age=None, hadm_id=None)]
    steps = parse_pipeline("1,extract,F,age_at_least 18")
    with pytest.raises(PredicateFailure) as excinfo:
        run_filter_pipeline(_cohort(tmp_path, patients), steps)
    assert excinfo.value.key == (2, 102, 1002)
    assert excinfo.value.field == "age"
    final, _ = run_filter_pipeline(_cohort(tmp_path, [patients[0], patients[2]]), steps)
    assert final.idents() == [(1, 101, 1001)]


def test_pipeline_predicate_failure_in_a_filter_step_names_a_record_it_filters(tmp_path):
    patients = [patient(1, age=None, sepsis=False), patient(2), patient(3, age=None)]
    steps = parse_pipeline("1,extract,H,sepsis\n2,filter,F,age_at_least 18")
    with pytest.raises(PredicateFailure) as excinfo:
        run_filter_pipeline(_cohort(tmp_path, patients), steps)
    assert excinfo.value.key == (3, 103, 1003)


def test_single_admission_in_a_filter_step_counts_every_row_of_ids_csv(tmp_path):
    # subject 1's second admission and subject 0's second row fail step A;
    # step B still counts them, a blank subject id counts once
    patients = [
        patient(1), patient(2, subject_id=1, sepsis=False), patient(3),
        patient(4, subject_id=None), patient(5, subject_id=0), patient(6, subject_id=0, sepsis=False),
    ]
    steps = parse_pipeline("1,extract,A,sepsis\n2,filter,B,single_admission")
    final, trace = run_filter_pipeline(_cohort(tmp_path, patients), steps)
    assert [s.surviving_count for s in trace.steps] == [4, 2]
    assert final.idents() == [(3, 103, 1003), (None, 104, 1004)]


def test_pipeline_monotone_after_intersections(tmp_path):
    rng = np.random.default_rng(41)
    patients = []
    for i in range(1, 201):
        patients.append(
            patient(
                i,
                age=float(rng.integers(5, 90)),
                sepsis=bool(rng.random() < 0.5),
                cmo=bool(rng.random() < 0.1),
                summary="ok" if rng.random() < 0.9 else None,
            )
        )
        if rng.random() < 0.1:  # not naive
            patients[-1]["summary"] = "ON ADMISSION: lasix 20mg"
        if rng.random() < 0.3:  # one of several admissions of a subject
            patients[-1]["subject_id"] = int(rng.integers(1, 30))
    steps = parse_pipeline(DEFAULT_PIPELINE)
    final, trace = run_filter_pipeline(_cohort(tmp_path, patients), steps)
    counts = {s.label: s.surviving_count for s in trace.steps}
    chain = ["C", "E", "G", "I", "M", "O", "Q", "R"]
    assert all(counts[b] <= counts[a] for a, b in zip(chain, chain[1:]))
    assert 0 < trace.steps[-1].surviving_count == len(final) < counts["C"] < 200
    # exact fraction bookkeeping
    for s in trace.steps:
        assert s.pct_of_original == s.surviving_count / 200


def test_load_extracts_rejects_unsorted_variable_file(tmp_path):
    from icustudy.synth import SynthSpec, synth_generate
    from icustudy.cohort import load_extracts

    synth_generate(SynthSpec(n=6, seed=1), tmp_path)
    saps = tmp_path / "saps.csv"
    lines = saps.read_text().splitlines()
    # swap two data rows of different patients to corrupt the ordering
    assert len(lines) > 20
    lines[1], lines[-1] = lines[-1], lines[1]
    saps.write_text("\n".join(lines) + "\n")
    with pytest.raises(UnsortedInput) as excinfo:
        load_extracts(tmp_path)
    assert excinfo.value.name == "saps.csv"
    assert excinfo.value.index >= 0


def test_load_extracts_rejects_unsorted_rows_past_the_last_id(tmp_path):
    # no record joins these rows, so only a check over every row sees them
    synth_generate(SynthSpec(n=6, seed=1), tmp_path)
    with open(tmp_path / "ids.csv", newline="") as fh:
        last = max(int(row["icustay_id"]) for row in csv.DictReader(fh))
    saps = tmp_path / "saps.csv"
    n_rows = len(saps.read_text().splitlines()) - 1
    with open(saps, "a", newline="") as fh:
        csv.writer(fh).writerows([[last + 50, 1.0, 10.0], [last + 10, 2.0, 11.0]])
    with pytest.raises(UnsortedInput) as excinfo:
        load_extracts(tmp_path)
    assert (excinfo.value.name, excinfo.value.index) == ("saps.csv", n_rows + 1)


def test_full_day_data_takes_the_largest_offset_of_all_seven_timelines(tmp_path):
    short = [(1.0, 5.0), (20.0, 5.0)]

    def with_timelines(i, **timelines):
        return patient(i, **{**dict.fromkeys(TIMELINE_EXTRACTS, short), **timelines})

    # each timeline in turn is the only one that reaches 24 hours
    patients = [with_timelines(i, **{name: short + [(30.0, 5.0)]}) for i, name in enumerate(TIMELINE_EXTRACTS, 1)]
    patients += [
        with_timelines(8),  # every offset below 24
        with_timelines(9, saps=short + [(30.0, 5.0)], fluids_in=[(float("nan"), 1.0)]),  # NaN in another timeline
        with_timelines(10, bp=[(30.0, 5.0), (float("nan"), 5.0)]),  # NaN beside the largest
        patient(11, **dict.fromkeys(TIMELINE_EXTRACTS)),  # no timeline
        with_timelines(12, sofa=[(24.0, 5.0)]),
        with_timelines(13, creatinine=[(30.0, 5.0), (2.0, 5.0)]),  # the largest is not the last row
    ]
    write_extracts(tmp_path / "extracts", patients)
    (tmp_path / "pipeline.txt").write_text("1,extract,D,full_day_data\n")
    argv = ["cohort", "run", "--extracts", str(tmp_path / "extracts"), "--out", str(tmp_path / "out")]
    assert main(argv + ["--pipeline", str(tmp_path / "pipeline.txt")]) == 0
    with open(tmp_path / "out" / "survivors.csv", newline="") as fh:
        assert [int(row["subject_id"]) for row in csv.DictReader(fh)] == [1, 2, 3, 4, 5, 6, 7, 12, 13]


# --- extract validation ---------------------------------------------------------


@pytest.fixture(scope="module")
def synth_extracts(tmp_path_factory):
    root = tmp_path_factory.mktemp("extracts")
    synth_generate(SynthSpec(n=30, seed=1, attrition={k: 1 for k in ATTRITION_KINDS}), root)
    return root, load_extracts(root)


def _columns(name):
    if name == "ids":
        return ("subject_id", "hadm_id", "icustay_id")
    return (EXTRACT_SCHEMAS[name].key, *EXTRACT_SCHEMAS[name].columns)


@pytest.mark.parametrize("name", ["ids", *EXTRACT_SCHEMAS])
def test_load_extracts_names_a_missing_file(synth_extracts, tmp_path, name):
    shutil.copytree(synth_extracts[0], tmp_path, dirs_exist_ok=True)
    (tmp_path / f"{name}.csv").unlink()
    with pytest.raises(DataError, match=rf"missing extract file: .*[/\\]{name}\.csv$"):
        load_extracts(tmp_path)


@pytest.mark.parametrize("name", ["ids", *EXTRACT_SCHEMAS])
def test_load_extracts_names_a_dropped_column(synth_extracts, tmp_path, name):
    path = tmp_path / f"{name}.csv"
    for column in _columns(name):
        shutil.copytree(synth_extracts[0], tmp_path, dirs_exist_ok=True)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        at = rows[0].index(column)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(row[:at] + row[at + 1 :] for row in rows)
        with pytest.raises(DataError, match=rf"{name}\.csv: missing columns \['{column}'\]"):
            load_extracts(tmp_path)


def _same_records(got, want) -> bool:
    """Cohorts whose records have equal ids and equal joined rows, cell for
    cell (so that NaN equals NaN)."""
    got, want = cohort_records(got), cohort_records(want)
    return len(got) == len(want) and all(
        a.ident == b.ident and repr(a.attrs) == repr(b.attrs) for a, b in zip(got, want)
    )


@pytest.mark.parametrize("name", list(EXTRACT_SCHEMAS))
def test_load_extracts_skips_rows_without_a_key(synth_extracts, tmp_path, name):
    root, records = synth_extracts
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    path = tmp_path / f"{name}.csv"
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    key = EXTRACT_SCHEMAS[name].key
    with open(path, "a", newline="") as fh:
        csv.writer(fh).writerow(["" if column == key else "n/a" for column in header])
    assert _same_records(load_extracts(tmp_path), records)


def test_load_extracts_rejects_a_short_row(synth_extracts, tmp_path):
    shutil.copytree(synth_extracts[0], tmp_path, dirs_exist_ok=True)
    with open(tmp_path / "saps.csv", "a", newline="") as fh:
        fh.write("5\r\n")
    with pytest.raises(DataError, match=r"saps\.csv: line \d+ is short of cells"):
        load_extracts(tmp_path)


def test_load_extracts_names_the_line_of_a_short_row_past_blank_lines(synth_extracts, tmp_path):
    # past the first chunk of rows read, with blank lines before it
    shutil.copytree(synth_extracts[0], tmp_path, dirs_exist_ok=True)
    lines = (tmp_path / "saps.csv").read_text().splitlines()
    assert len(lines) > 700
    lines[3:3] = ["", ""]
    lines[699] = lines[699].split(",")[0]
    (tmp_path / "saps.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"saps\.csv: line 700 is short of cells"):
        load_extracts(tmp_path)


def test_parse_pipeline_requires_contiguous_indices():
    with pytest.raises(DataError):
        parse_pipeline("1,extract,A,always_true\n3,extract,B,always_true\n")


def test_default_pipeline_has_sixteen_steps():
    steps = parse_pipeline(DEFAULT_PIPELINE)
    assert len(steps) == 16
    assert [s.kind for s in steps] == (
        ["extract", "extract"]
        + ["intersect", "extract"] * 6
        + ["intersect", "filter"]
    )


def test_header_only_numeric_extract_loads_without_a_warning(synth_extracts, tmp_path):
    # numpy's C reader warns "input contained no data" on a file with no row
    shutil.copytree(synth_extracts[0], tmp_path, dirs_exist_ok=True)
    for name in ("saps", "cmo"):
        header = (tmp_path / f"{name}.csv").read_text().splitlines()[0]
        (tmp_path / f"{name}.csv").write_text(header + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_extracts(tmp_path)
    assert len(loaded) == len(synth_extracts[1])
    assert not loaded.extracts["saps"].hit.any() and not loaded.extracts["cmo"].hit.any()


# --- the two extract parsers ------------------------------------------------------

_NUMBER_CELLS = st.one_of(
    st.floats().map(repr),  # signs, exponents, nan, inf, -0.0 and 17 significant digits
    st.floats(allow_nan=False).map(lambda v: format(v, ".17e")),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-Infinity", "-0.0", "+1.5", ".5", "5.", "1E+5", "1e400", "1e-320"]),
)
_BAD_CELLS = st.sampled_from(["", " ", "abc", "x12", "1_0", "0x10", "1.5j", "#1", "7.0"])
_KEY_CELLS = st.one_of(st.integers(1, 60).map(str), st.sampled_from(["+7", "007", "-3", "", "  "]), _BAD_CELLS)
_EXTRA_CELLS = ["", "note", "3.5", '"q"', '"a,b"', '"open']


@st.composite
def _extract_file(draw):
    """(schema name, text) of an extract file with odd cells and rows."""
    name = draw(st.sampled_from(["saps", "demographics", "elixhauser_binary", "sepsis"]))
    schema = EXTRACT_SCHEMAS[name]
    header = draw(st.permutations([schema.key, *schema.columns, *draw(st.sampled_from([[], ["note"]]))]))
    pad = st.sampled_from(["", " ", "  "])
    # half of the files hold only rows that both readers read
    kinds = st.sampled_from(draw(st.sampled_from([["row"], ["row"] * 6 + ["blank", "keyless", "short", "bad", "hash"]])))
    extras = st.lists(st.sampled_from(draw(st.sampled_from([_EXTRA_CELLS[:3], _EXTRA_CELLS]))), max_size=2)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(kinds)
        if kind == "blank":
            lines.append("")
            continue
        cells = {c: draw(_NUMBER_CELLS) for c in header}
        cells[schema.key] = draw(_KEY_CELLS if kind == "bad" else st.integers(1, 60).map(str))
        if kind == "keyless":
            cells[schema.key] = draw(st.sampled_from(["", " "]))
        elif kind == "bad" and schema.columns:
            cells[draw(st.sampled_from(schema.columns))] = draw(_BAD_CELLS)
        row = [draw(pad) + cells[c] + draw(pad) for c in header]
        row += draw(extras)
        if kind == "short":
            row = row[: draw(st.integers(1, len(header)))] if len(header) > 1 else []
        elif kind == "hash":  # a comment to a reader that takes "#" as one
            row[0] = "#" + row[0]
        lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return name, end.join([",".join(header), *lines]) + draw(st.sampled_from(["", end]))


def _parsed_bits(keys, table) -> tuple:
    return keys.dtype, keys.tobytes(), table.shape, np.ascontiguousarray(table, dtype=float).tobytes()


@given(_extract_file())
@settings(max_examples=400, deadline=None)
def test_c_reader_and_csv_reader_agree(tmp_path_factory, case):
    name, text = case
    directory = tmp_path_factory.getbasetemp() / "parsers"
    directory.mkdir(exist_ok=True)
    (directory / f"{name}.csv").write_bytes(text.encode())
    schema = EXTRACT_SCHEMAS[name]
    path, at = cohort._locate(directory, name, (schema.key, *schema.columns))
    try:
        want = _parsed_bits(*cohort._parse_cells(path, at, float))
    except DataError as exc:
        want = str(exc)
    row = np.dtype([("key", np.int64), ("payload", float, (len(schema.columns),))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = cohort.read_numeric_csv(path, row, at)
        event(f"C reader {'rejects' if rows is None else 'reads'}; csv reader {'raises' if isinstance(want, str) else 'reads'}")
        if rows is not None:  # the C reader read it: the csv reader reads the same bits
            assert _parsed_bits(rows["key"], rows["payload"]) == want
        try:
            got = _parsed_bits(*cohort._parse_extract(directory, name, schema))
        except DataError as exc:
            got = str(exc)
    assert got == want
