"""Shared fixture builders for the test suite."""

from __future__ import annotations

import csv

import numpy as np

from icustudy.group import BINARY_INDICES, N_VARIABLES, PatientKey, StudyGroup


def make_group(rng: np.random.Generator, n: int, overrides: dict | None = None) -> StudyGroup:
    """A valid random study group; `overrides` replaces columns by index."""
    x = np.zeros((n, N_VARIABLES))
    for i in range(1, N_VARIABLES + 1):
        if i in BINARY_INDICES:
            x[:, i - 1] = rng.choice([-1.0, 1.0], size=n)
        elif i == 58:
            x[:, i - 1] = rng.gamma(2.0, 3.0, size=n)
        else:
            x[:, i - 1] = rng.normal(10.0, 3.0, size=n)
    if overrides:
        for i, col in overrides.items():
            x[:, i - 1] = np.asarray(col, dtype=float)
    keys = [PatientKey(1000 + i, 2000 + i, 3000 + i) for i in range(n)]
    return StudyGroup(keys, x)


# --- extract files from per-patient values ---------------------------------------------

#: the per-patient value names an extract's rows come from, where they differ
#: from the extract's own name; a timeline holds (offset, value) rows and a
#: flag extract (no payload column) writes a row when its value is true
EXTRACT_VALUES = {
    "demographics": ("age", "gender"),
    "diuretics": ("first_dose_hours",),
    "summaries": ("summary",),
}


def _cell(value):
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_extracts(directory, patients) -> None:
    """Write ids.csv and every extract file for `patients`.

    Each patient is a dict of the three ids (None for a blank cell) and of
    values by name (see EXTRACT_VALUES); a value left out, None or False
    writes no row.  Floats are written with repr, so they read back bit for
    bit, and every extract is sorted by its key.
    """
    from icustudy.cohort import EXTRACT_SCHEMAS, TIMELINE_EXTRACTS
    from icustudy.group import KEY_COLUMNS

    directory.mkdir(parents=True, exist_ok=True)
    files = {"ids": (KEY_COLUMNS, [[p.get(c) for c in KEY_COLUMNS] for p in patients])}
    for name, schema in EXTRACT_SCHEMAS.items():
        rows = []
        for p in patients:
            key, values = p.get(schema.key), [p.get(v) for v in EXTRACT_VALUES.get(name, (name,))]
            if key is None or any(v is None or v is False for v in values):
                continue
            if name in TIMELINE_EXTRACTS:
                rows += [[key, *map(_cell, sample)] for sample in values[0]]
            elif name == "elixhauser_binary":
                rows.append([key, *map(_cell, values[0])])
            else:
                rows.append([key, *map(_cell, values[: len(schema.columns)])])
        rows.sort(key=lambda row: row[0])
        files[name] = ((schema.key, *schema.columns), rows)
    for name, (header, rows) in files.items():
        with open(directory / f"{name}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])


def patient(i: int, days: int = 6, **values) -> dict:
    """The values of a patient with ids (i, 100 + i, 1000 + i) who passes every
    pipeline step and every assembly check, with `values` replacing some."""
    p = {
        "subject_id": i, "hadm_id": 100 + i, "icustay_id": 1000 + i,
        "age": 60.0, "gender": 1.0, "race": -1.0, "elixhauser": 3.0,
        "elixhauser_binary": (1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0),
        "vasopressors": 1.0, "ventilation": -1.0, "mortality": -1.0, "los": 5.5,
        "sepsis": True, "cmo": False, "summary": "ok",
    }
    for name, level in (("saps", 15.0), ("sofa", 8.0), ("creatinine", 1.5), ("bp", 110.0), ("bp_mean", 78.0)):
        p[name] = [(24.0 * (d - 1) + 6.0, level) for d in range(1, days + 1)]
    p["fluids_in"] = [(24.0 * (d - 1) + 6.0, 2.0) for d in range(1, days + 1)]
    p["fluids_out"] = [(24.0 * (d - 1) + 6.0, 1.0) for d in range(1, days + 1)]
    p.update(values)
    return p
