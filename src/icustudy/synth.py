"""Seeded synthetic-cohort generator with planted ground truth.

Emits the same flat-file extract layout the cohort stage ingests, plus a
manifest holding every planted parameter, the expected survivor count of
each pipeline step, and the expected study rows field by field.  The
generator keeps its own bookkeeping with the documented rules, so it acts
as the oracle for the ETL and assembly stages.

Patients share a latent severity factor that loads on most covariates;
treatment assignment is a logistic model over a configurable set of
planted covariate values, and the two outcomes follow configurable models
(the mortality cross term is applied centered at the cohort SAPS mean so
a pure interaction plants no average treatment effect).

Records are columns: a (records, 58) study matrix, which also holds the
planted attributes, and a (records, 7, DAYS) array of daily values.  The
bytes written for a seed are fixed by the order of the draws, record by
record: the n clean records, then the records of each kind of
ATTRITION_KINDS in turn (a multi_admission record and then its twin).
Each draws 44 normals (severity, the 36 daily values day by day, six SAPS
values, age), 2 uniforms (gender, race), 1 normal (Elixhauser) and 11
uniforms (the nine comorbidities, vasopressors, ventilation); a minor
then draws its age.  After all records come the treatment draws (a
uniform, and the first-dose day of a treated record), record by record,
and then the outcome draws (a uniform for mortality, a normal for LOS).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cohort import EXTRACT_SCHEMAS, TIMELINE_EXTRACTS
from .errors import InvalidSpec
from .group import KEY_COLUMNS, N_VARIABLES, StudyGroup, write_table
from .varprep import BLOCK_COLUMNS, MEDIAN_SERIES, T1_DEPENDENT_INDICES, VALUE_COLUMNS

DAYS = 6

ATTRITION_KINDS = (
    "missing_ids",
    "multi_admission",
    "short_stay",
    "minor",
    "no_sepsis",
    "cmo",
    "no_summary",
    "not_naive",
    "missing_data",
)


@dataclass
class MortalityModel:
    alpha: float = -1.2
    beta: dict = field(default_factory=lambda: {2: 0.015, 10: 0.06})
    interaction_treated_saps: float = 0.0  # centered at the cohort SAPS mean
    treated_effect: float = 0.0


@dataclass
class LosModel:
    alpha: float = 8.0
    treated_effect: float = 0.0
    beta: dict = field(default_factory=dict)
    noise_sd: float = 3.0


def _within(value, lo: int, hi: int) -> bool:
    return isinstance(value, (int, np.integer)) and lo <= value <= hi


@dataclass
class SynthSpec:
    n: int = 200
    seed: int = 0
    treatment_alpha: float = -2.2
    treatment_beta: dict = field(default_factory=lambda: {11: 0.18, 41: 0.30, 46: 0.75})
    prevalence_target: float | None = None
    first_dose_days: tuple = ((2, 0.3), (3, 0.4), (4, 0.3))
    mortality: MortalityModel = field(default_factory=MortalityModel)
    los: LosModel = field(default_factory=LosModel)
    attrition: dict = field(default_factory=dict)
    saps_sd: float = 4.5
    t1_default: int = 4

    def __post_init__(self):
        if self.n < 0:
            raise InvalidSpec("n must be >= 0")
        for idx in self.treatment_beta:
            if idx in T1_DEPENDENT_INDICES:
                raise InvalidSpec(
                    f"treatment driver x{idx} depends on the per-patient decision day"
                )
            if not _within(idx, 2, N_VARIABLES - 2):  # x1 is the treatment itself
                raise InvalidSpec(f"x{idx} cannot drive treatment assignment")
        for idx in [*self.mortality.beta, *self.los.beta]:
            if not _within(idx, 1, N_VARIABLES - 2):  # the outcomes are x57 and x58
                raise InvalidSpec(f"outcome models read x1..x{N_VARIABLES - 2}, not x{idx}")
        for kind in self.attrition:
            if kind not in ATTRITION_KINDS:
                raise InvalidSpec(f"unknown attrition kind {kind!r}")
        if self.prevalence_target is not None and not 0.0 < self.prevalence_target < 1.0:
            raise InvalidSpec("prevalence target must be inside (0, 1)")
        for day in [d for d, _ in self.first_dose_days] + [self.t1_default]:
            if not _within(day, 1, DAYS):
                raise InvalidSpec(f"decision day {day!r} is not a day 1..{DAYS}")
        weights = [w for _, w in self.first_dose_days]
        if not (all(w >= 0.0 for w in weights) and sum(weights) > 0.0):
            raise InvalidSpec("first-dose day weights must be >= 0 with a positive total")


@dataclass
class SynthManifest:
    seed: int
    n_requested: int
    n_records: int
    prevalence: float
    params: dict
    step_counts: list  # (index, label, surviving)
    expected_rows: list  # dicts with key components and x values

    def to_json(self) -> str:
        # json.dumps skips its C encoder under indent, so the expected rows,
        # nearly all of the text, are encoded apart and laid out as indent=2 would
        text = json.dumps(dict(vars(self), expected_rows=[]), sort_keys=True, indent=2)
        rows = ",\n".join(map(_expected_row_json, self.expected_rows))
        return text.replace('"expected_rows": []', f'"expected_rows": [\n{rows}\n  ]', 1) if rows else text


def _expected_row_json(row: dict) -> str:
    """One expected row, a dict of numbers and flat lists of numbers, as
    json.dumps(indent=2) lays it out in the manifest: each value encoded on
    one line, a list then split one number a line."""
    members = []
    for key in sorted(row):
        value = json.dumps(row[key])
        if value.startswith("[") and value != "[]":
            value = "[\n        " + value[1:-1].replace(", ", ",\n        ") + "\n      ]"
        members.append(f"      {json.dumps(key)}: {value}")
    return "    {\n" + ",\n".join(members) + "\n    }"


NAIVE_SUMMARY = (
    "ADMISSION DIAGNOSIS: severe sepsis with fluid overload.\n"
    "MEDICATIONS ON ADMISSION: aspirin 81mg, metoprolol 25mg.\n"
    "HOSPITAL COURSE: fluid resuscitation on arrival, gradual recovery.\n"
    "DISCHARGE MEDICATIONS: furosemide 20mg daily, aspirin 81mg.\n"
)

NOT_NAIVE_SUMMARY = (
    "ADMISSION DIAGNOSIS: sepsis, volume overload.\n"
    "DRUGS ON ADMISSION: lasix 40mg daily, lisinopril 10mg.\n"
    "HOSPITAL COURSE: continued diuresis, slow improvement.\n"
)


def _sigmoid(v: float) -> float:
    # math.exp, not np.exp: the two can differ in the last bit, which can
    # flip the draw compared against the probability
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # exp(-v) beyond the largest float: the formula's limit
        return 0.0


def _sigmoids(v: np.ndarray) -> np.ndarray:
    return np.array([_sigmoid(e) for e in v.tolist()])


def _calibrate_alpha(linear: np.ndarray, target: float) -> float:
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        mean_p = float(np.mean(1.0 / (1.0 + np.exp(-(mid + linear)))))
        if mean_p < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


#: the timelines of TIMELINE_EXTRACTS after saps, in the order of their
#: daily draws: level, change per day, loading on severity, noise sd, floor
_DAILY = (
    (8.0, 0.0, 3.0, 1.0, 0.0),
    (1.8, 0.0, 0.8, 0.3, 0.2),
    (113.0, 0.0, -8.0, 4.0, -np.inf),
    (78.0, 0.0, -6.0, 3.0, -np.inf),
    (2.6, -0.25, 0.5, 0.4, 0.0),
    (1.4, 0.05, -0.1, 0.3, 0.0),
)

def _fill_timelines(x: np.ndarray, daily: np.ndarray, t1: np.ndarray) -> None:
    """Write each block of x: mean of days 1..T1, day 1, day T1, day T2 = 3, day T3 = 4."""
    fluids = daily[:, MEDIAN_SERIES:]  # inputs and outputs
    series = np.concatenate([daily, fluids[:, :1] - fluids[:, 1:]], axis=1)
    mean, day_1, day_t1, day_t2, day_t3 = BLOCK_COLUMNS.reshape(-1, 5).T
    x[:, day_1] = series[:, :, 0]
    x[:, day_t1] = series[np.arange(len(x)), :, t1 - 1]
    x[:, day_t2] = series[:, :, 2]
    x[:, day_t3] = series[:, :, 3]
    for day in range(1, DAYS + 1):
        rows = t1 == day
        x[np.ix_(rows, mean)] = series[rows, :, :day].mean(axis=2)


class _Planted(NamedTuple):
    kind: np.ndarray  # "" for a clean record, else the attrition kind it plants
    ids: np.ndarray  # (records, 3) subject, hadm (0 for none) and icustay ids
    x: np.ndarray  # (records, 58) the study rows their planted values give
    daily: np.ndarray  # (records, 7, DAYS) daily values in TIMELINE_EXTRACTS order
    t1: np.ndarray  # decision day
    alpha: float  # treatment intercept used
    saps_mean: float  # center of the mortality cross term


def _plant(spec: SynthSpec) -> _Planted:
    rng = np.random.default_rng(spec.seed)
    plan = [""] * spec.n
    for kind in ATTRITION_KINDS:
        plan += [kind] * (int(spec.attrition.get(kind, 0)) * (2 if kind == "multi_admission" else 1))
    kind = np.array(plan, dtype=str)
    n = len(plan)

    normals, coins, elix, flags = np.empty((n, 44)), np.empty((n, 2)), np.empty(n), np.empty((n, 11))
    minors = []
    for i, k in enumerate(plan):  # the draws of one record, in the order the docstring gives
        normals[i] = rng.normal(size=44)
        coins[i] = rng.random(2)
        elix[i] = rng.normal()
        flags[i] = rng.random(11)
        if k == "minor":
            minors.append((i, rng.uniform(1.0, 17.0)))

    serial = np.arange(1, n + 1)
    subject = 10000 + serial
    subject[np.flatnonzero(kind == "multi_admission")[1::2]] -= 1  # a twin shares its subject
    ids = np.stack([subject, np.where(kind == "missing_ids", 0, 20000 + serial), 30000 + serial], axis=1)

    severity = normals[:, 0]
    table = np.array([(15.8, 0.0, spec.saps_sd, 0.8, 0.0), *_DAILY])[:, :, None]
    level, slope, load, sd, floor = table.transpose(1, 0, 2)
    by_day = normals[:, 1:37].reshape(n, DAYS, 6).transpose(0, 2, 1)
    noise = np.concatenate([normals[:, None, 37:43], by_day], axis=1)
    days = np.arange(1, DAYS + 1)
    daily = np.maximum(floor, level + slope * days + load * severity[:, None, None] + sd * noise)

    x = np.full((n, N_VARIABLES), np.nan)
    x[:, 1] = np.clip(66.0 + 10.0 * severity + 12.0 * normals[:, 43], 18.0, 95.0)
    for i, age in minors:
        x[i, 1] = age
    x[:, 2] = np.where(coins[:, 0] < 0.425, 1.0, -1.0)
    x[:, 3] = np.where(coins[:, 1] < 0.02, 1.0, -1.0)
    x[:, 14] = np.clip(np.round(3.0 + 1.3 * severity + elix), 0.0, 12.0) + 0.0  # + 0.0 turns -0.0 into 0.0
    comorbid = _sigmoids(-1.0 + 0.9 * severity)
    odds = np.stack([comorbid] * 9 + [_sigmoids(0.6 + 0.9 * severity), _sigmoids(0.8 + 0.8 * severity)], axis=1)
    x[:, [*range(15, 24), 44, 45]] = np.where(flags < odds, 1.0, -1.0)

    # drivers do not depend on the decision day, so any day gives them
    t1 = np.full(n, spec.t1_default)
    _fill_timelines(x, daily, t1)
    linear = np.zeros(n)
    for idx, coef in sorted(spec.treatment_beta.items()):
        linear += coef * x[:, idx - 1]
    alpha = spec.treatment_alpha
    if spec.prevalence_target is not None and n:
        alpha = _calibrate_alpha(linear, spec.prevalence_target)
    dose_days = [d for d, _ in spec.first_dose_days]
    total_w = sum(w for _, w in spec.first_dose_days)
    dose_probs = [w / total_w for _, w in spec.first_dose_days]
    treated = np.zeros(n, dtype=bool)
    for i, lin in enumerate(linear.tolist()):
        if rng.random() < _sigmoid(alpha + lin):
            treated[i] = True
            t1[i] = int(rng.choice(dose_days, p=dose_probs))
    x[:, 0] = np.where(treated, 1.0, -1.0)
    _fill_timelines(x, daily, t1)

    saps_mean = float(x[:, 4].mean()) if n else 0.0
    t01 = treated.astype(float)
    eta = spec.mortality.alpha + spec.mortality.treated_effect * t01
    for idx, coef in sorted(spec.mortality.beta.items()):
        eta += coef * x[:, idx - 1]
    eta += spec.mortality.interaction_treated_saps * (x[:, 4] - saps_mean) * t01
    los = spec.los.alpha + spec.los.treated_effect * t01
    for idx, coef in sorted(spec.los.beta.items()):
        los += coef * x[:, idx - 1]
    dies, los_noise = np.zeros(n, dtype=bool), np.empty(n)
    for i, e in enumerate(eta.tolist()):
        dies[i] = rng.random() < _sigmoid(e)
        los_noise[i] = rng.normal(0.0, spec.los.noise_sd)
    x[:, 56] = np.where(dies, 1.0, -1.0)
    x[:, 57] = np.maximum(0.0, los + los_noise)
    return _Planted(kind, ids, x, daily, t1, alpha, saps_mean)


def synth_generate(spec: SynthSpec, out_dir: str | Path) -> SynthManifest:
    """Write the extract files and the ground-truth manifest for `spec`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p = _plant(spec)
    kind, x, n = p.kind, p.x, len(p.kind)
    subject, hadm, icu = p.ids.T

    # ids.csv keeps plan order; every other file sorts by its key, which plan order already does
    write_table(out_dir / "ids.csv", KEY_COLUMNS, [subject, [h or None for h in hadm.tolist()], icu])
    has_hadm = hadm > 0
    everyone = np.ones(n, dtype=bool)
    summaries = np.where(kind == "not_naive", NOT_NAIVE_SUMMARY, NAIVE_SUMMARY)
    payload = {  # extract -> (which rows it has, their payload cells)
        **{name: (has_hadm if EXTRACT_SCHEMAS[name].key == "hadm_id" else everyone, x[:, at])
           for name, at in VALUE_COLUMNS.items()},
        "diuretics": (x[:, 0] > 0, 24.0 * (p.t1[:, None] - 1) + 6.0),
        "summaries": (has_hadm & (kind != "no_summary"), summaries[:, None]),
        "sepsis": (kind != "no_sepsis", x[:, :0]),
        "cmo": (kind == "cmo", x[:, :0]),
    }
    # timelines have (record, day, sample) rows: a short stay samples day 1
    # only, and a missing_data record has no creatinine
    sampled = np.ones((n, DAYS, 1), dtype=bool)
    sampled[kind == "short_stay", 1:] = False
    offsets = 24.0 * np.arange(DAYS)[:, None] + (3.0, 11.0, 20.0)
    split = p.daily.copy()
    for s, name in enumerate(TIMELINE_EXTRACTS):
        v = p.daily[:, s, :, None]
        if s >= MEDIAN_SERIES:  # a daily total in three parts, read back as their float sum
            samples = v * (0.2, 0.3, 0.5)
            split[:, s] = samples.sum(axis=2)
        else:  # three samples whose median is the daily value
            delta = 0.1 * np.abs(v) + 0.01
            samples = np.concatenate([v - delta, v, v + delta], axis=2)
        rows = sampled & (kind != "missing_data")[:, None, None] if name == "creatinine" else sampled
        rows = np.broadcast_to(rows, samples.shape)
        payload[name] = (rows, np.stack(np.broadcast_arrays(offsets, samples), axis=3))
    for name, schema in EXTRACT_SCHEMAS.items():
        rows, cells = payload[name]
        keys = (icu if schema.key == "icustay_id" else hadm)[np.nonzero(rows)[0]]
        header = [schema.key, *schema.columns]
        write_table(out_dir / f"{name}.csv", header, [keys, *cells[rows].T])

    # the study rows the extracts give: fluid totals are the sums of their parts
    truth = x.copy()
    _fill_timelines(truth, split, p.t1)
    clean = kind == ""
    expected_rows = [
        {"subject_id": s, "hadm_id": h, "icustay_id": i, "x": row}
        for (s, h, i), row in zip(p.ids[clean].tolist(), truth[clean].tolist())
    ]
    manifest = SynthManifest(
        seed=spec.seed,
        n_requested=spec.n,
        n_records=n,
        prevalence=int((x[clean, 0] > 0).sum()) / len(expected_rows) if expected_rows else 0.0,
        params={
            "treatment_alpha": p.alpha,
            "treatment_beta": {f"x{k}": v for k, v in sorted(spec.treatment_beta.items())},
            "prevalence_target": spec.prevalence_target,
            "mortality": {
                "alpha": spec.mortality.alpha,
                "beta": {f"x{k}": v for k, v in sorted(spec.mortality.beta.items())},
                "interaction_treated_saps": spec.mortality.interaction_treated_saps,
                "interaction_centered_at": p.saps_mean,
                "treated_effect": spec.mortality.treated_effect,
            },
            "los": {
                "alpha": spec.los.alpha,
                "treated_effect": spec.los.treated_effect,
                "beta": {f"x{k}": v for k, v in sorted(spec.los.beta.items())},
                "noise_sd": spec.los.noise_sd,
            },
            "attrition": {k: int(spec.attrition.get(k, 0)) for k in ATTRITION_KINDS},
            "saps_sd": spec.saps_sd,
            "t1_default": spec.t1_default,
        },
        step_counts=_expected_step_counts(kind, x[:, 1]),
        expected_rows=expected_rows,
    )
    (out_dir / "manifest.json").write_text(manifest.to_json())
    return manifest


def synth_study_group(spec: SynthSpec) -> StudyGroup:
    """The clean cohort as an in-memory study group, skipping file io.

    Same seed and spec as synth_generate, same planted rows (up to the
    1e-16 effect of splitting fluid totals into file samples).
    """
    p = _plant(spec)
    clean = p.kind == ""
    return StudyGroup(p.ids[clean], p.x[clean])


def _expected_step_counts(kind: np.ndarray, age: np.ndarray) -> list:
    """The generator's own 16-step attrition bookkeeping: each single
    condition, and after it (from B on) its conjunction with all before."""
    conditions = (
        ("B", kind != "multi_admission"),
        ("D", kind != "short_stay"),
        ("F", age >= 18.0),
        ("H", kind != "no_sepsis"),
        ("L", kind != "cmo"),
        ("N", ~np.isin(kind, ("missing_ids", "no_summary"))),
        ("P", kind != "not_naive"),
    )
    held = kind != "missing_ids"
    counts = [("A", held)]
    for (label, mask), joint in zip(conditions, "CEGIMOQ"):
        held = held & mask
        counts += [(label, mask), (joint, held)]
    counts.append(("R", held & (kind != "missing_data")))
    return [{"index": i + 1, "label": label, "surviving": int(mask.sum())} for i, (label, mask) in enumerate(counts)]
