"""The benchmark's workloads: their inputs, their stage commands and the
checks each command's outputs must pass.

Each workload fixes n and the generator's data seed.  The run seed
(``--seed``) shifts every patient identifier by a seed-derived offset; the
shift keeps every sort order, so each seed gives distinct input files while
the analysis does exactly the same work.  The amount of stepwise work
depends heavily on the data seed (on a reloaded 3000-patient study group
``stepwise_select`` takes 9.9 s and selects 30 terms at data seed 7, 24 s
and 40 terms at 11, 1.1 s and 11 terms at 23), so a seed-dependent cohort
would make the spread between runs larger than any bound.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import bench_checks as checks

PREVALENCE = 0.12
KEY_FIELDS = checks.KEY_FIELDS


@dataclass(frozen=True)
class Op:
    argv: tuple          # icustudy argv; {cfg}, {group} and {out} are filled in
    checks: tuple        # names of bench_checks functions run on the outputs


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    data_seed: int
    inputs: str          # "extracts" (synth_generate) or "studygroup" (synth_study_group)
    ops: tuple


RUN_ALL_CHECKS = ("cohort", "varprep", "propensity_fit", "strata", "balance", "refinement", "outcome", "ml")
PROPENSITY = ("propensity", "{sub}", "--config", "{cfg}", "--group", "{group}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-3000", 3000, 7, "extracts", (Op(("run-all", "--config", "{cfg}"), RUN_ALL_CHECKS),)),
        Workload(
            "etl-5000", 5000, 7, "extracts",
            (
                Op(("cohort", "run", "--config", "{cfg}"), ("cohort",)),
                Op(("varprep", "run", "--config", "{cfg}"), ("varprep",)),
            ),
        ),
        Workload(
            "search-3000", 3000, 7, "studygroup",
            tuple(
                Op(tuple(a.replace("{sub}", sub) for a in PROPENSITY), c)
                for sub, c in (
                    ("fit", ("propensity_fit",)),
                    ("stratify", ("strata",)),
                    ("balance", ("balance",)),
                    ("refine", ("refinement", "strata")),
                )
            )
            + (Op(("outcome", "run", "--config", "{cfg}", "--group", "{group}", "--strata", "{out}/strata.csv"), ("outcome",)),),
        ),
    )
}


def id_offsets(seed: int) -> tuple:
    """Seed-derived shifts of (subject_id, hadm_id, icustay_id).

    Synthesised ids stay below 10**5, so every shifted id has seven digits
    and the input files have the same size for every seed.
    """
    rng = random.Random(seed)
    return tuple(10**6 + 10 * rng.randrange(10**5) for _ in KEY_FIELDS)


def synth_spec(icu_synth, wl: Workload):
    # the stage-by-stage inputs carry two records of each attrition kind, as
    # `icustudy synth` writes them; the planted study group needs none
    attrition = {k: 2 for k in icu_synth.ATTRITION_KINDS} if wl.inputs == "extracts" else {}
    return icu_synth.SynthSpec(n=wl.n, seed=wl.data_seed, prevalence_target=PREVALENCE, attrition=attrition)


def generate(wl: Workload, seed: int, dest: Path, shift: bool = True) -> float:
    """Write the workload's inputs into `dest`; returns the seconds spent in
    the program's synth (and, for a study group, CSV-writing) calls.  The
    untimed id shift of the extract files can be skipped for a set-up that
    is only timed."""
    from icustudy import group as icu_group, synth as icu_synth

    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    offsets = id_offsets(seed)
    spec = synth_spec(icu_synth, wl)
    if wl.inputs == "studygroup":
        start = time.perf_counter()
        group = icu_synth.synth_study_group(spec)
        keys = [icu_group.PatientKey(*(getattr(k, f) + o for f, o in zip(KEY_FIELDS, offsets))) for k in group.keys]
        icu_group.write_studygroup_csv(icu_group.StudyGroup(keys, group.x), dest / "studygroup.csv")
        return time.perf_counter() - start
    start = time.perf_counter()
    icu_synth.synth_generate(spec, dest / "extracts")
    elapsed = time.perf_counter() - start
    if shift:
        _shift_ids(dest / "extracts", offsets)
    return elapsed


def _shift_ids(directory: Path, offsets: tuple) -> None:
    shift = dict(zip(KEY_FIELDS, offsets))
    for path in sorted(directory.glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        cols = [(i, shift[name]) for i, name in enumerate(header) if name in shift]
        for row in rows[1:]:
            for i, off in cols:
                if row[i]:
                    row[i] = str(int(row[i]) + off)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


def write_config(wl: Workload, inputs: Path, out: Path) -> Path:
    cfg = inputs / "run.cfg"
    cfg.write_text(
        f"extracts_dir = {inputs / 'extracts'}\nout_dir = {out}\nseed = {wl.data_seed}\n"
        f"synth_n = {wl.n}\nsynth_prevalence = {PREVALENCE}\n"
    )
    return cfg


def argv(op: Op, cfg: Path, inputs: Path, out: Path) -> list:
    return [a.format(cfg=cfg, group=inputs / "studygroup.csv", out=out) for a in op.argv]


def run_checks(op: Op, wl: Workload, seed: int, inputs: Path, out: Path) -> list:
    """Problems found in the outputs of `op` (written into `out`)."""
    problems = []
    needs_manifest = {"cohort", "varprep"} & set(op.checks)
    manifest = checks.load_manifest(inputs / "extracts" / "manifest.json") if needs_manifest else None
    group_path = out / "studygroup.csv" if wl.inputs == "extracts" else inputs / "studygroup.csv"
    group = None
    for name in op.checks:
        try:
            if name in ("cohort", "varprep"):
                problems += getattr(checks, f"check_{name}")(out, manifest, id_offsets(seed))
            elif name == "refinement":
                problems += checks.check_refinement(out)
            else:
                group = group or checks.read_group(group_path)
                problems += getattr(checks, f"check_{name}")(out, group)
        except (OSError, KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
            problems.append(f"check {name}: unreadable output ({type(exc).__name__}: {exc})")
    return problems
