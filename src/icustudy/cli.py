"""Command-line orchestration of the full pipeline.

Subcommands mirror the stages: synth, cohort, varprep, propensity,
outcome, ml and run-all.  All randomness flows from seeds in the config
(flags override file values), so identical configuration reproduces
byte-identical report bundles.

One table, COMMANDS, names the function behind every command; `run-all`
runs the stage functions in order on one shared Run, and a subcommand runs
one of them on a fresh Run.  A value a stage needs and no earlier stage
made is read from its hand-off file, so both paths run the same code.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import cohort as cohort_mod
from . import evoml
from . import outcome as outcome_mod
from . import propensity as prop_mod
from . import synth as synth_mod
from . import varprep
from .config import RunConfig
from .errors import ConfigError, DataError, IcuStudyError, NumericError
from .group import COVARIATE_INDICES, KEY_COLUMNS, LOS_INDEX, MORTALITY_INDEX, StudyGroup, match_keys, read_csv_rows
from .group import read_strata_csv, read_studygroup_csv, write_strata_csv, write_studygroup_csv, write_table
from .regress import ModelSpec, coefficient_p_values, fit_logistic, stepwise_select
from .stats import evidence_band

ALL_STAGES = ("cohort", "varprep", "propensity", "outcome", "ml")
#: ml subcommand -> the parts of the ml stage it runs; run-all runs them all
ML_SUBCOMMANDS = {
    "kmeans": ("kmeans",),
    "gp-classify": ("classify",),
    "gp-regress": ("regress",),
    "simulate": ("simulate",),
    "run": ("kmeans", "classify", "regress", "simulate"),
}


EXIT_CODES = {ConfigError: 2, DataError: 3, NumericError: 4}


def _category(exc: IcuStudyError) -> type:
    """ConfigError or NumericError, and DataError for any other error."""
    return next((k for k in (ConfigError, NumericError) if isinstance(exc, k)), DataError)


def _require_dir(path: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise ConfigError(f"extracts directory not found: {p}")
    return p


# --- shared state and the input resolver ---------------------------------------


@dataclass
class Run:
    """What the stages share: the config, the output directory, the
    command-line arguments, and the inputs resolved or made so far."""

    config: RunConfig
    out: Path
    flags: dict = field(default_factory=dict)
    survivors: cohort_mod.Cohort | None = None
    group: StudyGroup | None = None
    model: ModelSpec | None = None
    strata: prop_mod.Stratification | None = None


def _survivor_records(run: Run, path: Path) -> cohort_mod.Cohort:
    """The cohort's records whose three ids a row of survivors.csv holds,
    joined with only the extracts the study row uses."""
    wanted = read_csv_rows(path, KEY_COLUMNS, lambda row: np.array([int(row[c]) for c in KEY_COLUMNS], np.int64))
    cohort = cohort_mod.load_extracts(Path(run.config.extracts_dir), study_only=True)
    found = match_keys(cohort.ids, wanted) >= 0
    return cohort.select(np.flatnonzero(found & ~cohort.absent.any(axis=1)))


def _read_model(run: Run, path: Path) -> ModelSpec:
    try:
        return ModelSpec.from_text(path.read_text().strip())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


#: input -> (file in the output directory, reader of (run, path)).  The
#: flag of the same name, where a command has one, points elsewhere.
INPUTS = {
    "survivors": ("survivors.csv", _survivor_records),
    "group": ("studygroup.csv", lambda run, path: read_studygroup_csv(path)),
    "model": ("model.txt", _read_model),
    "strata": (
        "strata.csv",
        lambda run, path: prop_mod.Stratification(*read_strata_csv(path, _input(run, "group"))),
    ),
}


def _input(run: Run, name: str, required: bool = True):
    """The value an earlier stage left in `run`, else read from its file;
    a missing file is a data error, or None when not `required` and no
    flag names it."""
    value = getattr(run, name)
    if value is None:
        filename, reader = INPUTS[name]
        flagged = run.flags.get(name)
        path = Path(flagged or run.out / filename)
        if not path.is_file():
            if not required and not flagged:
                return None
            raise DataError(f"{name} file not found: {path}")
        value = reader(run, path)
        setattr(run, name, value)
    return value


# --- stages -----------------------------------------------------------------


def stage_synth(run: Run) -> None:
    spec = synth_mod.SynthSpec(
        n=run.config.synth_n,
        seed=run.config.seed,
        prevalence_target=run.config.synth_prevalence,
        attrition={kind: 2 for kind in synth_mod.ATTRITION_KINDS},
    )
    # the extracts go where `cohort run` reads them, unless --out names a place
    synth_mod.synth_generate(spec, run.out if run.flags.get("out_dir") else Path(run.config.extracts_dir))


def stage_cohort(run: Run) -> None:
    extracts = _require_dir(run.config.extracts_dir)
    trace_out = run.flags.get("trace_out")
    if trace_out and not Path(trace_out).parent.is_dir():
        raise ConfigError(f"--trace-out directory not found: {Path(trace_out).parent}")
    pipeline = run.flags.get("pipeline")
    if pipeline and not Path(pipeline).is_file():
        raise DataError(f"pipeline file not found: {pipeline}")
    steps = cohort_mod.parse_pipeline(Path(pipeline).read_text() if pipeline else cohort_mod.DEFAULT_PIPELINE)
    survivors, trace = cohort_mod.run_filter_pipeline(cohort_mod.load_extracts(extracts), steps)
    for path in (run.out / "trace.csv", trace_out):
        if path:
            cohort_mod.write_trace_csv(trace, path)
    write_table(run.out / "survivors.csv", KEY_COLUMNS, zip(*survivors.idents()))
    run.survivors = survivors


def stage_varprep(run: Run) -> None:
    _require_dir(run.config.extracts_dir)  # a missing extracts dir is a config error first
    config = run.config
    options = varprep.AssemblyOptions(config.t1_default, t2=config.t2_day, t3=config.t3_day)
    group, rejections = varprep.assemble_study_group(_input(run, "survivors"), options)
    run.survivors = None  # the joined extracts: no later stage reads them
    write_table(
        run.out / "rejections.csv",
        [*KEY_COLUMNS, "reason"],
        zip(*[[*r.key, r.reason] for r in rejections]),
    )
    if not group.n:
        raise DataError(
            f"the study group is empty: no survivor passed ({len(rejections)} rejected, see rejections.csv)"
        )
    write_studygroup_csv(group, run.out / "studygroup.csv")
    run.group = group


def _write_strata(run: Run, strat) -> None:
    group = _input(run, "group")
    write_strata_csv(group, strat.scores, strat.assignment, run.out / "strata.csv")
    write_table(
        run.out / "quintile_table.csv",
        ["quintile", "score_low", "score_high", "n_treated", "n_untreated",
         "deaths_pct_treated", "deaths_pct_untreated", "mean_los_treated", "mean_los_untreated"],
        zip(*[astuple(r) for r in prop_mod.strata_outcome_table(group, strat)]),
    )
    run.strata = strat


def propensity_fit(run: Run) -> None:
    group = _input(run, "group")
    y = (group.col(1) > 0).astype(float)
    spec = stepwise_select(group, list(COVARIATE_INDICES), y, p_enter=run.config.p_enter)
    fit = fit_logistic(group, spec, y)
    (run.out / "model.txt").write_text(spec.to_text() + "\n")
    pvals = [r.p_value for r in coefficient_p_values(fit)]
    bands = [evidence_band(p) for p in pvals]
    write_table(
        run.out / "propensity_fit.csv",
        ["term", "coef", "se", "p_value", "band"],
        [spec.term_names(), fit.coefficients, fit.standard_errors, pvals, bands],
    )
    run.model = spec


def propensity_stratify(run: Run) -> None:
    group, spec = _input(run, "group"), _input(run, "model")
    _, strat = prop_mod.fit_and_stratify(group, spec, run.config.n_strata)
    _write_strata(run, strat)


def propensity_balance(run: Run, name: str = "balance") -> None:
    report = prop_mod.assess_balance(_input(run, "group"), _input(run, "strata"))
    write_table(
        run.out / f"{name}.csv",
        ["covariate", "f_pre", "f_primary_main_effect", "f_secondary_interaction", "warnings"],
        zip(*[
            [f"x{c.index}", c.f_pre, c.f_primary, c.f_secondary, "; ".join(c.warnings)]
            for c in report.covariates
        ]),
    )
    write_table(
        run.out / f"{name}_summary.csv",
        ["column", "min", "q1", "median", "q3", "max"],
        zip(
            ["f_pre", *report.summary_pre.as_tuple()],
            ["f_primary_main_effect", *report.summary_primary.as_tuple()],
            ["f_secondary_interaction", *report.summary_secondary.as_tuple()],
        ),
    )


def propensity_refine(run: Run) -> None:
    """Refine the model, then rewrite strata.csv and quintile_table.csv
    for the refined stratification.  Without --strata or strata.csv in the
    output directory, refinement starts from the model's own
    stratification."""
    config = run.config
    refined_spec, refined_strat, log_entries = prop_mod.refine_model(
        _input(run, "group"), _input(run, "model"), _input(run, "strata", required=False),
        fraction=config.refine_fraction, max_passes=config.refine_passes, n_strata=config.n_strata,
    )
    (run.out / "model_refined.txt").write_text(refined_spec.to_text() + "\n")
    write_table(
        run.out / "refinement_log.csv",
        ["variable", "form", "f_before", "f_after", "accepted"],
        zip(*[[f"x{a.variable}", a.form, a.f_before, a.f_after, a.accepted] for a in log_entries]),
    )
    _write_strata(run, refined_strat)


def stage_propensity(run: Run) -> None:
    """Full propensity stage: fit, stratify, assess, refine, re-assess."""
    propensity_fit(run)
    propensity_stratify(run)
    propensity_balance(run, "balance_initial")
    propensity_refine(run)
    propensity_balance(run)


def stage_outcome(run: Run) -> None:
    group, strat = _input(run, "group"), _input(run, "strata")
    scores = strat.scores
    reports = [*outcome_mod.fit_model_a(group, scores), outcome_mod.fit_model_b(group, scores)]
    subset_rows = []
    split = outcome_mod.split_by_median(group, outcome_mod.SAPS_INDEX, scores)
    for result in outcome_mod.fit_model_c(split):
        if result.report is not None:
            reports.append(result.report)
        else:
            subset_rows.append([result.subset, result.error])
    write_table(
        run.out / "outcome_models.csv",
        ["model", "term", "beta", "p", "band"],
        zip(*[[r.model_id, t.name, t.beta, t.p_value, t.band] for r in reports for t in r.terms]),
    )
    if subset_rows:
        write_table(run.out / "outcome_errors.csv", ["model", "error"], zip(*subset_rows))

    test_rows = []
    for kind in ("mortality", "los"):
        for qt in outcome_mod.stratified_outcome_tests(group, strat, kind):
            if qt.testable:
                stat, p = qt.result.statistic, qt.result.p_value
                test_rows.append([kind, qt.quintile, 1, stat, p, evidence_band(p), ""])
            else:
                test_rows.append([kind, qt.quintile, 0, "", "", "", qt.untestable_reason])
    write_table(
        run.out / "stratified_tests.csv",
        ["outcome", "quintile", "testable", "statistic", "p", "band", "reason"],
        zip(*test_rows),
    )


def stage_ml(run: Run) -> None:
    """The parts the ml subcommand names; all of them under run-all."""
    config = run.config
    parts = ML_SUBCOMMANDS[run.flags.get("subcommand", "run")]
    group = _input(run, "group")

    if "kmeans" in parts:
        points = evoml.standardize_columns(outcome_mod.health_condition(group))
        km = evoml.kmeans_cluster(points, config.kmeans_k, seed=config.seed)
        write_table(
            run.out / "clusters.csv",
            [*KEY_COLUMNS, "cluster"],
            [*group.ids.T, km.assignment + 1],
        )

    tasks = [t for t in ("classify", "regress") if t in parts or "simulate" in parts]
    if not tasks:
        return
    scores = _input(run, "strata").scores
    # the Step 3 columns with x1 coded -1/+1: as observed, and with every
    # patient treated and untreated
    observed, treated, untreated = (
        outcome_mod.model_columns(group, scores, x1)[0] for x1 in (group.col(1), 1.0, -1.0)
    )
    gp_config = config.gp_config()
    train_idx, test_idx = evoml.split_train_test(group.n, config.seed)

    run_rows, metric_rows, cf_columns = [], [], []  # cf_columns: (task, treated, untreated) per task
    for task in tasks:
        target = group.col(MORTALITY_INDEX) if task == "classify" else group.col(LOS_INDEX)
        gp_run = evoml.gp_evolve(gp_config, observed[train_idx], target[train_idx], task)
        run_rows += [[task, gen, fitness] for gen, fitness in enumerate(gp_run.trace)]
        for split_name, idx in (("train", train_idx), ("test", test_idx), ("full", slice(None))):
            rows_x, labels = observed[idx], target[idx]
            if task == "classify":
                m = evoml.classification_metrics(gp_run.best, rows_x, labels)
                metric_rows += [[task, split_name, name, value] for name, value in asdict(m).items()]
            else:
                metric_rows.append([task, split_name, "mae", evoml.fitness(gp_run.best, rows_x, labels, task)])
        if "simulate" in parts:
            cf = evoml.simulate_counterfactual(gp_run.best, treated, untreated, task)
            metric_rows.append([task, "full", "counterfactual_rate_treated", cf.rate_treated])
            metric_rows.append([task, "full", "counterfactual_rate_untreated", cf.rate_untreated])
            cf_columns.append((np.full(group.n, task), cf.outcome_treated, cf.outcome_untreated))

    write_table(run.out / "gp_run.csv", ["task", "generation", "best_fitness"], zip(*run_rows))
    write_table(run.out / "gp_metrics.csv", ["task", "split", "metric", "value"], zip(*metric_rows))
    if "simulate" in parts:
        write_table(
            run.out / "counterfactual.csv",
            [*KEY_COLUMNS, "task", "outcome_treated", "outcome_untreated"],
            [*np.tile(group.ids, (len(cf_columns), 1)).T, *map(np.concatenate, zip(*cf_columns))],
        )


def run_all(run: Run) -> None:
    """The stages named by the `stages` flag (default all), in workflow
    order, on one Run; a failure is re-raised in its category with the
    stage named."""
    wanted = [s.strip() for s in run.flags.get("stages", ",".join(ALL_STAGES)).split(",")]
    unknown = [s for s in wanted if s and s not in ALL_STAGES]
    if unknown:
        raise ConfigError(f"unknown stages: {', '.join(unknown)}")
    for stage in (s for s in ALL_STAGES if s in wanted):
        try:
            globals()[f"stage_{stage}"](run)
        except IcuStudyError as exc:
            raise _category(exc)(f"stage {stage}: {exc}") from exc


# --- the command table and argument parsing ---------------------------------------

#: flag -> argparse options; every command takes the first four.  A flag
#: whose destination is a config option overrides the config file.
FLAGS = {
    "--config": {"help": "flat key = value config file"},
    "--seed": {"type": int},
    "--out": {"dest": "out_dir", "help": "output directory"},
    "--extracts": {"dest": "extracts_dir", "help": "extracts directory"},
    "--pipeline": {"help": "pipeline definition file"},
    "--trace-out": {"help": "write the attrition trace here"},
    "--group": {"help": "studygroup.csv path"},
    "--model": {"help": "model spec text file"},
    "--strata": {"help": "strata.csv path"},
    "--max-passes": {"dest": "refine_passes", "type": int},
    "--stages": {
        "default": ",".join(ALL_STAGES),
        "help": "comma-separated subset of: " + ",".join(ALL_STAGES),
    },
}
COMMON_FLAGS = ("--config", "--seed", "--out", "--extracts")

#: command -> (help, extra flags, {subcommand: function name}), None standing
#: for "no subcommand".  Functions are named rather than held so that a
#: wrapper installed on this module's attribute is what runs.
COMMANDS = {
    "synth": ("generate a seeded synthetic cohort", (), {None: "stage_synth"}),
    "cohort": ("cohort extraction pipeline", ("--pipeline", "--trace-out"), {"run": "stage_cohort"}),
    "varprep": ("assemble the study group", (), {"run": "stage_varprep"}),
    "propensity": (
        "propensity scoring and balance",
        ("--group", "--model", "--strata", "--max-passes"),
        {sub: f"propensity_{sub}" for sub in ("fit", "stratify", "balance", "refine")},
    ),
    "outcome": ("adjusted outcome models and tests", ("--group", "--strata"), {"run": "stage_outcome"}),
    "ml": ("clustering, GP models and simulation", (), dict.fromkeys(ML_SUBCOMMANDS, "stage_ml")),
    "run-all": ("execute every stage in order", ("--stages",), {None: "run_all"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icustudy")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, subcommands) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        leaves = [p]
        if None not in subcommands:
            nested = p.add_subparsers(dest="subcommand", required=True)
            leaves = [nested.add_parser(name) for name in subcommands]
        for leaf in leaves:
            for flag in COMMON_FLAGS + flags:
                leaf.add_argument(flag, **FLAGS[flag])
    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    for option in config.option_names():
        value = getattr(args, option, None)
        if value is not None:
            config.set_option(option, str(value))
    config.gp_config()  # options checked together, before any stage runs
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        run = Run(config, Path(config.out_dir), vars(args))
        try:
            run.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {run.out}: {exc.strerror}") from None
        globals()[COMMANDS[args.command][2][getattr(args, "subcommand", None)]](run)
    except IcuStudyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[_category(exc)]
    return 0


if __name__ == "__main__":
    sys.exit(main())
