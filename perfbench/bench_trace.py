"""Spans and counts around the program's public functions.

The tracer wraps each traced function under every name it is bound to in
the loaded ``icustudy`` modules: ``propensity`` looks ``fit_logistic`` up
in its own namespace, and ``cli`` does the same for
``read_studygroup_csv``.  A span holds its name, start, end, parent span
and run id, plus counts taken from the call's result.  Spans stay in
memory until the run ends.  Per-layer metrics are derived from the spans
of one round.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    run: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_fit(fit) -> dict:
    return {
        "iterations": fit.iterations,
        "separated": int(fit.separation),
        "unconverged": int(not fit.converged and not fit.separation),
    }


def _count_path(result, path, *_args, **_kw) -> dict:
    return {"bytes": os.path.getsize(path)}


# (module, function, span name, counts from (result, *args))
TRACED = (
    ("cohort", "load_extracts", "cohort.load", lambda r, *a, **k: {"records": len(r)}),
    ("cohort", "sorted_merge_join", "cohort.join", lambda r, *a, **k: {"advances": r.cursor_advances}),
    ("cohort", "detect_naive", "cohort.naive", None),
    ("cohort", "run_filter_pipeline", "cohort.pipeline", lambda r, *a, **k: {"survivors": len(r[0])}),
    ("varprep", "assemble_study_group", "varprep.assemble",
     lambda r, *a, **k: {"rows": r[0].n, "rejections": len(r[1])}),
    ("varprep", "daily_median", "varprep.median", None),
    ("varprep", "daily_sum", "varprep.sum", None),
    ("group", "write_studygroup_csv", "group.write", lambda r, group, path: {"bytes": os.path.getsize(path)}),
    ("group", "read_studygroup_csv", "group.read", _count_path),
    ("regress", "stepwise_select", "regress.stepwise", lambda r, *a, **k: {"terms": len(r) - 1}),
    ("regress", "fit_logistic_design", "regress.logit", lambda r, *a, **k: _count_fit(r)),
    ("regress", "fit_linear_design", "regress.linear", None),
    ("stats", "two_way_anova_2xk", "stats.anova2", None),
    ("stats", "one_way_anova", "stats.anova1", None),
    ("propensity", "refine_model", "propensity.refine",
     lambda r, *a, **k: {"attempts": len(r[2]), "accepted": sum(t.accepted for t in r[2])}),
    ("propensity", "assess_balance", "propensity.balance", None),
    ("outcome", "fit_model_a", "outcome.model_a", None),
    ("outcome", "fit_model_b", "outcome.model_b", None),
    ("outcome", "split_by_median", "outcome.split", None),
    ("outcome", "fit_model_c", "outcome.model_c", None),
    ("outcome", "stratified_outcome_tests", "outcome.tests", None),
    ("evoml", "gp_evolve", "evoml.gp", None),
    ("evoml", "eval_tree_batch", "evoml.tree_eval", None),
    ("evoml", "kmeans_cluster", "evoml.kmeans", None),
    ("synth", "synth_generate", "synth.generate", None),
    ("synth", "synth_study_group", "synth.generate", None),
    ("cli", "stage_cohort", "cli.cohort", None),
    ("cli", "stage_varprep", "cli.varprep", None),
    ("cli", "stage_propensity", "cli.propensity", None),
    ("cli", "propensity_fit", "cli.propensity", None),
    ("cli", "propensity_stratify", "cli.propensity", None),
    ("cli", "propensity_balance", "cli.propensity", None),
    ("cli", "propensity_refine", "cli.propensity", None),
    ("cli", "stage_outcome", "cli.outcome", None),
    ("cli", "stage_ml", "cli.ml", None),
)


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, fn, name, counter):
        tracer = self
        recursive = name == "evoml.tree_eval"  # a tree evaluates its subtrees by recursion

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if recursive and stack and tracer.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            span = Span(tracer.run, len(tracer.spans), stack[-1] if stack else None, name, time.perf_counter())
            tracer.spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.counts["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts.update(counter(result, *args, **kwargs))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("icustudy.") and m is not None]
        for module_name, function, span_name, counter in TRACED:
            original = getattr(sys.modules[f"icustudy.{module_name}"], function)
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


# --- per-layer metrics ----------------------------------------------------------------

CLI_STAGES = ("cohort", "varprep", "propensity", "outcome", "ml")


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one round's spans (set-up spans excluded)."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum((s.duration for s in by_name.get(name, ())), 0.0)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def self_time(name):
        spans_of = by_name.get(name, ())
        return sum((s.duration - sum(c.duration for c in children.get(s.id, ())) for s in spans_of), 0.0)

    by_id = {s.id: s for s in spans}

    def under_outcome(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name.startswith("outcome."):
                return True
        return False

    logits = by_name.get("regress.logit", ())
    outcome_names = [n for n in by_name if n.startswith("outcome.")]
    metrics = {
        "cohort.load_s": seconds("cohort.load"),
        "cohort.join_calls": calls("cohort.join"),
        "cohort.join_advances": total("cohort.join", "advances"),
        "cohort.naive_calls": calls("cohort.naive"),
        "cohort.naive_s": seconds("cohort.naive"),
        "cohort.pipeline_s": seconds("cohort.pipeline"),
        "cohort.records": total("cohort.load", "records"),
        "cohort.survivors": total("cohort.pipeline", "survivors"),
        "varprep.assemble_s": seconds("varprep.assemble"),
        "varprep.series": calls("varprep.median") + calls("varprep.sum"),
        "varprep.median_s": seconds("varprep.median"),
        "varprep.rows": total("varprep.assemble", "rows"),
        "varprep.rejections": total("varprep.assemble", "rejections"),
        "group.write_s": seconds("group.write"),
        "group.read_s": seconds("group.read"),
        "group.read_calls": calls("group.read"),
        "group.csv_bytes": total("group.write", "bytes") + total("group.read", "bytes"),
        "regress.stepwise_s": seconds("regress.stepwise"),
        "regress.logit_fits": len(logits),
        "regress.newton_iters": total("regress.logit", "iterations"),
        "regress.fit_s": seconds("regress.logit"),
        "regress.rank_deficient": sum(s.counts.get("raised") == "RankDeficient" for s in logits),
        "regress.separated": total("regress.logit", "separated"),
        "regress.unconverged": total("regress.logit", "unconverged"),
        "regress.linear_fits": calls("regress.linear"),
        "regress.terms_selected": total("regress.stepwise", "terms"),
        "stats.anova2_calls": calls("stats.anova2"),
        "stats.anova2_s": seconds("stats.anova2"),
        "stats.anova1_calls": calls("stats.anova1"),
        "propensity.refine_s": seconds("propensity.refine"),
        "propensity.refine_attempts": total("propensity.refine", "attempts"),
        "propensity.refine_accepted": total("propensity.refine", "accepted"),
        "propensity.balance_s": seconds("propensity.balance"),
        "outcome.s": sum((seconds(n) for n in outcome_names), 0.0),
        "outcome.fits": sum(
            1 for n in ("regress.logit", "regress.linear") for s in by_name.get(n, ()) if under_outcome(s)
        ),
        "evoml.gp_s": seconds("evoml.gp"),
        "evoml.tree_evals": calls("evoml.tree_eval"),
        "evoml.kmeans_s": seconds("evoml.kmeans"),
    }
    for stage in CLI_STAGES:
        metrics[f"cli.{stage}_s"] = self_time(f"cli.{stage}")
    return metrics


def span_record(s: Span) -> dict:
    return {"run": s.run, "id": s.id, "parent": s.parent, "name": s.name,
            "start": s.start, "end": s.end, **({"counts": s.counts} if s.counts else {})}
