"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured numbers.  Run with `pytest -s` to see the
lines as they complete.
"""

import math
import statistics
import time

import numpy as np
import pytest

from icustudy.cli import main as cli_main
from icustudy.cohort import (
    DEFAULT_PIPELINE,
    load_extracts,
    parse_pipeline,
    run_filter_pipeline,
    sorted_merge_join,
)
from icustudy.evoml import GpConfig, gp_evolve
from icustudy.group import PatientKey
from icustudy.outcome import fit_model_a, fit_model_b, stratified_outcome_tests
from icustudy.propensity import (
    assess_balance,
    fit_and_stratify,
    refine_model,
    stratify_quintiles,
)
from icustudy.regress import (
    ModelSpec,
    fit_logistic_design,
    main,
)
from icustudy.stats import chi2_tail, f_tail, t_tail_two_sided, two_way_anova_2xk
from icustudy.synth import (
    ATTRITION_KINDS,
    LosModel,
    MortalityModel,
    SynthSpec,
    synth_generate,
    synth_study_group,
)
from icustudy.varprep import assemble_study_group

from helpers import make_group
from oracles import (
    chi2_tail_quadrature,
    f_tail_quadrature,
    nested_loop_join,
    t_tail_two_sided_quadrature,
    tree,
    two_way_f_oracle,
)


def _criterion(number, description, ok, detail, elapsed, budget):
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(
        f"[{status}] criterion {number}: {description} "
        f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    assert ok, f"criterion {number}: {detail}"
    assert in_time, f"criterion {number}: runtime {elapsed:.1f}s exceeds {budget}s"


def _driver_scores(group):
    return fit_and_stratify(group, ModelSpec([main(11), main(41), main(46)]))[1].scores


def test_criterion_1_logistic_mle():
    start = time.perf_counter()
    # saturated two-cell design recovers the empirical proportions exactly
    x = np.array([0.0] * 100 + [1.0] * 100)
    y = np.array([1.0] * 30 + [0.0] * 70 + [1.0] * 60 + [0.0] * 40)
    design = np.column_stack([np.ones(200), x])
    fit = fit_logistic_design(design, y, ["1", "x"])
    p0 = 1 / (1 + math.exp(-fit.coefficients[0]))
    p1 = 1 / (1 + math.exp(-(fit.coefficients[0] + fit.coefficients[1])))
    saturated_ok = abs(p0 - 0.30) <= 1e-8 and abs(p1 - 0.60) <= 1e-8

    # simulation recovery across 10 seeds and vanishing score vectors
    recovered = []
    score_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=5000)
        eta = -1.0 + 0.8 * xs
        ys = (rng.random(5000) < 1 / (1 + np.exp(-eta))).astype(float)
        d = np.column_stack([np.ones(5000), xs])
        f = fit_logistic_design(d, ys, ["1", "x"])
        recovered.append(f.coefficients[1])
        mu = 1 / (1 + np.exp(-(d @ f.coefficients)))
        score_ok &= float(np.max(np.abs(d.T @ (ys - mu)))) <= 1e-6
    recovery_ok = all(abs(b - 0.8) <= 0.15 for b in recovered)

    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "logistic MLE correctness",
        saturated_ok and recovery_ok and score_ok,
        f"cells ({p0:.3f}, {p1:.3f}), beta range "
        f"[{min(recovered):.3f}, {max(recovered):.3f}], scores vanish: {score_ok}",
        elapsed,
        5.0,
    )


def test_criterion_2_two_way_anova_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        values, treatment, subclass = [], [], []
        for s in range(1, 6):
            for t in (0, 1):
                n = int(rng.integers(2, 40))
                vals = rng.normal(t * rng.normal() * 0.5 + 0.2 * s, 1.0, size=n)
                values.extend(vals.tolist())
                treatment.extend([t] * n)
                subclass.extend([s] * n)
        res = two_way_anova_2xk(values, treatment, subclass)
        f1, f2 = two_way_f_oracle(values, treatment, subclass)
        for got, want in ((res.f_primary, f1), (res.f_secondary, f2)):
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "two-way ANOVA matches 15-step oracle on 200 layouts",
        worst <= 1e-9,
        f"worst relative error {worst:.2e}",
        elapsed,
        10.0,
    )


def test_criterion_3_balance_improvement():
    start = time.perf_counter()
    successes = 0
    ratios = []
    for seed in range(10):
        spec = SynthSpec(n=1522, seed=seed, prevalence_target=0.12)
        group = synth_study_group(spec)
        scores = _driver_scores(group)
        strat = stratify_quintiles(scores, group.ids)
        report = assess_balance(group, strat)
        pre = statistics.median([c.f_pre for c in report.covariates])
        post = statistics.median(
            [c.f_primary for c in report.covariates if np.isfinite(c.f_primary)]
        )
        ratios.append(post / pre)
        successes += post <= 0.5 * pre
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        "median primary F halves after stratification (9/10 seeds)",
        successes >= 9,
        f"{successes}/10 seeds, median ratio {statistics.median(ratios):.3f}",
        elapsed,
        30.0,
    )


def test_criterion_4_refinement_ledger():
    start = time.perf_counter()
    # planted excluded driver: x46 drives assignment but starts out of model
    spec = SynthSpec(
        n=1522, seed=5, prevalence_target=0.12, treatment_beta={11: 0.18, 41: 0.30, 46: 1.4}
    )
    group = synth_study_group(spec)
    _, _, log = refine_model(group, ModelSpec([main(11), main(41)]))
    x46 = [a for a in log if a.variable == 46]
    planted_ok = bool(x46) and x46[0].accepted and x46[0].f_after < x46[0].f_before
    log_ok = all(a.f_after < a.f_before for a in log if a.accepted)

    # null cohorts: the accepted fraction of the excluded pool stays within
    # the 25% candidate budget
    accepted = 0
    excluded = 0
    for seed in range(20):
        null_spec = SynthSpec(n=500, seed=1000 + seed, prevalence_target=0.2, treatment_beta={})
        null_group = synth_study_group(null_spec)
        _, _, null_log = refine_model(null_group, ModelSpec([main(11), main(41)]))
        accepted += len({a.variable for a in null_log if a.accepted})
        excluded += 53
    rate = accepted / excluded
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        "refinement accepts planted driver; null acceptance within budget",
        planted_ok and log_ok and rate <= 0.25,
        f"driver F {x46[0].f_before:.1f}->{x46[0].f_after:.1f}, null rate {rate:.3f}",
        elapsed,
        60.0,
    )


def test_criterion_5_outcome_workflow():
    start = time.perf_counter()
    los_ok = 0
    for seed in range(10):
        spec = SynthSpec(
            n=1500, seed=seed, prevalence_target=0.3, treatment_beta={},
            los=LosModel(alpha=8.0, treated_effect=2.6, noise_sd=2.0),
        )
        group = synth_study_group(spec)
        _, rep_l = fit_model_a(group, _driver_scores(group))
        los_ok += (
            rep_l.flags["treatment_significant"]
            and rep_l.p_value("x1") < 0.001
            and abs(rep_l.term("x1").beta - 2.6) <= 0.3
        )

    conj_ok = 0
    for seed in range(10):
        spec = SynthSpec(
            n=1500, seed=100 + seed, prevalence_target=0.35, treatment_beta={}, saps_sd=10.0,
            mortality=MortalityModel(alpha=-0.7, beta={}, interaction_treated_saps=-0.043),
        )
        group = synth_study_group(spec)
        scores = _driver_scores(group)
        rep_m, _ = fit_model_a(group, scores)
        rep_b = fit_model_b(group, scores)
        conj_ok += (not rep_m.flags["treatment_significant"]) and rep_b.flags[
            "cross_effect_significant"
        ]
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        "planted outcome effects recovered (LOS 8/10, interaction 7/10)",
        los_ok >= 8 and conj_ok >= 7,
        f"LOS {los_ok}/10, interaction conjunction {conj_ok}/10",
        elapsed,
        60.0,
    )


def test_criterion_6_stratified_tests():
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        n = 1000
        treated = rng.choice([-1.0, 1.0], size=n)
        scores = np.linspace(0.01, 0.99, n)
        keys = [PatientKey(i + 1, i + 1, i + 1) for i in range(n)]
        strat = stratify_quintiles(scores, keys)
        los = 6.0 + rng.normal(0, 2.0, size=n)
        shift = np.isin(strat.assignment, [1, 3, 5]) & (treated > 0)
        los[shift] += 6.0
        group = make_group(rng, n, {1: treated, 58: np.maximum(los, 0.0)})
        tests = stratified_outcome_tests(group, strat, "los")
        significant = {t.quintile for t in tests if t.testable and t.result.p_value < 0.05}
        hits += significant == {1, 3, 5}
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        "planted shifts flag exactly quintiles {1,3,5} (7/10 seeds)",
        hits >= 7,
        f"{hits}/10 seeds exact",
        elapsed,
        30.0,
    )


def test_criterion_7_join_and_pipeline(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    join_ok = True
    cursor_ok = True
    for _ in range(200):
        n = int(rng.integers(0, 80))
        m = int(rng.integers(0, 120))
        ids = np.sort(rng.integers(1, 60, size=n)).tolist()
        values = np.sort(rng.integers(1, 60, size=m)).tolist()
        result = sorted_merge_join(ids, values)
        join_ok &= result.index.tolist() == nested_loop_join(ids, values)
        cursor_ok &= result.cursor_advances <= n + m

    spec = SynthSpec(n=120, seed=6, attrition={kind: 2 for kind in ATTRITION_KINDS})
    manifest = synth_generate(spec, tmp_path)
    records = load_extracts(tmp_path)
    survivors, trace = run_filter_pipeline(records, parse_pipeline(DEFAULT_PIPELINE))
    got = [(s.index, s.label, s.surviving_count) for s in trace.steps]
    want = [(c["index"], c["label"], c["surviving"]) for c in manifest.step_counts]
    trace_ok = got == want
    group, rejections = assemble_study_group(survivors)
    rows_ok = not rejections and group.n == len(manifest.expected_rows)
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        "join equals oracle with linear cursors; trace matches manifest",
        join_ok and cursor_ok and trace_ok and rows_ok,
        f"joins ok: {join_ok}, cursors ok: {cursor_ok}, trace ok: {trace_ok}",
        elapsed,
        10.0,
    )


def test_criterion_8_gp_engine():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    x = rng.normal(10.0, 4.0, size=(150, 4))
    y = x[:, 1].copy()
    baseline = float(np.mean(np.abs(y - np.median(y))))
    wins = 0
    monotone = True
    depth_ok = True
    for seed in range(10):
        run = gp_evolve(GpConfig(seed=seed), x, y, "regress")
        wins += run.best_fitness < 0.1 * baseline
        monotone &= all(b <= a for a, b in zip(run.trace, run.trace[1:]))
        depth_ok &= tree(run.best).depth() <= 17
    r1 = gp_evolve(GpConfig(seed=123), x, y, "regress")
    r2 = gp_evolve(GpConfig(seed=123), x, y, "regress")
    deterministic = r1.best == r2.best and r1.trace == r2.trace
    elapsed = time.perf_counter() - start
    _criterion(
        8,
        "GP reaches planted target (6/10), monotone, bounded, reproducible",
        wins >= 6 and monotone and depth_ok and deterministic,
        f"{wins}/10 reach 10% of baseline, deterministic: {deterministic}",
        elapsed,
        60.0,
    )


def test_criterion_9_tail_spot_values():
    start = time.perf_counter()
    spot = chi2_tail(3.8415, 1)
    spot_oracle = chi2_tail_quadrature(3.8415, 1)
    spot_ok = abs(spot - 0.05) <= 1e-4 and abs(spot - spot_oracle) <= 1e-8

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        t_stat = float(rng.uniform(0.05, 6.0))
        t_df = int(rng.integers(1, 60))
        worst = max(worst, abs(t_tail_two_sided(t_stat, t_df) - t_tail_two_sided_quadrature(t_stat, t_df)))
        f_stat = float(rng.uniform(0.05, 8.0))
        d1 = int(rng.integers(1, 12))
        d2 = int(rng.integers(2, 60))
        worst = max(worst, abs(f_tail(f_stat, d1, d2) - f_tail_quadrature(f_stat, d1, d2)))
    elapsed = time.perf_counter() - start
    _criterion(
        9,
        "tail probabilities match quadrature oracle",
        spot_ok and worst <= 1e-8,
        f"chi2 spot {spot:.6f}, worst grid error {worst:.2e}",
        elapsed,
        5.0,
    )


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "run.cfg"
    config.write_text(
        f"extracts_dir = {tmp_path}/extracts\nout_dir = {tmp_path}/out1\n"
        "seed = 3\nsynth_n = 150\nsynth_prevalence = 0.15\n"
    )
    assert cli_main(["synth", "--config", str(config), "--out", str(tmp_path / "extracts")]) == 0
    assert cli_main(["run-all", "--config", str(config)]) == 0
    assert cli_main(["run-all", "--config", str(config), "--out", str(tmp_path / "out2")]) == 0
    names1 = sorted(p.name for p in (tmp_path / "out1").iterdir())
    names2 = sorted(p.name for p in (tmp_path / "out2").iterdir())
    same_names = names1 == names2
    differing = [
        name
        for name in names1
        if (tmp_path / "out1" / name).read_bytes() != (tmp_path / "out2" / name).read_bytes()
    ]
    elapsed = time.perf_counter() - start
    _criterion(
        10,
        "run-all reproduces a byte-identical report bundle",
        same_names and not differing,
        f"{len(names1)} files compared, differing: {differing or 'none'}",
        elapsed,
        120.0,
    )
