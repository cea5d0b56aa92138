"""Output checks for the benchmark, computed apart from the program.

Every check reads the files a stage wrote and compares them with the
synth generator's ground-truth manifest, with an independent computation
(numpy / scipy), or with a property the method must have.  Nothing here
imports ``icustudy``.  Each check returns a list of problems; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats as sps
from scipy.special import expit

N_VARIABLES = 58
COVARIATES = range(2, 57)
ROUNDING = 5e-13  # worst relative error of a value written with 12 significant digits
KEY_FIELDS = ("subject_id", "hadm_id", "icustay_id")


# --- readers ------------------------------------------------------------------


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _key(row: dict) -> tuple:
    return tuple(int(row[f]) for f in KEY_FIELDS)


def read_group(path: Path):
    """studygroup.csv as (list of key tuples, (n, 58) float matrix)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[3:] != [f"x{i}" for i in range(1, N_VARIABLES + 1)]:
            raise ValueError(f"{path}: unexpected header")
        keys, rows = [], []
        for line in reader:
            keys.append(tuple(int(v) for v in line[:3]))
            rows.append([float(v) for v in line[3:]])
    return keys, np.array(rows, dtype=float).reshape(-1, N_VARIABLES)


def read_strata(path: Path, keys: list):
    """strata.csv as (scores, quintiles) in the order of `keys`."""
    by_key = {_key(r): (float(r["score"]), int(r["quintile"])) for r in read_rows(path)}
    if set(by_key) != set(keys):
        raise ValueError("strata.csv does not cover exactly the study group")
    scores = np.array([by_key[k][0] for k in keys])
    quintiles = np.array([by_key[k][1] for k in keys])
    return scores, quintiles


def read_model(path: Path) -> list:
    return [t.strip() for t in Path(path).read_text().split("+") if t.strip()]


def design(x: np.ndarray, terms: list) -> np.ndarray:
    """Model matrix for terms "1", "xI" and "xI*xJ"."""
    cols = []
    for term in terms:
        if term == "1":
            cols.append(np.ones(x.shape[0]))
            continue
        col = np.ones(x.shape[0])
        for factor in term.split("*"):
            col = col * x[:, int(factor[1:]) - 1]
        cols.append(col)
    return np.column_stack(cols)


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


# --- cohort and varprep --------------------------------------------------------


def check_cohort(out: Path, manifest: dict, offsets: tuple) -> list:
    problems = []
    got = [(int(r["step"]), r["label"], int(r["surviving"])) for r in read_rows(out / "trace.csv")]
    want = [(s["index"], s["label"], s["surviving"]) for s in manifest["step_counts"]]
    if got != want:
        problems.append(f"trace.csv survivor counts {got} differ from the manifest {want}")
    survivors = sorted(_key(r) for r in read_rows(out / "survivors.csv"))
    expected = sorted(_expected_keys(manifest, offsets))
    if survivors != expected:
        problems.append(
            f"survivors.csv holds {len(survivors)} keys, the manifest expects {len(expected)} "
            f"({len(set(survivors) ^ set(expected))} differ)"
        )
    return problems


def _expected_keys(manifest: dict, offsets: tuple) -> list:
    return [
        tuple(row[f] + off for f, off in zip(KEY_FIELDS, offsets))
        for row in manifest["expected_rows"]
    ]


def check_varprep(out: Path, manifest: dict, offsets: tuple) -> list:
    problems = []
    keys, x = read_group(out / "studygroup.csv")
    expected_keys = _expected_keys(manifest, offsets)
    if keys != expected_keys:
        return [f"studygroup.csv keys differ from the manifest's expected rows ({len(keys)} vs {len(expected_keys)})"]
    want = np.array([row["x"] for row in manifest["expected_rows"]], dtype=float)
    both_nan = np.isnan(x) & np.isnan(want)
    # relative to the column's largest magnitude: fluid balances are
    # differences of 12-digit extract values, so their own size can be far
    # below the rounding of their terms
    scale = np.nanmax(np.abs(want), axis=0)
    bad = ~both_nan & ~(np.abs(x - want) <= 1e-9 * scale)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        problems.append(
            f"studygroup.csv: {int(bad.sum())} values off by more than 1e-9 of their column's scale, "
            f"first {keys[i]} x{j + 1}: {x[i, j]!r} vs {want[i, j]!r}"
        )
    rejections = read_rows(out / "rejections.csv")
    if rejections:
        problems.append(f"rejections.csv lists {len(rejections)} patients, expected none")
    return problems


# --- propensity ------------------------------------------------------------------


def _score_equation_problems(x_design: np.ndarray, y: np.ndarray, beta: np.ndarray, label: str) -> list:
    """The logistic score equations X'(y - p) = 0 at reported coefficients.

    The tolerance is first-order in the 12-digit rounding of the
    coefficients and of the data, plus the program's own convergence rule
    (max |gradient| < 1e-10 on standardized columns), mapped back to the
    raw columns.
    """
    p = expit(x_design @ beta)
    w = p * (1.0 - p)
    gradient = x_design.T @ (y - p)
    ax = np.abs(x_design)
    sensitivity = (ax.T * w) @ (ax * np.abs(beta))
    rounding = 4.0 * ROUNDING * sensitivity.sum(axis=1)
    spread = x_design.std(axis=0) + np.abs(x_design.mean(axis=0)) + 1.0
    tol = rounding + 1e-9 * spread
    bad = np.abs(gradient) > tol
    if bad.any():
        j = int(np.argmax(np.abs(gradient) / tol))
        return [f"{label}: score equation fails for term {j} (|gradient| {abs(gradient[j]):.3g} > {tol[j]:.3g})"]
    return []


def check_propensity_fit(out: Path, group) -> list:
    keys, x = group
    terms = read_model(out / "model.txt")
    rows = read_rows(out / "propensity_fit.csv")
    if [r["term"] for r in rows] != terms:
        return ["propensity_fit.csv terms differ from model.txt"]
    beta = np.array([float(r["coef"]) for r in rows])
    y = (x[:, 0] > 0).astype(float)
    return _score_equation_problems(design(x, terms), y, beta, "propensity_fit.csv")


def check_strata(out: Path, group, n_strata: int = 5) -> list:
    """Score equation of the intercept, largest-remainder sizes, ordered
    score ranges and a quintile table that agrees with strata.csv."""
    keys, x = group
    problems = []
    scores, quintiles = read_strata(out / "strata.csv", keys)
    treated = x[:, 0] > 0
    gap = abs(float(scores.sum()) - int(treated.sum()))
    if gap > 1e-8:
        problems.append(f"strata.csv scores sum to {scores.sum()!r}, treated count {int(treated.sum())} (gap {gap:.3g})")

    n = len(keys)
    base, rem = divmod(n, n_strata)
    sizes = [base + (1 if q > n_strata - rem else 0) for q in range(1, n_strata + 1)]
    order = sorted(range(n), key=lambda i: (scores[i], keys[i]))
    want = np.repeat(np.arange(1, n_strata + 1), sizes)
    if not np.array_equal(quintiles[order], want):
        counts = [int((quintiles == q).sum()) for q in range(1, n_strata + 1)]
        problems.append(
            f"strata.csv is not the largest-remainder cut of the score order (sizes {counts}, rule {sizes})"
        )
    for q in range(1, n_strata):
        if scores[quintiles == q].max(initial=-np.inf) > scores[quintiles == q + 1].min(initial=np.inf):
            problems.append(f"score ranges of strata {q} and {q + 1} overlap")

    table = read_rows(out / "quintile_table.csv")
    if [int(r["quintile"]) for r in table] != list(range(1, n_strata + 1)):
        problems.append("quintile_table.csv does not list every stratum once")
        return problems
    for r in table:
        q = int(r["quintile"])
        in_q = quintiles == q
        if int(r["n_treated"]) != int((in_q & treated).sum()) or int(r["n_untreated"]) != int((in_q & ~treated).sum()):
            problems.append(f"quintile_table.csv arm counts of stratum {q} differ from strata.csv")
        low, high = scores[in_q].min(), scores[in_q].max()
        if not (_close(float(r["score_low"]), low, 1e-11) and _close(float(r["score_high"]), high, 1e-11)):
            problems.append(f"quintile_table.csv score range of stratum {q} differs from strata.csv")
    return problems


def anova_2xk(values: np.ndarray, treated: np.ndarray, strata: np.ndarray) -> tuple:
    """Unweighted cell-means 2 x K ANOVA: (F primary, F secondary, F scale).

    Cell means enter with equal stratum weight, effects are scaled by the
    harmonic-mean cell size, the error term is the pooled within-cell sum
    of squares, and strata with an empty arm are left out.  Sums of squares
    within the noise floor n * (1e-9 * max(1, max|v|))^2 count as zero:
    0/0 gives F = 0 and x/0 gives F = inf.  The returned scale is the F the
    whole between-cell sum of squares would give, which bounds the
    cancellation in the interaction sum of squares.
    """
    cells = []
    for s in np.unique(strata):
        arms = [values[(strata == s) & ~treated], values[(strata == s) & treated]]
        if arms[0].size and arms[1].size:
            cells.append(arms)
    k = len(cells)
    if k == 0:
        return math.nan, math.nan, 0.0
    means = np.array([[a.mean() for a in arms] for arms in cells])  # (k, 2)
    sizes = np.array([[a.size for a in arms] for arms in cells])
    n_h = 2 * k / (1.0 / sizes).sum()
    grand = means.mean()
    ss_treat = n_h * k * ((means.mean(axis=0) - grand) ** 2).sum()
    ss_strata = n_h * 2 * ((means.mean(axis=1) - grand) ** 2).sum()
    ss_cells = n_h * ((means - grand) ** 2).sum()
    ss_inter = ss_cells - ss_treat - ss_strata
    ss_within = sum(((a - a.mean()) ** 2).sum() for arms in cells for a in arms)
    used = np.concatenate([a for arms in cells for a in arms])
    floor = used.size * (1e-9 * max(1.0, float(np.abs(used).max()))) ** 2
    dof = int(sizes.sum()) - 2 * k

    def f_ratio(ss, df):
        if df <= 0 or dof <= 0:
            return math.nan
        if ss_within <= floor:
            return 0.0 if ss <= floor else math.inf
        return max(ss, 0.0) / df / (ss_within / dof)

    scale = f_ratio(ss_cells, max(k - 1, 1))
    return f_ratio(ss_treat, 1), f_ratio(ss_inter, k - 1), scale


def check_balance(out: Path, group, name: str = "balance.csv") -> list:
    keys, x = group
    _, quintiles = read_strata(out / "strata.csv", keys)
    treated = x[:, 0] > 0
    rows = read_rows(out / name)
    if [r["covariate"] for r in rows] != [f"x{i}" for i in COVARIATES]:
        return [f"{name} does not list x2..x56"]
    problems = []
    for r in rows:
        i = int(r["covariate"][1:])
        f_primary, f_secondary, scale = anova_2xk(x[:, i - 1], treated, quintiles)
        scale = scale if math.isfinite(scale) else 0.0
        for column, want in (("f_primary_main_effect", f_primary), ("f_secondary_interaction", f_secondary)):
            got = float(r[column])
            if not _close(got, want, 1e-9, 1e-9 * scale):
                problems.append(f"{name} {r['covariate']} {column} {got!r}, own ANOVA gives {want!r}")
    return problems


def check_refinement(out: Path) -> list:
    """The refined model extends the initial one by exactly the accepted
    attempts, and each accepted attempt strictly lowered its primary F."""
    problems = []
    initial, refined = read_model(out / "model.txt"), read_model(out / "model_refined.txt")
    log = read_rows(out / "refinement_log.csv")
    accepted = [r for r in log if r["accepted"] == "1"]
    if refined[: len(initial)] != initial or len(refined) - len(initial) != len(accepted):
        problems.append(
            f"model_refined.txt adds {len(refined) - len(initial)} terms to model.txt, "
            f"refinement_log.csv accepts {len(accepted)}"
        )
    for r in log:
        before, after = float(r["f_before"]), float(r["f_after"])
        lowered = math.isfinite(before) and math.isfinite(after) and after < before
        if lowered != (r["accepted"] == "1"):
            problems.append(f"refinement_log.csv: x{r['variable']} {r['form']} accepted={r['accepted']} with F {before!r} -> {after!r}")
    return problems


# --- outcome ----------------------------------------------------------------------


def check_outcome(out: Path, group) -> list:
    keys, x = group
    scores, quintiles = read_strata(out / "strata.csv", keys)
    treated01 = (x[:, 0] > 0).astype(float)
    base = np.column_stack([np.ones(len(keys)), treated01] + [x[:, i - 1] for i in (2, 3, 5, 10, 15)] + [scores])
    full = np.column_stack([base, treated01 * x[:, 4]])
    dead = (x[:, 56] > 0).astype(float)
    los = x[:, 57]
    sicker = x[:, 4] >= np.median(x[:, 4])

    models: dict = {}
    for r in read_rows(out / "outcome_models.csv"):
        models.setdefault(r["model"], []).append(float(r["beta"]))
    problems = []
    want_models = ["A.Mortality", "A.LOS", "B", "C.LessSick", "C.Sicker"]
    if list(models) != want_models:
        return [f"outcome_models.csv lists models {list(models)}, expected {want_models}"]

    own, *_ = np.linalg.lstsq(base, los, rcond=None)
    got = np.array(models["A.LOS"])
    contribution = np.abs(got - own) * np.abs(base).max(axis=0)
    if got.size != own.size or (contribution > 1e-9 * np.abs(base @ own).max()).any():
        problems.append(f"A.LOS coefficients {got.tolist()} differ from lstsq {own.tolist()}")

    for model, design_x, rows in (
        ("A.Mortality", base, slice(None)),
        ("B", full, slice(None)),
        ("C.LessSick", full, ~sicker),
        ("C.Sicker", full, sicker),
    ):
        beta = np.array(models[model])
        if beta.size != design_x.shape[1]:
            problems.append(f"{model} has {beta.size} coefficients, expected {design_x.shape[1]}")
            continue
        problems += _score_equation_problems(design_x[rows], dead[rows], beta, model)

    problems += _check_stratified_tests(out, quintiles, treated01 > 0, dead > 0, los)
    return problems


def _check_stratified_tests(out: Path, quintiles, treated, dead, los) -> list:
    problems = []
    for r in read_rows(out / "stratified_tests.csv"):
        q = int(r["quintile"])
        t_mask, u_mask = (quintiles == q) & treated, (quintiles == q) & ~treated
        if r["outcome"] == "mortality":
            table = [
                [int((t_mask & dead).sum()), int((t_mask & ~dead).sum())],
                [int((u_mask & dead).sum()), int((u_mask & ~dead).sum())],
            ]
            if min(map(sum, table)) == 0 or min(map(sum, zip(*table))) == 0:
                want = None
            else:
                res = sps.chi2_contingency(table, correction=False)
                want = (res.statistic, res.pvalue)
        else:
            if t_mask.sum() < 2 or u_mask.sum() < 2:
                want = None
            else:
                res = sps.ttest_ind(los[t_mask], los[u_mask], equal_var=False)
                want = (res.statistic, res.pvalue)
        if want is None:
            if r["testable"] != "0":
                problems.append(f"stratified_tests.csv {r['outcome']} stratum {q} should be untestable")
            continue
        if r["testable"] != "1":
            problems.append(f"stratified_tests.csv {r['outcome']} stratum {q} should be testable")
            continue
        got = (float(r["statistic"]), float(r["p"]))
        if not all(_close(g, w, 1e-9, 1e-300) for g, w in zip(got, want)):
            problems.append(f"stratified_tests.csv {r['outcome']} stratum {q}: {got} vs scipy {tuple(map(float, want))}")
    return problems


# --- ml ---------------------------------------------------------------------------------


def check_ml(out: Path, group, kmeans_k: int = 4) -> list:
    keys, _ = group
    n = len(keys)
    problems = []
    traces: dict = {}
    for r in read_rows(out / "gp_run.csv"):
        traces.setdefault(r["task"], []).append(float(r["best_fitness"]))
    for task, trace in traces.items():
        if any(b > a for a, b in zip(trace, trace[1:])):
            problems.append(f"gp_run.csv: the {task} best-fitness trace increases")

    metrics = {(r["task"], r["split"], r["metric"]): r["value"] for r in read_rows(out / "gp_metrics.csv")}
    n_train = math.ceil(0.7 * n)
    for split, want in (("train", n_train), ("test", n - n_train), ("full", n)):
        total = sum(int(metrics[("classify", split, m)]) for m in ("tp", "tn", "fp", "fn"))
        if total != want:
            problems.append(f"gp_metrics.csv: {split} confusion counts sum to {total}, expected {want}")

    cf: dict = {}
    for r in read_rows(out / "counterfactual.csv"):
        cf.setdefault(r["task"], []).append((float(r["outcome_treated"]), float(r["outcome_untreated"])))
    for task, pairs in cf.items():
        arr = np.array(pairs)
        if len(pairs) != n:
            problems.append(f"counterfactual.csv: {len(pairs)} {task} rows for {n} patients")
        # classification rates are the share predicted positive (+1)
        means = (arr == 1.0).mean(axis=0) if task == "classify" else arr.mean(axis=0)
        for column, mean in zip(("treated", "untreated"), means):
            got = float(metrics[(task, "full", f"counterfactual_rate_{column}")])
            if not _close(got, float(mean), 1e-9, 1e-12):
                problems.append(f"gp_metrics.csv {task} counterfactual_rate_{column} {got!r}, column mean {mean!r}")

    clusters = {_key(r): int(r["cluster"]) for r in read_rows(out / "clusters.csv")}
    if set(clusters) != set(keys):
        problems.append(f"clusters.csv covers {len(clusters)} keys, the study group has {n}")
    elif not set(clusters.values()) <= set(range(1, kmeans_k + 1)):
        problems.append("clusters.csv uses cluster ids outside 1..k")
    return problems


def load_manifest(path: Path) -> dict:
    return json.loads(Path(path).read_text())
