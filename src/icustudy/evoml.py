"""Evolutionary machine-learning layer: seeded k-means clustering,
genetic-programming symbolic regression/classification over the protected
operator set {+, -, *, /, log2, sqrt}, the classification metrics in both
reported conventions, and the paired counterfactual simulation.

Everything is deterministic under its seed: k-means consumes a numpy
Generator, the GP engine a single stdlib Random stream in a fixed order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateK

# --- k-means -------------------------------------------------------------------


@dataclass
class KMeansResult:
    k: int
    centroids: np.ndarray
    assignment: np.ndarray
    inertia: float
    iterations: int
    inertia_trace: list


def standardize_columns(points: np.ndarray) -> np.ndarray:
    """Z-score each feature column; zero-variance columns map to zero."""
    points = np.asarray(points, dtype=float)
    mu = points.mean(axis=0)
    sd = points.std(axis=0)
    sd[sd == 0.0] = 1.0
    return (points - mu) / sd


def kmeans_cluster(points: np.ndarray, k: int, seed: int, max_iter: int = 300) -> KMeansResult:
    """Lloyd iterations from a seeded Forgy start (k distinct rows).

    Runs to an assignment fixpoint or `max_iter`; ties in distance go to
    the lowest cluster id and empty clusters keep their previous centroid.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k < 1 or k > n:
        raise DegenerateK(f"k must be in 1..{n}, got {k}")
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()

    assignment = np.full(n, -1, dtype=int)
    trace = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = d2.argmin(axis=1)
        trace.append(float(d2[np.arange(n), new_assignment].sum()))
        if (new_assignment == assignment).all():
            break
        assignment = new_assignment
        for c in range(k):
            members = points[assignment == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assignment = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), assignment].sum())
    return KMeansResult(
        k=k,
        centroids=centroids,
        assignment=assignment,
        inertia=inertia,
        iterations=iterations,
        inertia_trace=trace,
    )


# --- GP representation ------------------------------------------------------------
#
# A program is a tuple of (op, var, const) triples in prefix order: a
# function node is (op, None, None), a feature is (None, index, None) and a
# constant (None, None, value).  A subtree is a contiguous slice, and equal
# tuples are the same program, so a program can key a dict.

BINARY_OPS = ("+", "-", "*", "/")
UNARY_OPS = ("log2", "sqrt")
FUNCTIONS = BINARY_OPS + UNARY_OPS
ARITY = {op: 2 for op in BINARY_OPS} | {op: 1 for op in UNARY_OPS}

DIV_EPS = 1e-9
SUBTREE_CACHE_BYTES = 4 << 20  # function-subtree values one gp_evolve call keeps


def _subtree_end(prog: tuple, i: int) -> int:
    """The index just past the subtree rooted at `prog[i]`."""
    need = 1
    while need:
        need += ARITY.get(prog[i][0], 0) - 1
        i += 1
    return i


def _depths(prog: tuple) -> list:
    """Each node's depth (the root is 1), in prefix order."""
    depths, slots = [], []  # slots: a parent's depth per child still to come
    for op, _, _ in prog:
        depth = slots.pop() + 1 if slots else 1
        depths.append(depth)
        slots.extend([depth] * ARITY.get(op, 0))
    return depths


def _apply(op: str, a: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """A new array of op(a[, b]) under total protection."""
    if op == "log2":
        nonpositive = a <= 0.0
        out = np.log2(np.where(nonpositive, 1.0, a))
        out[nonpositive] = 0.0
    elif op == "sqrt":
        out = np.sqrt(np.abs(a))
    elif op == "+":
        out = a + b
    elif op == "-":
        out = a - b
    elif op == "*":
        out = a * b
    elif op == "/":
        tiny = np.abs(b) < DIV_EPS
        out = a / np.where(tiny, 1.0, b)
        out[tiny] = 1.0
    else:
        raise DataError(f"unknown operator {op!r}")
    np.copyto(out, 1.0, where=~np.isfinite(out))
    return out


def eval_tree_batch(prog: tuple, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Evaluate a program on a (rows, features) matrix with total protection:
    a/b = 1 when |b| < 1e-9, log2 of a non-positive is 0, sqrt uses the
    absolute value, and any non-finite function output becomes 1.

    `cache`, kept by one caller for one `x`, maps function subtrees to their
    values: a subtree found there is not evaluated again, and one evaluated
    is added, read-only, the oldest entries leaving once the values pass
    SUBTREE_CACHE_BYTES."""
    x = np.asarray(x, dtype=float)

    def value(i: int) -> tuple:
        """The values of the subtree rooted at prog[i], and the index just past it."""
        op, var, const = prog[i]
        if op is None:
            return (x[:, var] if var is not None else np.full(x.shape[0], float(const))), i + 1
        if cache is not None:
            key = prog[i : _subtree_end(prog, i)]
            if key in cache:
                return cache[key], i + len(key)
        a, end = value(i + 1)
        b, end = value(end) if ARITY[op] == 2 else (None, end)
        out = _apply(op, a, b)
        if cache is not None:
            out.flags.writeable = False
            cache[key] = out
            while len(cache) * out.nbytes > SUBTREE_CACHE_BYTES:
                del cache[next(iter(cache))]
        return out, end

    with np.errstate(all="ignore"):
        out = value(0)[0]
    return out.copy() if prog[0][0] is None else out


# --- configuration and initialization ------------------------------------------------


@dataclass
class GpConfig:
    population_size: int = 100
    generations: int = 10
    p_reproduction: float = 0.1
    p_crossover: float = 0.5
    p_mutation: float = 0.5
    max_depth: int = 17
    init_depth: int = 6
    tournament_size: int = 4
    const_range: tuple = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("p_reproduction", "p_crossover", "p_mutation"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DataError(f"{name} must be in [0, 1], got {value}")
        for name, least in (("max_depth", 1), ("population_size", 2), ("init_depth", 1), ("tournament_size", 1)):
            value = getattr(self, name)
            if value < least:
                raise DataError(f"{name} must be >= {least}, got {value}")
        if self.init_depth > self.max_depth:
            raise DataError(f"init_depth cannot exceed max_depth, got {self.init_depth} > {self.max_depth}")


def _random_terminal(n_features: int, config: GpConfig, rng: random.Random) -> tuple:
    choice = rng.randrange(n_features + 1)
    if choice < n_features:
        return ((None, choice, None),)
    return ((None, None, rng.uniform(*config.const_range)),)


def _grow(depth_budget: int, n_features: int, config: GpConfig, rng: random.Random, full: bool = False) -> tuple:
    """A random program at most `depth_budget` deep.  A grown node above the
    last level draws from functions and terminals alike; a `full` one draws
    a function, so every branch reaches the budget."""
    if depth_budget <= 1:
        return _random_terminal(n_features, config, rng)
    pick = rng.randrange(len(FUNCTIONS) + (0 if full else n_features + 1))
    if pick >= len(FUNCTIONS):
        return _random_terminal(n_features, config, rng)
    op = FUNCTIONS[pick]
    kids = (_grow(depth_budget - 1, n_features, config, rng, full) for _ in range(ARITY[op]))
    return sum(kids, ((op, None, None),))


def gp_init_population(config: GpConfig, n_features: int, rng: random.Random) -> list:
    """Ramped half-and-half over depths 1..init_depth: equal-size depth
    bins, half grown and half full, all within max_depth."""
    population = []
    depths = list(range(1, config.init_depth + 1))
    for i in range(config.population_size):
        depth = depths[i % len(depths)]
        full = (i // len(depths)) % 2 == 1
        population.append(_grow(depth, n_features, config, rng, full))
    return population


# --- variation -------------------------------------------------------------------


def crossover(a: tuple, b: tuple, rng: random.Random) -> tuple:
    """Swap random subtrees between two parents; returns two offspring."""
    ia = rng.randrange(len(a))
    ib = rng.randrange(len(b))
    ea, eb = _subtree_end(a, ia), _subtree_end(b, ib)
    return a[:ia] + b[ib:eb] + a[ea:], b[:ib] + a[ia:ea] + b[eb:]


def mutate(prog: tuple, n_features: int, config: GpConfig, rng: random.Random) -> tuple:
    """Replace a random subtree with a freshly grown one whose depth budget
    keeps the whole program within max_depth."""
    index = rng.randrange(len(prog))
    budget = max(1, config.max_depth - _depths(prog)[index] + 1)
    replacement = _grow(min(budget, config.init_depth), n_features, config, rng)
    return prog[:index] + replacement + prog[_subtree_end(prog, index):]


# --- evolution --------------------------------------------------------------------


@dataclass
class GpRun:
    best: tuple  # the program, as prefix triples
    best_fitness: float
    trace: list  # best-so-far fitness after generation 0, 1, ...
    task: str


def predict(prog: tuple, x: np.ndarray, task: str, cache: dict | None = None) -> np.ndarray:
    """The program's prediction for each row: for "classify" the sign of
    its output as +-1 (threshold 0 counts as +1), for "regress" the output."""
    out = eval_tree_batch(prog, x, cache)
    if task == "classify":
        return np.where(out >= 0.0, 1.0, -1.0)
    if task == "regress":
        return out
    raise DataError(f"unknown GP task {task!r}")


def fitness(prog: tuple, x: np.ndarray, y: np.ndarray, task: str, cache: dict | None = None) -> float:
    """Misclassified rows for "classify", mean absolute error for "regress"."""
    predicted = predict(prog, x, task, cache)
    if task == "classify":
        return float((predicted != y).sum())
    return float(np.mean(np.abs(predicted - y)))


def _tournament(fitnesses: list, config: GpConfig, rng: random.Random) -> int:
    best = None
    for _ in range(config.tournament_size):
        i = rng.randrange(len(fitnesses))
        if best is None or fitnesses[i] < fitnesses[best] or (
            fitnesses[i] == fitnesses[best] and i < best
        ):
            best = i
    return best


def gp_evolve(config: GpConfig, x: np.ndarray, y: np.ndarray, task: str) -> GpRun:
    """Evolve programs against the training rows.

    task "classify": fitness is the misclassification count with prediction
    sign(output) mapped to +-1 at threshold 0.  task "regress": fitness is
    mean absolute error.  Per breeding draw: reproduction with probability
    p_reproduction, otherwise crossover or mutation with the two remaining
    probabilities renormalized.  Offspring deeper than max_depth are
    rejected and the parents retained; the single best individual survives
    unchanged (elitism of 1), so the best-so-far trace never increases.
    Each distinct program is scored once per call, and each function
    subtree evaluated once while it stays in the call's subtree cache.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] == 0:
        raise DataError("gp_evolve needs a non-empty training set")
    rng = random.Random(config.seed)
    n_features = x.shape[1]
    scores = {}  # program -> fitness, a pure function of it for this x, y and task
    cache = {}  # function subtree -> its values on x

    def score(population: list) -> list:
        for prog in population:
            if prog not in scores:
                scores[prog] = fitness(prog, x, y, task, cache)
        return [scores[prog] for prog in population]

    def fits(prog: tuple) -> bool:
        return max(_depths(prog)) <= config.max_depth

    population = gp_init_population(config, n_features, rng)
    fitnesses = score(population)
    best_idx = min(range(len(population)), key=lambda i: (fitnesses[i], i))
    best, best_fit = population[best_idx], fitnesses[best_idx]
    trace = [best_fit]

    p_cross = config.p_crossover / max(config.p_crossover + config.p_mutation, 1e-12)
    for _ in range(config.generations):
        next_population = [best]  # elitism of 1
        while len(next_population) < config.population_size:
            r = rng.random()
            if r < config.p_reproduction:
                next_population.append(population[_tournament(fitnesses, config, rng)])
            elif rng.random() < p_cross:
                pa = population[_tournament(fitnesses, config, rng)]
                pb = population[_tournament(fitnesses, config, rng)]
                ca, cb = crossover(pa, pb, rng)
                for child, parent in ((ca, pa), (cb, pb)):
                    if len(next_population) >= config.population_size:
                        break
                    next_population.append(child if fits(child) else parent)
            else:
                parent = population[_tournament(fitnesses, config, rng)]
                child = mutate(parent, n_features, config, rng)
                next_population.append(child if fits(child) else parent)
        population = next_population
        fitnesses = score(population)
        gen_best = min(range(len(population)), key=lambda i: (fitnesses[i], i))
        if fitnesses[gen_best] < best_fit:
            best, best_fit = population[gen_best], fitnesses[gen_best]
        trace.append(best_fit)

    return GpRun(best=best, best_fitness=best_fit, trace=trace, task=task)


def split_train_test(n: int, seed: int) -> tuple:
    """Seeded 70/30 split: ceil(0.7 n) training rows, the rest test."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = math.ceil(0.7 * n)
    return np.sort(order[:n_train]), np.sort(order[n_train:])


# --- metrics and simulation ------------------------------------------------------------


@dataclass
class ClassMetrics:
    """Fields in the order of their gp_metrics.csv rows."""

    success_rate: float
    tp: int
    tn: int
    fp: int
    fn: int
    sensitivity_paper: float | None  # TP / (TP + FP)
    specificity_paper: float | None  # TN / (TN + FN)
    sensitivity_std: float | None  # TP / (TP + FN)
    specificity_std: float | None  # TN / (TN + FP)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def classification_metrics(tree: tuple, x: np.ndarray, labels: np.ndarray) -> ClassMetrics:
    """Confusion counts of sign-threshold predictions against +-1 labels.

    Both ratio conventions are reported: the study's sensitivity/specificity
    (precision-style, TP/(TP+FP) and TN/(TN+FN)) and the standard recall
    forms.  Ratios with a zero denominator are absent (None).
    """
    labels = np.asarray(labels, dtype=float)
    predicted = predict(tree, np.asarray(x, dtype=float), "classify")
    tp = int(((predicted == 1) & (labels == 1)).sum())
    tn = int(((predicted == -1) & (labels == -1)).sum())
    fp = int(((predicted == 1) & (labels == -1)).sum())
    fn = int(((predicted == -1) & (labels == 1)).sum())
    n = tp + tn + fp + fn
    return ClassMetrics(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        success_rate=(tp + tn) / n if n else 0.0,
        sensitivity_paper=_ratio(tp, tp + fp),
        specificity_paper=_ratio(tn, tn + fn),
        sensitivity_std=_ratio(tp, tp + fn),
        specificity_std=_ratio(tn, tn + fp),
    )


@dataclass
class CounterfactualResult:
    outcome_treated: np.ndarray
    outcome_untreated: np.ndarray
    rate_treated: float
    rate_untreated: float


def simulate_counterfactual(
    tree: tuple, x_treated: np.ndarray, x_untreated: np.ndarray, task: str
) -> CounterfactualResult:
    """Predict every patient in both arms: row i of `x_treated` and of
    `x_untreated` is patient i with the treatment, and every feature derived
    from it, set to +1 and to -1.  For classification the aggregate per
    arm is the predicted-positive rate; for regression the mean prediction.
    """
    outs = [predict(tree, np.asarray(x, dtype=float), task) for x in (x_treated, x_untreated)]
    rates = [float((out == 1).mean() if task == "classify" else out.mean()) for out in outs]
    return CounterfactualResult(*outs, *rates)
