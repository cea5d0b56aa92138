import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from icustudy import evoml
from icustudy.errors import DegenerateK
from icustudy.evoml import (
    ARITY,
    GpConfig,
    classification_metrics,
    crossover,
    eval_tree_batch,
    gp_evolve,
    gp_init_population,
    kmeans_cluster,
    mutate,
    simulate_counterfactual,
    split_train_test,
    standardize_columns,
)


# --- k-means -----------------------------------------------------------------


def test_kmeans_single_cluster_is_mean():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(40, 3))
    result = kmeans_cluster(points, 1, seed=0)
    assert result.centroids[0] == pytest.approx(points.mean(axis=0), rel=1e-9)
    want = ((points - points.mean(axis=0)) ** 2).sum()
    assert result.inertia == pytest.approx(want, rel=1e-9)


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 1.0, size=(60, 2))
    b = rng.normal(30.0, 1.0, size=(40, 2))  # ten-sigma separation
    points = np.vstack([a, b])
    result = kmeans_cluster(points, 2, seed=3)
    first = result.assignment[:60]
    second = result.assignment[60:]
    assert len(set(first.tolist())) == 1
    assert len(set(second.tolist())) == 1
    assert first[0] != second[0]


def test_kmeans_k_equals_n_zero_inertia():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(12, 2))
    result = kmeans_cluster(points, 12, seed=0)
    assert result.inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_degenerate_k():
    with pytest.raises(DegenerateK):
        kmeans_cluster(np.zeros((3, 2)), 4, seed=0)
    with pytest.raises(DegenerateK):
        kmeans_cluster(np.zeros((3, 2)), 0, seed=0)


def test_kmeans_deterministic_under_seed():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(100, 4))
    r1 = kmeans_cluster(points, 4, seed=11)
    r2 = kmeans_cluster(points, 4, seed=11)
    assert (r1.assignment == r2.assignment).all()
    assert r1.centroids == pytest.approx(r2.centroids)


def test_kmeans_inertia_trace_non_increasing():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(200, 3))
    result = kmeans_cluster(points, 5, seed=7)
    assert all(b <= a + 1e-9 for a, b in zip(result.inertia_trace, result.inertia_trace[1:]))


def test_kmeans_final_assignment_is_nearest():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(150, 3))
    result = kmeans_cluster(points, 4, seed=9)
    d2 = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
    assert (result.assignment == d2.argmin(axis=1)).all()


def test_standardize_columns():
    rng = np.random.default_rng(7)
    points = rng.normal(5.0, 3.0, size=(500, 2))
    z = standardize_columns(points)
    assert z.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-9)
    assert z.std(axis=0) == pytest.approx([1.0, 1.0], rel=1e-9)


def test_gp_config_defaults():
    config = GpConfig()
    assert config.population_size == 100
    assert config.generations == 10
    assert config.p_reproduction == 0.1
    assert config.p_crossover == 0.5
    assert config.p_mutation == 0.5
    assert config.max_depth == 17
    assert config.tournament_size == 4


def test_gp_config_validation():
    from icustudy.errors import DataError

    with pytest.raises(DataError):
        GpConfig(p_crossover=1.5)
    with pytest.raises(DataError):
        GpConfig(max_depth=0)
    with pytest.raises(DataError):
        GpConfig(population_size=1)
    with pytest.raises(DataError):
        GpConfig(init_depth=20, max_depth=17)


# --- GP programs -----------------------------------------------------------------


def _var(i: int) -> tuple:
    return ((None, i, None),)


def _const(c: float) -> tuple:
    return ((None, None, c),)


def _apply(op: str, *args: tuple) -> tuple:
    return sum(args, ((op, None, None),))


def _valid(prog: tuple) -> bool:
    """One whole program of well-formed triples, as a tuple of tuples."""
    if not isinstance(prog, tuple) or not all(isinstance(t, tuple) and len(t) == 3 for t in prog):
        return False
    try:
        node = oracles.tree(prog)
    except ValueError:
        return False

    def valid(node) -> bool:
        if node.is_terminal():
            return not node.children and (node.var is not None) != (node.const is not None)
        if len(node.children) != ARITY[node.op]:
            return False
        return all(valid(c) for c in node.children)

    return valid(node)


def _depth(prog: tuple) -> int:
    return oracles.tree(prog).depth()


def test_eval_identity_plus_zero():
    prog = _apply("+", _var(0), _const(0.0))
    x = np.array([[1.5], [-2.0], [7.0]])
    assert eval_tree_batch(prog, x) == pytest.approx([1.5, -2.0, 7.0])


def test_eval_feature_and_constant_are_distinct_programs():
    # feature 1 and constant 1.0 compare equal as bare numbers; as triples
    # they are different programs with different outputs
    assert _var(1) != _const(1.0)
    row = np.array([[0.0, 5.0]])
    assert eval_tree_batch(_var(1), row).tolist() == [5.0]
    assert eval_tree_batch(_const(1.0), row).tolist() == [1.0]


def test_eval_protected_division():
    prog = _apply("/", _const(1.0), _const(0.0))
    assert eval_tree_batch(prog, np.zeros((1, 1))).tolist() == [1.0]


def test_eval_protected_log_and_sqrt():
    log_prog = _apply("log2", _const(-4.0))
    row = np.zeros((1, 1))
    assert eval_tree_batch(log_prog, row).tolist() == [0.0]
    log8 = _apply("log2", _const(8.0))
    assert eval_tree_batch(log8, row) == pytest.approx([3.0])
    sqrt_prog = _apply("sqrt", _const(-9.0))
    assert eval_tree_batch(sqrt_prog, row) == pytest.approx([3.0])


def test_eval_fuzz_always_finite():
    rng = random.Random(8)
    config = GpConfig(seed=8)
    data_rng = np.random.default_rng(8)
    x = data_rng.normal(0, 50, size=(100, 4))
    population = gp_init_population(GpConfig(population_size=1000, seed=8), 4, rng)
    total = 0
    for prog in population:
        out = eval_tree_batch(prog, x)
        total += out.size
        assert np.isfinite(out).all()
    assert total == 100000


def test_init_ramped_depths_span():
    rng = random.Random(9)
    population = gp_init_population(GpConfig(population_size=100, seed=9), 5, rng)
    depths = {_depth(t) for t in population}
    assert len(depths) >= 4
    assert all(_depth(t) <= 17 for t in population)
    assert all(_valid(t) for t in population)


def test_depth_matches_tree_oracle():
    # the program's depth and one node's depth, both without a depth list
    rng = random.Random(12)
    config = GpConfig(seed=12)
    programs = gp_init_population(config, 4, rng)
    for _ in range(200):
        a, b = rng.sample(programs, 2)
        programs += [*crossover(a, b, rng), mutate(a, 4, config, rng)]
    for prog in programs:
        tree = oracles.tree(prog)
        assert evoml._depth(prog) == tree.depth()
        for i in {0, len(prog) - 1, rng.randrange(len(prog))}:
            assert evoml._depth(prog, i) == oracles._node_depth_at(tree, i)


def test_init_max_depth_one_all_terminals():
    rng = random.Random(10)
    config = GpConfig(population_size=50, max_depth=1, init_depth=1, seed=10)
    population = gp_init_population(config, 3, rng)
    assert all(len(t) == 1 and t[0][0] is None for t in population)


def test_init_deterministic_under_seed():
    pop1 = gp_init_population(GpConfig(population_size=60, seed=11), 4, random.Random(11))
    pop2 = gp_init_population(GpConfig(population_size=60, seed=11), 4, random.Random(11))
    assert pop1 == pop2


def test_crossover_closure_many_random_pairs():
    rng = random.Random(12)
    config = GpConfig(population_size=200, seed=12)
    population = gp_init_population(config, 4, rng)
    for _ in range(10000):
        a = population[rng.randrange(len(population))]
        b = population[rng.randrange(len(population))]
        ca, cb = crossover(a, b, rng)
        assert _valid(ca) and _valid(cb)
    # parents must be untouched by repeated crossover
    assert all(_valid(t) for t in population)


def test_mutation_respects_depth_budget():
    rng = random.Random(13)
    config = GpConfig(population_size=100, seed=13)
    population = gp_init_population(config, 4, rng)
    for prog in population:
        child = mutate(prog, 4, config, rng)
        assert _valid(child)
        assert _depth(child) <= config.max_depth


# --- evolution -----------------------------------------------------------------


def test_evolve_planted_target_beats_baseline():
    wins = 0
    rng = np.random.default_rng(14)
    x = rng.normal(10.0, 4.0, size=(150, 4))
    y = x[:, 1].copy()  # target equals feature 1 exactly
    baseline = float(np.mean(np.abs(y - np.median(y))))
    for seed in range(10):
        run = gp_evolve(GpConfig(seed=seed), x, y, "regress")
        if run.best_fitness < 0.1 * baseline:
            wins += 1
    assert wins >= 6


def test_evolve_single_class_perfect_at_generation_zero():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(60, 3))
    y = np.full(60, 1.0)
    run = gp_evolve(GpConfig(seed=5, generations=0), x, y, "classify")
    assert run.trace[0] == 0.0


def test_evolve_trace_non_increasing():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(80, 3))
    y = rng.choice([-1.0, 1.0], size=80)
    run = gp_evolve(GpConfig(seed=3), x, y, "classify")
    assert len(run.trace) == 11
    assert all(b <= a for a, b in zip(run.trace, run.trace[1:]))


def test_evolve_depth_bound_holds_every_generation():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(50, 3))
    y = x[:, 0] * x[:, 1]
    config = GpConfig(seed=7, max_depth=6, init_depth=4)
    run = gp_evolve(config, x, y, "regress")
    assert _depth(run.best) <= 6


def test_evolve_deterministic_under_seed():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(70, 3))
    y = x[:, 2] + 1.0
    r1 = gp_evolve(GpConfig(seed=21), x, y, "regress")
    r2 = gp_evolve(GpConfig(seed=21), x, y, "regress")
    assert r1.best == r2.best
    assert r1.trace == r2.trace


def _evolve_data(task: str, seed: int):
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(0.0, 3.0, size=(60, 4))
    x[:6, 1] = 0.0
    x[6:9, 2] = -1e200
    if task == "classify":
        return x, np.where(x[:, 0] - x[:, 3] > 0.5, 1.0, -1.0)
    return x, x[:, 0] * x[:, 1] + 2.0


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"max_depth": 3, "init_depth": 3, "population_size": 40},  # deep offspring rejected
        {"p_reproduction": 1.0, "population_size": 40},
        {"p_crossover": 0.0, "population_size": 40},
        {"tournament_size": 1, "population_size": 40},
    ],
    ids=["defaults", "max-depth-3", "reproduction-only", "mutation-only", "tournament-1"],
)
def test_evolve_matches_node_engine(options):
    for task in ("classify", "regress"):
        for seed in range(10):
            x, y = _evolve_data(task, seed)
            config = GpConfig(seed=seed, generations=6, **options)
            got = gp_evolve(config, x, y, task)
            want = oracles.gp_evolve(config, x, y, task)
            assert got.best == oracles.prefix(want.best), (task, seed)
            assert got.trace == want.trace and got.best_fitness == want.best_fitness
            assert eval_tree_batch(got.best, x).tobytes() == oracles.eval_tree_batch(want.best, x).tobytes()


def test_evolve_scores_each_program_once(monkeypatch):
    scored = []
    fitness = evoml.fitness
    monkeypatch.setattr(evoml, "fitness", lambda prog, *args: scored.append(prog) or fitness(prog, *args))
    x, y = _evolve_data("regress", 3)
    run = gp_evolve(GpConfig(seed=3), x, y, "regress")
    assert len(scored) == len(set(scored))
    assert run.best in scored


def _offspring(progs: list, n_features: int, config: GpConfig, seed: int) -> list:
    """Crossover and mutation children of neighbouring programs, which copy
    whole subtrees of their parents as a GP run's offspring do."""
    rng, children = random.Random(seed), []
    for a, b in zip(progs, progs[1:]):
        children += [*crossover(a, b, rng), mutate(a, n_features, config, rng)]
    return children


@pytest.mark.parametrize("entries", [1, 7, None], ids=["one-entry", "seven-entries", "whole-budget"])
def test_subtree_cache_gives_the_node_engine_bytes(monkeypatch, entries):
    x = _evolve_data("regress", 5)[0]  # zero and -1e200 columns: protection and overflow
    if entries is not None:
        monkeypatch.setattr(evoml, "SUBTREE_CACHE_BYTES", entries * x.shape[0] * 8)
    config = GpConfig(population_size=40, seed=5)
    progs = gp_init_population(config, x.shape[1], random.Random(5))
    progs += _offspring(progs, x.shape[1], config, 6)
    cache = {}
    for prog in progs + progs[::-1]:  # a second pass finds some subtrees, evicted or not
        want = oracles.eval_tree_batch(oracles.tree(prog), x)
        assert eval_tree_batch(prog, x, cache).tobytes() == want.tobytes()
        assert eval_tree_batch(prog, x).tobytes() == want.tobytes()
    subtrees = {p[i : evoml._subtree_end(p, i)] for p in progs for i in range(len(p)) if p[i][0] is not None}
    assert len(cache) == (entries or len(subtrees))  # full at one or seven; at 4 MiB nothing left


def test_cached_subtree_values_are_read_only():
    x = _evolve_data("regress", 2)[0]
    prog = _apply("+", _apply("*", _var(0), _var(1)), _const(2.0))
    cache = {}
    out = eval_tree_batch(prog, x, cache)
    assert set(cache) == {prog, prog[1:4]}
    for values in cache.values():
        with pytest.raises(ValueError):
            values[0] = 0.0
    assert eval_tree_batch(prog, x, cache) is out  # found, not evaluated again
    leaf = eval_tree_batch(_var(0), x, cache)  # a single leaf is a fresh array, not a view of x
    leaf[0] = 7.0
    assert x[0, 0] != 7.0 and len(cache) == 2


_SAMPLE = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, -1.0, 1e-12, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308]),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(1, 5),
    max_depth=st.integers(1, 17),
    init_depth=st.integers(1, 6),
    rows=st.lists(st.lists(_SAMPLE, min_size=5, max_size=5), min_size=1, max_size=8),
)
def test_variation_and_evaluation_match_node_engine(seed, n_features, max_depth, init_depth, rows):
    config = GpConfig(population_size=6, max_depth=max(max_depth, init_depth), init_depth=init_depth)
    trees = oracles.gp_init_population(config, n_features, random.Random(seed))
    progs = gp_init_population(config, n_features, random.Random(seed))
    assert progs == [oracles.prefix(t) for t in trees]
    x = np.array(rows)[:, :n_features]
    cache = {}  # shared by the population and its offspring, two entries at most
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evoml, "SUBTREE_CACHE_BYTES", 2 * x.nbytes // n_features)
        for t, p in zip(trees, progs):
            want = oracles.eval_tree_batch(t, x).tobytes()
            assert eval_tree_batch(p, x).tobytes() == want
            assert eval_tree_batch(p, x, cache).tobytes() == want

        mine, theirs = random.Random(seed + 1), random.Random(seed + 1)
        for (ta, tb), (pa, pb) in zip(zip(trees, trees[1:]), zip(progs, progs[1:])):
            want = oracles.crossover(ta, tb, theirs)
            assert crossover(pa, pb, mine) == tuple(map(oracles.prefix, want))
            assert mine.getstate() == theirs.getstate()
            want = oracles.mutate(ta, n_features, config, theirs)
            got = mutate(pa, n_features, config, mine)
            assert got == oracles.prefix(want) and mine.getstate() == theirs.getstate()
            assert eval_tree_batch(got, x).tobytes() == oracles.eval_tree_batch(want, x).tobytes()
            assert eval_tree_batch(got, x, cache).tobytes() == oracles.eval_tree_batch(want, x).tobytes()
    assert len(cache) <= 2


def test_split_train_test_sizes():
    train, test = split_train_test(1522, seed=0)
    assert len(train) == math.ceil(0.7 * 1522)
    assert len(test) == 1522 - math.ceil(0.7 * 1522)
    assert sorted(set(train) | set(test)) == list(range(1522))
    train2, _ = split_train_test(1522, seed=0)
    assert (train == train2).all()


# --- metrics -------------------------------------------------------------------


def test_metrics_perfect_predictor():
    x = np.array([[1.0], [-1.0], [2.0], [-2.0]])
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    m = classification_metrics(_var(0), x, labels)
    assert m.success_rate == 1.0
    assert m.fp == 0 and m.fn == 0
    assert m.tp == 2 and m.tn == 2


def test_metrics_constant_negative_predictor():
    rng = np.random.default_rng(19)
    n = 100
    labels = np.array([1.0] * 30 + [-1.0] * 70)
    x = rng.normal(size=(n, 2))
    m = classification_metrics(_const(-5.0), x, labels)
    assert m.tn == 70 and m.fn == 30 and m.tp == 0 and m.fp == 0
    assert m.sensitivity_paper is None  # TP / (TP + FP) undefined
    assert m.specificity_paper == pytest.approx(0.7)
    assert m.sensitivity_std == 0.0


def test_metrics_match_confusion_oracle():
    rng = np.random.default_rng(20)
    n = 500
    x = rng.normal(size=(n, 3))
    labels = rng.choice([-1.0, 1.0], size=n)
    m = classification_metrics(_apply("-", _var(0), _var(1)), x, labels)
    out = x[:, 0] - x[:, 1]
    predicted = np.where(out >= 0, 1.0, -1.0)
    assert m.tp == int(((predicted == 1) & (labels == 1)).sum())
    assert m.tn == int(((predicted == -1) & (labels == -1)).sum())
    assert m.fp == int(((predicted == 1) & (labels == -1)).sum())
    assert m.fn == int(((predicted == -1) & (labels == 1)).sum())
    assert m.tp + m.tn + m.fp + m.fn == n
    assert m.success_rate == (m.tp + m.tn) / n
    assert m.sensitivity_paper == pytest.approx(m.tp / (m.tp + m.fp))
    assert m.specificity_paper == pytest.approx(m.tn / (m.tn + m.fn))


# --- counterfactual simulation -----------------------------------------------------


def _arms(x: np.ndarray) -> tuple:
    """Copies of x with column 0, the treatment, set to +1 and to -1."""
    x_plus, x_minus = x.copy(), x.copy()
    x_plus[:, 0], x_minus[:, 0] = 1.0, -1.0
    return x_plus, x_minus


def test_counterfactual_treatment_blind_tree():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(50, 3))
    prog = _apply("*", _var(1), _var(2))  # ignores column 0
    result = simulate_counterfactual(prog, *_arms(x), "regress")
    assert result.outcome_treated == pytest.approx(result.outcome_untreated)


def test_counterfactual_pure_treatment_tree():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(30, 2))
    result = simulate_counterfactual(_var(0), *_arms(x), "classify")
    assert (result.outcome_treated == 1.0).all()
    assert (result.outcome_untreated == -1.0).all()
    assert result.rate_treated == 1.0
    assert result.rate_untreated == 0.0


def test_counterfactual_matches_double_evaluation():
    rng = random.Random(23)
    config = GpConfig(population_size=20, seed=23)
    population = gp_init_population(config, 4, rng)
    data_rng = np.random.default_rng(23)
    x = data_rng.normal(size=(40, 4))
    x_plus, x_minus = _arms(x)
    for prog in population[:10]:
        result = simulate_counterfactual(prog, x_plus, x_minus, "regress")
        assert result.outcome_treated == pytest.approx(eval_tree_batch(prog, x_plus))
        assert result.outcome_untreated == pytest.approx(eval_tree_batch(prog, x_minus))
        # arm matrices untouched
        assert (x_plus[:, 0] == 1.0).all() and (x_minus[:, 0] == -1.0).all()
