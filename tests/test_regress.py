import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icustudy.errors import DataError, NotConverged, RankDeficient
from icustudy.group import COVARIATE_INDICES, N_VARIABLES, StudyGroup
from icustudy.regress import (
    ModelSpec,
    _candidate_order,
    _check_rank,
    _rank_deficient,
    _standardize,
    _trial_fits,
    _trial_information,
    _trial_score,
    _trial_steps,
    _unstandardize,
    coefficient_p_values,
    fit_linear_design,
    fit_logistic,
    fit_logistic_design,
    interaction,
    main,
    square,
    stepwise_select,
)

from helpers import make_group
from oracles import (
    TERM_ORACLE,
    candidate_order_oracle,
    design_matrix_oracle,
    fit_logistic_design_oracle,
    stepwise_oracle,
    unstandardize_oracle,
)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


# --- model terms and specs -----------------------------------------------------


def test_spec_round_trips_text_form():
    spec = ModelSpec([main(11), main(12), interaction(40, 43), square(43)])
    text = spec.to_text()
    assert text == "1 + x11 + x12 + x40*x43 + x43*x43"
    assert ModelSpec.from_text(text) == spec


def test_interaction_indices_normalized():
    assert interaction(43, 40) == interaction(40, 43)
    assert interaction(7, 7) == square(7)


def test_duplicate_terms_rejected():
    with pytest.raises(DataError):
        ModelSpec([main(3), main(3)])


_FORMS = st.one_of(
    st.tuples(st.sampled_from(["main", "square"]), st.integers(1, N_VARIABLES)),
    st.tuples(st.just("interaction"), st.integers(1, N_VARIABLES), st.integers(1, N_VARIABLES)),
)
_TERM_GROUP = make_group(np.random.default_rng(19), 40)


@given(st.lists(_FORMS, max_size=20))
@settings(max_examples=200, deadline=None)
def test_terms_match_model_term_oracle(forms):
    build = {"main": main, "square": square, "interaction": interaction}
    terms = list(dict.fromkeys(build[form](*args) for form, *args in forms))
    old = [TERM_ORACLE["intercept"](), *dict.fromkeys(TERM_ORACLE[form](*args) for form, *args in forms)]
    spec = ModelSpec(terms)
    assert ModelSpec.from_text(spec.to_text()) == spec
    assert spec.term_names() == [t.label() for t in old]
    assert spec.design_matrix(_TERM_GROUP).tobytes() == design_matrix_oracle(old, _TERM_GROUP).tobytes()
    assert _candidate_order(terms) == candidate_order_oracle(terms)


def test_unstandardize_matches_per_column_oracle():
    rng = np.random.default_rng(20)
    mu, sigma = rng.normal(size=6), rng.uniform(0.5, 3.0, size=6)
    mu[0], sigma[0] = 0.0, 1.0
    coef, cov = rng.normal(size=6), rng.normal(size=(6, 6))
    got, expected = _unstandardize(coef, cov, mu, sigma), unstandardize_oracle(coef, cov, mu, sigma)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


# --- logistic fitting ------------------------------------------------------------


def test_intercept_only_closed_form():
    # 25% positives: the MLE intercept is logit(1/4) = log(1/3)
    y = np.array([1.0] * 25 + [0.0] * 75)
    design = np.ones((100, 1))
    fit = fit_logistic_design(design, y, ["1"])
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(math.log(1 / 3), abs=1e-10)
    assert _sigmoid(fit.coefficients[0]) == pytest.approx(0.25, abs=1e-10)


def test_saturated_binary_cells_recover_proportions():
    # x=0: 30/100 positive, x=1: 60/100 positive
    x = np.array([0.0] * 100 + [1.0] * 100)
    y = np.array([1.0] * 30 + [0.0] * 70 + [1.0] * 60 + [0.0] * 40)
    design = np.column_stack([np.ones(200), x])
    fit = fit_logistic_design(design, y, ["1", "x"])
    p0 = _sigmoid(fit.coefficients[0])
    p1 = _sigmoid(fit.coefficients[0] + fit.coefficients[1])
    assert p0 == pytest.approx(0.30, abs=1e-8)
    assert p1 == pytest.approx(0.60, abs=1e-8)


def test_simulation_recovers_parameters():
    rng = np.random.default_rng(42)
    n = 5000
    x = rng.normal(size=n)
    eta = -1.0 + 0.8 * x
    y = (rng.random(n) < _sigmoid(eta)).astype(float)
    design = np.column_stack([np.ones(n), x])
    fit = fit_logistic_design(design, y, ["1", "x"])
    assert fit.converged
    assert fit.coefficients[1] == pytest.approx(0.8, abs=0.15)
    # the MLE cannot score below the true parameters
    ll_true = float(np.sum(y * np.log(_sigmoid(eta)) + (1 - y) * np.log(1 - _sigmoid(eta))))
    assert fit.log_likelihood >= ll_true - 1e-6


def test_score_equations_vanish_at_optimum():
    rng = np.random.default_rng(1)
    n = 800
    design = np.column_stack([np.ones(n), rng.normal(50, 20, n), rng.choice([-1, 1], n)])
    y = (rng.random(n) < 0.3).astype(float)
    fit = fit_logistic_design(design, y, ["1", "a", "b"])
    assert fit.converged
    mu = _sigmoid(design @ fit.coefficients)
    score = design.T @ (y - mu)
    assert np.max(np.abs(score)) < 1e-6


def test_rank_deficient_names_column():
    rng = np.random.default_rng(2)
    n = 50
    a = rng.normal(size=n)
    design = np.column_stack([np.ones(n), a, 2.0 * a])
    y = (rng.random(n) < 0.5).astype(float)
    with pytest.raises(RankDeficient) as excinfo:
        fit_logistic_design(design, y, ["1", "a", "double_a"])
    assert excinfo.value.column in ("a", "double_a")


def test_non_finite_design_column_is_data_error():
    rng = np.random.default_rng(2)
    a = rng.normal(size=40)
    a[7] = np.nan
    design = np.column_stack([np.ones(40), rng.normal(size=40), a])
    y = (rng.random(40) < 0.5).astype(float)
    with pytest.raises(DataError, match="design column x41 holds a non-finite value"):
        fit_logistic_design(design, y, ["1", "x5", "x41"])


def test_separation_flagged_not_raised():
    # perfectly separated data cannot converge; flag instead of crash
    x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    design = np.column_stack([np.ones(6), x])
    fit = fit_logistic_design(design, y, ["1", "x"])
    assert fit.separation
    assert not fit.converged
    with pytest.raises(NotConverged):
        coefficient_p_values(fit)


def test_fit_invariant_to_row_permutation():
    rng = np.random.default_rng(3)
    group = make_group(rng, 300)
    spec = ModelSpec([main(5), main(11)])
    y = (rng.random(300) < 0.4).astype(float)
    fit1 = fit_logistic(group, spec, y)
    perm = rng.permutation(300)
    group2 = StudyGroup(group.ids[perm], group.x[perm])
    fit2 = fit_logistic(group2, spec, y[perm])
    assert fit1.coefficients == pytest.approx(fit2.coefficients, rel=1e-7)


# the selection and the refined model of the planted 3000-patient group at
# seed 7, the input of the search-3000 benchmark workload
SEARCH_MODEL = (
    "1 + x42 + x44 + x46 + x40 + x43 + x41 + x32 + x34 + x7 + x54 + x56 + x9 + x42*x43 + x32*x34"
    " + x34*x34 + x43*x44 + x54*x56 + x44*x54 + x34*x42 + x34*x44 + x32*x40 + x7*x40 + x7*x54 + x34*x54"
)
SEARCH_REFINED = SEARCH_MODEL + " + x11 + x26 + x10*x10 + x9*x30 + x25*x25 + x5 + x13*x43 + x12 + x8"


@pytest.fixture(scope="module")
def oracle_designs():
    """(design, 0/1 outcome, names) of each case the fit is held against
    its single-design oracle on."""
    from icustudy.group import MORTALITY_INDEX
    from icustudy.outcome import SAPS_INDEX, _design, split_by_median
    from icustudy.propensity import fit_and_stratify
    from icustudy.synth import SynthSpec, synth_study_group

    group = synth_study_group(SynthSpec(n=3000, seed=7, prevalence_target=0.12))
    treated = (group.col(1) > 0).astype(float)
    cases = {}
    for name, text in (("stepwise", SEARCH_MODEL), ("refined", SEARCH_REFINED)):
        spec = ModelSpec.from_text(text)
        cases[name] = (spec.design_matrix(group), treated, spec.term_names())
    scores = fit_and_stratify(group, ModelSpec.from_text(SEARCH_REFINED))[1].scores
    split = split_by_median(group, SAPS_INDEX, scores)
    for name, sub, sub_scores, cross in (
        ("A", group, scores, False),
        ("B", group, scores, True),
        ("C.LessSick", split.less_sick, split.scores_less_sick, True),
        ("C.Sicker", split.sicker, split.scores_sicker, True),
    ):
        design, names = _design(sub, sub_scores, cross)
        cases[name] = (design, (sub.col(MORTALITY_INDEX) > 0).astype(float), names)
    cases["intercept only"] = (np.ones((group.n, 1)), treated, ["1"])
    x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    cases["separated"] = (np.column_stack([np.ones(6), x]), (x > 0).astype(float), ["1", "x"])
    a = group.col(30)
    cases["rank deficient"] = (np.column_stack([np.ones(group.n), a, 2.0 * a]), treated, ["1", "a", "double_a"])
    return cases


@pytest.mark.parametrize(
    "case", ["stepwise", "refined", "A", "B", "C.LessSick", "C.Sicker", "intercept only", "separated", "rank deficient"]
)
def test_fit_matches_single_design_oracle(oracle_designs, case):
    design, y, names = oracle_designs[case]
    try:
        expected = fit_logistic_design_oracle(design, y, names)
    except RankDeficient as exc:
        with pytest.raises(RankDeficient) as excinfo:
            fit_logistic_design(design, y, names)
        assert excinfo.value.column == exc.column
        return
    fit = fit_logistic_design(design, y, names)
    assert (fit.iterations, fit.converged, fit.separation) == (
        expected.iterations, expected.converged, expected.separation,
    )
    assert fit.coefficients == pytest.approx(expected.coefficients, rel=1e-10)
    assert fit.standard_errors == pytest.approx(expected.standard_errors, rel=1e-10)


@pytest.mark.parametrize(
    "entry", ["single", "trial fits", "trial steps"], ids=["True", "False", "trial steps"]  # True: a single fit
)
def test_forty_rejected_halvings_take_the_last_trial_and_its_likelihood(monkeypatch, entry):
    # a start value read 1e6 too high fails all 40 trials of the first
    # step: the step taken is the 40th trial's, 0.5**39 of the Newton step,
    # and the log-likelihood kept is that trial's own
    from icustudy import regress

    rng = np.random.default_rng(19)
    n = 500
    x = rng.normal(size=(n, 3))
    y = (rng.random(n) < _sigmoid(-0.5 + x @ [0.8, -0.5, 0.3])).astype(float)
    design = np.column_stack([np.ones(n), x])
    z = _standardize(design)[0]
    if entry == "single":
        def fit():
            f = fit_logistic_design(design, y, ["1", "a", "b", "c"])
            return f.coefficients, f.log_likelihood, f.iterations
    elif entry == "trial fits":
        def fit():
            beta, ll, _, _, steps = _trial_fits(z, y, 1, np.arange(1, 4))
            return beta, ll, steps
    else:
        zt = z.T
        zc = zt[1:4]  # the gathered candidate columns, one row per design

        def fit():  # the first Newton step from zero, as _trial_fits takes it
            eta, mu = np.zeros((3, n)), np.full((3, n), 0.5)
            ll = np.full(3, regress._log_likelihood(y, mu[0]))
            weights = mu.copy()  # _trial_score leaves mu (1 - mu) here
            grad, cross, diag = _trial_score(zt, y, 1, zc, weights)
            step = np.linalg.solve(_trial_information(zt, 1, weights, cross, diag), grad[..., None])[..., 0]
            scale, ll = _trial_steps(zt, y, 1, zc, step, eta, mu, ll)
            assert np.array_equal(eta, scale[:, None] * (step[:, :1] @ zt[:1] + step[:, 1:] * zc))
            return scale[:, None] * step, ll, np.ones(3, dtype=int)

    monkeypatch.setattr(regress, "MAX_ITER", 1)
    one_step = fit()[0]
    real, values = regress._log_likelihood, []

    def inflated(y, mu):
        values.append(real(y, mu) + (0.0 if values else 1e6))
        return values[-1]

    monkeypatch.setattr(regress, "_log_likelihood", inflated)
    beta, ll, steps = fit()
    assert len(values) == 41
    assert np.all(steps == 1)
    assert beta == pytest.approx(0.5**39 * one_step, rel=1e-9)
    assert np.all(ll == values[-1])


# --- linear fitting ---------------------------------------------------------------


def test_linear_exact_line():
    x = np.arange(10.0)
    y = 2.0 + 3.0 * x
    design = np.column_stack([np.ones(10), x])
    fit = fit_linear_design(design, y, ["1", "x"])
    assert fit.coefficients == pytest.approx([2.0, 3.0], abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_linear_constant_outcome():
    rng = np.random.default_rng(4)
    x = rng.normal(size=30)
    y = np.full(30, 7.0)
    design = np.column_stack([np.ones(30), x])
    fit = fit_linear_design(design, y, ["1", "x"])
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-10)
    assert fit.r_squared == 0.0


def test_linear_matches_pseudo_inverse_oracle():
    rng = np.random.default_rng(5)
    design = np.column_stack([np.ones(200), rng.normal(size=(200, 5))])
    y = rng.normal(size=200)
    fit = fit_linear_design(design, y, [f"c{i}" for i in range(6)])
    oracle = np.linalg.pinv(design) @ y
    assert fit.coefficients == pytest.approx(oracle, abs=1e-8)


def test_linear_residual_orthogonality():
    rng = np.random.default_rng(6)
    design = np.column_stack([np.ones(150), rng.normal(size=(150, 4))])
    y = rng.normal(size=150)
    fit = fit_linear_design(design, y, [f"c{i}" for i in range(5)])
    resid = y - design @ fit.coefficients
    assert np.linalg.norm(design.T @ resid) <= 1e-8 * np.linalg.norm(design.T @ y)


# --- p-values ----------------------------------------------------------------------


def test_zero_coefficient_p_one():
    rng = np.random.default_rng(7)
    x = np.concatenate([np.zeros(50), np.ones(50)])
    y = np.concatenate([np.tile([0.0, 1.0], 25), np.tile([0.0, 1.0], 25)])
    design = np.column_stack([np.ones(100), x])
    fit = fit_logistic_design(design, y, ["1", "x"])
    pvals = coefficient_p_values(fit)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-9)
    assert pvals[1].p_value == pytest.approx(1.0, abs=1e-8)


def test_planted_strong_predictor_significant():
    rng = np.random.default_rng(8)
    n = 1000
    x = rng.normal(size=n)
    y = (rng.random(n) < _sigmoid(-0.5 + 1.5 * x)).astype(float)
    design = np.column_stack([np.ones(n), x])
    fit = fit_logistic_design(design, y, ["1", "x"])
    pvals = coefficient_p_values(fit)
    assert pvals[1].p_value < 0.001


def test_p_values_invariant_to_rescaling():
    rng = np.random.default_rng(9)
    n = 400
    x = rng.normal(size=n)
    y = (rng.random(n) < _sigmoid(0.5 * x)).astype(float)
    d1 = np.column_stack([np.ones(n), x])
    d2 = np.column_stack([np.ones(n), 100.0 * x])
    p1 = coefficient_p_values(fit_logistic_design(d1, y, ["1", "x"]))
    p2 = coefficient_p_values(fit_logistic_design(d2, y, ["1", "x"]))
    assert p1[1].p_value == pytest.approx(p2[1].p_value, rel=1e-6)


def test_linear_logistic_agree_on_saturated_binary_design():
    # balanced saturated design: both fits return the cell means
    x = np.array([0.0] * 80 + [1.0] * 80)
    y = np.array([1.0] * 24 + [0.0] * 56 + [1.0] * 52 + [0.0] * 28)
    design = np.column_stack([np.ones(160), x])
    logit = fit_logistic_design(design, y, ["1", "x"])
    linear = fit_linear_design(design, y, ["1", "x"])
    probs_logit = _sigmoid(design @ logit.coefficients)
    fitted_linear = design @ linear.coefficients
    for mask, mean in (((x == 0), 0.30), ((x == 1), 0.65)):
        assert probs_logit[mask] == pytest.approx(mean, abs=1e-8)
        assert fitted_linear[mask] == pytest.approx(mean, abs=1e-10)


def test_linear_p_values_use_t_reference():
    rng = np.random.default_rng(10)
    design = np.column_stack([np.ones(25), rng.normal(size=25)])
    y = rng.normal(size=25)
    fit = fit_linear_design(design, y, ["1", "x"])
    pvals = coefficient_p_values(fit)
    assert all(0.0 <= r.p_value <= 1.0 for r in pvals)
    assert pvals[0].dof == (23,)


# --- stepwise selection ---------------------------------------------------------------


def test_stepwise_finds_planted_signal():
    rng = np.random.default_rng(11)
    n = 2000
    signal = rng.normal(size=n)
    overrides = {5: signal}
    noise_candidates = [6, 7, 8, 9, 25, 26, 27, 28, 29, 31]
    for idx in noise_candidates:
        overrides[idx] = rng.normal(size=n)
    group = make_group(rng, n, overrides)
    hits = 0
    noise_total = 0
    for seed in range(10):
        r = np.random.default_rng(100 + seed)
        yy = (r.random(n) < _sigmoid(-1.0 + 1.2 * signal)).astype(float)
        spec = stepwise_select(group, [5] + noise_candidates, yy)
        selected = set(spec.main_indices())
        if 5 in selected:
            hits += 1
        noise_total += len(selected - {5})
    assert hits >= 10 * 0.95
    assert noise_total / 10 <= 1.0


def test_stepwise_null_selection_rate():
    # with no signal, selections should track the entry threshold
    rng = np.random.default_rng(12)
    n = 400
    candidates = [2, 5, 6, 7, 8, 9, 25, 26]
    selected_total = 0
    for seed in range(50):
        r = np.random.default_rng(200 + seed)
        group = make_group(r, n)
        y = (r.random(n) < 0.3).astype(float)
        spec = stepwise_select(group, candidates, y)
        selected_total += len(spec.main_indices())
    rate = selected_total / (50 * len(candidates))
    assert rate <= 0.15


def test_stepwise_independent_candidate_gives_intercept_only():
    rng = np.random.default_rng(13)
    n = 3000
    group = make_group(rng, n)
    y = (rng.random(n) < 0.35).astype(float)
    spec = stepwise_select(group, [5], y)
    assert spec.main_indices() == ()


def test_stepwise_phase_two_restricted_to_survivors():
    rng = np.random.default_rng(14)
    n = 3000
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    y = (rng.random(n) < _sigmoid(0.8 * a + 0.8 * b + 1.2 * a * b)).astype(float)
    group = make_group(rng, n, {5: a, 6: b, 7: rng.normal(size=n)})
    spec = stepwise_select(group, [5, 6, 7], y)
    assert {5, 6} <= set(spec.main_indices())
    for term in spec:
        if len(set(term)) == 2:  # an interaction
            assert set(term) <= set(spec.main_indices())


def test_stepwise_skips_rank_deficient_square():
    # binary +-1 candidates have constant squares; they must be skipped
    rng = np.random.default_rng(15)
    n = 2500
    binary = rng.choice([-1.0, 1.0], size=n)
    y = (rng.random(n) < _sigmoid(1.0 * binary)).astype(float)
    group = make_group(rng, n, {16: binary})
    spec = stepwise_select(group, [16], y)
    assert 16 in spec.main_indices()
    assert not any(len(t) == 2 and t[0] == t[1] for t in spec)  # no square


def test_stepwise_accepted_entries_increase_likelihood():
    rng = np.random.default_rng(16)
    n = 1500
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    y = (rng.random(n) < _sigmoid(0.5 * a + 0.9 * b)).astype(float)
    group = make_group(rng, n, {5: a, 6: b})
    spec = stepwise_select(group, [5, 6], y)
    lls = []
    partial = ModelSpec([])
    lls.append(fit_logistic(group, partial, y).log_likelihood)
    for term in list(spec)[1:]:
        partial = partial.with_term(term)
        lls.append(fit_logistic(group, partial, y).log_likelihood)
    assert all(b > a for a, b in zip(lls, lls[1:]))


# --- batched stepwise -------------------------------------------------------------------


def test_standardized_columns_independent_of_design_width():
    # the stepwise design cache relies on each standardized column depending
    # on that column alone, bit for bit
    rng = np.random.default_rng(17)
    group = make_group(rng, 500)
    terms = [(), main(30), main(35), main(40), square(58), interaction(2, 58), main(16)]
    z_all = _standardize(ModelSpec(terms).design_matrix(group))[0]
    for keep in ([0, 3], [0, 1, 4], [0, 6, 5, 2]):
        z = _standardize(ModelSpec([terms[k] for k in keep]).design_matrix(group))[0]
        assert np.array_equal(z, z_all[:, keep])


def test_rank_screen_agrees_with_pivoted_qr():
    rng = np.random.default_rng(18)
    n = 400
    a, b = rng.normal(2.0, 1.0, n), rng.normal(1.0, 2.0, n)
    binary = rng.choice([-1.0, 1.0], size=n)
    group = make_group(rng, n, {30: a, 35: b, 40: a - b, 16: binary})
    base = [(), main(30), main(35), main(16)]
    candidates = [main(40), main(5), square(16), square(30), interaction(30, 35), interaction(16, 30)]
    z, mu, sigma = _standardize(ModelSpec(base + candidates).design_matrix(group))
    norms = np.sqrt(n) * np.hypot(mu, sigma)
    screened = _rank_deficient(z, norms, sigma, len(base), np.arange(len(base), z.shape[1]))
    expected = []
    for term in candidates:
        spec = ModelSpec(base + [term])
        try:
            _check_rank(spec.design_matrix(group), spec.term_names())
            expected.append(False)
        except RankDeficient:
            expected.append(True)
    assert screened.tolist() == expected == [True, False, True, False, False, False]


@pytest.mark.parametrize("seed", [3, 5])
def test_trial_fits_do_not_depend_on_the_batch(seed):
    # a candidate's fit must not depend on which candidates share its call:
    # its log-likelihoods were once summed in row blocks sized by the batch,
    # so near the optimum every step failed the 1e-12 acceptance slack and
    # the fit ran out to MAX_ITER unconverged
    rng = np.random.default_rng(seed)
    n = 3000
    x = np.column_stack([rng.normal(size=(n, 27)), (rng.random((n, 28)) < 0.3).astype(float)])
    y = (rng.random(n) < _sigmoid(-2.0 + 0.5 * x[:, 0])).astype(float)
    z = _standardize(np.column_stack([np.ones(n), x]))[0]
    cols = np.arange(1, 56)
    ll, ok = _trial_fits(z, y, 1, cols)[1:3]
    alone = [_trial_fits(z, y, 1, cols[c : c + 1])[1:3] for c in range(cols.size)]
    blocks = [_trial_fits(z, y, 1, cols[s : s + 7])[1:3] for s in range(0, cols.size, 7)]
    tol = 1e-12 * np.maximum(1.0, np.abs(ll))
    for part_ll, part_ok in (map(np.concatenate, zip(*fits)) for fits in (alone, blocks)):
        assert part_ok.tolist() == ok.tolist()
        assert (np.abs(part_ll - ll) <= tol).all()
    assert ok.all()


@pytest.mark.parametrize("n, seed", [(300, s) for s in range(10)] + [(1000, 5)])
def test_stepwise_matches_per_candidate_oracle(n, seed):
    from icustudy.synth import SynthSpec, synth_study_group

    group = synth_study_group(SynthSpec(n=n, seed=seed, prevalence_target=0.12))
    y = (group.col(1) > 0).astype(float)
    spec = stepwise_select(group, list(COVARIATE_INDICES), y)
    assert spec.to_text() == stepwise_oracle(group, list(COVARIATE_INDICES), y).to_text()


@pytest.mark.parametrize(
    "setting, value",
    [("MAX_ITER", 6), ("MAX_ITER", 7), ("CANDIDATE_BLOCK", 7), ("BLOCK_ELEMENTS", 500)],
)
def test_stepwise_matches_oracle_at_small_limits(monkeypatch, setting, value):
    # fits stopped by the iteration limit, several candidate blocks per
    # step and many row blocks per evaluation must not change a selection
    from icustudy import regress
    from icustudy.synth import SynthSpec, synth_study_group

    monkeypatch.setattr(regress, setting, value)
    for seed in (1, 2):
        group = synth_study_group(SynthSpec(n=300, seed=seed, prevalence_target=0.12))
        y = (group.col(1) > 0).astype(float)
        spec = stepwise_select(group, list(COVARIATE_INDICES), y)
        assert len(spec) > 1
        assert spec.to_text() == stepwise_oracle(group, list(COVARIATE_INDICES), y).to_text()


@pytest.mark.parametrize("first, second", [(30, 35), (35, 30)])
@pytest.mark.parametrize("order", [1, -1])
def test_stepwise_tie_goes_to_lower_index(first, second, order):
    # x40 = x_first - x_second: once x40 is in the model, adding either
    # partner spans the same design, so their gains tie up to rounding
    chosen = []
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        n = 1500
        a, b = rng.normal(size=n), rng.normal(size=n)
        y = (rng.random(n) < _sigmoid(1.5 * (a - b) + 0.6 * a)).astype(float)
        group = make_group(rng, n, {first: a, second: b, 40: a - b})
        spec = stepwise_select(group, [40, 30, 35][::order], y)
        assert list(spec)[1] == main(40)
        chosen.append(list(spec)[2])
    assert chosen == [main(30)] * 6


def test_stepwise_warns_once_per_pass(caplog):
    from icustudy.synth import SynthSpec, synth_study_group

    group = synth_study_group(SynthSpec(n=1000, seed=5, prevalence_target=0.12))
    y = (group.col(1) > 0).astype(float)
    with caplog.at_level(logging.DEBUG, logger="icustudy.regress"):
        stepwise_select(group, list(COVARIATE_INDICES), y)
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert 1 <= len(warnings) <= 2
    assert warnings[-1] == (
        "stepwise: skipped candidates: 3 as unconverged or separated (x42*x42, x32*x44, x34*x34); "
        "2 as rank deficient (x24*x24, x46*x46)"
    )
    assert any("did not converge" in r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG)
