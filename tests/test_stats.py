import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from icustudy.errors import EmptyInput, IcuStudyError, InvalidDof, NumericError, ZeroMarginal, ZeroVariance
from icustudy.stats import (
    chi2_tail,
    chi_squared_2x2,
    evidence_band,
    f_tail,
    five_number_summary,
    one_way_anova,
    t_tail_two_sided,
    t_test_two_sample,
    two_way_anova_2xk,
)

from oracles import (
    chi2_2x2_oracle,
    five_number_oracle,
    one_way_f_oracle,
    two_way_anova_2xk_oracle,
    two_way_f_oracle,
    welch_t_oracle,
)


# --- five-number summary ----------------------------------------------------


def test_five_number_single_value():
    assert five_number_summary([5]).as_tuple() == (5, 5, 5, 5, 5)


def test_five_number_exact_order_statistics():
    assert five_number_summary([1, 2, 3, 4, 5]).as_tuple() == (1, 2, 3, 4, 5)


def test_five_number_matches_sort_oracle():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=1000)
    got = five_number_summary(xs).as_tuple()
    want = five_number_oracle(xs)
    assert got == pytest.approx(want, rel=1e-12)


def test_five_number_empty_raises():
    with pytest.raises(EmptyInput):
        five_number_summary([])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_five_number_is_ordered(xs):
    f = five_number_summary(xs)
    assert f.min <= f.q1 <= f.median <= f.q3 <= f.max


# --- one-way ANOVA ----------------------------------------------------------


def test_one_way_identical_groups_f_zero():
    res = one_way_anova([[1, 2, 3], [1, 2, 3]])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_one_way_zero_within_variance_degenerate():
    res = one_way_anova([[0, 0], [1, 1]])
    assert res.flag == "degenerate"
    assert math.isinf(res.statistic)
    assert res.p_value == 0.0


def test_one_way_all_constant_degenerate_nan():
    res = one_way_anova([[2, 2], [2, 2]])
    assert res.flag == "degenerate"
    assert math.isnan(res.statistic)


def test_one_way_matches_definitional_oracle():
    rng = np.random.default_rng(11)
    groups = [rng.normal(loc, 1.0, size=n).tolist() for loc, n in ((0, 8), (0.5, 13), (1.2, 21))]
    res = one_way_anova(groups)
    assert res.statistic == pytest.approx(one_way_f_oracle(groups), rel=1e-12)


def test_one_way_matrix_columns_equal_their_own_calls():
    # balance takes f_pre for every covariate from one call; each column
    # must keep the bits of its own call, degenerate and NaN columns too
    rng = np.random.default_rng(21)
    n = 40
    arm = rng.random(n) < 0.3
    values = np.column_stack([
        rng.normal(size=n) * 1e3,
        rng.normal(size=n) * 1e-4 + 7.0,
        np.full(n, 2.5),  # constant: NaN, degenerate
        np.where(arm, 1.0, 0.0),  # constant within each arm: inf, degenerate
        np.where(np.arange(n) == 5, np.nan, rng.normal(size=n)),
        (rng.random(n) < 0.5).astype(float),
    ])
    got = one_way_anova([values[arm], values[~arm]])
    assert got.statistic.shape == got.p_value.shape == (values.shape[1],)
    assert got.flag == (None, None, "degenerate", "degenerate", None, None)
    for j in range(values.shape[1]):
        alone = one_way_anova([values[arm, j], values[~arm, j]])
        assert type(alone.statistic) is float and alone.flag == got.flag[j] and alone.dof == got.dof
        for a, b in ((alone.statistic, got.statistic[j]), (alone.p_value, got.p_value[j])):
            assert a == b or (math.isnan(a) and math.isnan(b))
    assert math.isnan(got.statistic[2]) and math.isinf(got.statistic[3]) and math.isnan(got.statistic[4])


def test_one_way_decomposition_identity():
    # S1 + S2 equals the total sum of squares about the grand mean
    rng = np.random.default_rng(3)
    groups = [rng.normal(i, 1, size=10) for i in range(3)]
    all_values = np.concatenate(groups)
    total = ((all_values - all_values.mean()) ** 2).sum()
    grand = all_values.mean()
    s1 = sum(g.size * (g.mean() - grand) ** 2 for g in groups)
    s2 = sum(((g - g.mean()) ** 2).sum() for g in groups)
    assert s1 + s2 == pytest.approx(total, rel=1e-9)


# --- two-way ANOVA ----------------------------------------------------------


def _random_layout(rng, per_cell_low=3, per_cell_high=30, k=5):
    values, treatment, subclass = [], [], []
    for s in range(1, k + 1):
        for t in (0, 1):
            n = int(rng.integers(per_cell_low, per_cell_high))
            vals = rng.normal(t * rng.normal() + s * 0.3, 1.0, size=n)
            values.extend(vals.tolist())
            treatment.extend([t] * n)
            subclass.extend([s] * n)
    return values, treatment, subclass


def test_two_way_constant_values_zero():
    values = [3.0] * 40
    treatment = ([0] * 4 + [1] * 4) * 5
    subclass = sum(([s] * 8 for s in range(1, 6)), [])
    res = two_way_anova_2xk(values, treatment, subclass)
    assert res.f_primary == 0.0
    assert res.f_secondary == 0.0


def test_two_way_additive_noiseless_no_interaction():
    # 2x2 balanced, cell mean = row effect + column effect, zero noise
    values, treatment, subclass = [], [], []
    for t, a in ((0, 0.0), (1, 2.0)):
        for s, b in ((1, 1.0), (2, 5.0)):
            for _ in range(4):
                values.append(a + b)
                treatment.append(t)
                subclass.append(s)
    res = two_way_anova_2xk(values, treatment, subclass)
    assert res.f_secondary == 0.0
    assert res.ss["s1_ab"] == pytest.approx(0.0, abs=1e-12)


def test_two_way_matches_step_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        values, treatment, subclass = _random_layout(rng)
        res = two_way_anova_2xk(values, treatment, subclass)
        f1, f2 = two_way_f_oracle(values, treatment, subclass)
        assert res.f_primary == pytest.approx(f1, rel=1e-9)
        assert res.f_secondary == pytest.approx(f2, rel=1e-9)


def test_two_way_scale_invariance():
    rng = np.random.default_rng(9)
    values, treatment, subclass = _random_layout(rng)
    res1 = two_way_anova_2xk(values, treatment, subclass)
    res2 = two_way_anova_2xk([7.5 * v for v in values], treatment, subclass)
    assert res1.f_primary == pytest.approx(res2.f_primary, rel=1e-9)
    assert res1.f_secondary == pytest.approx(res2.f_secondary, rel=1e-9)


def test_two_way_label_permutation_invariance():
    rng = np.random.default_rng(13)
    values, treatment, subclass = _random_layout(rng)
    res1 = two_way_anova_2xk(values, treatment, subclass)
    perm = rng.permutation(len(values))
    res2 = two_way_anova_2xk(
        [values[i] for i in perm], [treatment[i] for i in perm], [subclass[i] for i in perm]
    )
    assert res1.f_primary == pytest.approx(res2.f_primary, rel=1e-12)
    assert res1.f_secondary == pytest.approx(res2.f_secondary, rel=1e-12)


def test_two_way_decomposition_identity():
    rng = np.random.default_rng(17)
    values, treatment, subclass = _random_layout(rng)
    res = two_way_anova_2xk(values, treatment, subclass)
    assert res.ss["s_cells"] == pytest.approx(
        res.ss["s1_a"] + res.ss["s1_b"] + res.ss["s1_ab"], rel=1e-9
    )
    assert res.ss["s_cells"] >= res.ss["s1_a"] - 1e-9
    assert all(res.ss[k] >= -1e-9 for k in ("s1_a", "s1_b", "s1_ab", "s2_within"))


def test_two_way_empty_arm_stratum_warns():
    values = [1.0, 2.0, 3.0, 2.0, 1.5, 2.5, 0.5, 1.0]
    treatment = [0, 0, 1, 1, 0, 1, 0, 0]
    subclass = [1, 1, 1, 1, 2, 2, 3, 3]  # stratum 3 has no treated patients
    res = two_way_anova_2xk(values, treatment, subclass)
    assert any("stratum 3" in w for w in res.warnings)
    assert math.isfinite(res.f_primary)


def test_two_way_no_complete_stratum_raises():
    from icustudy.errors import AllCellsEmptyForTreatment

    values = [1.0, 2.0, 3.0, 4.0]
    treatment = [0, 0, 1, 1]
    subclass = [1, 1, 2, 2]
    with pytest.raises(AllCellsEmptyForTreatment):
        two_way_anova_2xk(values, treatment, subclass)


# --- two-way ANOVA of a matrix, column by column ----------------------------


_CELL_VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 0.1, 1.0, 3.0, 1e-300, float("nan")]),
)


@st.composite
def _matrix_layouts(draw):
    """(values (n, m), treatment, subclass) over up to 12 strata, some of
    them holding one arm only or a single one holding both, with NaN cells,
    constant columns, columns constant within each cell and normal ones."""
    k = draw(st.integers(2, 12))
    counts = draw(arrays(np.int64, (k, 2), elements=st.integers(0, 30)))
    if draw(st.booleans()):  # a single stratum holds both arms
        counts[1:, draw(st.integers(0, 1))] = 0
    cells = np.repeat(np.arange(2 * k), counts.ravel())  # stratum * 2 + arm
    cells = cells[draw(st.permutations(range(len(cells))))]
    n, m = len(cells), draw(st.integers(1, 6))
    values = draw(arrays(np.float64, (n, m), elements=_CELL_VALUES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for j in range(m):
        kind = draw(st.sampled_from(["drawn", "normal", "constant", "cell-constant"]))
        if kind == "normal":
            values[:, j] = rng.normal(size=n) * 10.0 ** rng.integers(-3, 7)
        elif kind == "constant":
            values[:, j] = draw(st.sampled_from([0.0, 2.5, 0.1]))
        elif kind == "cell-constant":  # no within-cell variance
            values[:, j] = rng.choice([0.0, 0.1, 2.5, 7.0], size=2 * k)[cells]
    return values, cells % 2, cells // 2 + 1


def _close(got, want, scale=0.0) -> bool:
    """Equal, both NaN, or within 1e-12 of the larger of |want| and `scale`."""
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= 1e-12 * max(abs(want), scale)


@given(_matrix_layouts())
@settings(max_examples=300, deadline=None)
def test_two_way_matrix_columns_match_column_oracle(layout):
    values, treatment, subclass = layout
    m = values.shape[1]
    try:
        wants = [two_way_anova_2xk_oracle(values[:, j], treatment, subclass) for j in range(m)]
    except IcuStudyError as exc:
        with pytest.raises(type(exc)) as raised:
            two_way_anova_2xk(values, treatment, subclass)
        assert str(raised.value) == str(exc)
        return
    got = two_way_anova_2xk(values, treatment, subclass)
    assert got.f_primary.shape == got.f_secondary.shape == (m,) and len(got.warnings) == m
    for j, want in enumerate(wants):
        assert got.dof == want.dof
        assert got.warnings[j] == want.warnings
        ss = {name: got.ss[name][j] for name in want.ss}
        # the interaction is a difference of sums of squares, so its
        # rounding is relative to the cell sum of squares
        for name in want.ss:
            assert _close(ss[name], want.ss[name], want.ss["s_cells"] if name == "s1_ab" else 0.0), name
        # squared deviations from the cell means square arrays in both, so
        # they are bit-equal where the cell means are
        for name in ("total", "s2_within"):
            assert ss[name] == want.ss[name] or (math.isnan(ss[name]) and math.isnan(want.ss[name])), name
        assert _close(got.f_primary[j], want.f_primary)
        s_cells, s2 = np.float64(want.ss["s_cells"]), np.float64(want.ss["s2_within"])
        with np.errstate(divide="ignore", invalid="ignore"):
            f_cells = s_cells / max(want.dof[2], 1) / (s2 / want.dof[3])
        assert _close(got.f_secondary[j], want.f_secondary, abs(f_cells))
        # a column alone gives the same bits, as floats and a tuple
        alone = two_way_anova_2xk(values[:, j], treatment, subclass)
        assert type(alone.f_primary) is float and type(alone.warnings) is tuple
        assert alone.warnings == got.warnings[j]
        for a, b in ((alone.f_primary, got.f_primary[j]), (alone.f_secondary, got.f_secondary[j])):
            assert a == b or (math.isnan(a) and math.isnan(b))


def test_two_way_matrix_shape_mismatch_raises():
    with pytest.raises(EmptyInput, match="equal length"):
        two_way_anova_2xk(np.zeros((6, 2)), [0, 1] * 2, [1, 2] * 2)
    with pytest.raises(EmptyInput, match="equal length"):
        two_way_anova_2xk(np.zeros((4, 2, 2)), [0, 1] * 2, [1, 2] * 2)


# --- chi-squared ------------------------------------------------------------


def test_chi2_homogeneous_table():
    res = chi_squared_2x2([[10, 10], [10, 10]])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_chi2_matches_direct_arithmetic():
    table = [[20, 10], [10, 20]]
    res = chi_squared_2x2(table)
    assert res.statistic == pytest.approx(chi2_2x2_oracle(table), rel=1e-12)


def test_chi2_zero_marginal_raises():
    with pytest.raises(ZeroMarginal):
        chi_squared_2x2([[0, 0], [5, 5]])


# --- t test -----------------------------------------------------------------


def test_t_identical_samples():
    res = t_test_two_sample([1, 2, 3, 4], [1, 2, 3, 4])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_t_matches_formula_oracle():
    a = [0.0, 0.0, 0.0, 1.0]
    b = [1.0, 1.0, 1.0, 0.0]
    res = t_test_two_sample(a, b)
    oracle = welch_t_oracle(a, b)
    assert res.statistic == pytest.approx(oracle[0], rel=1e-12)
    assert res.dof[0] == pytest.approx(oracle[1], rel=1e-12)


def test_t_oracle_unequal_sizes_and_variances():
    # the Welch dof genuinely differs from the pooled test's n_a + n_b - 2 on this layout
    rng = np.random.default_rng(29)
    a = rng.normal(0.0, 4.0, size=6).tolist()
    b = rng.normal(1.0, 0.5, size=21).tolist()
    res = t_test_two_sample(a, b)
    oracle = welch_t_oracle(a, b)
    assert res.statistic == pytest.approx(oracle[0], rel=1e-12)
    assert res.dof[0] == pytest.approx(oracle[1], rel=1e-12)
    assert abs(oracle[1] - (len(a) + len(b) - 2)) > 1.0


def test_t_antisymmetry():
    rng = np.random.default_rng(23)
    a = rng.normal(0, 1, size=12).tolist()
    b = rng.normal(0.7, 2, size=9).tolist()
    r1 = t_test_two_sample(a, b)
    r2 = t_test_two_sample(b, a)
    assert r1.statistic == pytest.approx(-r2.statistic, rel=1e-12)
    assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12)


def test_t_zero_variance_raises():
    with pytest.raises(ZeroVariance):
        t_test_two_sample([2, 2, 2], [2, 2, 2])


# --- tails ------------------------------------------------------------------


def test_chi2_tail_at_zero():
    assert chi2_tail(0.0, 1) == 1.0


def test_t_tail_at_zero():
    assert t_tail_two_sided(0.0, 7) == pytest.approx(1.0, abs=1e-12)


def test_chi2_tail_spot_value():
    # 95th percentile of chi-squared with one degree of freedom
    assert chi2_tail(3.8415, 1) == pytest.approx(0.05, abs=1e-4)


def test_tail_functions_at_zero_and_bad_dof():
    assert chi2_tail(0.0, 3) == 1.0
    assert t_tail_two_sided(0.0, 3) == pytest.approx(1.0)
    assert f_tail(0.0, 2, 5) == 1.0
    with pytest.raises(InvalidDof):
        chi2_tail(1.0, 0)
    with pytest.raises(InvalidDof):
        t_tail_two_sided(1.0, 0)
    with pytest.raises(InvalidDof):
        f_tail(1.0, 1, 0)


@given(st.floats(0.01, 50.0), st.floats(0.02, 50.0))
@settings(max_examples=50)
def test_tail_monotone_in_statistic(a, b):
    lo, hi = sorted((a, b))
    if hi - lo < 1e-9:
        return
    assert chi2_tail(hi, 3) < chi2_tail(lo, 3)
    assert f_tail(hi, 2, 7) < f_tail(lo, 2, 7)
    assert t_tail_two_sided(hi, 5) < t_tail_two_sided(lo, 5)


# --- evidence bands -----------------------------------------------------------


@pytest.mark.parametrize(
    "p,band",
    [
        (0.5, "absence"),
        (0.101, "absence"),
        (0.1, "weak"),
        (0.06, "weak"),
        (0.05, "moderate"),
        (0.02, "moderate"),
        (0.01, "strong"),
        (0.001, "strong"),
        (0.0009, "very strong"),
    ],
)
def test_evidence_bands(p, band):
    assert evidence_band(p) == band


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_evidence_band_of_a_non_finite_p_value_raises(p):
    # every comparison with NaN is false, so NaN used to read "very strong"
    with pytest.raises(NumericError, match=f"p-value must be finite, got {p}"):
        evidence_band(p)
