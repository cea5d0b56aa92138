"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: plain Python loops and formula
transcriptions, no shared code with the library under test.
"""

from __future__ import annotations

import math
import re


# --- order statistics -----------------------------------------------------------


def five_number_oracle(xs):
    s = sorted(float(v) for v in xs)
    n = len(s)

    def at(p):
        pos = (n - 1) * p
        lo = math.floor(pos)
        hi = math.ceil(pos)
        return s[lo] + (pos - lo) * (s[hi] - s[lo])

    return (s[0], at(0.25), at(0.5), at(0.75), s[-1])


# --- ANOVA ---------------------------------------------------------------------


def one_way_f_oracle(groups):
    """F from the raw definitional sums: S1 between, S2 within."""
    all_values = [v for g in groups for v in g]
    n = len(all_values)
    k = len(groups)
    grand = sum(all_values) / n
    s1 = 0.0
    s2 = 0.0
    for g in groups:
        m = sum(g) / len(g)
        s1 += len(g) * (m - grand) ** 2
        for v in g:
            s2 += (v - m) ** 2
    return (s1 / (k - 1)) / (s2 / (n - k))


def two_way_f_oracle(values, treatment, subclass):
    """Step-by-step 2 x K unweighted cell-means ANOVA.

    Follows the published 15-step recipe: build the cells, take the
    unweighted grand and marginal means of cell means, form the
    between-group sums of squares for each factor, subtract to get the
    interaction sum of squares, and divide by the pooled within-cell
    error.  (The recipe's printed within-term difference for the
    interaction is always negative as written; the usable error term for
    both ratios is the within-cell sum of squares.)

    Returns (f_primary, f_secondary) or raises ValueError when no stratum
    holds both treatment arms.
    """
    # Step 1: collect the cells of the two-way layout, strata complete in
    # both arms only.
    t_levels = sorted(set(treatment))
    s_levels = sorted(set(subclass))
    assert len(t_levels) == 2
    cells = {}
    complete = []
    for s in s_levels:
        a = [v for v, t, c in zip(values, treatment, subclass) if c == s and t == t_levels[0]]
        b = [v for v, t, c in zip(values, treatment, subclass) if c == s and t == t_levels[1]]
        if a and b:
            cells[(0, s)] = a
            cells[(1, s)] = b
            complete.append(s)
    if not complete:
        raise ValueError("no complete stratum")
    kk = len(complete)

    def mean(vs):
        return sum(vs) / len(vs)

    cell_means = {key: mean(vs) for key, vs in cells.items()}
    # harmonic mean cell size shared by every between-group term
    n_h = (2 * kk) / sum(1.0 / len(vs) for vs in cells.values())

    # Step 2: overall mean of the cell means.
    m = sum(cell_means.values()) / (2 * kk)
    # Steps 3-4: treatment-row means of cell means.
    m_a = [mean([cell_means[(i, s)] for s in complete]) for i in (0, 1)]
    # Step 5: between-groups sum of squares for the treatment factor.
    s1_a = n_h * kk * sum((ma - m) ** 2 for ma in m_a)
    # Steps 6-7-8 give the treatment F once the error term is known.
    # Step 9: repeat for the subclass factor.
    m_b = {s: mean([cell_means[(0, s)], cell_means[(1, s)]]) for s in complete}
    s1_b = n_h * 2 * sum((mb - m) ** 2 for mb in m_b.values())
    # Step 10: between-groups sum of squares over all 2K cells.
    s_bw = n_h * sum((cm - m) ** 2 for cm in cell_means.values())
    # Step 11: interaction sum of squares by subtraction.
    s1_ab = s_bw - s1_a - s1_b
    # Steps 12-13: pooled within-cell error.
    s_wi = 0.0
    n = 0
    for vs in cells.values():
        cm = mean(vs)
        n += len(vs)
        for v in vs:
            s_wi += (v - cm) ** 2
    # Steps 14-15: form both ratios.
    dof_err = n - 2 * kk
    f_primary = (s1_a / 1.0) / (s_wi / dof_err)
    f_secondary = (s1_ab / (kk - 1)) / (s_wi / dof_err)
    return f_primary, f_secondary


# --- simple tests -----------------------------------------------------------------


def chi2_2x2_oracle(table):
    """Sum of (O - E)^2 / E by direct arithmetic."""
    r0 = table[0][0] + table[0][1]
    r1 = table[1][0] + table[1][1]
    c0 = table[0][0] + table[1][0]
    c1 = table[0][1] + table[1][1]
    n = r0 + r1
    stat = 0.0
    for i, row_total in ((0, r0), (1, r1)):
        for j, col_total in ((0, c0), (1, c1)):
            e = row_total * col_total / n
            stat += (table[i][j] - e) ** 2 / e
    return stat


def welch_t_oracle(a, b):
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    va = sum((v - ma) ** 2 for v in a) / (len(a) - 1)
    vb = sum((v - mb) ** 2 for v in b) / (len(b) - 1)
    se2 = va / len(a) + vb / len(b)
    t = (ma - mb) / math.sqrt(se2)
    df = se2**2 / ((va / len(a)) ** 2 / (len(a) - 1) + (vb / len(b)) ** 2 / (len(b) - 1))
    return t, df


def student_t_oracle(a, b):
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    va = sum((v - ma) ** 2 for v in a) / (len(a) - 1)
    vb = sum((v - mb) ** 2 for v in b) / (len(b) - 1)
    pooled = ((len(a) - 1) * va + (len(b) - 1) * vb) / (len(a) + len(b) - 2)
    t = (ma - mb) / math.sqrt(pooled * (1 / len(a) + 1 / len(b)))
    return t, len(a) + len(b) - 2


# --- tail probabilities by adaptive quadrature ------------------------------------------


def chi2_tail_quadrature(stat, df):
    import mpmath

    df = mpmath.mpf(df)
    norm = mpmath.power(2, df / 2) * mpmath.gamma(df / 2)
    density = lambda x: mpmath.power(x, df / 2 - 1) * mpmath.e ** (-x / 2) / norm
    return float(mpmath.quad(density, [stat, mpmath.inf]))


def t_tail_two_sided_quadrature(stat, df):
    import mpmath

    df = mpmath.mpf(df)
    norm = mpmath.gamma((df + 1) / 2) / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))
    density = lambda x: norm * mpmath.power(1 + x * x / df, -(df + 1) / 2)
    return float(2 * mpmath.quad(density, [abs(stat), mpmath.inf]))


def f_tail_quadrature(stat, d1, d2):
    import mpmath

    d1 = mpmath.mpf(d1)
    d2 = mpmath.mpf(d2)
    norm = (
        mpmath.power(d1 / d2, d1 / 2)
        * mpmath.gamma((d1 + d2) / 2)
        / (mpmath.gamma(d1 / 2) * mpmath.gamma(d2 / 2))
    )
    density = lambda x: norm * mpmath.power(x, d1 / 2 - 1) * mpmath.power(
        1 + d1 * x / d2, -(d1 + d2) / 2
    )
    return float(mpmath.quad(density, [stat, mpmath.inf]))


# --- joins ------------------------------------------------------------------------


def nested_loop_join(ids, values, component):
    """Quadratic reference join: one full scan of values per id."""
    out = []
    for key in ids:
        k = getattr(key, component)
        matches = [payload for vk, payload in values if vk == k]
        out.append((key, matches if matches else None))
    return out


# --- lexicon search -----------------------------------------------------------------


def mentions_drug_oracle(text, lexicon):
    """One regex search per lexicon entry, each hit checked for a
    non-alphanumeric character (or the text's edge) on both sides."""
    lowered = text.lower()
    for entry in lexicon.entries:
        for m in re.finditer(re.escape(entry), lowered):
            before = lowered[m.start() - 1] if m.start() > 0 else " "
            after = lowered[m.end()] if m.end() < len(lowered) else " "
            if not before.isalnum() and not after.isalnum():
                return True
    return False


# --- stepwise selection -------------------------------------------------------------

STEPWISE_TIE_TOL = 1e-9


def forward_pass_oracle(group, y, spec, candidates, p_enter):
    """One forward phase the per-candidate way: every trial design goes
    through `fit_logistic` on its own.  Gains within
    STEPWISE_TIE_TOL * max(1, |ll_current|) of the best are ties, won by
    the earliest candidate (mains by index, then squares, then
    interactions)."""
    from icustudy.errors import RankDeficient
    from icustudy.regress import fit_logistic
    from icustudy.stats import chi2_tail

    rank = {"main": 0, "square": 1, "interaction": 2}
    current = spec
    current_ll = fit_logistic(group, current, y).log_likelihood
    remaining = sorted(candidates, key=lambda t: (rank[t.kind],) + t.indices())
    while remaining:
        gains = []
        for term in list(remaining):
            try:
                fit = fit_logistic(group, current.with_term(term), y)
            except RankDeficient:
                remaining.remove(term)
                continue
            if fit.converged:
                gains.append((fit.log_likelihood - current_ll, term, fit.log_likelihood))
        if not gains:
            break
        best = max(g for g, _, _ in gains)
        tol = STEPWISE_TIE_TOL * max(1.0, abs(current_ll))
        gain, term, ll = next(g for g in gains if g[0] >= best - tol)
        if chi2_tail(2.0 * max(gain, 0.0), 1) >= p_enter or gain <= 0.0:
            break
        current = current.with_term(term)
        current_ll = ll
        remaining.remove(term)
    return current


def stepwise_oracle(group, candidates, y, p_enter=0.05):
    """Two-phase forward selection built on `forward_pass_oracle`."""
    from icustudy.regress import ModelSpec, intercept, interaction, main, square

    spec = forward_pass_oracle(group, y, ModelSpec([intercept()]), [main(i) for i in candidates], p_enter)
    survivors = spec.main_indices()
    if not survivors:
        return spec
    phase2 = [square(i) for i in survivors]
    phase2 += [interaction(a, b) for k, a in enumerate(survivors) for b in survivors[k + 1 :]]
    return forward_pass_oracle(group, y, spec, phase2, p_enter)
