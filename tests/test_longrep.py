import math

import numpy as np
import pytest

from cosetcap import (ChannelFamily, block_table, family_eval, qr_coefficients,
                      s_rb_estimate, s_rb_rep)
from cosetcap.longrep import (expect_neg_log1p_moments, expect_neg_log1p_positive,
                              s_rb_estimate_channel)
from cosetcap.rep import MultisetBudgetError

DEPOL = ChannelFamily("depolarizing")
FAMILIES = [ChannelFamily("depolarizing"), ChannelFamily("independent_xz"),
            ChannelFamily("two_pauli")]


def test_qr_against_block_table():
    ch = family_eval(DEPOL, 0.06)
    table = qr_coefficients(5, ch)
    bt = block_table(5, "X", ch)
    for k in range(6):
        for b in (0, 1):
            a = bt.h[b, k] + bt.h[b, 5 - k]
            assert table.q[b, k] == pytest.approx((bt.h[b, k] - bt.h[b, 5 - k]) / a,
                                                  rel=1e-12)
            assert table.r[b, k] == pytest.approx(
                (bt.h[1 - b, k] + bt.h[1 - b, 5 - k]) / a, rel=1e-12)
            assert table.ln_h_sum[b, k] == pytest.approx(math.log(a), rel=1e-12)
    assert table.weight.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(table.q) < 1.0 + 1e-15)


def test_qr_single_qubit_blocks():
    ch = family_eval(DEPOL, 0.1)
    table = qr_coefficients(1, ch)
    # h cells of an [[1,1]] block are the raw letter probabilities
    assert table.weight.ravel() == pytest.approx(
        [ch.p_i, ch.p_z, ch.p_x, ch.p_y], abs=1e-15)


def test_qr_even_block_midpoint_is_zero():
    table = qr_coefficients(4, family_eval(DEPOL, 0.06))
    assert table.q[0, 2] == 0.0 and table.q[1, 2] == 0.0


def _block_atoms(n, ch):
    """Block table h, h-sums a = h_k + h_{n-k}, cell weights w and the mask
    of cells with w > 0."""
    h = block_table(n, "X", ch).h
    comb = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    w = (h * comb).ravel() / (h * comb).sum()
    return h, h + h[:, ::-1], w, w > 0.0


def _enumerated_q_term(n, m, ch):
    """E[-ln(1 + prod q)] by direct enumeration of all (b, k)^m outcomes.

    Built from the block table, not from qr_coefficients: 1 - |q| is taken
    as 2 min(h_k, h_{n-k}) / a, so 1 + prod q stays accurate where q
    rounds to -1 at low noise.
    """
    h, a, w, live = _block_atoms(n, ch)
    sign = np.sign(h - h[:, ::-1]).ravel()[live]
    with np.errstate(divide="ignore"):  # q = 0 at k = n/2
        log_abs = np.log1p(-2.0 * np.minimum(h, h[:, ::-1]).ravel()[live]
                           / a.ravel()[live])
    weight, prod_sign, log_prod = np.ones(1), np.ones(1), np.zeros(1)
    for _ in range(m):
        weight = np.multiply.outer(weight, w[live]).ravel()
        prod_sign = np.multiply.outer(prod_sign, sign).ravel()
        log_prod = np.add.outer(log_prod, log_abs).ravel()
    one_plus = np.where(prod_sign > 0.0, 1.0 + np.exp(log_prod), -np.expm1(log_prod))
    return float(weight @ -np.log(one_plus))


def _enumerated_r_term(n, m, ch):
    """E[-ln(1 + prod r)] by direct enumeration of all (b, k)^m outcomes,
    from the block table: r = a(1-b) / a(b), and r = 0 zeroes the product."""
    _, a, w, live = _block_atoms(n, ch)
    with np.errstate(divide="ignore"):  # r = 0 where a(1-b) vanishes
        log_r = np.log(a[::-1].ravel()[live]) - np.log(a.ravel()[live])
    weight, log_prod = np.ones(1), np.zeros(1)
    for _ in range(m):
        weight = np.multiply.outer(weight, w[live]).ravel()
        log_prod = np.add.outer(log_prod, log_r).ravel()
    return float(weight @ -np.logaddexp(0.0, log_prod))


def _r_side(n, m, ch, refine=1):
    table = qr_coefficients(n, ch)
    w, r = table.weight.ravel(), table.r.ravel()
    pos = (w > 0.0) & (r > 0.0)
    return expect_neg_log1p_positive(np.log(r[pos]), w[pos], m, refine=refine)


def test_positive_expectation_matches_enumeration():
    # the characteristic-function quadrature against every (k, b)^m outcome,
    # from p = 0 (every live r is 0) to p = 0.2
    worst = 0.0
    for fam in FAMILIES:
        for p in (0.0, 1e-6, 1e-3, 0.02, 0.0637, 0.11, 0.2):
            ch = family_eval(fam, p)
            for n in range(1, 6):
                for m in range(1, 5):
                    worst = max(worst, abs(_r_side(n, m, ch) - _enumerated_r_term(n, m, ch)))
    assert worst <= 1e-13


@pytest.mark.parametrize("n,m,fam,p,tol", [
    (7, 61, "depolarizing", 1e-6, 1e-12),
    (7, 301, "depolarizing", 0.0635, 1e-12),
    (5, 501, "independent_xz", 0.112, 1e-12),
    (3, 2000, "independent_xz", 0.112, 5e-11)])
def test_r_side_node_refinement(n, m, fam, p, tol):
    # 4x the panels moves S_RB by no more than rounding, whose floor grows
    # as m max|ln r|
    ch = family_eval(ChannelFamily(fam), p)
    shift = abs(_r_side(n, m, ch, refine=4) - _r_side(n, m, ch)) / math.log(2.0)
    assert shift <= tol


def test_convolved_expectation_matches_enumeration():
    # the moment series against every (k, b)^m outcome, from p = 0 (all
    # |q| = 1) through |q| within 1e-6 of 1 (the series tail) to p = 0.2
    worst = 0.0
    for fam in FAMILIES:
        for p in (0.0, 1e-6, 1e-3, 0.02, 0.0637, 0.11, 0.2):
            ch = family_eval(fam, p)
            for n in range(1, 6):
                table = qr_coefficients(n, ch)
                for m in range(1, 5):
                    got = expect_neg_log1p_moments(np.abs(table.q.ravel()),
                                                   table.weight.ravel(), m)
                    worst = max(worst, abs(got - _enumerated_q_term(n, m, ch)))
    assert worst <= 1e-12


def _sign_averaged(big_q):
    """-((1+Q) ln(1+Q) + (1-Q) ln(1-Q)) / 2, the series' closed form."""
    return -0.5 * ((1.0 + big_q) * math.log1p(big_q)
                   + (0.0 if big_q == 1.0 else (1.0 - big_q) * math.log1p(-big_q)))


def test_signed_distribution_invariants():
    # the sign pairing the moment series relies on: atoms k and n-k have
    # opposite q, and the positive one carries (1 + |q|)/2 of the pair
    for fam in FAMILIES:
        for p in (1e-3, 0.06, 0.2):
            for n in (2, 3, 5):
                table = qr_coefficients(n, family_eval(fam, p))
                assert table.q == pytest.approx(-table.q[:, ::-1], abs=1e-15)
                pair = table.weight + table.weight[:, ::-1]
                assert table.weight == pytest.approx(0.5 * pair * (1.0 + table.q),
                                                     abs=1e-15)
    # one atom of magnitude c: the expectation is the closed form at Q = c^m,
    # also where c is so close to 1 that the Euler-Maclaurin tail carries it
    for c in (0.0, 0.3, 0.9, 1.0 - 1e-5, 1.0 - 1e-9, 1.0):
        for m in (1, 2, 7, 100):
            got = expect_neg_log1p_moments(np.array([c]), np.array([1.0]), m)
            assert got == pytest.approx(_sign_averaged(c ** m), abs=1e-14)
    # one r atom of weight 1 - w0 next to an r = 0 mass w0: the product is
    # r^m with probability (1 - w0)^m and 0 otherwise.  The m E[Y] / 2 term
    # cancels against the integral, an absolute floor of ~eps * m |ln r|
    for logr in (-30.0, -2.0, 0.0, 0.7, 25.0):
        for w0 in (0.0, 0.4):
            for m in (1, 2, 7, 100):
                got = expect_neg_log1p_positive(np.array([logr]), np.array([1.0 - w0]), m)
                want = -(1.0 - w0) ** m * np.logaddexp(0.0, m * logr)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-15 * m * abs(logr))


def test_estimate_m1_reduces_to_block_value():
    for fam in FAMILIES:
        ch = family_eval(fam, 0.09)
        for n in (3, 4, 5):
            est = s_rb_estimate_channel(n, 1, ch)
            assert est.s_rb == pytest.approx(s_rb_rep(n, 1, ch), abs=1e-12)


@pytest.mark.parametrize("fam,p_lo,p_hi", [
    ("depolarizing", 0.060, 0.0645),
    ("independent_xz", 0.108, 0.1135),
    ("two_pauli", 0.108, 0.116)])
def test_estimator_matches_exact_near_thresholds(fam, p_lo, p_hi):
    family = ChannelFamily(fam)
    for n in (3, 5, 7):
        for m in (2, 5, 9, 12):
            for p in (p_lo, 0.5 * (p_lo + p_hi), p_hi):
                ch = family_eval(family, p)
                est = s_rb_estimate_channel(n, m, ch)
                assert est.s_rb == pytest.approx(s_rb_rep(n, m, ch), abs=1e-12)


def test_expected_neg_log_q_term_is_nonpositive():
    # -ln 2 <= E[-ln(1 + prod q)] <= 0: the product's positive-sign branch
    # dominates, and the term is non-decreasing in m as |prod q| shrinks
    for fam in FAMILIES:
        for p in (0.02, 0.06, 0.1):
            ch = family_eval(fam, p)
            for n in (3, 4, 5):
                table = qr_coefficients(n, ch)
                absq, w = np.abs(table.q.ravel()), table.weight.ravel()
                terms = [expect_neg_log1p_moments(absq, w, m) for m in (1, 4, 6, 7)]
                assert -math.log(2.0) <= terms[0]
                assert all(a <= b + 1e-15 for a, b in zip(terms, terms[1:]))
                assert terms[-1] <= 0.0


def test_long_outer_code_stays_finite():
    # two_pauli has |q| = 1 atoms (w1 = 0.21): at m = 2000, w1^m and, for
    # large j, (w1 + S)^m underflow to 0, and the q term must stay finite
    ch = family_eval(ChannelFamily("two_pauli"), 0.11)
    table = qr_coefficients(5, ch)
    term = expect_neg_log1p_moments(np.abs(table.q.ravel()), table.weight.ravel(), 2000)
    assert math.isfinite(term) and term <= 0.0
    est = s_rb_estimate_channel(5, 2000, ch)
    assert math.isfinite(est.s_rb)


def test_estimator_matches_exact_across_p():
    # from p = 0 through the thresholds: both sides are exact, so the
    # multiset sum and the estimator differ by rounding alone
    for fam in FAMILIES:
        for p in (0.0, 1e-6, 1e-3, 0.02, 0.06, 0.11):
            ch = family_eval(fam, p)
            for n in (3, 5, 7):
                for m in (2, 5, 12):
                    est = s_rb_estimate_channel(n, m, ch)
                    assert est.s_rb == pytest.approx(s_rb_rep(n, m, ch), abs=1e-12)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
def test_estimator_edge_channels(fam):
    # p = 0 (no live r atoms) and the family's maximal noise: finite, within
    # the 2-bit ceiling, and the multiset sum wherever it fits its budget.
    # At m = 2000 that sum carries ~1e-12 of rounding (above 2 bits for n = 1
    # at maximal indxz noise), hence its looser bound.
    for p in (0.0, fam.p_max() - 1e-9):
        ch = family_eval(fam, p)
        for n in (1, 3, 5):
            for m in (1, 2, 2000):
                s_rb = s_rb_estimate_channel(n, m, ch).s_rb
                assert math.isfinite(s_rb) and -1e-12 <= s_rb <= 2.0 + 1e-12
                try:
                    exact = s_rb_rep(n, m, ch)
                except MultisetBudgetError:
                    continue
                assert s_rb == pytest.approx(exact, abs=1e-12 if m <= 2 else 1e-11)


def test_estimate_family_entry_point():
    est = s_rb_estimate(5, 51, DEPOL, 0.0637338273)
    assert est.s_rb == pytest.approx(1.0, abs=1e-6)
