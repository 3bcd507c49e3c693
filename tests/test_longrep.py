import math

import numpy as np
import pytest

from cosetcap import (ChannelFamily, block_table, family_eval, qr_coefficients,
                      s_rb_estimate, s_rb_rep)
from cosetcap.longrep import (bin_atoms, convolve_power, expect_neg_log1p_moments,
                              s_rb_estimate_channel)

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


def test_convolve_power_identity_cases():
    dist = bin_atoms(np.array([-0.3, -1.2]), np.array([0.7, 0.3]), 1e-3)
    assert convolve_power(dist, 1) is dist
    point = bin_atoms(np.array([0.0]), np.array([1.0]), 1e-3)
    out = convolve_power(point, 17)
    assert out.total_mass() == pytest.approx(1.0, abs=1e-12)
    x = out.alpha * (out.offset + np.arange(out.pos.size))
    assert out.pos[np.argmin(np.abs(x))] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        convolve_power(point, 0)


def _enumerated_q_term(n, m, ch):
    """E[-ln(1 + prod q)] by direct enumeration of all (b, k)^m outcomes.

    Built from the block table, not from qr_coefficients: 1 - |q| is taken
    as 2 min(h_k, h_{n-k}) / a, so 1 + prod q stays accurate where q
    rounds to -1 at low noise.
    """
    h = block_table(n, "X", ch).h
    a = h + h[:, ::-1]
    comb = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    w = (h * comb).ravel() / (h * comb).sum()
    live = w > 0.0
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
    # r side: the convolution power keeps unit, non-negative mass
    dist = bin_atoms(np.array([-0.2, 0.9, 2.0]), np.array([0.5, 0.3, 0.1]), 1e-4,
                     zero_mass=0.1)
    dist.check_invariants()
    conv = convolve_power(dist, 9)
    conv.check_invariants()
    assert conv.pos.min() >= 0.0


def test_estimate_m1_reduces_to_block_value():
    for fam in FAMILIES:
        ch = family_eval(fam, 0.09)
        for n in (3, 4, 5):
            est = s_rb_estimate_channel(n, 1, ch)
            assert est.s_rb == pytest.approx(s_rb_rep(n, 1, ch), abs=1e-7)


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
                assert est.stable
                assert est.s_rb == pytest.approx(s_rb_rep(n, m, ch), abs=1e-5)


def test_estimator_alpha_self_consistency():
    ch = family_eval(DEPOL, 0.0637)
    a = s_rb_estimate_channel(5, 51, ch, alpha0=1e-4)
    b = s_rb_estimate_channel(5, 51, ch, alpha0=5e-5)
    assert abs(a.s_rb - b.s_rb) < 1e-7


def test_estimator_flags_budget_starved_runs():
    ch = family_eval(DEPOL, 0.0637)
    est = s_rb_estimate_channel(5, 2000, ch, bin_budget=1 << 12)
    assert not est.stable


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
    est = s_rb_estimate_channel(5, 2000, ch, bin_budget=1 << 16)
    assert math.isfinite(est.s_rb)


def test_estimator_matches_exact_across_p():
    # from p = 0 through the thresholds: the q side is exact, so what is
    # left is the r side's binning error
    for fam in FAMILIES:
        for p in (0.0, 1e-6, 1e-3, 0.02, 0.06, 0.11):
            ch = family_eval(fam, p)
            for n in (3, 5, 7):
                for m in (2, 5, 12):
                    est = s_rb_estimate_channel(n, m, ch)
                    assert est.stable
                    assert est.s_rb == pytest.approx(s_rb_rep(n, m, ch), abs=1e-8)


def test_estimate_family_entry_point():
    est = s_rb_estimate(5, 51, DEPOL, 0.0637338273)
    assert est.s_rb == pytest.approx(1.0, abs=1e-6)
    assert est.stable
