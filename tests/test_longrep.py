import math

import mpmath
import numpy as np
import pytest

import oracle
from cosetcap import (ChannelFamily, block_entries, block_table, family_eval,
                      parse_channel_spec, parse_stack_spec, s_rb_estimate, s_rb_rep,
                      threshold, top_atoms)
from cosetcap.capacity import NoThresholdError, evaluate_s_rb
from cosetcap.channels import bracketed_root
from cosetcap.longrep import (_contour_estimates, expect_neg_log1p_moments,
                              expect_neg_log1p_positive, s_rb_estimate_atoms)
from cosetcap.rep import StackBudgetError, _multisets, s_rb_atoms
from cosetcap.stacks import top_entries

DEPOL = ChannelFamily("depolarizing")
FAMILIES = [ChannelFamily("depolarizing"), ChannelFamily("independent_xz"),
            ChannelFamily("two_pauli")]


def _atoms(n, ch):
    """Atom table of the X-type n-blocks under a Z-type top."""
    return top_atoms(*block_entries(n, "X", ch), "Z")


def _estimate(n, m, ch):
    return 1.0 + s_rb_estimate_atoms(_atoms(n, ch), m)


def test_qr_against_block_table():
    # the folded rows, rebuilt group by group from the block table
    ch = family_eval(DEPOL, 0.06)
    for n in (4, 5):
        h = block_table(n, "X", ch)
        want = []
        for k in range(n // 2 + 1):
            for b in (0, 1):
                a = h[b, k] + h[b, n - k]
                weight = math.comb(n, k) * (h[b, k] if 2 * k == n else a)
                want.append((weight, abs(h[b, k] - h[b, n - k]) / a,
                             (h[1 - b, k] + h[1 - b, n - k]) / a))
        rows = _atoms(n, ch)
        assert rows == pytest.approx(np.array(want), rel=1e-12)
        assert rows[:, 0].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(rows[:, 1] < 1.0 + 1e-15)


def test_qr_single_qubit_blocks():
    # an [[1,1]] block has the groups {I, Z} and {X, Y}; each splits its
    # weight (1 +- |q|) / 2 into the raw letter probabilities
    ch = family_eval(DEPOL, 0.1)
    w, absq, _ = _atoms(1, ch).T
    assert w * (1.0 + absq) / 2.0 == pytest.approx([ch.p_i, ch.p_x], abs=1e-15)
    assert w * (1.0 - absq) / 2.0 == pytest.approx([ch.p_z, ch.p_y], abs=1e-15)


def test_qr_even_block_midpoint_is_zero():
    # the k = n/2 groups are the last two rows
    rows = _atoms(4, family_eval(DEPOL, 0.06))
    assert rows[-2:, 1].tolist() == [0.0, 0.0]


def _block_atoms(n, ch):
    """Block table h, h-sums a = h_k + h_{n-k}, cell weights w and the mask
    of cells with w > 0."""
    h = block_table(n, "X", ch)
    comb = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    w = (h * comb).ravel() / (h * comb).sum()
    return h, h + h[:, ::-1], w, w > 0.0


def _enumerated_q_term(n, m, ch):
    """E[-ln(1 + prod q)] by direct enumeration of all (b, k)^m outcomes.

    Built from the block table, not from the atom table: 1 - |q| is taken
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


def _live_r(n, ch):
    """ln r and weights of the atoms with r > 0."""
    w, _, r = _atoms(n, ch).T
    pos = r > 0.0
    return np.log(r[pos]), w[pos]


def _r_side(n, m, ch):
    return expect_neg_log1p_positive(*_live_r(n, ch), m)


def test_positive_expectation_matches_enumeration():
    # the contour integral against every (k, b)^m outcome,
    # from p = 0 (every live r is 0) to p = 0.2
    worst = 0.0
    for fam in FAMILIES:
        for p in (0.0, 1e-6, 1e-3, 0.02, 0.0637, 0.11, 0.2):
            ch = family_eval(fam, p)
            for n in range(1, 6):
                for m in range(1, 5):
                    worst = max(worst, abs(_r_side(n, m, ch) - _enumerated_r_term(n, m, ch)))
    assert worst <= 1e-13


@pytest.mark.parametrize("n,m,fam,p", [
    (7, 61, "depolarizing", 1e-6),
    (7, 61, "depolarizing", 1e-3),
    (7, 301, "depolarizing", 0.0635),
    (5, 501, "independent_xz", 0.112),
    (3, 2000, "independent_xz", 0.112)])
def test_r_side_node_refinement(n, m, fam, p):
    # one doubling past the converged trapezoid moves E_r by no more than
    # 1e-13 relative, from 1e-141 (p = 1e-6) up to 0.1
    ch = family_eval(ChannelFamily(fam), p)
    logr, w = _live_r(n, ch)
    half = w * np.exp(0.5 * logr)
    scale = float(half.sum()) ** m
    got = _r_side(n, m, ch)
    assert got < 0.0
    estimates = [float(est) for est, _ in _contour_estimates(logr, half / half.sum(), m)]
    done = [-scale * est for est in estimates].index(got)
    assert abs(estimates[done + 1] - estimates[done]) <= 1e-13 * abs(estimates[done])


def test_convolved_expectation_matches_enumeration():
    # the moment series against every (k, b)^m outcome, from p = 0 (all
    # |q| = 1) through |q| within 1e-6 of 1 (the series tail) to p = 0.2
    worst = 0.0
    for fam in FAMILIES:
        for p in (0.0, 1e-6, 1e-3, 0.02, 0.0637, 0.11, 0.2):
            ch = family_eval(fam, p)
            for n in range(1, 6):
                w, absq, _ = _atoms(n, ch).T
                for m in range(1, 5):
                    got = expect_neg_log1p_moments(absq, w, m)
                    worst = max(worst, abs(got - _enumerated_q_term(n, m, ch)))
    assert worst <= 1e-12


def _sign_averaged(big_q):
    """-((1+Q) ln(1+Q) + (1-Q) ln(1-Q)) / 2, the series' closed form."""
    return -0.5 * ((1.0 + big_q) * math.log1p(big_q)
                   + (0.0 if big_q == 1.0 else (1.0 - big_q) * math.log1p(-big_q)))


def test_signed_distribution_invariants():
    # the sign pairing the moment series relies on: atoms k and n-k have
    # opposite q, and the positive one carries (1 + |q|)/2 of the group
    for fam in FAMILIES:
        for p in (1e-3, 0.06, 0.2):
            for n in (2, 3, 5):
                ch = family_eval(fam, p)
                cells = block_table(n, "X", ch) * [math.comb(n, k) for k in range(n + 1)]
                w, absq, _ = _atoms(n, ch).T
                assert w.size == 2 * (n // 2 + 1)  # every group live
                for i, (k, b) in enumerate((k, b) for k in range(n // 2 + 1)
                                           for b in (0, 1)):
                    if 2 * k == n:  # a group of one cell
                        assert absq[i] == 0.0
                        assert w[i] == pytest.approx(cells[b, k], abs=1e-15)
                        continue
                    pair = sorted((cells[b, k], cells[b, n - k]))
                    assert w[i] * (1.0 + absq[i]) / 2.0 == pytest.approx(pair[1], abs=1e-15)
                    assert w[i] * (1.0 - absq[i]) / 2.0 == pytest.approx(pair[0], abs=1e-15)
    # one atom of magnitude c: the expectation is the closed form at Q = c^m,
    # also where c is so close to 1 that the Euler-Maclaurin tail carries it
    for c in (0.0, 0.3, 0.9, 1.0 - 1e-5, 1.0 - 1e-9, 1.0):
        for m in (1, 2, 7, 100):
            got = expect_neg_log1p_moments(np.array([c]), np.array([1.0]), m)
            assert got == pytest.approx(_sign_averaged(c ** m), abs=1e-14)
    # a pair of r atoms, (w / (1 + r), r) and (w r / (1 + r), 1 / r) as in
    # a repetition top, next to an r = 0 mass w0 = 1 - w: j draws of r and
    # m - j of 1 / r give the product r^(2j - m).  Relative, above a floor
    # of ~1e-14 M(1/2)^m where the lobes of few, widely spaced ln r cancel
    for logr in (-30.0, -2.0, 0.0, 0.7, 25.0):
        for w0 in (0.0, 0.4):
            log_w = math.log1p(-w0) - np.logaddexp(0.0, [logr, -logr])
            for m in (1, 2, 7, 100):
                got = expect_neg_log1p_positive(np.array([logr, -logr]), np.exp(log_w), m)
                j = np.arange(m + 1)
                log_p = ([math.lgamma(m + 1.0) - math.lgamma(i + 1.0) - math.lgamma(m - i + 1.0)
                          for i in j] + j * log_w[0] + (m - j) * log_w[1])
                want = -float(np.exp(log_p) @ np.logaddexp(0.0, (2 * j - m) * logr))
                floor = 1e-14 * float(np.exp(log_w + 0.5 * np.array([logr, -logr])).sum()) ** m
                assert got == pytest.approx(want, rel=1e-13, abs=floor)


def test_estimate_m1_reduces_to_block_value():
    for fam in FAMILIES:
        ch = family_eval(fam, 0.09)
        for n in (3, 4, 5):
            est = _estimate(n, 1, ch)
            assert est == pytest.approx(s_rb_rep(n, 1, ch), abs=1e-12)


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
                est = _estimate(n, m, ch)
                assert est == pytest.approx(s_rb_rep(n, m, ch), abs=1e-12)


def test_expected_neg_log_q_term_is_nonpositive():
    # -ln 2 <= E[-ln(1 + prod q)] <= 0: the product's positive-sign branch
    # dominates, and the term is non-decreasing in m as |prod q| shrinks
    for fam in FAMILIES:
        for p in (0.02, 0.06, 0.1):
            ch = family_eval(fam, p)
            for n in (3, 4, 5):
                w, absq, _ = _atoms(n, ch).T
                terms = [expect_neg_log1p_moments(absq, w, m) for m in (1, 4, 6, 7)]
                assert -math.log(2.0) <= terms[0]
                assert all(a <= b + 1e-15 for a, b in zip(terms, terms[1:]))
                assert terms[-1] <= 0.0


def test_estimator_refuses_an_atom_table_over_budget():
    # 7,000 atoms x 2^14 series terms pass ASSIGNMENT_BUDGET: refused
    # before the q side allocates its (2048, atoms) arrays
    rows = np.column_stack([np.full(7000, 1.0 / 7000), np.linspace(0.1, 0.9, 7000),
                            np.linspace(0.2, 0.8, 7000)])
    with pytest.raises(StackBudgetError, match="7000 atoms"):
        s_rb_estimate_atoms(rows, 100)


def test_long_outer_code_stays_finite():
    # two_pauli has |q| = 1 atoms (w1 = 0.21): at m = 2000, w1^m and, for
    # large j, (w1 + S)^m underflow to 0, and the q term must stay finite
    ch = family_eval(ChannelFamily("two_pauli"), 0.11)
    w, absq, _ = _atoms(5, ch).T
    term = expect_neg_log1p_moments(absq, w, 2000)
    assert math.isfinite(term) and term <= 0.0
    assert math.isfinite(_estimate(5, 2000, ch))


def test_estimator_matches_exact_across_p():
    # from p = 0 through the thresholds: both sides are exact, so the
    # multiset sum and the estimator differ by rounding alone
    for fam in FAMILIES:
        for p in (0.0, 1e-6, 1e-3, 0.02, 0.06, 0.11):
            ch = family_eval(fam, p)
            for n in (3, 5, 7):
                for m in (2, 5, 12):
                    est = _estimate(n, m, ch)
                    assert est == pytest.approx(s_rb_rep(n, m, ch), abs=1e-12)


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
                s_rb = _estimate(n, m, ch)
                assert math.isfinite(s_rb) and -1e-12 <= s_rb <= 2.0 + 1e-12
                try:
                    exact = s_rb_rep(n, m, ch)
                except StackBudgetError:
                    continue
                assert s_rb == pytest.approx(exact, abs=1e-12 if m <= 2 else 1e-11)


def test_estimate_family_entry_point():
    est = s_rb_estimate(5, 51, DEPOL, 0.0637338273)
    assert est.s_rb == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n,m,spec,p", [(7, 61, "depol", 0.0635), (5, 51, "depol", 0.0635),
                                        (7, 301, "depol", 0.0635), (5, 501, "indxz", 0.112)])
def test_estimate_is_the_stack_evaluation(n, m, spec, p):
    # sizes past SUM_MULTISETS, where evaluate_s_rb takes the estimator too
    family = parse_channel_spec(spec)
    stack = parse_stack_spec(f"repX({n}) x repZ({m})")
    assert s_rb_estimate(n, m, family, p) == evaluate_s_rb(stack, family_eval(family, p))


def test_sweep_script_bracket_gives_long_tops_their_threshold():
    # 5 x 1001 on the depolarizing channel, the script's longest default:
    # S_RB - 1 is -1e-18 and +3e-22 at the bracket ends, and its sign holds
    # the threshold
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).parents[1] / "scripts" / "sweep_longrep.py"
    spec = importlib.util.spec_from_file_location("sweep_longrep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    got = threshold(parse_stack_spec("repX(5) x repZ(1001)"), parse_channel_spec("depol"),
                    tol=1e-10, bracket=sweep.BRACKETS["depolarizing"])
    assert got.p_star == pytest.approx(0.0630783856, abs=2e-9)
    assert got.method == "longrep"


# depolarizing thresholds on the script's bracket, from the relative
# S_RB - 1; the m -> inf limits are 0.0622 (inner 3), 0.0628 (inner 5),
# 0.0611 (steane) and 0.0606 (bare)
GATE_BRACKET = (0.055, 0.0675)
GATE_THRESHOLDS = {"repX(3) x repZ(141)": 0.0629656967, "repX(3) x repZ(201)": 0.0628261497,
                   "repX(3) x repZ(321)": 0.0626698531, "repX(5) x repZ(401)": 0.0632938793,
                   "repX(5) x repZ(1001)": 0.0630783856, "steane x repZ(101)": 0.0615550893,
                   "repZ(101)": 0.0615403211}


@pytest.mark.parametrize("spec", GATE_THRESHOLDS)
def test_long_top_thresholds(spec):
    got = threshold(parse_stack_spec(spec), DEPOL, bracket=GATE_BRACKET)
    assert got.p_star == pytest.approx(GATE_THRESHOLDS[spec], abs=2e-9)


@pytest.mark.parametrize("m", [141, 201])
def test_long_top_threshold_by_multiset_sum(m):
    # the same root from the multiset sum (C(m + 3, 3) multisets of the four
    # inner-3 atoms), which SUM_MULTISETS hands to the estimator
    def excess(p):
        return s_rb_atoms(_atoms(3, family_eval(DEPOL, p)), m)

    cached = _multisets.cache_info().currsize
    lo, hi = GATE_BRACKET
    lo, hi, _ = bracketed_root(excess, lo, hi, 1e-11, excess(lo), excess(hi))
    # past SUM_MULTISETS the count table is built on every call, not kept
    assert _multisets.cache_info().currsize == cached
    got = threshold(parse_stack_spec(f"repX(3) x repZ({m})"), DEPOL, bracket=GATE_BRACKET)
    assert got.method == "longrep"
    assert 0.5 * (lo + hi) == pytest.approx(got.p_star, abs=1e-9)


def test_underflowing_top_refuses_a_threshold():
    # from m = 4,577 (at p = 0.0622) M(1/2)^m and M_2^m underflow, and
    # S_RB - 1 reads exactly 0 over the middle of the bracket: no root is
    # returned.  A bare repZ(m) reads 0 on the multiset sum from m = 1,745
    # (at p = 0.0607), and the error names the engine that returned it
    with pytest.raises(NoThresholdError, match="in the long-rep estimator .* log form"):
        threshold(parse_stack_spec("repX(3) x repZ(5001)"), DEPOL, bracket=GATE_BRACKET)
    with pytest.raises(NoThresholdError, match="in the multiset sum .* log form"):
        threshold(parse_stack_spec("repZ(2001)"), DEPOL, bracket=GATE_BRACKET)


def _oracle_excess(spec, p):
    stack = parse_stack_spec(spec)
    n = stack.layers[0].n if len(stack.layers) > 1 else 1
    with mpmath.workdps(oracle.DPS):
        return oracle.s_rb_minus_one_rep(n, stack.layers[-1].n,
                                         oracle.depolarizing(mpmath.mpf(p)))


def test_oracle_rep_sum_matches_independent_xz_form():
    # the multiset sum over block atoms against the factored X/Z formula
    for n, m, p in ((1, 5, 0.08), (3, 3, 0.11), (4, 2, 0.2)):
        with mpmath.workdps(oracle.DPS):
            want = oracle.s_rb_rep_concat(n, m, p) - 1
            got = oracle.s_rb_minus_one_rep(n, m, oracle.independent_xz(oracle._mpf(p)))
            assert abs(got - want) <= mpmath.mpf(10) ** (5 - oracle.DPS)


@pytest.mark.parametrize("spec,p,rel", [
    ("repZ(101)", 0.058, 1e-12), ("repZ(101)", 0.065, 1e-12),
    ("repX(3) x repZ(48)", None, 1e-9)])
def test_atom_engines_match_oracle_relatively(spec, p, rel):
    # S_RB - 1 is 1e-18 (bare, 1e-21 of its terms) or 1e-8 (1e-7 above the
    # root) here: both engines against 40-digit mpmath, relative
    stack = parse_stack_spec(spec)
    if p is None:
        p = threshold(stack, DEPOL, bracket=GATE_BRACKET).p_star + 1e-7
    rows = top_atoms(*top_entries(stack, family_eval(DEPOL, p)), "Z")
    want = float(_oracle_excess(spec, p))
    m = stack.layers[-1].n
    assert s_rb_atoms(rows, m) == pytest.approx(want, rel=rel, abs=0.0)
    assert s_rb_estimate_atoms(rows, m) == pytest.approx(want, rel=rel, abs=0.0)
