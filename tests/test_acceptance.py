"""Acceptance suite: every gate criterion at its stated tolerance, one
pass/fail line per criterion item.

Reference values are the published digits, except fifteen that do not
satisfy their own defining equations.  Their manifest cells keep the digit
under ``published`` with a one-line ``erratum`` and carry the root of the
defining equation from an independent 40-digit mpmath recomputation
(``tests/oracle.py``); the tests here read those cells from the manifests,
so each quantity has one value.  They are asserted against the oracle
value at the same tolerance as every other cell, and their report lines
name the published digit and its offset.  ``tests/test_errata.py`` proves
each correction: the stored value equals the oracle, and the published
digit misses it by more than the cell's tolerance.
"""

import math
import time

import numpy as np
import pytest

from cosetcap import (ChannelFamily, CodeStack, MonteCarlo, block_table,
                      compose_stack, concat_rep_coset_probs, family_eval,
                      hashing_point, make_repetition_code,
                      nonadditivity_at_hashing, optimize_channel,
                      parse_stack_spec, registry_get, s_rb_estimate, s_rb_rep, s_rb_stack_exact, threshold)
from cosetcap.exact import coset_distribution
from cosetcap.tables import load_manifest
from conftest import random_channels
from xor_reference import gather_s_rb

DEPOL = ChannelFamily("depolarizing")
INDXZ = ChannelFamily("independent_xz")
TWOP = ChannelFamily("two_pauli")


def _report(label, got, expected, tol, published=None):
    diff = got - expected
    status = "PASS" if abs(diff) <= tol else "FAIL"
    erratum = ("" if published is None else
               f" published {published!r} (erratum, diff {published - expected:+.3e})")
    print(f"[acceptance] {status} {label}: got {got:.12f} expected "
          f"{expected:.12f} diff {diff:+.3e} tol {tol:.0e}{erratum}")
    assert abs(diff) <= tol, (
        f"{label}: got {got:.12f}, expected {expected:.12f}, "
        f"|diff| {abs(diff):.3e} > tol {tol:.0e}")


def _cell(table, cell_id):
    return next(c for c in load_manifest(table)["cells"] if c["id"] == cell_id)


# --- criterion 1: hashing points ------------------------------------------

@pytest.mark.parametrize("family,cell", [
    (DEPOL, _cell("table1", "hashing")), (INDXZ, _cell("table7", "hashing"))],
    ids=["depol", "indxz"])
def test_criterion1_hashing_points(family, cell):
    t0 = time.time()
    got = hashing_point(family)
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"hashing point took {elapsed:.2f}s"
    _report(f"c1 hashing {family.kind}", got, cell["expected"], 1e-9,
            cell.get("published"))


# --- criterion 2: single-layer thresholds ----------------------------------

_T7_5REP = _cell("table7", "5rep")
C2_ROWS = [
    ("repZ(5)", DEPOL, 0.06345202939, 1e-8, None),
    ("repZ(3)", DEPOL, 0.06337664297, 1e-8, None),
    ("5qubit", DEPOL, 0.06298730942, 1e-8, None),
    ("steane", DEPOL, 0.06259214551, 1e-8, None),
    ("422", DEPOL, 0.06261572, 1e-7, None),
    ("biased9", DEPOL, 0.06275087308, 1e-8, None),
    ("repZ(7)", INDXZ, 0.1121074112, 1e-8, None),
    ("repZ(5)", INDXZ, _T7_5REP["expected"], 1e-8, _T7_5REP["published"]),
]


@pytest.mark.parametrize("name,family,expected,tol,published", C2_ROWS,
                         ids=[f"{r[0]}-{r[1].kind}" for r in C2_ROWS])
def test_criterion2_single_layer_thresholds(name, family, expected, tol, published):
    t0 = time.time()
    res = threshold(parse_stack_spec(name), family)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(f"c2 {name} {family.kind}", res.p_star, expected, tol, published)


def test_criterion2_13_qubit_runtime():
    t0 = time.time()
    threshold(parse_stack_spec("13cyclic"), DEPOL)
    assert time.time() - t0 < 180.0  # "minutes" per 13-qubit code


# --- criterion 3: concatenated exact thresholds -----------------------------

def _table_cells(name):
    man = load_manifest(name)
    return [(c["id"], c["stack"], c["expected"], c.get("published"))
            for c in man["cells"]]


@pytest.mark.parametrize("cell_id,stack,expected,published", _table_cells("table6"),
                         ids=[c[0] for c in _table_cells("table6")])
def test_criterion3_table6(cell_id, stack, expected, published):
    res = threshold(parse_stack_spec(stack), DEPOL)
    _report(f"c3 table6 {cell_id}", res.p_star, expected, 1e-8, published)


@pytest.mark.parametrize("cell_id,stack,expected,published", _table_cells("table9"),
                         ids=[c[0] for c in _table_cells("table9")])
def test_criterion3_table9(cell_id, stack, expected, published):
    res = threshold(parse_stack_spec(stack), INDXZ)
    _report(f"c3 table9 {cell_id}", res.p_star, expected, 1e-8, published)


@pytest.mark.parametrize("stack,expected", [
    ("repZ(5) x repX(5)", 0.06352047429),
    ("repZ(5) x biased9", 0.063514550053)],
    ids=["5repZx5repX", "5repZxbiased9"])
def test_criterion3_table2_rows(stack, expected):
    res = threshold(parse_stack_spec(stack), DEPOL)
    _report(f"c3 table2 {stack}", res.p_star, expected, 1e-8)


# --- criterion 4: Monte Carlo threshold -------------------------------------

def test_criterion4_mc_threshold():
    stack = CodeStack(parse_stack_spec("repX(5) x 5qubit x repZ(5)").layers,
                      MonteCarlo(samples=100_000, seed=20240811))
    res = threshold(stack, DEPOL, bracket=(0.060, 0.067))
    assert res.method == "mc" and res.std_error is not None
    paper_se = 5e-7  # half of the last printed digit
    band = 3.0 * math.hypot(res.std_error, paper_se)
    diff = res.p_star - 0.063552
    print(f"[acceptance] {'PASS' if abs(diff) <= band else 'FAIL'} c4 mc "
          f"threshold: got {res.p_star:.6f} expected 0.063552 "
          f"diff {diff:+.2e} band {band:.2e} (se {res.std_error:.2e})")
    assert abs(diff) <= band


# --- criterion 5: closed forms vs brute force -------------------------------

def test_criterion5_block_tables_match_exact_engine(channels25):
    named = [family_eval(f, p) for f in (DEPOL, INDXZ, TWOP) for p in (0.04, 0.1)]
    worst = 0.0
    for ch in named + channels25:
        for n in range(1, 7):
            for typ in ("Z", "X"):
                code = make_repetition_code(n, typ)
                cells = np.sort(coset_distribution(code, [ch] * n).probs.ravel())
                bt = block_table(n, typ, ch)
                closed = np.sort(np.repeat(
                    bt.h.ravel(),
                    np.tile([math.comb(n, k) for k in range(n + 1)], 2)))
                worst = max(worst, float(np.abs(cells - closed).max()))
    print(f"[acceptance] {'PASS' if worst <= 1e-12 else 'FAIL'} c5 block tables: "
          f"worst |diff| {worst:.2e} tol 1e-12")
    assert worst <= 1e-12


def test_criterion5_concat_3x3_matches_exact_engine(channels25):
    import itertools
    n = m = 3
    code = compose_stack(CodeStack((make_repetition_code(n, "X"),
                                    make_repetition_code(m, "Z"))))
    named = [family_eval(f, p) for f in (DEPOL, INDXZ, TWOP) for p in (0.05,)]
    worst = 0.0
    for ch in named + channels25:
        cells = np.sort(np.repeat(
            coset_distribution(code, [ch] * 9).probs.ravel(), 2 ** (m - 1)))
        closed = []
        for kvec in itertools.product(range(n + 1), repeat=m):
            mult = int(np.prod([math.comb(n, k) for k in kvec]))
            for bvec in itertools.product((0, 1), repeat=m):
                p_s = concat_rep_coset_probs(n, m, ch, kvec, bvec)[0]
                closed.extend([p_s] * mult)
        worst = max(worst, float(np.abs(np.sort(np.array(closed)) - cells).max()))
    print(f"[acceptance] {'PASS' if worst <= 1e-12 else 'FAIL'} c5 concat 3x3: "
          f"worst |diff| {worst:.2e} tol 1e-12")
    assert worst <= 1e-12


# --- criterion 6: long-rep estimator ----------------------------------------

def test_criterion6_estimator_vs_exact_near_thresholds():
    worst = 0.0
    for family in (DEPOL, INDXZ, TWOP):
        for n in (3, 5, 7):
            for m in (2, 4, 6, 9, 12):
                p_star = threshold(CodeStack((make_repetition_code(n, "X"),
                                              make_repetition_code(m, "Z"))),
                                   family, tol=1e-6).p_star
                for p in (p_star - 2e-4, p_star, p_star + 2e-4):
                    ch = family_eval(family, p)
                    est = s_rb_estimate(n, m, family, p)
                    worst = max(worst, abs(est.s_rb - s_rb_rep(n, m, ch)))
    print(f"[acceptance] {'PASS' if worst <= 1e-12 else 'FAIL'} c6 estimator vs "
          f"exact (m <= 12): worst |diff| {worst:.2e} tol 1e-12")
    assert worst <= 1e-12


@pytest.mark.parametrize("n,m,family,bracket,expected", [
    (5, 51, DEPOL, (0.060, 0.0660), 0.0637338273),
    (5, 74, TWOP, (0.110, 0.1180), 0.1139425214),
    (5, 77, INDXZ, (0.108, 0.1160), 0.1127458434)],
    ids=["5x51-depol", "5x74-twopauli", "5x77-indxz"])
def test_criterion6_long_rep_peaks(n, m, family, bracket, expected):
    t0 = time.time()
    lo, hi = bracket
    f = lambda p: s_rb_estimate(n, m, family, p).s_rb - 1.0
    assert f(lo) < 0 < f(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"estimator threshold run took {elapsed:.1f}s"
    _report(f"c6 {n}x{m} {family.kind}", 0.5 * (lo + hi), expected, 2e-6)


# --- criterion 7: published channel optima re-evaluated ---------------------

def _t10_rows():
    man = load_manifest("table10")
    return [(c["id"], c["stack"], tuple(c["coefficients"]),
             c["expected_q"], c["expected_p_hash"], c.get("published"))
            for c in man["cells"]]


@pytest.mark.parametrize("row_id,stack,coeffs,q_exp,ph_exp,ph_published", _t10_rows(),
                         ids=[r[0] for r in _t10_rows()])
def test_criterion7_table10(row_id, stack, coeffs, q_exp, ph_exp, ph_published):
    p_hash, q = nonadditivity_at_hashing(parse_stack_spec(stack), coeffs)
    _report(f"c7 table10 {row_id} q", q, q_exp, 1e-6)
    _report(f"c7 table10 {row_id} p_hash", p_hash, ph_exp, 1e-6, ph_published)


@pytest.mark.parametrize("stack,coeffs,q_exp,ph_exp", [
    ("repX(3) x repZ(5)", (0.00840665, 0.980756, 0.01083735),
     0.00688476977, 0.3611050233),
    ("repX(3) x 5qubit", (0.01256495, 0.00740623, 0.98002881),
     0.00638679074, 0.3596135389)],
    ids=["3repXx5repZ", "3repXx5qubit"])
def test_criterion7_table11_rows(stack, coeffs, q_exp, ph_exp):
    p_hash, q = nonadditivity_at_hashing(parse_stack_spec(stack), coeffs)
    _report(f"c7 table11 {stack} q", q, q_exp, 1e-5)
    _report(f"c7 table11 {stack} p_hash", p_hash, ph_exp, 1e-5)


# --- criterion 8: optimizer search ------------------------------------------

@pytest.mark.parametrize("name,target", [
    ("repZ(4)", 0.012959633), ("repZ(3)", 0.01274328527),
    ("repZ(5)", 0.01259428267), ("5qubit", 0.008869175026)],
    ids=lambda v: str(v))
def test_criterion8_optimizer_reaches_published_optima(name, target):
    res = optimize_channel(parse_stack_spec(name), restarts=12, seed=0)
    got = res.non_additivity
    status = "PASS" if got >= target - 1e-4 else "FAIL"
    print(f"[acceptance] {status} c8 optimize {name}: best Q {got:.9f} "
          f"target {target:.9f} - 1e-4")
    assert got >= target - 1e-4


@pytest.mark.parametrize("name", ["steane", "422", "toric822", "scfH"])
def test_criterion8_negative_codes_stay_negative(name):
    res = optimize_channel(parse_stack_spec(name), restarts=12, seed=0)
    print(f"[acceptance] {'PASS' if res.non_additivity < 0 else 'FAIL'} "
          f"c8 {name}: best Q {res.non_additivity:.3e} < 0")
    assert res.non_additivity < 0.0


# --- criterion 9: reversal ordering -----------------------------------------

def test_criterion9_reversal():
    t3 = threshold(parse_stack_spec("repZ(3)"), DEPOL).p_star
    t7 = threshold(parse_stack_spec("repZ(7)"), DEPOL).p_star
    t37 = threshold(parse_stack_spec("repZ(3) x repX(7)"), DEPOL).p_star
    t77 = threshold(parse_stack_spec("repZ(7) x repX(7)"), DEPOL).p_star
    ok = t7 > t3 and t37 > t77
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} c9 reversal: "
          f"single 7rep {t7:.11f} > 3rep {t3:.11f}; "
          f"3x7 {t37:.11f} > 7x7 {t77:.11f}")
    assert t7 > t3
    assert t37 > t77


# --- criterion 10: full-stack oracle ----------------------------------------

C10_SPECS = [
    "repZ(3) x repX(3)", "repZ(2) x repX(5)", "repX(3) x repZ(4)",
    "repZ(2) x repX(2) x repZ(3)", "repZ(2) x repX(3) x repZ(2)",
    "repZ(3) x 422", "repZ(2) x scfH", "repZ(5) x repX(2)",
    "repZ(2) x repX(2) x 3repX", "repZ(2) x 613H", "repZ(12)",
    "repX(2) x repZ(2) x repX(3)",
]


@pytest.mark.parametrize("spec", C10_SPECS)
def test_criterion10_stack_oracle(spec):
    stack = parse_stack_spec(spec)
    assert stack.total_length <= 12
    worst = 0.0
    for family, p in ((DEPOL, 0.05), (INDXZ, 0.1), (TWOP, 0.09)):
        ch = family_eval(family, p)
        a = s_rb_stack_exact(stack, ch)
        b = gather_s_rb(compose_stack(stack), ch)
        worst = max(worst, abs(a - b))
    print(f"[acceptance] {'PASS' if worst <= 1e-9 else 'FAIL'} c10 {spec}: "
          f"worst |diff| {worst:.2e} tol 1e-9")
    assert worst <= 1e-9


# --- figure shape: threshold vs outer length --------------------------------

def _est_threshold(n, m, tol=1e-9):
    lo, hi = 0.060, 0.0660
    f = lambda p: s_rb_estimate(n, m, DEPOL, p).s_rb - 1.0
    assert f(lo) < 0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _is_unimodal(values):
    peak = int(np.argmax(values))
    rising = all(values[i] < values[i + 1] for i in range(peak))
    falling = all(values[i] > values[i + 1] for i in range(peak, len(values) - 1))
    return rising and falling


@pytest.mark.parametrize("n,ms,tol", [
    (3, [9, 13, 17, 25, 35, 61], 1e-9),
    (7, [61, 101, 141, 211, 301], 5e-8)],
    ids=["inner3", "inner7"])
def test_figure_shape_single_peak_per_inner_length(n, ms, tol):
    vals = [_est_threshold(n, m, tol=tol) for m in ms]
    ok = _is_unimodal(vals) and 0 < int(np.argmax(vals)) < len(ms) - 1
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} shape n={n}: "
          + " ".join(f"{m}:{v:.8f}" for m, v in zip(ms, vals)))
    assert ok, f"n={n} thresholds not single-peaked on {ms}: {vals}"


def test_figure_shape_n5_peak_at_51():
    ms = list(range(45, 58, 2)) + [50, 52]
    ms.sort()
    vals = [_est_threshold(5, m) for m in ms]
    peak_m = ms[int(np.argmax(vals))]
    print(f"[acceptance] {'PASS' if abs(peak_m - 51) <= 2 else 'FAIL'} "
          f"shape n=5 peak at m={peak_m} (51 +- 2)")
    assert abs(peak_m - 51) <= 2
    # flanks well below the peak
    assert _est_threshold(5, 31) < max(vals)
    assert _est_threshold(5, 71) < max(vals)
