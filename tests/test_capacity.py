import math

import numpy as np
import pytest

import cosetcap.capacity as capacity
from cosetcap import (ChannelFamily, CodeStack, MonteCarlo, PauliChannel, channel_entropy,
                      family_eval, hashing_point, parse_stack_spec, rate,
                      registry_get, s_rb_rep, sweep, threshold)
from cosetcap.capacity import NoThresholdError, evaluate_s_rb, evaluate_s_rb_batch
from cosetcap.cli import EXIT_OK, run
from cosetcap.codes import rep_type_of
from conftest import CODE_NAMES

DEPOL = ChannelFamily("depolarizing")
INDXZ = ChannelFamily("independent_xz")
TWOP = ChannelFamily("two_pauli")


def test_rep_type_detection():
    assert rep_type_of(registry_get("repZ(5)")) == "Z"
    assert rep_type_of(registry_get("7repX")) == "X"
    assert rep_type_of(registry_get("5qubit")) is None
    assert rep_type_of(registry_get("422")) is None
    assert rep_type_of(registry_get("shor")) is None
    # exactly the repetition codes among the bundled and generated ones
    reps = {"3repX": "X", "3repZ": "Z", "4repZ": "Z", "5repZ": "Z", "7repX": "X",
            "repZ(2)": "Z", "repX(6)": "X"}
    for name in (*CODE_NAMES, "repZ(2)", "repX(6)", "trivial"):
        assert rep_type_of(registry_get(name)) == reps.get(name)


def test_rate_at_zero_noise_is_k_over_l():
    assert rate(parse_stack_spec("repZ(5)"), DEPOL, 0.0) == pytest.approx(0.2)
    assert rate(parse_stack_spec("422"), DEPOL, 0.0) == pytest.approx(0.5)
    assert rate(parse_stack_spec("repZ(3) x repX(3)"), DEPOL, 0.0) == pytest.approx(1 / 9)
    assert rate(parse_stack_spec(""), DEPOL, 0.0) == pytest.approx(1.0)


def test_empty_stack_rate_is_hashing_rate():
    for p in (0.01, 0.04, 0.06):
        expect = 1.0 - channel_entropy(family_eval(DEPOL, p))
        assert rate(parse_stack_spec(""), DEPOL, p) == pytest.approx(expect, abs=1e-13)
    p_hash = hashing_point(DEPOL)
    assert rate(parse_stack_spec(""), DEPOL, p_hash) == pytest.approx(0.0, abs=1e-11)


def test_rep5_positive_between_hashing_and_threshold():
    assert rate(parse_stack_spec("repZ(5)"), DEPOL, 0.0632) > 0.0
    assert rate(parse_stack_spec("repZ(5)"), DEPOL, 0.0636) < 0.0


def test_threshold_bracketing_certificate():
    stack = parse_stack_spec("repZ(5)")
    res = threshold(stack, DEPOL, tol=1e-10)
    assert res.method == "grouped"
    lo, hi = res.bracket
    assert hi - lo <= 1e-10
    assert rate(stack, DEPOL, res.p_star - res.tol) > 0.0
    assert rate(stack, DEPOL, res.p_star + res.tol) < 0.0


def test_threshold_evaluation_count():
    res = threshold(parse_stack_spec("repZ(5)"), DEPOL)
    assert res.evals <= 15


@pytest.mark.parametrize("spec,family", [("5qubit", DEPOL), ("repZ(5)", DEPOL),
                                         ("repX(3) x repZ(5)", INDXZ)])
def test_threshold_below_double_spacing_ends_on_adjacent_doubles(spec, family):
    # a bracket of doubles cannot get narrower than their spacing; this
    # once looped forever
    res = threshold(parse_stack_spec(spec), family, tol=1e-300)
    lo, hi = res.bracket
    assert math.nextafter(lo, hi) == hi
    assert res.evals <= 70


@pytest.mark.parametrize("family,p_star", [
    (DEPOL, "0x1.027184eba33f4p-4"), (INDXZ, "0x1.c2ac93f4e0066p-4"),
    (TWOP, "0x1.d115b67b6f004p-4")])
def test_threshold_at_default_tol_unchanged_by_adjacent_stop(family, p_star):
    # the hashing threshold of the empty stack, a pure-Python solve, bit for
    # bit as before the solver stopped at adjacent doubles
    assert threshold(parse_stack_spec(""), family).p_star == float.fromhex(p_star)


@pytest.mark.parametrize("spec", ["", "5qubit", "repZ(5)"])
def test_threshold_reports_the_bracket_it_reached(spec):
    # below the spacing of doubles the reported tol is the final bracket's
    # width, not the tol asked for; at the default tol it is the default
    stack = parse_stack_spec(spec)
    res = threshold(stack, DEPOL, tol=1e-300)
    lo, hi = res.bracket
    assert res.tol == hi - lo and 1e-18 < res.tol < 1e-16
    assert threshold(stack, DEPOL).tol == 1e-10


def test_threshold_tol_refinement_stable():
    stack = parse_stack_spec("repZ(3)")
    a = threshold(stack, DEPOL, tol=1e-10)
    b = threshold(stack, DEPOL, tol=1e-12)
    assert abs(a.p_star - b.p_star) <= 1e-10


def test_threshold_methods_dispatch():
    assert threshold(parse_stack_spec("5qubit"), DEPOL).method == "exact"
    assert threshold(parse_stack_spec("repX(3) x repZ(3)"), DEPOL).method == "grouped"
    res = threshold(parse_stack_spec("repX(5) x repZ(51)"), DEPOL)
    assert res.method == "longrep"
    assert res.p_star == pytest.approx(0.0637338273, abs=2e-6)


@pytest.mark.parametrize("n,m,method", [
    (7, 7, "grouped"), (5, 12, "grouped"), (7, 11, "grouped"), (5, 19, "grouped"),
    (7, 12, "grouped"), (5, 20, "grouped"), (3, 70, "grouped"), (1, 1000, "grouped"),
    (3, 75, "grouped"), (7, 14, "longrep"), (5, 23, "longrep"), (3, 76, "longrep"),
    (3, 110, "longrep")])
def test_rep_engine_switch(n, m, method):
    # the engine is picked by the multiset count of the atom table, so the
    # choice can move with p (at p = 0 every top has one atom); at
    # depolarizing 0.0637 it is the listed one (3x75 and 3x76 have 76,076
    # and 79,079 multisets of four atoms, one on each side of
    # SUM_MULTISETS), and both engines give the multiset sum at every p
    stack = parse_stack_spec(f"repX({n}) x repZ({m})" if n > 1 else f"repZ({m})")
    assert evaluate_s_rb(stack, family_eval(DEPOL, 0.0637)).method == method
    for fam in (DEPOL, INDXZ, TWOP):
        for p in (0.0, 1e-3, 0.0637, 0.11, fam.p_max() - 1e-9):
            ch = family_eval(fam, p)
            assert evaluate_s_rb(stack, ch).s_rb == pytest.approx(s_rb_rep(n, m, ch), abs=1e-12)


def test_unbounded_multiset_count_goes_to_the_estimator(capsys):
    # ~10^353 multisets of the 13cyclic atoms: compared as an integer, never
    # converted to a float
    ev = evaluate_s_rb(parse_stack_spec("13cyclic x repZ(1101)"), family_eval(DEPOL, 0.03))
    assert ev.method == "longrep"
    assert math.isfinite(ev.excess) and ev.excess < 0.0
    assert run(["rate", "--code", "13cyclic x repZ(1101)", "--channel", "depol",
                "--p", "0.03"]) == EXIT_OK
    assert float(capsys.readouterr().out) > 0.0


def test_threshold_no_sign_change():
    with pytest.raises(NoThresholdError):
        threshold(parse_stack_spec("repZ(5)"), DEPOL, bracket=(0.2, 0.3))


def test_reversal_ordering():
    # single layer: longer repetition wins; under a 7-rep outer layer the
    # ordering flips
    t3 = threshold(parse_stack_spec("repZ(3)"), DEPOL).p_star
    t7 = threshold(parse_stack_spec("repZ(7)"), DEPOL).p_star
    t37 = threshold(parse_stack_spec("repZ(3) x repX(7)"), DEPOL).p_star
    t77 = threshold(parse_stack_spec("repZ(7) x repX(7)"), DEPOL).p_star
    assert t7 > t3
    assert t37 > t77


def test_sweep_rows():
    stack = parse_stack_spec("")
    p_hash = hashing_point(DEPOL)
    rows = sweep(stack, DEPOL, (0.0, p_hash), 5)
    assert len(rows) == 5
    assert rows[0].p == 0.0 and rows[0].rate == pytest.approx(1.0)
    assert rows[-1].rate == pytest.approx(0.0, abs=1e-10)
    assert [r.p for r in rows] == sorted(r.p for r in rows)
    with pytest.raises(ValueError):
        sweep(stack, DEPOL, (0.0, 0.05), 1)


def test_sweep_brackets_table_threshold():
    rows = sweep(parse_stack_spec("repZ(5)"), DEPOL, (0.063, 0.064), 6)
    signs = [r.rate > 0 for r in rows]
    assert signs[0] and not signs[-1]


def test_mc_threshold_reports_error_bar():
    stack = CodeStack(parse_stack_spec("repZ(3) x repX(3)").layers,
                      MonteCarlo(samples=20_000, seed=4))
    res = threshold(stack, DEPOL, bracket=(0.055, 0.07))
    assert res.method == "mc"
    assert res.std_error is not None and res.std_error > 0.0
    exact = threshold(parse_stack_spec("repZ(3) x repX(3)"), DEPOL)
    assert abs(res.p_star - exact.p_star) <= 4.0 * res.std_error


def test_mc_threshold_counts_error_bar_evaluations(monkeypatch):
    stack = CodeStack(parse_stack_spec("repZ(3) x repX(3)").layers,
                      MonteCarlo(samples=2_000, seed=4))
    calls = []
    monkeypatch.setattr(capacity, "evaluate_s_rb",
                        lambda *a, **k: calls.append(a) or evaluate_s_rb(*a, **k))
    res = threshold(stack, DEPOL, bracket=(0.055, 0.07))
    assert res.evals == len(calls)


def test_evaluate_dispatch_reports_methods():
    ch = family_eval(DEPOL, 0.06)
    assert evaluate_s_rb(parse_stack_spec(""), ch).method == "exact"
    assert evaluate_s_rb(parse_stack_spec("steane"), ch).method == "exact"
    assert evaluate_s_rb(parse_stack_spec("repZ(4)"), ch).method == "grouped"
    assert evaluate_s_rb(parse_stack_spec("repZ(5) x 5qubit"), ch).method == "grouped"


@pytest.mark.parametrize("name", [name for name in CODE_NAMES
                                  if rep_type_of(registry_get(name)) is None])
def test_single_layer_batch_is_bit_identical_to_the_scalar_path(name):
    # the optimizer's batched Q must be what nonadditivity_at_hashing
    # reproduces through s_rb_code, to the last bit
    stack = CodeStack((registry_get(name),))
    for family in (DEPOL, INDXZ, TWOP):
        chans = [family_eval(family, p) for p in (1e-3, 0.06, 0.11)]
        got = evaluate_s_rb_batch(stack, np.array([ch.as_array() for ch in chans]))
        assert got.tolist() == [evaluate_s_rb(stack, ch).excess for ch in chans]


@pytest.mark.parametrize("spec", ["5qubit", "repZ(5)", "repZ(3) x 5qubit"])
@pytest.mark.parametrize("row", [(0.5, 0.2, 0.1, 0.1), (1.1, -0.1, 0.0, 0.0),
                                 (math.nan, 0.1, 0.0, 0.0)])
def test_batch_rejects_rows_that_are_not_channels(spec, row):
    # the Walsh, multiset-sum and row-by-row paths alike
    chans = np.array([family_eval(DEPOL, 0.06).as_array(), row])
    with pytest.raises(ValueError):
        evaluate_s_rb_batch(parse_stack_spec(spec), chans)


@pytest.mark.parametrize("spec", ["", "5qubit", "steane", "repZ(4)", "repX(7)",
                                  "repZ(3) x repX(3)"])
def test_batch_matches_per_row_evaluation(spec):
    """Empty stack, single Walsh layer, single repetition layer (atom
    engine) and a looped stack, each with zero-probability letters."""
    stack = parse_stack_spec(spec)
    chans = np.random.default_rng(11).dirichlet([4.0, 1.0, 1.0, 1.0], size=20)
    chans[0] = [0.9, 0.1, 0.0, 0.0]
    chans[1] = [0.7, 0.0, 0.0, 0.3]
    chans[2] = [1.0, 0.0, 0.0, 0.0]
    got = evaluate_s_rb_batch(stack, chans)
    want = [evaluate_s_rb(stack, PauliChannel(*row)).excess for row in chans]
    assert got.shape == (20,)
    assert np.max(np.abs(got - want)) <= 1e-14
