import numpy as np
import pytest

import cosetcap.capacity as capacity
from cosetcap import (ChannelFamily, CodeStack, MonteCarlo, channel_entropy,
                      family_eval, hashing_point, parse_stack_spec, rate,
                      registry_get, registry_names, sweep, threshold)
from cosetcap.capacity import NoThresholdError, evaluate_s_rb, nonadditivity
from cosetcap.codes import rep_type_of

DEPOL = ChannelFamily("depolarizing")
INDXZ = ChannelFamily("independent_xz")


def test_rep_type_detection():
    assert rep_type_of(registry_get("repZ(5)")) == "Z"
    assert rep_type_of(registry_get("7repX")) == "X"
    assert rep_type_of(registry_get("5qubit")) is None
    assert rep_type_of(registry_get("422")) is None
    assert rep_type_of(registry_get("shor")) is None
    # exactly the repetition codes among the bundled and generated ones
    reps = {"3repX": "X", "3repZ": "Z", "4repZ": "Z", "5repZ": "Z", "7repX": "X",
            "repZ(2)": "Z", "repX(6)": "X"}
    for name in (*registry_names(), "repZ(2)", "repX(6)", "trivial"):
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


def test_nonadditivity_definition():
    # below the hashing point the hashing baseline dominates
    val = nonadditivity(parse_stack_spec("repZ(5)"), DEPOL, 0.05)
    assert val < 0.0
    # beyond it, equals the raw rate
    val = nonadditivity(parse_stack_spec("repZ(5)"), DEPOL, 0.0633)
    assert val == pytest.approx(rate(parse_stack_spec("repZ(5)"), DEPOL, 0.0633))


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


def test_threshold_tol_refinement_stable():
    stack = parse_stack_spec("repZ(3)")
    a = threshold(stack, DEPOL, tol=1e-10)
    b = threshold(stack, DEPOL, tol=1e-12)
    assert abs(a.p_star - b.p_star) <= 1e-10


def test_threshold_methods_dispatch():
    assert threshold(parse_stack_spec("5qubit"), DEPOL).method == "exact"
    assert threshold(parse_stack_spec("repX(3) x repZ(3)"), DEPOL).method == "grouped"
    res = threshold(parse_stack_spec("repX(5) x repZ(51)"), DEPOL,
                    multiset_budget=1000)
    assert res.method == "longrep"
    assert res.p_star == pytest.approx(0.0637338273, abs=2e-6)


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
