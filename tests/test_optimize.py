import numpy as np
import pytest

from cosetcap import (nonadditivity_at_hashing, optimize_channel,
                      parse_stack_spec)
from cosetcap.optimize import (_c_to_theta, _nelder_mead, _project_rows, _starts,
                               _theta_to_c)


def test_project_floor():
    a, b, c = _project_rows(np.array([[0.5, 0.3, 0.2], [1.0, 0.0, 0.0], [5.0, 3.0, 2.0]]))
    assert a == pytest.approx((0.5, 0.3, 0.2))
    assert min(b) >= 0.0001 - 1e-15
    assert sum(b) == pytest.approx(1.0, abs=1e-15)
    assert sum(c) == pytest.approx(1.0)


def test_starts_deterministic_and_cover_vertices():
    s0 = _starts(12, seed=0)
    assert s0 == _starts(12, seed=0)
    assert len(s0) == 12
    assert s0[0][0] > 0.99 and s0[1][1] > 0.99 and s0[2][2] > 0.99
    assert _starts(12, seed=1) != s0
    for c in s0:
        assert min(c) >= 0.0001 - 1e-12
        assert sum(c) == pytest.approx(1.0, abs=1e-12)


def test_balanced_coefficients_give_zero_for_empty_stack():
    # the depolarizing direction: hashing against hashing
    p_hash, q = nonadditivity_at_hashing(parse_stack_spec(""), (1 / 3, 1 / 3, 1 / 3))
    assert q == pytest.approx(0.0, abs=1e-10)
    # the custom family hits the depolarizing line at total error 3p
    assert p_hash == pytest.approx(3 * 0.063096541638, abs=1e-8)


def test_published_point_evaluation_rep4():
    p_hash, q = nonadditivity_at_hashing(
        parse_stack_spec("repX(4)"), (0.06609142, 0.91039291, 0.02351567))
    assert p_hash == pytest.approx(0.2810011867, abs=1e-6)
    assert q == pytest.approx(0.012959633, abs=1e-6)


def test_optimum_q_symmetric_under_xz_coefficient_swap():
    a = optimize_channel(parse_stack_spec("repZ(3)"), restarts=6, seed=0)
    b = optimize_channel(parse_stack_spec("repX(3)"), restarts=6, seed=0)
    assert a.non_additivity == pytest.approx(b.non_additivity, abs=1e-6)


@pytest.mark.parametrize("restarts", [0, -3])
def test_optimize_needs_a_restart(restarts):
    with pytest.raises(ValueError, match="at least one restart"):
        optimize_channel(parse_stack_spec("repZ(3)"), restarts=restarts)


def test_optimizer_trace_and_determinism():
    res1 = optimize_channel(parse_stack_spec("repZ(3)"), restarts=4, seed=2)
    res2 = optimize_channel(parse_stack_spec("repZ(3)"), restarts=4, seed=2)
    assert res1.coefficients == res2.coefficients
    assert res1.non_additivity == res2.non_additivity
    assert len(res1.trace) == 4
    assert res1.evaluations > 0
    d = res1.to_dict()
    assert set(d) >= {"stack", "c_x", "c_y", "c_z", "p_hash", "non_additivity"}


def test_optimizer_beats_published_rep3():
    res = optimize_channel(parse_stack_spec("repZ(3)"), restarts=8, seed=0)
    assert res.non_additivity >= 0.01274328527 - 1e-4
    assert res.p_hash > 0.2


def _sequential(stack, start):
    """One restart driven alone, one scalar evaluation per point."""
    run = _nelder_mead(_c_to_theta(start))
    theta = next(run)
    while True:
        c = _theta_to_c(theta[None, :])[0]
        _, q = nonadditivity_at_hashing(stack, c)
        try:
            theta = run.send((-q, c))
        except StopIteration as stop:
            return stop.value


@pytest.mark.parametrize("spec,restarts", [("repZ(3)", 4), ("5qubit", 4),
                                           ("repZ(3) x repX(3)", 3)])
def test_lockstep_restarts_match_sequential_runs(spec, restarts):
    stack = parse_stack_spec(spec)
    res = optimize_channel(stack, restarts=restarts, seed=0)
    assert len(res.trace) == restarts
    for entry in res.trace:
        f, c, evals = _sequential(stack, entry.start)
        assert entry.evals == evals
        assert np.max(np.abs(np.subtract(entry.c, c))) <= 1e-12
        assert entry.q == pytest.approx(-f, abs=1e-12)
    assert res.evaluations == sum(entry.evals for entry in res.trace)
    # one batch per step: as many steps as the longest restart has points
    assert res.steps == max(entry.evals for entry in res.trace)


def test_theta_to_c_rows_match_project_floor():
    rng = np.random.default_rng(3)
    theta = rng.normal(scale=8.0, size=(40, 2))
    for t, c in zip(theta, _theta_to_c(theta)):
        z = np.array([t[0], t[1], 0.0])
        e = np.exp(z - z.max())
        assert c == tuple(_project_rows((e / e.sum())[None, :])[0].tolist())
