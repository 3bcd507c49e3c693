import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle

from cosetcap import (ChannelFamily, PauliChannel, channel_entropy,
                      custom_family, family_eval, hashing_point,
                      parse_channel_spec)
from cosetcap.channels import bracketed_root, entropy_peak

DEPOL = ChannelFamily("depolarizing")
INDXZ = ChannelFamily("independent_xz")
TWOP = ChannelFamily("two_pauli")


def test_family_eval_examples():
    assert family_eval(DEPOL, 0.0) == PauliChannel(1, 0, 0, 0)
    ch = family_eval(INDXZ, 0.5)
    assert ch.as_array() == pytest.approx([0.25, 0.25, 0.25, 0.25])
    ch = family_eval(TWOP, 0.1)
    assert ch.as_array() == pytest.approx([0.8, 0.1, 0.0, 0.1])


def test_family_eval_range_check():
    with pytest.raises(ValueError):
        family_eval(DEPOL, 0.4)
    with pytest.raises(ValueError):
        family_eval(DEPOL, -0.01)


def test_channel_validation():
    with pytest.raises(ValueError):
        PauliChannel(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        PauliChannel(0.5, 0.5, 0.1, 0.0)


@pytest.mark.parametrize("site", range(4))
def test_channel_validation_rejects_nan(site):
    # NaN fails every comparison, so both checks must be ones it fails
    probs = [0.9, 0.1, 0.0, 0.0]
    probs[site] = math.nan
    with pytest.raises(ValueError):
        PauliChannel(*probs)


def test_entropy_examples():
    assert channel_entropy(PauliChannel(1, 0, 0, 0)) == 0.0
    assert channel_entropy(PauliChannel(0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)


def test_entropy_at_true_depol_hashing_point():
    # the root of H(1-3p, p, p, p) = 1, checked at 30-digit precision
    assert channel_entropy(family_eval(DEPOL, 0.063096541638)) == pytest.approx(1.0, abs=1e-10)


@given(st.integers(0, 5))
def test_entropy_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    v = rng.dirichlet([1, 1, 1, 1])
    base = channel_entropy(PauliChannel(*v))
    for perm in ((0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2), (0, 2, 3, 1)):
        assert channel_entropy(PauliChannel(*v[list(perm)])) == pytest.approx(base)


def _grid_scan_root(family, step=1e-7):
    """Independent oracle: first grid point where the entropy reaches 1."""
    ps = np.arange(step, family.p_max(), step)
    if family.kind == "depolarizing":
        ent = -(1 - 3 * ps) * np.log2(1 - 3 * ps) - 3 * ps * np.log2(ps)
    elif family.kind == "independent_xz":
        ent = 2 * (-(1 - ps) * np.log2(1 - ps) - ps * np.log2(ps))
    else:
        ent = -(1 - 2 * ps) * np.log2(1 - 2 * ps) - 2 * ps * np.log2(ps)
    return ps[np.argmax(ent >= 1.0)]


@pytest.mark.parametrize("family", [DEPOL, INDXZ, TWOP], ids=lambda f: f.kind)
def test_hashing_point_vs_grid_scan(family):
    root = hashing_point(family)
    grid = _grid_scan_root(family)
    assert abs(root - grid) <= 1e-7


def test_hashing_point_indxz_value():
    assert hashing_point(INDXZ) == pytest.approx(0.1100278644, abs=1e-9)


def test_hashing_point_custom_value():
    fam = custom_family(0.06609142, 0.91039291, 0.02351567)
    assert hashing_point(fam) == pytest.approx(0.2810011867, abs=1e-7)


def test_custom_rejects_bad_sum():
    with pytest.raises(ValueError):
        ChannelFamily("custom", (0.4, 0.4, 0.1))
    with pytest.raises(ValueError):
        ChannelFamily("custom", (0.5, 0.5, 0.00001))  # below coefficient floor
    # printed-precision triple accepted only through custom_family's rescaling
    rounded = (0.02058418, 0.0205851, 0.95883071)
    with pytest.raises(ValueError):
        ChannelFamily("custom", rounded)
    fam = custom_family(*rounded)
    assert sum(fam.coefficients) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):  # too far from normalized to rescale
        custom_family(0.4, 0.4, 0.1)


def test_parse_channel_spec():
    assert parse_channel_spec("depol").kind == "depolarizing"
    assert parse_channel_spec("indxz").kind == "independent_xz"
    assert parse_channel_spec("twopauli").kind == "two_pauli"
    fam = parse_channel_spec("custom:0.2,0.3,0.5")
    assert fam.coefficients == pytest.approx((0.2, 0.3, 0.5))
    with pytest.raises(ValueError):
        parse_channel_spec("custom:0.2,0.3")
    with pytest.raises(ValueError):
        parse_channel_spec("nosuch")


def test_swap_xz():
    ch = PauliChannel(0.7, 0.1, 0.05, 0.15)
    sw = ch.swap_xz()
    assert (sw.p_x, sw.p_z) == (ch.p_z, ch.p_x)
    assert channel_entropy(sw) == pytest.approx(channel_entropy(ch))


ROOT_TOL = 1e-12


def _kinked(x):
    return 3.0 * (x - 0.3) if x < 0.3 else x - 0.3


def _flat_then_steep(x):
    return -1e-9 if x < 0.7 else 1e6 * (x - 0.7) ** 3


@pytest.mark.parametrize("f,lo,hi", [
    (lambda x: math.exp(x) - 2.0, 0.0, 2.0),  # smooth
    (_kinked, 0.0, 1.0),
    (_flat_then_steep, 0.0, 1.0),
    (lambda x: x - 1.0, 0.0, 1.0),  # root exactly at the upper end
    (lambda x: x - 0.25 * ROOT_TOL, 0.0, 1.0),  # root inside tol of the lower end
], ids=["smooth", "kinked", "flat-then-steep", "root-at-hi", "root-near-lo"])
def test_bracketed_root_certificate(f, lo, hi):
    values = {}

    def g(x):
        values[x] = f(x)
        return values[x]

    a, b, evals = bracketed_root(g, lo, hi, ROOT_TOL, g(lo), g(hi))
    assert evals + 2 == len(values)
    assert 0.0 < b - a <= ROOT_TOL
    assert a in values and b in values  # both ends were evaluated
    assert values[a] < 0.0 <= values[b]


def test_bracketed_root_falls_back_to_bisection_at_a_kink():
    # interpolation overshoots a kinked root on every other step (55
    # evaluations without the fallback); bisection alone takes 40, and the
    # two overshoots that trigger the fallback cost 2 more
    _, _, evals = bracketed_root(_kinked, 0.0, 1.0, ROOT_TOL, _kinked(0.0), _kinked(1.0))
    assert evals <= 42


def test_bracketed_root_reuses_endpoint_values():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 0.5

    a, b, evals = bracketed_root(f, 0.0, 1.0, ROOT_TOL, f_lo=-0.5, f_hi=0.5)
    assert 0.0 not in calls and 1.0 not in calls
    assert evals == len(calls) <= 12
    assert a <= math.sqrt(0.5) <= b


def test_bracketed_root_rejects_unbracketed():
    with pytest.raises(ValueError):
        bracketed_root(lambda x: x + 1.0, 0.0, 1.0, ROOT_TOL, 1.0, 2.0)
    with pytest.raises(ValueError):  # f(lo) = 0 is not below zero
        bracketed_root(lambda x: x, 0.0, 1.0, ROOT_TOL, 0.0, 1.0)


def test_entropy_peak_named_families():
    for family, peak, h_peak in ((DEPOL, 0.25, 2.0), (INDXZ, 0.5, 2.0),
                                 (TWOP, 1.0 / 3.0, math.log2(3.0))):
        assert entropy_peak(family) == pytest.approx(peak, abs=1e-15)
        assert channel_entropy(family_eval(family, peak)) == pytest.approx(h_peak)


@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_custom_entropy_peak_vs_grid(weights):
    """Closed-form peak against a dense-grid argmax, on floored triples."""
    w = np.asarray(weights) + 1e-9
    c = 0.0001 + (1.0 - 0.0003) * w / w.sum()
    fam = custom_family(*c)
    c = np.asarray(fam.coefficients)
    step = 1e-5
    ps = np.arange(step, 1.0, step)
    ent = -(1 - ps) * np.log2(1 - ps) - (c * ps[:, None] * np.log2(c * ps[:, None])).sum(axis=1)
    peak = entropy_peak(fam)
    assert abs(peak - ps[np.argmax(ent)]) <= step
    assert channel_entropy(family_eval(fam, peak)) > 1.0
    assert hashing_point(fam) < peak


def _custom_triples(count=50, seed=5):
    rng = np.random.default_rng(seed)
    triples = [(0.9998, 1e-4, 1e-4)]
    for w in rng.dirichlet([0.5, 0.5, 0.5], size=count - 1):
        triples.append(tuple(0.0001 + (1.0 - 0.0003) * w))
    return [custom_family(*c) for c in triples]


_ORACLE_FAMILIES = {"depolarizing": (oracle.depolarizing, 0.25),
                    "independent_xz": (oracle.independent_xz, 0.5),
                    "two_pauli": (lambda p: (1 - 2 * p, p, 0, p), 1.0 / 3.0)}


@pytest.mark.parametrize("family", [DEPOL, INDXZ, TWOP, *_custom_triples()],
                         ids=lambda f: f.spec())
def test_hashing_point_matches_mpmath_root(family):
    if family.kind == "custom":
        channel, p_max = oracle.custom(family.coefficients), 1.0
    else:
        channel, p_max = _ORACLE_FAMILIES[family.kind]
    root = hashing_point(family)
    assert abs(root - float(oracle.hashing_point(channel, p_max))) <= 1e-14
    # the entropy crosses 1 bit within 5e-13 of the root
    assert channel_entropy(family_eval(family, root - 5e-13)) < 1.0
    assert channel_entropy(family_eval(family, root + 5e-13)) > 1.0
