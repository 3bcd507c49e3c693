import math

import numpy as np
import pytest

from cosetcap import (ChannelFamily, PauliChannel, PauliString, coset_distribution,
                      custom_family, family_eval, registry_get, s_rb_code)
from cosetcap.exact import CLASS_OF_LETTER, ExhaustiveLimitError
from conftest import CODE_NAMES, assert_probabilities, random_channels
from xor_reference import classify, gather_s_rb

DEPOL = ChannelFamily("depolarizing")

FAMILIES = [DEPOL, ChannelFamily("independent_xz"), ChannelFamily("two_pauli"),
            custom_family(0.6, 0.1, 0.3)]


def enumerated_table(code, site_channels):
    """Oracle: the (syndromes, classes) table summed over all 4^n errors."""
    n = code.n
    letters = np.indices((4,) * n).reshape(n, -1)  # (I, X, Y, Z) = 0..3
    x, z = (letters == 1) | (letters == 2), letters >= 2
    probs = np.prod([ch.as_array()[letters[i]] for i, ch in enumerate(site_channels)],
                    axis=0)
    checks = list(code.generators)
    for j in range(code.k):
        checks += [code.logical_x[j], code.logical_z[j]]
    index = np.zeros(letters.shape[1], dtype=np.int64)
    for b, chk in enumerate(checks):
        gx = np.array([(chk.x_bits >> i) & 1 for i in range(n)])[:, None]
        gz = np.array([(chk.z_bits >> i) & 1 for i in range(n)])[:, None]
        index |= (((x * gz).sum(axis=0) + (z * gx).sum(axis=0)) % 2) << b
    g = len(code.generators)
    dist = np.bincount(index, weights=probs, minlength=1 << (g + 2 * code.k))
    return dist.reshape(4 ** code.k, 2 ** g).T


ENUMERATED_CODES = ["repZ(3)", "5qubit", "422", "scfH"] + [
    name for name in CODE_NAMES
    if registry_get(name).n <= 9 and name not in ("5qubit", "422", "scfH")]


@pytest.mark.parametrize("name", ENUMERATED_CODES)
def test_table_matches_brute_force(name):
    code = registry_get(name)
    chans = random_channels(code.n, seed=sum(map(ord, name)))
    v = chans[0].as_array()
    v[2] = 0.0  # a letter of zero probability
    chans[0] = PauliChannel(*(v / v.sum()))
    for site_channels in (chans, [PauliChannel(1, 0, 0, 0)] * code.n):
        table = coset_distribution(code, site_channels)
        assert_probabilities(table, 1e-10)
        want = enumerated_table(code, site_channels)
        assert np.abs(table - want).max() <= 1e-13


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_s_rb_matches_gather_reference_on_every_bundled_code(family):
    for name in CODE_NAMES:
        code = registry_get(name)
        for p in (0.0, 1e-6, 0.05, 0.1, 0.2):
            ch = family_eval(family, p)
            assert abs(s_rb_code(code, ch) - gather_s_rb(code, ch)) <= 1e-12


def test_table_invariants_all_registry():
    ch = family_eval(DEPOL, 0.05)
    for name in ("steane", "biased9", "toric822", "tailored713H", "11qubit"):
        code = registry_get(name)
        table = coset_distribution(code, [ch] * code.n)
        assert_probabilities(table, 1e-10)
        # a view of the class-major buffer of the inverse transform, which
        # batched_s_rb reads without a copy
        assert table.shape == (2 ** len(code.generators), 4 ** code.k)
        assert table.base is not None and table.T.flags.c_contiguous


def test_noiseless_table_trivial():
    code = registry_get("5qubit")
    table = coset_distribution(code, [PauliChannel(1, 0, 0, 0)] * 5)
    assert table[0, 0] == pytest.approx(1.0)
    assert s_rb_code(code, PauliChannel(1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-14)


def test_identity_coset_closed_form_rep3():
    # the trivial cell of repZ(3) under depolarizing carries
    # (1-3p)^3 + 3 p^2 (1-3p), the even-weight enumerator value
    p = 0.07
    table = coset_distribution(registry_get("repZ(3)"), [family_eval(DEPOL, p)] * 3)
    expected = (1 - 3 * p) ** 3 + 3 * p * p * (1 - 3 * p)
    assert table[0, 0] == pytest.approx(expected, rel=1e-13)


def test_s_rb_two_forms_agree(channels25):
    for name in ("5qubit", "422", "biased9"):
        code = registry_get(name)
        for ch in channels25[:6]:
            table = coset_distribution(code, [ch] * code.n)
            direct = s_rb_code(code, ch)
            # conditional form: sum_T P_T H(classes | T)
            synd = table.sum(axis=1)
            cond = 0.0
            for s in range(table.shape[0]):
                if synd[s] <= 0.0:
                    continue
                for c in range(table.shape[1]):
                    p = table[s, c]
                    if p > 0.0:
                        cond -= p * math.log2(p / synd[s])
            assert direct == pytest.approx(cond, abs=1e-12)


def test_entropy_reduction_matches_xlogy():
    from scipy.special import xlogy
    for name in ("13cyclic", "steane", "5qubit"):
        code = registry_get(name)
        for family in (DEPOL, ChannelFamily("two_pauli")):
            for p in (0.0, 1e-6, 0.06, 0.2):
                ch = family_eval(family, p)
                cells = coset_distribution(code, [ch] * code.n)
                synd = cells.sum(axis=1)
                ref = (xlogy(synd, synd).sum() - xlogy(cells, cells).sum()) / math.log(2.0)
                assert s_rb_code(code, ch) == pytest.approx(ref, abs=1e-14)


def test_exhaustive_limit():
    code = registry_get("repZ(14)")
    with pytest.raises(ExhaustiveLimitError):
        coset_distribution(code, [family_eval(DEPOL, 0.05)] * 14)


def test_site_channel_count_checked():
    with pytest.raises(ValueError):
        coset_distribution(registry_get("5qubit"), [family_eval(DEPOL, 0.05)] * 4)


def test_raw_site_rows_are_checked_as_channels():
    # a 4-vector row is read as PauliChannel reads it: one that does not sum
    # to 1, or has a negative entry, is refused rather than tabulated
    code = registry_get("5qubit")
    for row in ((0.5, 0.2, 0.1, 0.1), (1.1, -0.1, 0.0, 0.0)):
        with pytest.raises(ValueError):
            coset_distribution(code, [row] * 5)
    chans = random_channels(5, seed=5)
    assert np.array_equal(coset_distribution(code, [ch.as_array() for ch in chans]),
                          coset_distribution(code, chans))


def test_422_s_rb_reaches_two_at_threshold():
    # its zero-rate point: S_RB = k = 2 there
    ch = family_eval(DEPOL, 0.06261572)
    assert s_rb_code(registry_get("422"), ch) == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("name,p_star", [
    ("repZ(5)", 0.06345202939), ("5qubit", 0.06298730942)])
def test_s_rb_is_one_at_published_threshold(name, p_star):
    assert s_rb_code(registry_get(name), family_eval(DEPOL, p_star)) == \
        pytest.approx(1.0, abs=1e-7)


def test_swap_xz_invariance_on_symmetric_channels(channels25):
    for fam in (DEPOL, ChannelFamily("independent_xz")):
        ch = family_eval(fam, 0.05)
        for name in ("5qubit", "biased9", "scfH"):
            code = registry_get(name)
            assert s_rb_code(code.swap_xz(), ch) == \
                pytest.approx(s_rb_code(code, ch), abs=1e-12)
    # repX/repZ produce identical tables up to relabeling
    a = sorted(coset_distribution(registry_get("repZ(3)"),
                                  [family_eval(DEPOL, 0.06)] * 3).ravel())
    b = sorted(coset_distribution(registry_get("repX(3)"),
                                  [family_eval(DEPOL, 0.06)] * 3).ravel())
    assert np.allclose(a, b, atol=1e-15)


def test_s_rb_continuous_near_threshold():
    code = registry_get("repZ(5)")
    ps = np.arange(0.0632, 0.0637, 1e-5)
    vals = [s_rb_code(code, family_eval(DEPOL, p)) for p in ps]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() < 1e-3


def test_s_rb_zero_at_zero_noise():
    for name in ("repZ(4)", "steane"):
        assert s_rb_code(registry_get(name), family_eval(DEPOL, 0.0)) == \
            pytest.approx(0.0, abs=1e-14)


def test_per_site_channels_are_first_class():
    # heterogeneous channels: brute force again, smaller code
    code = registry_get("repZ(3)")
    chans = random_channels(3, seed=99)
    table = coset_distribution(code, chans)
    assert np.abs(table - enumerated_table(code, chans)).max() <= 1e-14


def test_class_letter_permutation_is_consistent():
    # CLASS_OF_LETTER maps (I, X, Y, Z) to class indices: X anticommutes
    # with logical Z only, Z with logical X only, Y with both
    assert CLASS_OF_LETTER == (0, 2, 3, 1)
    code = registry_get("repZ(3)")
    res_x = classify(code, PauliString.from_text("XXX"))
    assert res_x.logical_class == (0, 1)  # class index 2
    res_z = classify(code, PauliString.from_text("ZII"))
    assert res_z.logical_class == (1, 0)  # class index 1
