import itertools
import json
import math

import numpy as np
import pytest

from cosetcap import (ChannelFamily, PauliChannel, PauliString, classify,
                      coset_distribution, family_eval, registry_get,
                      s_rb_code, s_rb_exact)
from cosetcap.exact import CLASS_OF_LETTER, ExhaustiveLimitError
from conftest import random_channels

DEPOL = ChannelFamily("depolarizing")

_LETTER_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def brute_force_table(code, site_channels):
    """Oracle: classify all 4^n errors one by one and accumulate."""
    probs = {}
    site = [ch.as_array() for ch in site_channels]
    for letters in itertools.product("IXYZ", repeat=code.n):
        x = z = 0
        pr = 1.0
        for i, letter in enumerate(letters):
            bx, bz = _LETTER_XZ[letter]
            x |= bx << i
            z |= bz << i
            pr *= site[i]["IXYZ".index(letter)]
        res = classify(code, PauliString(code.n, x, z))
        probs[(res.syndrome, res.logical_class)] = \
            probs.get((res.syndrome, res.logical_class), 0.0) + pr
    return probs


def as_cell_dict(table):
    out = {}
    ngens = int(math.log2(table.probs.shape[0]))
    for s in range(table.probs.shape[0]):
        for c in range(table.probs.shape[1]):
            p = table.probs[s, c]
            if p > 0.0:
                synd = tuple((s >> i) & 1 for i in range(ngens))
                cls = tuple((c >> i) & 1 for i in range(2 * table.k))
                out[(synd, cls)] = p
    return out


@pytest.mark.parametrize("name", ["repZ(3)", "5qubit", "422", "scfH"])
def test_table_matches_brute_force(name):
    code = registry_get(name)
    chans = random_channels(code.n, seed=abs(hash(name)) % 1000)
    table = coset_distribution(code, chans)
    table.check_invariants()
    oracle = brute_force_table(code, chans)
    mine = as_cell_dict(table)
    assert set(oracle) == set(mine)
    for key, val in oracle.items():
        assert mine[key] == pytest.approx(val, abs=1e-13)


def test_table_invariants_all_registry():
    ch = family_eval(DEPOL, 0.05)
    for name in ("steane", "biased9", "toric822", "tailored713H", "11qubit"):
        code = registry_get(name)
        table = coset_distribution(code, [ch] * code.n)
        table.check_invariants()
        synd = table.syndrome_probs()
        # per-syndrome class masses add back to the syndrome mass
        assert np.allclose(table.probs.sum(axis=1), synd, atol=1e-12)


def test_noiseless_table_trivial():
    code = registry_get("5qubit")
    table = coset_distribution(code, [PauliChannel(1, 0, 0, 0)] * 5)
    assert table.probs[0, 0] == pytest.approx(1.0)
    assert s_rb_exact(table) == pytest.approx(0.0, abs=1e-14)


def test_identity_coset_closed_form_rep3():
    # the trivial cell of repZ(3) under depolarizing carries
    # (1-3p)^3 + 3 p^2 (1-3p), the even-weight enumerator value
    p = 0.07
    table = coset_distribution(registry_get("repZ(3)"), [family_eval(DEPOL, p)] * 3)
    expected = (1 - 3 * p) ** 3 + 3 * p * p * (1 - 3 * p)
    assert table.probs[0, 0] == pytest.approx(expected, rel=1e-13)


def test_s_rb_two_forms_agree(channels25):
    for name in ("5qubit", "422", "biased9"):
        code = registry_get(name)
        for ch in channels25[:6]:
            table = coset_distribution(code, [ch] * code.n)
            direct = s_rb_exact(table)
            # conditional form: sum_T P_T H(classes | T)
            synd = table.syndrome_probs()
            cond = 0.0
            for s in range(table.probs.shape[0]):
                if synd[s] <= 0.0:
                    continue
                for c in range(table.probs.shape[1]):
                    p = table.probs[s, c]
                    if p > 0.0:
                        cond -= p * math.log2(p / synd[s])
            assert direct == pytest.approx(cond, abs=1e-12)


def test_entropy_reduction_matches_xlogy():
    from scipy.special import xlogy
    for name in ("13cyclic", "steane", "5qubit"):
        code = registry_get(name)
        for family in (DEPOL, ChannelFamily("two_pauli")):
            for p in (0.0, 1e-6, 0.06, 0.2):
                table = coset_distribution(code, [family_eval(family, p)] * code.n)
                cells, synd = table.probs, table.syndrome_probs()
                ref = (xlogy(synd, synd).sum() - xlogy(cells, cells).sum()) / math.log(2.0)
                assert s_rb_exact(table) == pytest.approx(ref, abs=1e-14)


def test_exhaustive_limit():
    code = registry_get("13cyclic")
    with pytest.raises(ExhaustiveLimitError):
        coset_distribution(code, [family_eval(DEPOL, 0.05)] * 13, limit=12)


def test_site_channel_count_checked():
    with pytest.raises(ValueError):
        coset_distribution(registry_get("5qubit"), [family_eval(DEPOL, 0.05)] * 4)


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
                                  [family_eval(DEPOL, 0.06)] * 3).probs.ravel())
    b = sorted(coset_distribution(registry_get("repX(3)"),
                                  [family_eval(DEPOL, 0.06)] * 3).probs.ravel())
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
    oracle = brute_force_table(code, chans)
    mine = as_cell_dict(table)
    for key, val in oracle.items():
        assert mine[key] == pytest.approx(val, abs=1e-14)


def test_json_dump():
    code = registry_get("repZ(3)")
    table = coset_distribution(code, [family_eval(DEPOL, 0.05)] * 3)
    payload = json.loads(table.to_json())
    assert payload["code"] == "repZ(3)"
    total = sum(sum(row) for row in payload["cells"].values())
    assert total == pytest.approx(1.0, abs=1e-10)
    assert set(payload["cells"]) == {"0", "1", "2", "3"}


def test_class_letter_permutation_is_consistent():
    # CLASS_OF_LETTER maps (I, X, Y, Z) to class indices: X anticommutes
    # with logical Z only, Z with logical X only, Y with both
    assert CLASS_OF_LETTER == (0, 2, 3, 1)
    code = registry_get("repZ(3)")
    res_x = classify(code, PauliString.from_text("XXX"))
    assert res_x.logical_class == (0, 1)  # class index 2
    res_z = classify(code, PauliString.from_text("ZII"))
    assert res_z.logical_class == (1, 0)  # class index 1
