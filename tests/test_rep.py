import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cosetcap import (ChannelFamily, CodeStack, block_table, family_eval,
                      make_repetition_code, registry_get, s_rb_code, s_rb_rep)
from cosetcap.capacity import evaluate_s_rb
from cosetcap.exact import coset_distribution
from cosetcap.rep import (StackBudgetError, _multisets, block_entries, multiset_count,
                          multisets, s_rb_atoms, top_atoms)
from conftest import assert_probabilities, random_channels
from oracle import concat_rep_coset_probs, fgh_eval
from xor_reference import compose_stack

DEPOL = ChannelFamily("depolarizing")
FAMILIES = [ChannelFamily("depolarizing"), ChannelFamily("independent_xz"),
            ChannelFamily("two_pauli")]


def test_fgh_examples():
    x, y = 0.73, 0.11
    assert fgh_eval("f_e", 2, 0, x, y) == pytest.approx(x * x + y * y)
    assert fgh_eval("g", 4, 0, x, y) == pytest.approx(0.5 * (x + y) ** 4)
    with pytest.raises(ValueError):
        fgh_eval("f_e", 3, 4, x, y)
    with pytest.raises(ValueError):
        fgh_eval("h", 3, 1, x, y)


@given(st.integers(1, 12), st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_f_even_plus_odd_identity(n, x, y):
    total = fgh_eval("f_e", n, 0, x, y) + fgh_eval("f_o", n, 0, x, y)
    assert total == pytest.approx((x + y) ** n, rel=1e-12)


def test_block_table_depolarizing_reduces_to_closed_forms():
    p = 0.06
    ch = family_eval(DEPOL, p)
    x, y = 1 - 3 * p, p
    for typ in ("Z", "X"):
        h = block_table(5, typ, ch)
        assert h[0, 0] == pytest.approx(fgh_eval("f_e", 5, 0, x, y), rel=1e-14)
        assert h[1, 0] == pytest.approx(fgh_eval("f_o", 5, 0, x, y), rel=1e-14)
        for k in range(1, 6):
            for b in (0, 1):
                assert h[b, k] == pytest.approx(fgh_eval("g", 5, k, x, y), rel=1e-13)


def _exact_block_cells(n, typ, ch):
    code = make_repetition_code(n, typ)
    return sorted(coset_distribution(code, [ch] * n).ravel())


@pytest.mark.parametrize("typ", ["Z", "X"])
def test_block_table_vs_exact_engine(typ, channels25):
    fam_points = [family_eval(f, p) for f in FAMILIES for p in (0.03, 0.09)]
    for ch in fam_points + channels25:
        for n in range(1, 7):
            h = block_table(n, typ, ch)
            assert_probabilities(h * [math.comb(n, k) for k in range(n + 1)], 1e-12)
            closed = sorted(
                h[b, k]
                for k in range(n + 1) for b in (0, 1)
                for _ in range(math.comb(n, k)))
            exact = _exact_block_cells(n, typ, ch)
            assert np.allclose(closed, exact, atol=1e-12)


def test_concat_probs_m1_degenerates_to_block_table():
    ch = family_eval(DEPOL, 0.05)
    h = block_table(4, "X", ch)
    for k in range(5):
        for b in (0, 1):
            ps = concat_rep_coset_probs(4, 1, ch.as_array(), [k], [b])
            assert ps[0] == pytest.approx(h[b, k], rel=1e-13)
            assert ps[1] == pytest.approx(h[b, 4 - k], rel=1e-13)
            assert ps[2] == pytest.approx(h[1 - b, k], rel=1e-13)
            assert ps[3] == pytest.approx(h[1 - b, 4 - k], rel=1e-13)


def test_concat_probs_normalizer_identity():
    ch = family_eval(DEPOL, 0.08)
    n, m = 3, 3
    h = block_table(n, "X", ch)
    kvec = [0, 0, 0]
    bvec = [0, 0, 0]
    ps = concat_rep_coset_probs(n, m, ch.as_array(), kvec, bvec)
    lhs = sum(ps)
    rhs = np.prod([h[0, 0] + h[0, n]] * m) + np.prod([h[1, 0] + h[1, n]] * m)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_concat_probs_match_composed_code(channels25):
    # every (kvec, bvec) class carries its coset's probability; a coset is
    # covered by exactly 2^(m-1) classes, so the sorted multisets agree
    n = m = 3
    stack = CodeStack((make_repetition_code(n, "X"), make_repetition_code(m, "Z")))
    code = compose_stack(stack)
    for ch in [family_eval(f, 0.07) for f in FAMILIES] + channels25[:5]:
        table = coset_distribution(code, [ch] * code.n)
        cells = np.sort(np.repeat(table.ravel(), 2 ** (m - 1)))
        closed = []
        for kvec in itertools.product(range(n + 1), repeat=m):
            mult = int(np.prod([math.comb(n, k) for k in kvec]))
            for bvec in itertools.product((0, 1), repeat=m):
                p_s = concat_rep_coset_probs(n, m, ch.as_array(), kvec, bvec)[0]
                closed.extend([p_s] * mult)
        closed = np.sort(np.array(closed))
        assert closed.shape == cells.shape
        assert np.allclose(closed, cells, atol=1e-12)


def test_concat_probs_shape_check():
    with pytest.raises(ValueError):
        concat_rep_coset_probs(3, 3, family_eval(DEPOL, 0.05).as_array(), [0, 0], [0, 0, 0])


@pytest.mark.parametrize("nm", [(3, 3), (2, 4), (4, 2), (5, 2), (2, 5), (1, 6), (6, 1)])
def test_s_rb_rep_matches_exact_engine(nm, channels25):
    n, m = nm
    layers = []
    if n > 1:
        layers.append(make_repetition_code(n, "X"))
    if m > 1:
        layers.append(make_repetition_code(m, "Z"))
    code = compose_stack(CodeStack(tuple(layers)))
    for ch in [family_eval(f, 0.08) for f in FAMILIES] + channels25[:8]:
        a = s_rb_code(code, ch)
        b = s_rb_rep(n, m, ch)
        assert b == pytest.approx(a, abs=1e-10)


def test_s_rb_rep_inner_type_z_swaps_channel(channels25):
    # Z-type inner blocks under an X-type top see the channel with X and Z
    # swapped
    stack = CodeStack((make_repetition_code(3, "Z"), make_repetition_code(4, "X")))
    for ch in channels25[:5]:
        a = evaluate_s_rb(stack, ch).s_rb
        assert a == pytest.approx(s_rb_rep(3, 4, ch.swap_xz()), abs=1e-13)


def test_s_rb_rep_xz_swap_invariance_on_symmetric_channels():
    for fam in FAMILIES:
        ch = family_eval(fam, 0.09)
        for n, m in ((3, 4), (2, 5)):
            assert s_rb_rep(n, m, ch) == pytest.approx(
                s_rb_rep(n, m, ch.swap_xz()), abs=1e-11)


@pytest.mark.parametrize("total,parts", [(0, 1), (4, 1), (0, 3), (5, 2), (3, 4), (6, 5)])
def test_multisets_lists_each_multiset_once_in_order(total, parts):
    counts, log_coeff = multisets(total, parts)
    ref = sorted(tuple(np.bincount(np.array(c, dtype=int), minlength=parts))
                 for c in itertools.combinations_with_replacement(range(parts), total))
    assert [tuple(row) for row in counts.astype(int)] == ref
    coeff = [math.factorial(total) / math.prod(map(math.factorial, row)) for row in ref]
    assert np.allclose(np.exp(log_coeff), coeff, rtol=1e-13, atol=0.0)
    assert not counts.flags.writeable and not log_coeff.flags.writeable


def test_s_rb_rep_budget():
    ch = family_eval(DEPOL, 0.0637)
    with pytest.raises(StackBudgetError):
        s_rb_rep(5, 500, ch)
    assert multiset_count(51, 6) == math.comb(56, 5)


def test_multiset_sum_temporaries_are_blocked():
    # 3x201: C(204, 3) = 1.4M multisets of four atoms, past SUM_MULTISETS,
    # so the count table is built on every call and not cached.  Beside the
    # table itself, the build's and the sum's temporaries (~89 B per
    # multiset in the sum) are held for one block of multisets at a time,
    # not for all of them (124 MB)
    rows = top_atoms(*block_entries(3, "X", family_eval(DEPOL, 0.0628)), "Z")
    # float64 count rows (count, 4) and log coefficients (count,)
    table_bytes = 8 * multiset_count(201, 4) * (4 + 1)
    cached = _multisets.cache_info().currsize
    tracemalloc.start()
    try:
        s_rb_atoms(rows, 201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _multisets.cache_info().currsize == cached
    assert peak < table_bytes + 20e6


def test_published_concatenated_threshold_values():
    # exact closed form reaches the printed inner-5 x outer-7 concatenation
    # threshold and the 5x5 independent X-Z one
    from cosetcap import threshold, parse_stack_spec
    r = threshold(parse_stack_spec("repX(5) x repZ(7)"), DEPOL)
    assert r.p_star == pytest.approx(0.06354354564, abs=1e-8)
    r = threshold(parse_stack_spec("repX(5) x repZ(5)"), ChannelFamily("independent_xz"))
    assert r.p_star == pytest.approx(0.1122021756, abs=1e-7)
