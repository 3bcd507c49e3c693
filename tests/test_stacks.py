import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetcap import (ChannelFamily, CodeStack, MonteCarlo, PauliChannel,
                      compose_stack, effective_channels, family_eval,
                      parse_stack_spec, registry_get, s_rb_code,
                      s_rb_stack_exact, s_rb_stack_mc)
from cosetcap import stacks
from cosetcap.exact import _E4, _WHT_BLOCK, _character_table, _inverse_wht
from cosetcap.stacks import StackBudgetError
from xor_reference import gather_s_rb, letter_masks

DEPOL = ChannelFamily("depolarizing")
CH06 = family_eval(DEPOL, 0.06)

# stacks of total length <= 12 with 2 and 3 layers, including k=2 tops
ORACLE_SPECS = [
    "repZ(3) x repX(3)",
    "repZ(2) x repX(5)",
    "repX(3) x repZ(4)",
    "repZ(2) x repX(2) x repZ(3)",
    "repZ(2) x repX(3) x repZ(2)",
    "repZ(3) x 422",
    "repZ(2) x scfH",
    "repZ(5) x repX(2)",
    "repZ(2) x repX(2) x 3repX",
    "repZ(3) x toric822",  # 24 qubits: flat side skipped below
]


def test_parse_stack_spec():
    # aliases resolve to canonical registry names
    stack = parse_stack_spec("5repX x 5qubit x 5repZ")
    assert [c.name for c in stack.layers] == ["repX(5)", "5qubit", "5repZ"]
    assert stack.total_length == 125
    assert stack.k_outer == 1
    assert parse_stack_spec("").layers == ()
    assert parse_stack_spec("").total_length == 1
    with pytest.raises(KeyError):
        parse_stack_spec("noidea x 5repZ")


def test_inner_layers_must_be_k1():
    with pytest.raises(ValueError):
        CodeStack((registry_get("422"), registry_get("repZ(3)")))


def test_effective_channels_rep3_groups():
    es = effective_channels(registry_get("repZ(3)"), [CH06] * 3)
    es.check_invariants()
    assert len(es.weights) == 2
    # trivial syndrome = X-support empty or full; the three nontrivial
    # syndromes share a single conditional channel class
    p = 0.06
    assert es.weights[0] == pytest.approx((1 - 2 * p) ** 3 + (2 * p) ** 3, abs=1e-12)


def test_effective_channels_noiseless():
    es = effective_channels(registry_get("repZ(3)"), [PauliChannel(1, 0, 0, 0)] * 3)
    assert len(es.weights) == 1
    assert es.weights[0] == pytest.approx(1.0)
    assert es.channels[0] == pytest.approx([1, 0, 0, 0])


def test_effective_channels_five_qubit_structure():
    es = effective_channels(registry_get("5qubit"), [CH06] * 5)
    es.check_invariants()
    # 16 syndromes collapse to the trivial one plus one equivalence class
    assert len(es.weights) == 2
    assert np.all(es.channels >= 0)
    assert es.channels.sum(axis=1) == pytest.approx(np.ones(2))


def test_effective_channels_requires_k1():
    with pytest.raises(ValueError):
        effective_channels(registry_get("422"), [CH06] * 4)


@pytest.mark.parametrize("spec", [s for s in ORACLE_SPECS if "toric" not in s])
def test_stack_exact_equals_flat_composition(spec):
    stack = parse_stack_spec(spec)
    flat = compose_stack(stack)
    assert flat.n == stack.total_length
    got = s_rb_stack_exact(stack, CH06)
    want = s_rb_code(flat, CH06)
    assert got == pytest.approx(want, abs=1e-9)


def test_grouping_never_changes_values():
    for spec in ("repZ(3) x repX(3)", "repZ(2) x repX(2) x repZ(2)", "repZ(3) x 422"):
        stack = parse_stack_spec(spec)
        grouped = s_rb_stack_exact(stack, CH06)
        raw = s_rb_stack_exact(stack, CH06, group_tol=0.0, canonicalize=False)
        assert grouped == pytest.approx(raw, abs=1e-12)


def test_empty_stack_is_bare_channel_entropy():
    from cosetcap import channel_entropy
    assert s_rb_stack_exact(CodeStack(()), CH06) == pytest.approx(channel_entropy(CH06))


def test_compose_stack_names_and_validation():
    stack = parse_stack_spec("repZ(3) x repX(3)")
    flat = compose_stack(stack)
    assert flat.n == 9 and flat.k == 1
    assert flat.name == "repZ(3) x repX(3)"
    # composing the empty stack gives the trivial identity encoding
    assert compose_stack(CodeStack(())).n == 1


def test_stack_budget_error():
    stack = parse_stack_spec("repZ(5) x biased9")
    with pytest.raises(StackBudgetError):
        s_rb_stack_exact(stack, CH06, budget=100)


def test_repetition_layer_from_a_code_file_takes_the_multiset_path(tmp_path):
    # a repetition code by its checks alone (a chain, not the registry's
    # star): the 2 entries of repX(3) give it 6 multisets (12 count cells)
    # against 2^5 = 32 ordered assignments, and a budget of 20 admits only
    # the multisets
    path = tmp_path / "chain5.code"
    path.write_text("name chain5\nnk 5 1\nG ZZIII\nG IZZII\nG IIZZI\nG IIIZZ\n"
                    "LX XXXXX\nLZ ZIIII\n")
    stack = parse_stack_spec(f"repX(3) x {path}")
    assert len(effective_channels(stack.layers[0], [CH06] * 3).weights) == 2
    got = s_rb_stack_exact(stack, CH06, budget=20)
    assert got == pytest.approx(gather_s_rb(compose_stack(stack), CH06), abs=1e-9)
    with pytest.raises(StackBudgetError):
        s_rb_stack_exact(parse_stack_spec("repX(3) x 5qubit"), CH06, budget=20)


def test_stack_budget_bounds_multiset_memory():
    # repX(5) over the 69 entries of 5qubit: 15,020,334 multisets, whose
    # multiset count matrix alone would take 8.3 GB
    stack = parse_stack_spec("repX(5) x 5qubit x repZ(5)")
    t0 = time.perf_counter()
    with pytest.raises(StackBudgetError, match="69 entries"):
        s_rb_stack_exact(stack, family_eval(DEPOL, 0.0635))
    assert time.perf_counter() - t0 < 10.0


def test_mc_zero_noise():
    stack = parse_stack_spec("repZ(3) x repX(3)")
    est, se = s_rb_stack_mc(stack, PauliChannel(1, 0, 0, 0), samples=2000, seed=3)
    assert est == 0.0 and se == 0.0


def test_mc_needs_two_layers():
    with pytest.raises(ValueError):
        s_rb_stack_mc(parse_stack_spec("repZ(3)"), CH06, samples=100, seed=0)


def test_mc_agrees_with_exact_within_3_sigma():
    stack = parse_stack_spec("repZ(3) x repX(3)")
    exact = s_rb_stack_exact(stack, CH06)
    est, se = s_rb_stack_mc(stack, CH06, samples=100_000, seed=11)
    assert abs(est - exact) <= 3.0 * se


def test_mc_deterministic_and_chunk_invariant():
    stack = parse_stack_spec("repZ(3) x repX(3)")
    a = s_rb_stack_mc(stack, CH06, samples=30_000, seed=5)
    b = s_rb_stack_mc(stack, CH06, samples=30_000, seed=5)
    assert a == b
    c = s_rb_stack_mc(stack, CH06, samples=30_000, seed=6)
    assert c != a


def test_mc_error_shrinks_with_samples():
    stack = parse_stack_spec("repZ(3) x repX(3)")
    _, se1 = s_rb_stack_mc(stack, CH06, samples=20_000, seed=9)
    _, se2 = s_rb_stack_mc(stack, CH06, samples=80_000, seed=9)
    assert se2 == pytest.approx(se1 / 2.0, rel=0.25)


def test_three_layer_mc_runs():
    stack = parse_stack_spec("repX(3) x 5qubit x repZ(3)")
    exact = s_rb_stack_exact(stack, CH06)
    est, se = s_rb_stack_mc(stack, CH06, samples=60_000, seed=2)
    assert abs(est - exact) <= 4.0 * se


@pytest.mark.parametrize("name", ["5qubit", "422", "toric822", "biased9"])
def test_site_sign_matrices_match_brute_force_parity(name):
    # the pattern table is 2 parity(v & mask_X) + parity(v & mask_Z), and
    # the site sign matrices E4[:, pattern] it stands for are the
    # characters (-1)^parity(v & mask) of all four letters
    code = registry_get(name)
    pattern = _character_table(code)
    masks = letter_masks(code)
    size = 1 << (len(code.generators) + 2 * code.k)
    assert pattern.shape == (code.n, size) and pattern.dtype == np.uint8
    parity = lambda m: np.array([bin(v & int(m)).count("1") % 2 for v in range(size)])
    for i in range(code.n):
        assert np.array_equal(pattern[i], 2 * parity(masks[i, 1]) + parity(masks[i, 3]))
        for letter in range(4):
            assert np.array_equal(_E4[letter, pattern[i]],
                                  1.0 - 2.0 * parity(masks[i, letter]))


@pytest.mark.parametrize("bits", range(15))
def test_inverse_wht_matches_sylvester_product(bits):
    size = 1 << bits
    # three more rows than two row blocks: the last block is partial
    rows = 2 * max(1, _WHT_BLOCK // size) + 3
    x = np.random.default_rng(bits).uniform(-1.0, 1.0, (rows, size))
    want_x = x.copy()
    out = _inverse_wht(x)
    assert out is x
    # explicit Sylvester rows H[u, v] = (-1)^popcount(u & v); all of them up
    # to 2^10 points, 256 sampled output points beyond
    cols = np.arange(size)
    if size > 1024:
        cols = np.sort(np.random.default_rng(100 + bits).choice(size, 256, replace=False))
    overlap = cols[:, None] & np.arange(size)[None, :]
    parity = np.zeros_like(overlap)
    for b in range(bits):
        parity ^= (overlap >> b) & 1
    hadamard = 1.0 - 2.0 * parity
    want = want_x @ hadamard.T / size
    assert np.abs(out[:, cols] - want).max() <= 1e-14


# letter probabilities: exact zeros are drawn often
_LETTER = st.one_of(st.just(0.0), st.floats(0.001, 1.0))


@st.composite
def pauli_channels(draw):
    v = np.array([draw(_LETTER) for _ in range(4)])
    if draw(st.booleans()) or v.sum() == 0.0:
        v[0] += 1.0  # mostly-identity channels, and the noiseless one
    return PauliChannel(*(v / v.sum()))


# non-symmetric tops, one with k = 2, and a multiset top
CROSS_ENGINE_SPECS = ["repZ(3) x 422", "repZ(2) x scfH", "repZ(2) x 613H",
                      "repZ(2) x 5qubit", "repZ(2) x repX(2) x 3repX"]


@pytest.mark.parametrize("spec", CROSS_ENGINE_SPECS)
@settings(max_examples=20, deadline=None)
@given(ch=st.one_of(st.just(PauliChannel(1, 0, 0, 0)), pauli_channels()))
def test_grouped_engine_matches_flat_composition(spec, ch):
    stack = parse_stack_spec(spec)
    grouped = s_rb_stack_exact(stack, ch)
    assert np.isfinite(grouped)
    assert grouped == pytest.approx(gather_s_rb(compose_stack(stack), ch), abs=1e-9)
    raw = s_rb_stack_exact(stack, ch, group_tol=0.0, canonicalize=False)
    assert raw == pytest.approx(grouped, abs=1e-12)


@pytest.mark.parametrize("chunk_elems", [1, 3 << 10])
def test_chunking_never_changes_values(monkeypatch, chunk_elems):
    # chunks of one assignment, and of a few prefixes times a block of the
    # last sites, against the flat code; the letters are all distinct so
    # that every site's spectrum table matters
    ch = PauliChannel(0.8, 0.1, 0.03, 0.07)
    monkeypatch.setattr(stacks, "_CHUNK_ELEMS", chunk_elems)
    for spec in ("repZ(3) x 422", "repZ(2) x 613H", "repZ(2) x repX(2) x 3repX"):
        stack = parse_stack_spec(spec)
        want = gather_s_rb(compose_stack(stack), ch)
        raw = s_rb_stack_exact(stack, ch, group_tol=0.0, canonicalize=False)
        assert raw == pytest.approx(want, abs=1e-9)
        assert s_rb_stack_exact(stack, ch) == pytest.approx(want, abs=1e-9)
