import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from cosetcap import (ChannelFamily, CodeStack, MonteCarlo, PauliChannel,
                      effective_channels, family_eval, make_repetition_code, parse_code,
                      parse_stack_spec, registry_get, s_rb_code, s_rb_stack_exact,
                      s_rb_stack_mc)
from cosetcap import capacity, rep, stacks
from cosetcap.codes import (StabilizerCode, automorphism_group, serialize_code,
                            site_automorphisms)
from cosetcap.exact import (_E4, _WHT_BLOCK, ExhaustiveLimitError, _cells,
                            _character_table, _inverse_wht, batched_s_rb)
from cosetcap.longrep import s_rb_estimate_atoms
from cosetcap.pauli import PauliString
from cosetcap.stacks import StackBudgetError, _canonical_rows, _orbit_table
from conftest import assert_probabilities
from mc_reference import s_rb_stack_mc_rows
from xor_reference import compose_stack, gather_s_rb, letter_masks

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
    assert [c.name for c in stack.layers] == ["repX(5)", "5qubit", "repZ(5)"]
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
    weights, channels = effective_channels(registry_get("repZ(3)"), CH06)
    assert_probabilities(weights, 1e-10)
    assert_probabilities(channels, 1e-9, axis=1)
    assert len(weights) == 2
    # trivial syndrome = X-support empty or full; the three nontrivial
    # syndromes share a single conditional channel class
    p = 0.06
    assert weights[0] == pytest.approx((1 - 2 * p) ** 3 + (2 * p) ** 3, abs=1e-12)


def test_effective_channels_noiseless():
    weights, channels = effective_channels(registry_get("repZ(3)"), PauliChannel(1, 0, 0, 0))
    assert len(weights) == 1
    assert weights[0] == pytest.approx(1.0)
    assert channels[0] == pytest.approx([1, 0, 0, 0])


def test_effective_channels_five_qubit_structure():
    weights, channels = effective_channels(registry_get("5qubit"), CH06)
    assert_probabilities(weights, 1e-10)
    assert_probabilities(channels, 1e-9, axis=1)
    # 16 syndromes collapse to the trivial one plus one equivalence class
    assert len(weights) == 2
    assert np.all(channels >= 0)
    assert channels.sum(axis=1) == pytest.approx(np.ones(2))


@pytest.mark.parametrize("name,count", [("biased9", 3), ("steane", 2), ("shor", 4)])
def test_effective_channels_drop_round_off_syndromes(name, count):
    # a channel without Y and Z errors reaches few syndromes; the Walsh
    # engine leaves round-off (~1e-17) on the others, which must not become
    # entries of their own
    code = registry_get(name)
    weights, channels = effective_channels(code, PauliChannel(0.9, 0.1, 0.0, 0.0))
    assert len(weights) == count
    assert_probabilities(weights, 1e-10)
    assert_probabilities(channels, 1e-9, axis=1)


def test_effective_channels_requires_k1():
    with pytest.raises(ValueError):
        effective_channels(registry_get("422"), CH06)


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
        raw = s_rb_stack_exact(stack, CH06, raw=True)
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


def test_stack_budget_error(monkeypatch):
    monkeypatch.setattr(rep, "ASSIGNMENT_BUDGET", 100)
    stack = parse_stack_spec("repZ(5) x biased9")
    with pytest.raises(StackBudgetError):
        s_rb_stack_exact(stack, CH06)


def test_repetition_layer_from_a_code_file_takes_the_multiset_path(tmp_path, monkeypatch):
    # a repetition code by its checks alone (a chain, not the registry's
    # star): the 2 entries of repX(3) give it 6 multisets (12 count cells)
    # against 2^5 = 32 ordered assignments, and a budget of 20 admits only
    # the multisets
    path = tmp_path / "chain5.code"
    path.write_text("name chain5\nnk 5 1\nG ZZIII\nG IZZII\nG IIZZI\nG IIIZZ\n"
                    "LX XXXXX\nLZ ZIIII\n")
    stack = parse_stack_spec(f"repX(3) x {path}")
    assert len(effective_channels(stack.layers[0], CH06)[0]) == 2
    monkeypatch.setattr(rep, "ASSIGNMENT_BUDGET", 20)
    got = s_rb_stack_exact(stack, CH06)
    assert got == pytest.approx(gather_s_rb(compose_stack(stack), CH06), abs=1e-9)
    with pytest.raises(StackBudgetError):
        s_rb_stack_exact(parse_stack_spec("repX(3) x 5qubit"), CH06)


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


def test_mc_deterministic_and_seed_dependent():
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


@pytest.mark.parametrize("spec", ["repZ(15) x 5qubit", "repZ(15) x 5qubit x repZ(3)"])
def test_mc_takes_long_innermost_repetition_layers(spec):
    # the innermost blocks draw from the closed-form entries of top_entries,
    # so an innermost repetition layer has no 13-qubit limit here either
    stack = parse_stack_spec(spec)
    ch = family_eval(DEPOL, 0.02)
    exact = capacity.evaluate_s_rb(stack, ch).s_rb
    est, se = s_rb_stack_mc(stack, ch, samples=20_000, seed=1)
    assert se > 0.0 and abs(est - exact) <= 4.0 * se


@pytest.mark.parametrize("spec", ["repZ(3) x {c20}", "5qubit x repZ(15)",
                                  "repX(3) x 5qubit x repZ(15)"])
def test_mc_refuses_long_walsh_layers_first(tmp_path, spec):
    # every layer but an innermost repetition one goes through the Walsh
    # engine, a repetition top too: a 20-qubit top (5qubit x repZ(4) written
    # out flat) is refused before its automorphism group is searched
    flat = dataclasses.replace(compose_stack(parse_stack_spec("5qubit x repZ(4)")),
                               name="c20")
    path = tmp_path / "c20.code"
    path.write_text(serialize_code(flat))
    stack = parse_stack_spec(spec.format(c20=path))
    start = time.perf_counter()
    with pytest.raises(ExhaustiveLimitError, match="exceeds exhaustive limit"):
        s_rb_stack_mc(stack, family_eval(DEPOL, 0.05), samples=2000, seed=0)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("samples", [0, -5])
def test_mc_needs_a_positive_sample_count(samples):
    stack = parse_stack_spec("repZ(3) x repX(3)")
    with pytest.raises(ValueError, match="at least one sample"):
        s_rb_stack_mc(stack, CH06, samples=samples)
    with pytest.raises(ValueError, match="at least one sample"):
        capacity.evaluate_s_rb(CodeStack(stack.layers, MonteCarlo(samples=samples)), CH06)


@pytest.mark.parametrize("spec,p,seed", [
    *itertools.product(["repZ(5) x biased9", "repX(3) x 5qubit x repZ(3)",
                        "repZ(15) x 5qubit x repZ(3)", "5qubit x 5qubit",
                        "repZ(3) x steane"], [0.02, 0.0635], [7, 11]),
    # 512 entries on the 9 top sites: canonical keys take two int64 words
    ("repZ(3) x 5qubit x biased9", 0.0635, 7),
    # 151 innermost entries: the entry lookup's guide table has 4,096 buckets
    ("13cyclic x repZ(3)", 0.0635, 7)])
def test_mc_matches_row_by_row_sampler(spec, p, seed):
    # same draws, each distinct middle row and each top orbit evaluated
    # once: equal up to rounding; 45,000 samples span three Philox chunks
    stack, ch = parse_stack_spec(spec), family_eval(DEPOL, p)
    est, se = s_rb_stack_mc(stack, ch, samples=45_000, seed=seed)
    ref_est, ref_se = s_rb_stack_mc_rows(stack, ch, samples=45_000, seed=seed)
    assert abs(est - ref_est) <= 1e-12 and abs(se - ref_se) <= 1e-12


@pytest.mark.parametrize("chunk_elems", [64, 256])
def test_mc_matches_row_by_row_sampler_across_row_blocks(monkeypatch, chunk_elems):
    # blocks of 1 or 4 middle rows and of 4 or 16 top rows: the distinct
    # middle rows, their (row, syndrome) keys and the top rows each span
    # many blocks, which the default block size never does at this size
    calls = {}

    def counting(code, chans):
        calls[code.name] = calls.get(code.name, 0) + 1
        return batched_cells(code, chans)

    batched_cells = stacks._batched_cells
    monkeypatch.setattr(stacks, "_CHUNK_ELEMS", chunk_elems)
    monkeypatch.setattr(stacks, "_batched_cells", counting)
    stack, ch = parse_stack_spec("repX(3) x 5qubit x repZ(3)"), family_eval(DEPOL, 0.0635)
    est, se = s_rb_stack_mc(stack, ch, samples=3_000, seed=7)
    assert calls["5qubit"] > 1 and calls["repZ(3)"] > 1
    ref_est, ref_se = s_rb_stack_mc_rows(stack, ch, samples=3_000, seed=7)
    assert abs(est - ref_est) <= 1e-12 and abs(se - ref_se) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-18, 1.0)), min_size=1,
                        max_size=300).filter(lambda w: sum(w) > 0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(weights=[1.0], seed=0)
@example(weights=[0.9, 0.07, 0.03], seed=0)  # three entries, as in the c4 stack
@example(weights=[0.5, 0.5, 1e-17, 1e-17, 0.0], seed=0)  # entries in one bucket
def test_entry_lookup_is_searchsorted(weights, seed):
    cum = np.cumsum(weights) / sum(weights)
    cum[-1] = 1.0
    # uniform draws, every bucket edge of any table size up to 2^13 and the
    # doubles on either side of each entry
    edges = np.arange(1 << 13) / (1 << 13)
    draws = np.concatenate([np.random.default_rng(seed).random(3000), edges,
                            np.nextafter(edges[1:], 0.0), cum, np.nextafter(cum, 0.0),
                            np.nextafter(cum, 1.0)])
    draws = draws[draws < 1.0].reshape(1, -1)
    assert np.array_equal(stacks._entry_lookup(cum)(draws),
                          np.searchsorted(cum, draws, side="right"))


def test_mc_evaluates_each_distinct_row_once(monkeypatch):
    rows = {}

    def counting(code, chans):
        rows[code.name] = rows.get(code.name, 0) + chans.shape[0]
        return batched_cells(code, chans)

    batched_cells = stacks._batched_cells
    monkeypatch.setattr(stacks, "_batched_cells", counting)
    ch = family_eval(DEPOL, 0.0635)
    # c4: 3 innermost entries on the 5 sites of 5qubit, 100,000 sampled rows
    s_rb_stack_mc(parse_stack_spec("repX(5) x 5qubit x repZ(5)"), ch, samples=20_000)
    assert 0 < rows["5qubit"] <= 3 ** 5
    # a non-repetition top: one row per orbit of its 8 site automorphisms,
    # no more than the exact path's 2,862 orbits of the 3^9 assignments
    s_rb_stack_mc(parse_stack_spec("repZ(5) x biased9"), ch, samples=20_000)
    assert 0 < rows["biased9"] <= _orbit_table(registry_get("biased9"), 3)[0].size == 2862


def test_distinct_rows_past_the_key_range():
    # radix 2^40 on 3 columns: the folded key would pass 2^62 unless re-ranked
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 1 << 40, size=(500, 3))
    rows[:, 0] = rng.integers((1 << 40) - 3, 1 << 40, size=500)  # collide on column 0
    rows[100:200] = rows[rng.integers(0, 100, size=100)]  # planted duplicates
    rows[300:, 1:] = rows[200:400, 1:]  # shared suffixes
    distinct, inverse = stacks._distinct_rows(rows, 1 << 40)
    ref, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(distinct, ref) and np.array_equal(inverse, ref_inverse.ravel())
    assert distinct.shape[0] < 400


def test_distinct_rows_count_where_keys_are_few():
    # 3^5 = 243 keys on 1,000 rows are ranked by marking, not sorting
    rows = np.random.default_rng(6).integers(0, 3, size=(1000, 5))
    distinct, inverse = stacks._distinct_rows(rows, 3)
    ref, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(distinct, ref) and np.array_equal(inverse, ref_inverse.ravel())


def _least_images(rows, group):
    """Reference: the least image of each row over every permutation, as
    Python tuples, and how many permutations give it."""
    least, ties = [], []
    for row in rows.tolist():
        images = []
        for perm in group.tolist():
            image = [0] * len(perm)
            for i, j in enumerate(perm):
                image[j] = row[i]
            images.append(tuple(image))
        least.append(min(images))
        ties.append(images.count(least[-1]))
    return np.array(least, dtype=rows.dtype), np.array(ties)


@pytest.mark.parametrize("name,radix", [("5qubit", 3), ("steane", 4), ("toric822", 2),
                                        ("biased9", 509), ("shor", 2)])
def test_canonical_rows_pick_one_row_per_orbit(name, radix):
    group = automorphism_group(registry_get(name))
    rows = np.random.default_rng(radix).integers(0, radix, size=(60, group.shape[1]))
    canon, ties = _canonical_rows(rows, group, radix)
    want, want_ties = _least_images(rows, group)
    assert np.array_equal(canon, want) and np.array_equal(ties, want_ties)
    assert np.array_equal(_canonical_rows(canon, group, radix)[0], canon)  # idempotent
    for perm in group[::max(1, group.shape[0] // 16)]:
        image = np.empty_like(rows)
        image[:, perm] = rows
        assert np.array_equal(_canonical_rows(image, group, radix)[0], canon)


def test_canonical_rows_past_the_key_range(monkeypatch):
    # radix 2^40 on the 5 sites of 5qubit: one site per float64 word, and rows
    # built from few values near the top of the range tie on the first
    # words, so later words decide; tiny key blocks cross block edges
    monkeypatch.setattr(stacks, "_CHUNK_ELEMS", 30)
    group = automorphism_group(registry_get("5qubit"))
    rng = np.random.default_rng(7)
    values = (1 << 40) - 1 - np.array([0, 1, 1 << 39])
    rows = values[rng.integers(0, 3, size=(200, 5))]
    canon, ties = _canonical_rows(rows, group, 1 << 40)
    want, want_ties = _least_images(rows, group)
    assert np.array_equal(canon, want) and np.array_equal(ties, want_ties)
    assert np.array_equal(_canonical_rows(canon, group, 1 << 40)[0], canon)


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
    raw = s_rb_stack_exact(stack, ch, raw=True)
    assert raw == pytest.approx(grouped, abs=1e-12)


# inner layers of n <= 7 for random repetition tops; middle layers whose
# enumeration stays small
_ATOM_INNER = ["3repX", "3repZ", "4repZ", "repX(2)", "repZ(2)", "5qubit", "613H",
               "7repX", "steane"]
_ATOM_MIDDLE = [None, "3repZ", "repX(2)", "5qubit"]


@settings(max_examples=20, deadline=None)
@given(inner=st.sampled_from(_ATOM_INNER), middle=st.sampled_from(_ATOM_MIDDLE),
       top=st.sampled_from("XZ"), m=st.integers(2, 3), ch=pauli_channels())
# R(t) = 0 where (1 - R) / 2 and (1 + R) / 2 both round above 1/2
@example(inner="613H", middle="5qubit", top="X", m=2, ch=PauliChannel(0, 2 / 3, 0, 1 / 3))
@example(inner="4repZ", middle="3repZ", top="Z", m=2,
         ch=PauliChannel(0.5517241379310345, 0, 0.4482758620689655, 0))
def test_atom_engines_match_the_walsh_top(inner, middle, top, m, ch):
    # a repetition top by its atom table, through the multiset sum and the
    # estimator, against the Walsh engine on the same inner entries
    stack = parse_stack_spec(" x ".join(filter(None, [inner, middle, f"rep{top}({m})"])))
    try:
        want = s_rb_stack_exact(stack, ch)
    except StackBudgetError:
        reject()
    rows = rep.top_atoms(*stacks.top_entries(stack, ch), top)
    assert 1.0 + s_rb_estimate_atoms(rows, m) == pytest.approx(want, abs=1e-12)
    if rep.multiset_count(m, rows.shape[0]) * rows.shape[0] <= rep.ASSIGNMENT_BUDGET:
        assert 1.0 + rep.s_rb_atoms(rows, m) == pytest.approx(want, abs=1e-12)
    assert capacity.evaluate_s_rb(stack, ch).s_rb == pytest.approx(want, abs=1e-12)


def test_long_atom_top_matches_the_walsh_top():
    # 22 atoms whose R(t) passes through 0: the r side clamps the rounding
    # there rather than take log1p of less than -1
    stack = parse_stack_spec("613H x 5qubit x repX(7)")
    ch = PauliChannel(0, 2 / 3, 0, 1 / 3)
    ev = capacity.evaluate_s_rb(stack, ch)
    assert ev.method == "longrep"
    assert ev.s_rb == pytest.approx(s_rb_stack_exact(stack, ch), abs=1e-12)


def _sorted_entries(weights, channels):
    keys = np.column_stack([weights, channels])
    return keys[np.lexsort(np.round(keys, 9).T[::-1])]


@pytest.mark.parametrize("typ", ["X", "Z"])
def test_closed_form_entries_match_walsh_entries(typ):
    # merged like Walsh entries, the closed form gives the same entries
    # wherever the Walsh path has no round-off entries of its own
    channels = [CH06, family_eval(ChannelFamily("independent_xz"), 0.1),
                PauliChannel(0.8, 0.1, 0.03, 0.07)]
    for n in range(2, 14):
        code = make_repetition_code(n, typ)
        for ch in channels:
            walsh = effective_channels(code, ch)
            closed = stacks._merge_entries(*rep.block_entries(n, typ, ch))
            assert closed[0].size <= walsh[0].size
            if closed[0].size < walsh[0].size:
                assert n >= 8  # round-off entries of the longer Walsh tables
                continue
            assert np.abs(_sorted_entries(*closed) - _sorted_entries(*walsh)).max() <= 1e-12


def test_closed_form_entries_follow_the_code_frame():
    # repetition codes whose logicals are not make_repetition_code's: logical
    # Z of the X-type code and logical X of the Z-type one carry a Y
    ch = PauliChannel(0.9, 0.03, 0.05, 0.02)
    for text in ("name xrepY\nnk 3 1\nG XXI\nG XIX\nLX XII\nLZ YZZ\n",
                 "name zrepY\nnk 3 1\nG ZZI\nG ZIZ\nLX YXX\nLZ ZII\n"):
        inner = parse_code(text)
        for top in ("repZ(3)", "repX(2)", "422"):
            stack = CodeStack((inner, registry_get(top)))
            want = s_rb_code(compose_stack(stack), ch)
            assert s_rb_stack_exact(stack, ch) == pytest.approx(want, abs=1e-12)
            assert capacity.evaluate_s_rb(stack, ch).s_rb == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("spec,family,p", [
    ("repZ(7) x steane", "independent_xz", 0.01), ("repZ(7) x steane", "depolarizing", 1e-3),
    ("repZ(13) x 5qubit", "depolarizing", 0.03), ("repZ(5) x biased9", "independent_xz", 1e-3),
    ("repZ(7) x 5qubit", "independent_xz", 0.01), ("repZ(21) x 5qubit", "depolarizing", 0.03)])
def test_low_noise_innermost_repetition_layers_evaluate(spec, family, p):
    # Walsh entries of these innermost layers carry round-off entries (27
    # for repZ(7) at independent X/Z p = 0.01, against 4 in closed form),
    # or the layer exceeds 13 qubits: each of them once failed or took
    # seconds to minutes
    t0 = time.perf_counter()
    got = s_rb_stack_exact(parse_stack_spec(spec), family_eval(ChannelFamily(family), p))
    assert np.isfinite(got) and 0.0 <= got <= 2.0
    assert time.perf_counter() - t0 < 5.0


def test_closed_form_innermost_layer_matches_the_walsh_path():
    # the same stack with its innermost layer's entries by the Walsh engine
    ch = family_eval(DEPOL, 1e-3)
    stack = parse_stack_spec("repZ(7) x 5qubit")
    inner, top = stack.layers
    entries = effective_channels(inner, ch)
    want = sum(float(np.exp(logw) @ batched_s_rb(_cells(top, spec)))
               for logw, spec in stacks._layer_batches(top, *entries))
    assert s_rb_stack_exact(stack, ch) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("chunk_elems", [1, 3 << 10])
def test_chunking_never_changes_values(monkeypatch, chunk_elems):
    # chunks of one orbit representative, and of a few prefixes times a
    # block of the last sites, against the flat code; the letters are all
    # distinct so that every site's spectrum table matters
    ch = PauliChannel(0.8, 0.1, 0.03, 0.07)
    monkeypatch.setattr(stacks, "_CHUNK_ELEMS", chunk_elems)
    for spec in ("repZ(3) x 422", "repZ(2) x 613H", "repZ(2) x repX(2) x 3repX"):
        stack = parse_stack_spec(spec)
        want = gather_s_rb(compose_stack(stack), ch)
        raw = s_rb_stack_exact(stack, ch, raw=True)
        assert raw == pytest.approx(want, abs=1e-9)
        assert s_rb_stack_exact(stack, ch) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("name", ["5qubit", "422", "steane", "toric822", "biased9",
                                  "11qubit", "repZ(4)"])
@pytest.mark.parametrize("n_entries", [2, 3])
def test_orbit_sizes_sum_to_every_assignment(name, n_entries):
    code = registry_get(name)
    reps, log_size = _orbit_table(code, n_entries)
    sizes = np.rint(np.exp(log_size)).astype(np.int64)
    assert np.allclose(np.log(sizes), log_size, rtol=0.0, atol=1e-12)
    assert sizes.sum() == n_entries ** code.n
    assert np.all(np.diff(reps) > 0) and 0 <= reps[0] and reps[-1] < n_entries ** code.n


@pytest.mark.parametrize("name,n_entries", [("5qubit", 3), ("biased9", 3), ("shor", 2)])
def test_orbit_tables_do_not_depend_on_chunks(monkeypatch, name, n_entries):
    # blocks of a few assignments (one at a time for shor's 1296
    # automorphisms), so the members of an orbit fall in different blocks
    code = registry_get(name)
    build = stacks._least_orbits.__wrapped__  # past the cache
    want = build(code, n_entries)
    monkeypatch.setattr(stacks, "_CHUNK_ELEMS", 64)
    reps, log_size = build(code, n_entries)
    assert np.array_equal(reps, want[0]) and np.array_equal(log_size, want[1])
    assert np.rint(np.exp(log_size)).sum() == n_entries ** code.n


@pytest.mark.parametrize("name,n_entries", [("5qubit", 3), ("422", 3), ("steane", 2),
                                            ("shor", 2), ("toric822", 3), ("biased9", 3)])
def test_orbits_match_explicit_group_action(name, n_entries):
    # each representative's orbit, from the whole group acting on digit
    # tuples, has the size the table gives, and the orbits partition
    code = registry_get(name)
    group, frontier = {tuple(range(code.n))}, [tuple(range(code.n))]
    while frontier:
        p = frontier.pop()
        for g in site_automorphisms(code):
            q = tuple(g[p[i]] for i in range(code.n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    reps, log_size = _orbit_table(code, n_entries)
    seen = set()
    for rep_index, logs in zip(reps, log_size):
        digits = np.unravel_index(int(rep_index), (n_entries,) * code.n)
        orbit = set()
        for perm in group:
            moved = [0] * code.n
            for i, j in enumerate(perm):
                moved[j] = digits[i]
            orbit.add(tuple(moved))
        assert len(orbit) == pytest.approx(np.exp(logs))
        assert not orbit & seen
        seen |= orbit
    assert len(seen) == n_entries ** code.n


def _shuffled(code, perm):
    """The code with the letter of site i moved to site perm[i]."""
    move = lambda p: PauliString.from_text("".join(p.letter(perm.index(j))
                                                   for j in range(code.n)))
    return StabilizerCode(code.name + "-shuffled", code.n, code.k,
                          tuple(move(g) for g in code.generators),
                          tuple(move(p) for p in code.logical_x),
                          tuple(move(p) for p in code.logical_z))


@pytest.mark.parametrize("name", ["5qubit", "steane", "toric822", "biased9", "shor"])
def test_shuffled_sites_give_the_same_stack_value(tmp_path, name):
    # the same code with its sites relabelled, read from a code file: the
    # group, orbits and representatives all change, the value does not
    code = registry_get(name)
    perm = np.random.default_rng(code.n).permutation(code.n).tolist()
    path = tmp_path / f"{name}.code"
    path.write_text(serialize_code(_shuffled(code, perm)))
    ch = PauliChannel(0.8, 0.1, 0.03, 0.07)
    want = s_rb_stack_exact(parse_stack_spec(f"repZ(3) x {name}"), ch)
    assert s_rb_stack_exact(parse_stack_spec(f"repZ(3) x {path}"), ch) == pytest.approx(want, abs=1e-12)
