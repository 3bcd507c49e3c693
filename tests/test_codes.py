import itertools
import math
import random
import time

import numpy as np
import pytest

from cosetcap import (PauliString, anticommutes, make_repetition_code, parse_code,
                      pauli_mul, registry_get, registry_names, serialize_code,
                      trivial_code)
from cosetcap.codes import (CodeValidationError, _is_automorphism, _symplectic_basis,
                            _symplectic_rank, automorphism_group, rep_type_of,
                            site_automorphisms, validate_code)
from conftest import CODE_NAMES, REP_ALIASES
from xor_reference import classify

P = PauliString.from_text

FIVE_QUBIT_FILE = """\
name 5qubit
nk 5 1
G XZZXI
G IXZZX
G XIXZZ
G ZXIXZ
LX XXXXX
LZ ZZZZZ
"""


def test_parse_five_qubit():
    code = parse_code(FIVE_QUBIT_FILE)
    assert (code.n, code.k) == (5, 1)
    assert [str(g) for g in code.generators] == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def test_parse_rejects_rank_logical_inconsistency():
    bad = "name bad\nnk 1 1\nG Z\nLX X\nLZ Z\n"
    with pytest.raises(CodeValidationError):
        parse_code(bad)


def test_parse_rejects_malformed():
    with pytest.raises(CodeValidationError):
        parse_code("name x\nnk 2 1\nG XQ\nLX XX\nLZ ZI\n")
    with pytest.raises(CodeValidationError):
        parse_code("nk 2 1\nG ZZ\n")
    with pytest.raises(CodeValidationError):
        parse_code("name x\nnk 3 1\nG ZZI\nG ZIZ\nLX XXX\nLZ ZZI\n")  # LZ in stabilizer


def test_parse_422():
    code = registry_get("422")
    assert (code.n, code.k) == (4, 2)
    assert len(code.generators) == 2


def test_registry_every_code_validates():
    for name in CODE_NAMES:
        code = registry_get(name)
        validate_code(code)
        assert len(code.logical_x) == code.k
        if name in registry_names():
            assert code.name == name


def test_registry_biased9_layout():
    code = registry_get("biased9")
    assert len(code.generators) == 8
    assert str(code.generators[0]) == "ZZIZIZIXY"


def test_registry_generated_rep():
    code = registry_get("repZ(5)")
    assert [str(g) for g in code.generators] == ["ZZIII", "ZIZII", "ZIIZI", "ZIIIZ"]
    assert str(code.logical_x[0]) == "XXXXX"
    assert str(code.logical_z[0]) == "ZIIII"
    assert rep_type_of(code) == "Z"


def test_rep_aliases_are_the_generated_codes():
    for name in REP_ALIASES:
        n, typ = int(name[:-4]), name[-1]
        code = registry_get(name)
        assert code == make_repetition_code(n, typ) == registry_get(f"rep{typ}({n})")
        assert code.name == f"rep{typ}({n})"
    # repetition codes are generated, never bundled
    assert not any(rep_type_of(registry_get(name)) for name in registry_names())


def test_rep_type_of_a_long_code_is_fast():
    code = make_repetition_code(20001, "Z")  # built outside the timing
    t0 = time.perf_counter()
    assert rep_type_of(code) == "Z"
    assert time.perf_counter() - t0 < 0.2


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        registry_get("nosuchcode")


def test_round_trip_serialization():
    for name in CODE_NAMES:
        code = registry_get(name)
        again = parse_code(serialize_code(code))
        assert serialize_code(again) == serialize_code(code)
        assert again.generators == code.generators


def test_classify_identity():
    for name in ("5qubit", "422", "biased9"):
        code = registry_get(name)
        res = classify(code, PauliString.identity(code.n))
        assert not any(res.syndrome) and not any(res.logical_class)


def test_classify_five_qubit_logical_z():
    code = registry_get("5qubit")
    res = classify(code, P("ZZZZZ"))
    assert res.syndrome == (0, 0, 0, 0)
    # anticommutes with logical X only: the logical-Z coset
    assert res.logical_class == (1, 0)


def test_classify_rep3_single_x():
    code = registry_get("repZ(3)")
    res = classify(code, P("XII"))
    assert res.syndrome == (1, 1)
    # XII commutes with XXX and anticommutes with ZII
    assert res.logical_class == (0, 1)


def test_classify_length_mismatch():
    with pytest.raises(ValueError):
        classify(registry_get("5qubit"), P("XX"))


def _random_pauli(rng, n):
    return PauliString(n, rng.getrandbits(n), rng.getrandbits(n))


@pytest.mark.parametrize("name", CODE_NAMES)
def test_classify_invariant_under_stabilizers(name):
    code = registry_get(name)
    rng = random.Random(sum(map(ord, name)))
    for _ in range(10_000 // len(CODE_NAMES) + 200):
        e = _random_pauli(rng, code.n)
        s = PauliString.identity(code.n)
        for g in code.generators:
            if rng.random() < 0.5:
                s = pauli_mul(s, g)
        assert classify(code, pauli_mul(e, s)) == classify(code, e)


@pytest.mark.parametrize("name", ["5qubit", "422", "toric822", "biased9"])
def test_classify_logical_flip(name):
    code = registry_get(name)
    rng = random.Random(7)
    for _ in range(50):
        e = _random_pauli(rng, code.n)
        base = classify(code, e)
        for j in range(code.k):
            res = classify(code, pauli_mul(e, code.logical_x[j]))
            assert res.syndrome == base.syndrome
            flips = [a ^ b for a, b in zip(res.logical_class, base.logical_class)]
            want = [0] * (2 * code.k)
            want[2 * j + 1] = 1  # only the logical-Z commutation bit flips
            assert flips == want


def test_trivial_code():
    code = trivial_code()
    assert (code.n, code.k) == (1, 1)
    assert code.generators == ()


def test_parse_rejects_anticommuting_generators():
    with pytest.raises(CodeValidationError, match="generators 0 and 1 anticommute"):
        parse_code("name x\nnk 2 0\nG XI\nG ZI\n")
    # pure X and pure Z generators may still anticommute
    with pytest.raises(CodeValidationError, match="generators 0 and 1 anticommute"):
        parse_code("name x\nnk 3 1\nG XXI\nG ZII\nLX XXX\nLZ ZZZ\n")


def test_symplectic_basis_is_echelon_and_spans_its_rows():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10)
        ps = [PauliString(n, rng.getrandbits(n), rng.getrandbits(n))
              for _ in range(rng.randint(0, 2 * n))]
        basis = _symplectic_basis(ps)
        tops = [row.bit_length() - 1 for row in basis]
        assert tops == sorted(set(tops), reverse=True)
        for p in ps:
            row = (p.x_bits << n) | p.z_bits
            for pivot in basis:
                row = min(row, row ^ pivot)
            assert row == 0


def test_make_repetition_validates():
    with pytest.raises(ValueError):
        make_repetition_code(3, "Y")
    code = make_repetition_code(2, "X")
    assert [str(g) for g in code.generators] == ["XX"]


def _moved(p, perm):
    """p with the letter of site i on site perm[i]."""
    letters = ["I"] * p.n
    for i, j in enumerate(perm):
        letters[j] = p.letter(i)
    return P("".join(letters))


def _closure(gens, n):
    """Every product of the generators, as permutation tuples."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[p[i]] for i in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


@pytest.mark.parametrize("name", CODE_NAMES)
def test_site_automorphisms_keep_stabilizer_and_logical_cosets(name):
    code = registry_get(name)
    rank = _symplectic_rank(code.generators)
    logicals = [*code.logical_x, *code.logical_z]
    for perm in site_automorphisms(code):
        assert sorted(perm) == list(range(code.n))
        for g in code.generators:  # the image lies in S
            assert _symplectic_rank([*code.generators, _moved(g, perm)]) == rank
        for op in logicals:  # the image lies in op.S
            assert _symplectic_rank([*code.generators, pauli_mul(_moved(op, perm), op)]) == rank


def _brute_force_group(code):
    """Every site permutation keeping all symplectic products between the
    checks, over all n! permutations at once."""
    checks = [*code.generators, *code.logical_x, *code.logical_z]
    n = code.n
    bits = lambda v: (v >> np.arange(n)) & 1
    x = np.array([bits(c.x_bits) for c in checks])
    z = np.array([bits(c.z_bits) for c in checks])
    perms = np.array(list(itertools.permutations(range(n))))
    gram = (x @ z.T + z @ x.T) % 2
    # check c moved by perm has letter c[perm^-1[j]] on site j; over all
    # permutations, indexing by perm instead lists the same set
    xp, zp = x[:, perms], z[:, perms]  # (checks, n!, n)
    moved = (xp @ z.T + zp @ x.T) % 2  # (checks, n!, checks)
    keep = (moved == gram[:, None, :]).all(axis=(0, 2))
    return {tuple(int(i) for i in p) for p in perms[keep]}


@pytest.mark.parametrize("name", [n for n in CODE_NAMES if registry_get(n).n <= 8])
def test_site_automorphism_group_matches_brute_force(name):
    code = registry_get(name)
    assert _closure(site_automorphisms(code), code.n) == _brute_force_group(code)


@pytest.mark.parametrize("name,order", [("shor", 1296), ("biased9", 8), ("5qubit", 10),
                                        ("steane", 168), ("422", 4), ("toric822", 16),
                                        ("11qubit", 1)])
def test_site_automorphism_group_orders(name, order):
    code = registry_get(name)
    assert len(_closure(site_automorphisms(code), code.n)) == order


# group orders of the bundled codes other than the repetition codes, whose
# groups are the symmetric groups
GROUP_ORDERS = {"shor": 1296, "steane": 168, "13cyclic": 26, "cdSteaneH": 24,
                "toric822": 16, "tailored713H": 14, "5qubit": 10, "biased9": 8,
                "biased13": 6, "422": 4, "613H": 4, "scfH": 4, "11qubit": 1}


@pytest.mark.parametrize("name", CODE_NAMES)
def test_automorphism_group_lists_the_whole_group(name):
    code = registry_get(name)
    n = code.n
    group = automorphism_group(code)
    order = math.factorial(n) if rep_type_of(code) else GROUP_ORDERS[name]
    assert group.shape == (order, n) and not group.flags.writeable
    assert np.array_equal(group[0], np.arange(n))  # the identity, listed first
    place = n ** np.arange(n - 1, -1, -1)
    keys = group @ place
    assert np.all(np.diff(keys) > 0)  # distinct, in lexicographic order
    # closed: every g o h is listed (n! distinct permutations are all of them)
    for start in range(0, order if rep_type_of(code) is None else 0, 256):
        products = group[start:start + 256][:, group]
        assert np.isin(products @ place, keys).all()
    assert all(_is_automorphism(code, tuple(int(i) for i in perm)) for perm in group)
