import random

import pytest

from cosetcap import (PauliString, anticommutes, classify,
                      make_repetition_code, parse_code, pauli_mul, registry_get,
                      registry_names, serialize_code, trivial_code)
from cosetcap.codes import CodeValidationError, rep_type_of

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
    for name in registry_names():
        code = registry_get(name)
        assert code.name == name
        assert len(code.logical_x) == code.k


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
    assert registry_get("5repZ").generators == registry_get("repZ(5)").generators


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        registry_get("nosuchcode")


def test_round_trip_serialization():
    for name in registry_names():
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


@pytest.mark.parametrize("name", registry_names())
def test_classify_invariant_under_stabilizers(name):
    code = registry_get(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(10_000 // len(registry_names()) + 200):
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


def test_make_repetition_validates():
    with pytest.raises(ValueError):
        make_repetition_code(3, "Y")
    code = make_repetition_code(2, "X")
    assert [str(g) for g in code.generators] == ["XX"]
