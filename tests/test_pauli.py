import pytest
from hypothesis import given, strategies as st

from cosetcap import PauliString, anticommutes, pauli_mul, weights

P = PauliString.from_text


def pauli_strings(max_n=16):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        letters = draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))
        return P("".join(letters))
    return build()


def pauli_pairs(max_n=16):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        mk = lambda: "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
        return P(mk()), P(mk())
    return build()


def test_text_round_trip():
    for text in ("XZZXI", "IIIII", "Y", "XYZI"):
        assert str(P(text)) == text


def test_bad_letter_rejected():
    with pytest.raises(ValueError):
        P("XQA")


def test_mul_examples():
    assert str(pauli_mul(P("XI"), P("ZI"))) == "YI"
    assert str(pauli_mul(P("ZZI"), P("ZIZ"))) == "IZZ"


def test_mul_involution():
    for text in ("XZZXI", "YIXZY", "I"):
        assert pauli_mul(P(text), P(text)).is_identity()


def test_mul_length_mismatch():
    with pytest.raises(ValueError):
        pauli_mul(P("XX"), P("X"))
    with pytest.raises(ValueError):
        anticommutes(P("XX"), P("X"))


def test_commutes_examples():
    assert anticommutes(P("X"), P("Z")) == 1
    assert anticommutes(P("XZZXI"), P("XZZXI")) == 0
    # 5-qubit generator against its logical X
    assert anticommutes(P("XZZXI"), P("XXXXX")) == 0


def test_weights_examples():
    assert weights(P("IIIII")) == (0, 5, 0, 0, 0)
    assert weights(P("XZZXI")) == (4, 1, 2, 0, 2)
    assert weights(P("YXXXX")) == (5, 0, 4, 1, 0)


@given(pauli_pairs())
def test_mul_commutative(pair):
    a, b = pair
    assert pauli_mul(a, b) == pauli_mul(b, a)


@given(pauli_pairs())
def test_commutes_symmetric(pair):
    a, b = pair
    assert anticommutes(a, b) == anticommutes(b, a)


@given(st.data())
def test_mul_associative_and_commutes_bilinear(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    mk = lambda: P("".join(data.draw(
        st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))))
    a, b, c = mk(), mk(), mk()
    assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))
    assert anticommutes(pauli_mul(a, b), c) == anticommutes(a, c) ^ anticommutes(b, c)


@given(pauli_strings())
def test_weights_sum_and_identity_neutral(a):
    wt, wi, wx, wy, wz = weights(a)
    assert wt == a.n - wi
    assert wi + wx + wy + wz == a.n
    assert weights(pauli_mul(a, PauliString.identity(a.n))) == weights(a)
