"""Phaseless n-qubit Pauli strings in symplectic (x|z) bit form.

A Pauli string is stored as two n-bit integers: ``x_bits`` has bit i set
when qubit i carries an X or Y, ``z_bits`` when it carries a Z or Y.
Phases are dropped throughout: every coset probability downstream depends
only on the phaseless letter pattern, and dropping phases makes the group
abelian (multiplication is bitwise XOR).

Text form is an uppercase string over {I, X, Y, Z}, first qubit first,
e.g. "XZZXI".
"""

from __future__ import annotations

from dataclasses import dataclass

_LETTERS = "IXZY"  # indexed by x_bit + 2*z_bit

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


@dataclass(frozen=True)
class PauliString:
    """Immutable phaseless Pauli operator on ``n`` qubits."""

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit vectors exceed qubit count")

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse an I/X/Y/Z string, first character = qubit 0."""
        x = z = 0
        for i, ch in enumerate(text):
            try:
                xb, zb = _LETTER_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {text!r}") from None
            x |= xb << i
            z |= zb << i
        return cls(len(text), x, z)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    def letter(self, i: int) -> str:
        return _LETTERS[((self.x_bits >> i) & 1) + 2 * ((self.z_bits >> i) & 1)]

    def __str__(self) -> str:
        return "".join(self.letter(i) for i in range(self.n))

    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Phaseless product: component-wise XOR of the bit vectors."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    return PauliString(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits)


def anticommutes(a: PauliString, b: PauliString) -> int:
    """Symplectic inner product: 0 if a and b commute, 1 if they anticommute."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    return ((a.x_bits & b.z_bits) ^ (a.z_bits & b.x_bits)).bit_count() & 1


def weights(a: PauliString):
    """Letter counts ``(wt, wt_i, wt_x, wt_y, wt_z)`` with wt = n - wt_i."""
    wt_y = (a.x_bits & a.z_bits).bit_count()
    wt_x = a.x_bits.bit_count() - wt_y
    wt_z = a.z_bits.bit_count() - wt_y
    wt = wt_x + wt_y + wt_z
    return wt, a.n - wt, wt_x, wt_y, wt_z
