"""Stabilizer codes: parsing, validation, classification and the registry.

A code is n physical qubits, k logical qubits, a list of mutually commuting
stabilizer generators of symplectic rank n-k (redundant generators are
accepted as long as the span has the right rank), and logical X/Z
representatives paired so that logical_x[i] anticommutes with logical_z[j]
exactly when i == j.

Code-file format (UTF-8 text), one item per line::

    name <id>
    nk <n> <k>
    G <pauli>      (one per generator)
    LX <pauli>     (k lines)
    LZ <pauli>     (k lines)

The bundled registry ships the small codes used in the result tables as
data files; Z- and X-type repetition codes of any length are generated on
demand under the names ``repZ(n)`` / ``repX(n)`` (aliases ``<n>repZ`` /
``<n>repX``).
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

from .pauli import PauliString, anticommutes


class CodeValidationError(ValueError):
    """A parsed code violates a stabilizer-code invariant."""


@dataclass(frozen=True)
class StabilizerCode:
    name: str
    n: int
    k: int
    generators: tuple[PauliString, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]

    @property
    def num_checks(self) -> int:
        """Number of listed generators (may exceed n-k for redundant lists)."""
        return len(self.generators)

    def swap_xz(self) -> "StabilizerCode":
        """The code conjugated by Hadamard on every qubit."""
        sw = lambda p: PauliString(p.n, p.z_bits, p.x_bits)
        return StabilizerCode(
            self.name + "~xz", self.n, self.k,
            tuple(sw(g) for g in self.generators),
            tuple(sw(p) for p in self.logical_z),
            tuple(sw(p) for p in self.logical_x),
        )


def _symplectic_rank(paulis) -> int:
    """GF(2) rank of the (x|z) row space, via bitmask elimination."""
    rows = [(p.x_bits << p.n) | p.z_bits for p in paulis]
    rank = 0
    pivots = []
    for row in rows:
        for pivot in pivots:
            row = min(row, row ^ pivot)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
            rank += 1
    return rank


def validate_code(code: StabilizerCode) -> None:
    """Raise CodeValidationError naming the first violated invariant."""
    for p in (*code.generators, *code.logical_x, *code.logical_z):
        if p.n != code.n:
            raise CodeValidationError(
                f"{code.name}: operator length {p.n} != n={code.n}")
    if len(code.logical_x) != code.k or len(code.logical_z) != code.k:
        raise CodeValidationError(
            f"{code.name}: expected {code.k} logical X and Z operators")
    gens = code.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if anticommutes(gens[i], gens[j]):
                raise CodeValidationError(
                    f"{code.name}: generators {i} and {j} anticommute")
    rank = _symplectic_rank(gens)
    if rank != code.n - code.k:
        raise CodeValidationError(
            f"{code.name}: generator rank {rank} != n-k = {code.n - code.k}")
    for kind, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for j, op in enumerate(ops):
            for i, g in enumerate(gens):
                if anticommutes(op, g):
                    raise CodeValidationError(
                        f"{code.name}: logical {kind}[{j}] anticommutes with generator {i}")
    for i, lx in enumerate(code.logical_x):
        for j, lz in enumerate(code.logical_z):
            want = 1 if i == j else 0
            if anticommutes(lx, lz) != want:
                raise CodeValidationError(
                    f"{code.name}: logical pairing broken at X[{i}], Z[{j}]")


def parse_code(text: str) -> StabilizerCode:
    """Parse and validate a code file; failures abort with the violated invariant."""
    name = None
    n = k = None
    gens, lx, lz = [], [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "name" and len(parts) == 2:
            name = parts[1]
        elif tag == "nk" and len(parts) == 3:
            n, k = int(parts[1]), int(parts[2])
        elif tag in ("G", "LX", "LZ") and len(parts) == 2:
            try:
                p = PauliString.from_text(parts[1])
            except ValueError as exc:
                raise CodeValidationError(f"line {lineno}: {exc}") from None
            {"G": gens, "LX": lx, "LZ": lz}[tag].append(p)
        else:
            raise CodeValidationError(f"line {lineno}: malformed code line {raw!r}")
    if name is None or n is None:
        raise CodeValidationError("code file missing name or nk line")
    code = StabilizerCode(name, n, k, tuple(gens), tuple(lx), tuple(lz))
    validate_code(code)
    return code


def serialize_code(code: StabilizerCode) -> str:
    lines = [f"name {code.name}", f"nk {code.n} {code.k}"]
    lines += [f"G {g}" for g in code.generators]
    lines += [f"LX {p}" for p in code.logical_x]
    lines += [f"LZ {p}" for p in code.logical_z]
    return "\n".join(lines) + "\n"


def make_repetition_code(n: int, stabilizer_type: str) -> StabilizerCode:
    """[[n,1]] repetition code: generators pair qubit 0 with each other qubit."""
    if n < 1:
        raise ValueError("repetition code needs n >= 1")
    if stabilizer_type not in ("X", "Z"):
        raise ValueError("stabilizer_type must be 'X' or 'Z'")
    full = (1 << n) - 1
    gens = []
    for i in range(1, n):
        bits = 1 | (1 << i)
        if stabilizer_type == "Z":
            gens.append(PauliString(n, 0, bits))
        else:
            gens.append(PauliString(n, bits, 0))
    if stabilizer_type == "Z":
        lx, lz = PauliString(n, full, 0), PauliString(n, 0, 1)
    else:
        lx, lz = PauliString(n, 1, 0), PauliString(n, 0, full)
    code = StabilizerCode(f"rep{stabilizer_type}({n})", n, 1, tuple(gens), (lx,), (lz,))
    validate_code(code)
    return code


def rep_type_of(code: StabilizerCode) -> str | None:
    """'X' or 'Z' when the code is an [[n,1]] single-type repetition code.

    Identified structurally: n-1 independent generators of one pure letter
    type, each of even weight, span exactly the even-weight subgroup.  Every
    site permutation fixes that stabilizer group, so it permutes the
    stabilizer and normalizer cosets and leaves S_RB unchanged.
    """
    if code.k != 1 or code.n < 2 or not code.generators:
        return None
    # a validated k=1 code has generator rank n-1; pure-type even-weight
    # generators then necessarily span the whole even-weight subgroup
    for typ, bits in (("Z", "z_bits"), ("X", "x_bits")):
        other = "x_bits" if typ == "Z" else "z_bits"
        if all(getattr(g, other) == 0 and
               bin(getattr(g, bits)).count("1") % 2 == 0
               for g in code.generators):
            return typ
    return None


def trivial_code() -> StabilizerCode:
    """[[1,1]] identity encoding: used for the bare-channel / hashing baseline."""
    return StabilizerCode("trivial", 1, 1, (),
                          (PauliString.from_text("X"),), (PauliString.from_text("Z"),))


_BUNDLED = ("3repX", "3repZ", "4repZ", "5repZ", "7repX", "5qubit", "steane",
            "tailored713H", "613H", "cdSteaneH", "scfH", "shor", "11qubit",
            "13cyclic", "biased9", "biased13", "422", "toric822")

_cache: dict[str, StabilizerCode] = {}


def registry_names() -> tuple[str, ...]:
    return _BUNDLED


def _load_bundled(name: str) -> StabilizerCode:
    res = importlib.resources.files("cosetcap.data.codes").joinpath(f"{name}.code")
    text = res.read_text(encoding="utf-8")
    return parse_code(text)


def _parse_rep_name(name: str) -> tuple[str, int] | None:
    # repZ(n) / repX(n) and the stack-grammar aliases <n>repZ / <n>repX
    for typ in ("Z", "X"):
        prefix = f"rep{typ}("
        if name.startswith(prefix) and name.endswith(")"):
            try:
                return typ, int(name[len(prefix):-1])
            except ValueError:
                return None
        suffix = f"rep{typ}"
        if name.endswith(suffix):
            head = name[: -len(suffix)]
            if head.isdigit():
                return typ, int(head)
    return None


def registry_get(name: str) -> StabilizerCode:
    """Look up a code by registry name, generated-rep name, or alias."""
    name = name.strip()
    if name in _cache:
        return _cache[name]
    if name in _BUNDLED:
        code = _load_bundled(name)
    elif name == "trivial":
        code = trivial_code()
    else:
        rep = _parse_rep_name(name)
        if rep is None:
            raise KeyError(f"unknown code name {name!r}")
        typ, n = rep
        code = make_repetition_code(n, typ)
    _cache[name] = code
    return code


@dataclass(frozen=True)
class Classification:
    syndrome: tuple[int, ...]
    logical_class: tuple[int, ...]


def classify(code: StabilizerCode, e: PauliString) -> Classification:
    """Syndrome and logical-class bits of an error.

    syndrome[i] = anticommutes(e, generators[i]); class bits come in
    (logical_x[j], logical_z[j]) pairs.  Two errors share both vectors
    exactly when they sit in the same stabilizer coset.
    """
    if e.n != code.n:
        raise ValueError(f"error length {e.n} != code n {code.n}")
    syndrome = tuple(anticommutes(e, g) for g in code.generators)
    cls = []
    for j in range(code.k):
        cls.append(anticommutes(e, code.logical_x[j]))
        cls.append(anticommutes(e, code.logical_z[j]))
    return Classification(syndrome, tuple(cls))
