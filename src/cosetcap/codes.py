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
data files.  Z- and X-type repetition codes of any length are not among
them: ``make_repetition_code`` generates them on demand under the names
``repZ(n)`` / ``repX(n)``, which the aliases ``<n>repZ`` / ``<n>repX`` also
reach.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass

import numpy as np

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

    def __hash__(self) -> int:  # cheap for caches, which then compare fields
        return hash((self.name, self.n, self.k))

    def swap_xz(self) -> "StabilizerCode":
        """The code conjugated by Hadamard on every qubit."""
        sw = lambda p: PauliString(p.n, p.z_bits, p.x_bits)
        return StabilizerCode(
            self.name + "~xz", self.n, self.k,
            tuple(sw(g) for g in self.generators),
            tuple(sw(p) for p in self.logical_z),
            tuple(sw(p) for p in self.logical_x),
        )


def _symplectic_basis(paulis) -> list[int]:
    """A GF(2) basis of the (x|z) row space (rows (x << n) | z), in
    descending order.

    Each row is reduced by every pivot whose leading bit it holds, highest
    first; pivots are keyed on their highest set bit, so a row visits only
    its own set bits.
    """
    pivots = {}
    for p in paulis:
        row = (p.x_bits << p.n) | p.z_bits
        rest = row
        while rest:
            top = rest.bit_length() - 1
            if top in pivots:
                row ^= pivots[top]
            rest = row & ((1 << top) - 1)
        if row:
            pivots[row.bit_length() - 1] = row
    return sorted(pivots.values(), reverse=True)


def _symplectic_rank(paulis) -> int:
    """GF(2) rank of the (x|z) row space."""
    return len(_symplectic_basis(paulis))


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
    x_support = z_support = 0
    for g in gens:
        x_support |= g.x_bits
        z_support |= g.z_bits
    # generators anticommute only where one's X meets another's Z
    for i in range(len(gens) if x_support & z_support else 0):
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


@functools.lru_cache(maxsize=256)
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
               getattr(g, bits).bit_count() % 2 == 0
               for g in code.generators):
            return typ
    return None


# splitmix64 finaliser constants, and one key per letter (x + 2z): the
# colour hashes of site_automorphisms' refinement
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_LETTER_KEYS = np.array([0x243F6A8885A308D3, 0x13198A2E03707344,
                         0xA4093822299F31D0, 0x082EFA98EC4E6C89], dtype=np.uint64)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser, elementwise on wrapping uint64."""
    x = x + _GOLDEN
    x = (x ^ (x >> np.uint64(30))) * _MIX[0]
    x = (x ^ (x >> np.uint64(27))) * _MIX[1]
    return x ^ (x >> np.uint64(31))


def _checks(code: StabilizerCode) -> list[PauliString]:
    """Generators, then the (X, Z) logical pairs."""
    return [*code.generators,
            *(op for j in range(code.k) for op in (code.logical_x[j], code.logical_z[j]))]


def _stabilizer_letters(code: StabilizerCode) -> np.ndarray:
    """Letters x + 2z of every element of S, as a (2^(n-k), n) array."""
    n = code.n
    span = np.zeros(1, dtype=np.int64)
    for row in _symplectic_basis(code.generators):
        span = np.concatenate([span, span ^ row])
    sites = np.arange(n)
    return (span[:, None] >> (n + sites)) & 1 | ((span[:, None] >> sites) & 1) << 1


def _permuted(p: PauliString, perm) -> PauliString:
    """The letter on site i moved to site perm[i]."""
    x = z = 0
    for i, j in enumerate(perm):
        x |= (p.x_bits >> i & 1) << j
        z |= (p.z_bits >> i & 1) << j
    return PauliString(p.n, x, z)


def _is_automorphism(code: StabilizerCode, perm) -> bool:
    """True when perm keeps every symplectic product between checks.

    A generator keeps its products with all checks exactly when its image
    lies in S (which is the set commuting with S and every logical), and a
    logical keeps them exactly when its image lies in its own coset L·S.
    """
    checks = _checks(code)
    for c in checks:
        image = _permuted(c, perm)
        if any(anticommutes(image, d) != anticommutes(c, d) for d in checks):
            return False
    return True


def _orbit(point: int, gens) -> set[int]:
    orbit, frontier = {point}, [point]
    while frontier:
        p = frontier.pop()
        for perm in gens:
            if perm[p] not in orbit:
                orbit.add(perm[p])
                frontier.append(perm[p])
    return orbit


@functools.lru_cache(maxsize=64)
def site_automorphisms(code: StabilizerCode) -> tuple[tuple[int, ...], ...]:
    """Generators of the site permutations that map every stabilizer
    generator into S and every logical X_j, Z_j into its own coset L·S.

    ``perm[i]`` is the site that site i moves to; no generators means the
    trivial group.  Such a permutation maps the errors of each syndrome onto
    those of one other syndrome and moves their logical class by a logical
    translation fixed by the syndrome, so S_RB of an assignment of channels
    to sites, and the effective channels it induces up to the translations
    no downstream entropy sees, are invariant under it.

    Individualisation and refinement: sites and the 2^(n-k) elements of S
    (rows) are coloured, each row by the multiset of (site colour, letter)
    over its sites and each site by the multiset of (row colour, letter)
    over the rows, until the partition stops splitting.  Colours are
    splitmix64 hashes, so equal structures get equal colours.  The base
    individualises a site of the first non-singleton cell until every site
    has its own colour.  Schreier-Sims then runs from the deepest base
    point up: at each level only images not yet in the orbit of the
    generators found so far are searched, a branch is dropped where its
    colour multisets differ from the base's, and the permutation a
    discrete colouring forces is accepted only after the exact check
    ``_is_automorphism``, which also asks that the logicals keep their
    cosets.  Enumerates S: meant for codes within the exhaustive engine's
    limit.
    """
    letters = _stabilizer_letters(code)
    n = code.n
    # flat indices of each row's letter keys into (n, 4) and (rows, 4) tables
    by_site = letters + 4 * np.arange(n)
    by_row = letters + 4 * np.arange(letters.shape[0])[:, None]
    row_start = np.zeros(letters.shape[0], dtype=np.uint64)

    def start(points):
        sites = np.zeros(n, dtype=np.uint64)
        sites[list(points)] = np.arange(1, len(points) + 1, dtype=np.uint64)
        return sites, row_start

    def refine(sites, rows):
        rows = _mix(rows + _mix(sites[:, None] ^ _LETTER_KEYS).ravel()[by_site].sum(axis=1))
        return _mix(sites + _mix(rows[:, None] ^ _LETTER_KEYS).ravel()[by_row].sum(axis=0)), rows

    def split(colouring):
        # distinct colours, less one; a bare np.unique would import numpy.ma
        return tuple(np.count_nonzero(np.diff(np.sort(c))) for c in colouring)

    # levels[t]: the base's stable colouring with base[:t] individualised,
    # as (refinement rounds, site colours, sorted site colours, sorted row
    # colours)
    base, levels = [], []
    while True:
        colouring, rounds = start(base), 0
        while split(nxt := refine(*colouring)) != split(colouring):
            colouring, rounds = nxt, rounds + 1
        sites, rows = colouring
        levels.append((rounds, sites, np.sort(sites), np.sort(rows)))
        values, counts = np.unique(sites, return_counts=True)
        if counts.max() == 1:
            break
        base.append(int(np.flatnonzero(sites == values[np.argmax(counts > 1)])[0]))

    def extend(images):
        """An automorphism with base[i] -> images[i], or None."""
        t = len(images)
        rounds, want, want_sites, want_rows = levels[t]
        sites, rows = start(images)
        for _ in range(rounds):
            sites, rows = refine(sites, rows)
        if not (np.array_equal(np.sort(sites), want_sites)
                and np.array_equal(np.sort(rows), want_rows)):
            return None
        if t == len(base):  # every colour is a single site: the map is forced
            perm = np.empty(n, dtype=int)
            perm[np.argsort(want)] = np.argsort(sites)
            perm = tuple(int(i) for i in perm)
            ok = (all(perm[b] == i for b, i in zip(base, images))
                  and _is_automorphism(code, perm))
            return perm if ok else None
        for image in np.flatnonzero(sites == want[base[t]]):
            found = extend(images + [int(image)])
            if found is not None:
                return found
        return None

    gens = []
    for t in range(len(base) - 1, -1, -1):
        want = levels[t][1]
        orbit = _orbit(base[t], gens)
        for image in np.flatnonzero(want == want[base[t]]):
            if int(image) not in orbit:
                found = extend(base[:t] + [int(image)])
                if found is not None:
                    gens.append(found)
                    orbit = _orbit(base[t], gens)
    return tuple(gens)


@functools.lru_cache(maxsize=64)
def automorphism_group(code: StabilizerCode) -> np.ndarray:
    """Every element of the group ``site_automorphisms`` generates, as a
    read-only (|G|, n) array of permutations in lexicographic order, the
    identity first.

    Grown from the identity: each round composes the elements the last
    round found with every generator at once and keeps the images whose
    mixed-radix key (Python integers where n^n passes int64) is new.  Lists
    the whole group: repetition codes' groups are symmetric groups.
    """
    n = code.n
    gens = np.array(site_automorphisms(code), dtype=np.intp).reshape(-1, n)
    place = np.array([n ** i for i in range(n - 1, -1, -1)],
                     dtype=np.int64 if n ** n <= 1 << 63 else object)
    group = frontier = np.arange(n)[None, :]
    keys = frontier @ place
    while frontier.shape[0]:
        images = gens[:, frontier].reshape(-1, n)  # generator after element
        image_keys, first = np.unique(images @ place, return_index=True)
        new = ~np.isin(image_keys, keys, assume_unique=True)
        frontier = images[first[new]]
        keys = np.concatenate([keys, image_keys[new]])
        group = np.vstack([group, frontier])
    group = group[np.argsort(keys)]
    group.flags.writeable = False
    return group


def trivial_code() -> StabilizerCode:
    """[[1,1]] identity encoding: used for the bare-channel / hashing baseline."""
    return StabilizerCode("trivial", 1, 1, (),
                          (PauliString.from_text("X"),), (PauliString.from_text("Z"),))


_BUNDLED = ("5qubit", "steane", "tailored713H", "613H", "cdSteaneH", "scfH", "shor",
            "11qubit", "13cyclic", "biased9", "biased13", "422", "toric822")

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
