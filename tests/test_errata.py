"""Erratum ledger: the proof behind every corrected reference value.

A manifest cell whose published digit does not satisfy its own defining
equation keeps that digit under ``published`` and carries the root from
the extended-precision oracle (``oracle.py``, no ``cosetcap`` import) in
its ``expected`` (``expected_p_hash`` for an optimum_eval cell).  Each
such cell is checked here: the stored value is the oracle's, and the
published digit misses the oracle by more than the tolerance the
acceptance gate applies to that quantity, so no entry can hide a cell
that agrees.  The oracle itself is checked against raw enumeration and
against the published digits that are not disputed.
"""

import re

import pytest
from mpmath import mp, mpf, nstr

import oracle
from cosetcap import (custom_family, hashing_point, nonadditivity_at_hashing,
                      parse_channel_spec, parse_stack_spec, threshold)
from cosetcap.tables import TABLE_NAMES, load_manifest

# tolerance of the acceptance gate that asserts each table's quantities:
# c1 hashing points, c2 single-layer and c3 concatenated thresholds,
# c7 re-evaluated optima
ACCEPTANCE_TOL = {"table1": 1e-9, "table7": 1e-8, "table9": 1e-8, "table10": 1e-6}
STORED_TOL = 1e-11  # stored values carry the oracle's 13 significant digits
ENGINE_TOL = 1e-10  # the engines' certified bracket width


def _cells(predicate):
    return [(name, cell) for name in TABLE_NAMES
            for cell in load_manifest(name)["cells"] if predicate(name, cell)]


def _ids(cells):
    return [f"{name}/{cell['id']}" for name, cell in cells]


def rep_shape(stack):
    """(n, m) of a stack that is repX(n) x repZ(m), or None."""
    if stack == "shor":
        return 3, 3
    if m := re.fullmatch(r"repZ\((\d+)\)", stack):
        return 1, int(m[1])
    if m := re.fullmatch(r"repX\((\d+)\) x repZ\((\d+)\)", stack):
        return int(m[1]), int(m[2])
    return None


HASHING_FAMILIES = {"depol": (oracle.depolarizing, 1 / 3),
                    "indxz": (oracle.independent_xz, 0.5)}


def oracle_value(cell):
    """The oracle's root for the cell's disputable quantity."""
    if cell["kind"] == "hashing":
        return oracle.hashing_point(*HASHING_FAMILIES[cell["channel"]])
    if cell["kind"] == "optimum_eval":
        return oracle.hashing_point(oracle.custom(cell["coefficients"]), 1.0)
    if cell["channel"] != "indxz" or rep_shape(cell["stack"]) is None:
        raise ValueError(f"no oracle for {cell['stack']} on {cell['channel']}")
    return oracle.rep_concat_threshold(*rep_shape(cell["stack"]))


def _stored(cell):
    return cell["expected_p_hash" if cell["kind"] == "optimum_eval" else "expected"]


ERRATA = _cells(lambda name, c: "published" in c)
# the undisputed cells that an acceptance gate asserts at ACCEPTANCE_TOL
# (c1 indxz, c2 repZ(7) indxz, c3 table9): the oracle's agreement with
# them shows that it solves the equations the published tables solved
UNDISPUTED = _cells(lambda name, c: "published" not in c and (
    name == "table9" or (name, c["id"]) in {("table7", "hashing"), ("table7", "7rep")}))
SMALL_SHAPES = sorted({(n, m) for n, m in (rep_shape(c["stack"]) for _, c in ERRATA + UNDISPUTED
                                             if c["kind"] == "threshold")
                       if n * m <= oracle.MAX_ENUMERATED})


def test_ledger_covers_the_disputed_cells():
    # 15 gated cells, plus table7/shor = table9/3x3 and table7/4rep
    assert len(ERRATA) == 17
    assert SMALL_SHAPES  # the enumeration check below is not vacuous
    for name, cell in ERRATA:
        assert name in ACCEPTANCE_TOL and cell["erratum"], f"{name}/{cell['id']}"
        assert "tol" not in cell  # corrected cells run at the manifest default


@pytest.mark.parametrize("name,cell", ERRATA, ids=_ids(ERRATA))
def test_erratum_cell_is_proven_by_oracle(name, cell):
    value = oracle_value(cell)
    stored, published = mpf(_stored(cell)), mpf(cell["published"])
    tol = ACCEPTANCE_TOL[name]
    print(f"[errata] {name}/{cell['id']}: oracle {nstr(value, 15)} "
          f"stored {_stored(cell)!r} published {cell['published']!r} "
          f"(published - oracle {float(published - value):+.3e}, tol {tol:.0e})")
    assert abs(stored - value) <= STORED_TOL
    assert abs(published - value) > tol


@pytest.mark.parametrize("name,cell", UNDISPUTED, ids=_ids(UNDISPUTED))
def test_oracle_reproduces_undisputed_published_digits(name, cell):
    value = oracle_value(cell)
    diff = float(mpf(cell["expected"]) - value)
    print(f"[errata] {name}/{cell['id']}: oracle {nstr(value, 15)} "
          f"published {cell['expected']!r} diff {diff:+.3e}")
    assert abs(diff) <= ACCEPTANCE_TOL[name]


@pytest.mark.parametrize("n,m", SMALL_SHAPES, ids=[f"{n}x{m}" for n, m in SMALL_SHAPES])
def test_oracle_s_rb_matches_enumeration(n, m):
    for p in ("0.03", "0.1", oracle.rep_concat_threshold(n, m), "0.25"):
        formula = oracle.s_rb_rep_concat(n, m, p)
        assert abs(formula - oracle.s_rb_enumerated(n, m, p)) <= 1e-12, (n, m, p)


@pytest.mark.parametrize("name,cell", ERRATA, ids=_ids(ERRATA))
def test_engine_matches_oracle_on_erratum_cells(name, cell):
    if cell["kind"] == "hashing":
        got = hashing_point(parse_channel_spec(cell["channel"]))
    elif cell["kind"] == "optimum_eval":
        got = hashing_point(custom_family(*cell["coefficients"]))
    else:
        got = threshold(parse_stack_spec(cell["stack"]),
                        parse_channel_spec(cell["channel"])).p_star
    assert abs(mpf(got) - oracle_value(cell)) <= ENGINE_TOL


def test_table10_7qubit_only_p_hash_is_refuted():
    """The published non-additivity holds at the oracle's hashing point and
    not at the published one: the coefficients and q stand."""
    cell = next(c for n, c in ERRATA if n == "table10" and c["id"] == "7qubit")
    assert cell["stack"] == "steane"
    channel = oracle.custom(cell["coefficients"])
    with mp.workdps(oracle.DPS):
        rate = lambda p: (1 - oracle.s_rb_steane(channel(mpf(p)))) / 7
        q_oracle = rate(oracle_value(cell))
        q_published = rate(str(cell["published"]))
    print(f"[errata] table10/7qubit rate at oracle p_hash {nstr(q_oracle, 11)}, "
          f"at published p_hash {nstr(q_published, 11)}, published q "
          f"{cell['expected_q']!r}")
    assert abs(q_oracle - mpf(cell["expected_q"])) <= ACCEPTANCE_TOL["table10"]
    assert abs(q_published - mpf(cell["expected_q"])) > ACCEPTANCE_TOL["table10"]
    # the engine's rate at the corrected point agrees with the oracle's
    _, q_engine = nonadditivity_at_hashing(parse_stack_spec("steane"),
                                           tuple(cell["coefficients"]))
    assert abs(q_engine - q_oracle) <= 1e-9
