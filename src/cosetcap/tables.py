"""Regression manifests: bundled reference values for the result tables,
re-runnable against the current engines.

Each manifest is a JSON file with cells of three kinds:

  hashing       expected hashing point of a channel family
  threshold     expected threshold of a stack on a channel family
  optimum_eval  a coefficient triple with expected non-additivity and
                hashing point, evaluated (no optimizer search involved)

The runner recomputes every cell and reports the differences; tolerances
come from the CLI (or the manifest's default).  Reference values are the
published digits, with one exception: a cell whose published digit does
not satisfy its own defining equation keeps that digit under
``published``, states the discrepancy in a one-line ``erratum``, and
carries the value of an independent 40-digit recomputation
(``tests/oracle.py``, checked by ``tests/test_errata.py``) in its
``expected`` (``expected_p_hash`` for an optimum_eval cell).  The report
line of such a cell names the published digit and its offset.
"""

from __future__ import annotations

import copy
import functools
import importlib.resources
import json
import time
from dataclasses import dataclass

from .capacity import threshold
from .channels import hashing_point, parse_channel_spec
from .optimize import nonadditivity_at_hashing
from .stacks import parse_stack_spec

TABLE_NAMES = ("table1", "table2", "table6", "table7", "table9", "table10", "table11")


@dataclass(frozen=True, slots=True)
class CellResult:
    cell_id: str
    quantity: str
    expected: float
    got: float
    tol: float
    seconds: float
    published: float | None = None

    @property
    def diff(self) -> float:
        return self.got - self.expected

    @property
    def passed(self) -> bool:
        return abs(self.diff) <= self.tol


def load_manifest(name: str) -> dict:
    """The parsed manifest ``name``, a copy the caller may change."""
    return copy.deepcopy(_manifest(name))


@functools.lru_cache(maxsize=None)
def _manifest(name: str) -> dict:
    """The parsed manifest, read once and shared: read-only."""
    if name not in TABLE_NAMES:
        raise KeyError(f"unknown table manifest {name!r}; have {TABLE_NAMES}")
    res = importlib.resources.files("cosetcap.data.tables").joinpath(f"{name}.json")
    return json.loads(res.read_text(encoding="utf-8"))


def run_manifest(name: str, tol: float | None = None) -> list[CellResult]:
    manifest = _manifest(name)
    default_tol = manifest.get("default_tol", 1e-8)
    results = []
    for cell in manifest["cells"]:
        cell_tol = tol if tol is not None else cell.get("tol", default_tol)
        kind = cell["kind"]
        t0 = time.time()
        if kind == "hashing":
            family = parse_channel_spec(cell["channel"])
            got = hashing_point(family)
            results.append(CellResult(cell["id"], "p_hash", cell["expected"],
                                      got, cell_tol, time.time() - t0,
                                      cell.get("published")))
        elif kind == "threshold":
            stack = parse_stack_spec(cell["stack"])
            family = parse_channel_spec(cell["channel"])
            r = threshold(stack, family)
            results.append(CellResult(cell["id"], "threshold", cell["expected"],
                                      r.p_star, cell_tol, time.time() - t0,
                                      cell.get("published")))
        elif kind == "optimum_eval":
            stack = parse_stack_spec(cell["stack"])
            c = tuple(cell["coefficients"])
            p_hash, q = nonadditivity_at_hashing(stack, c)
            dt = time.time() - t0
            results.append(CellResult(cell["id"], "non_additivity",
                                      cell["expected_q"], q, cell_tol, dt))
            results.append(CellResult(cell["id"], "p_hash",
                                      cell["expected_p_hash"], p_hash, cell_tol, 0.0,
                                      cell.get("published")))
        else:
            raise ValueError(f"unknown cell kind {kind!r} in {name}")
    return results


def format_results(name: str, results: list[CellResult]) -> str:
    lines = []
    npass = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        npass += r.passed
        line = (f"{status}  {name}/{r.cell_id:24s} {r.quantity:14s} "
                f"got {r.got:+.12f}  expected {r.expected:+.12f}  "
                f"diff {r.diff:+.3e}  tol {r.tol:.0e}")
        if r.published is not None:
            line += (f"  published {r.published!r} (erratum, diff "
                     f"{r.published - r.expected:+.3e})")
        lines.append(line)
    lines.append(f"{npass}/{len(results)} cells PASS")
    return "\n".join(lines)
