"""Answer fingerprints: what a verify run must reproduce to count as correct.

A fingerprint holds the exit code, the cost and solver status of every
bridge solve in call order, summary numbers of every simulated particle
ensemble, and the set of checks that passed.  Iteration counts are recorded
beside each solve but are not compared, because a faster solver may
legitimately take fewer of them.

Ensembles depend on the scenario's seed, so their reference is not stored:
particles.py computes it for each run.
"""

from __future__ import annotations

import json
from pathlib import Path

COST_REL_TOL = 1e-6
# A bridge between a density and itself has cost zero up to roundoff; below
# this absolute level (the square of the solver's gradient tolerance) cost
# differences are roundoff, not answers.
COST_ABS_TOL = 1e-12
ENSEMBLE_REL_TOL = 1e-6
# positions are O(1); a final mean near zero is compared on this scale
ENSEMBLE_ABS_TOL = 1e-9
REFERENCE_FILE = Path(__file__).resolve().parent / "fingerprints.json"


def solve_record(sol) -> dict:
    """The fingerprinted part of one BridgeSolution."""
    return {"cost": float(sol.cost),
            "status": sol.diagnostics["status"],
            "iterations": sum(s["iterations"] for s in sol.diagnostics["starts"].values())}


def make(exit_code, solves: list, ensembles: list, report: dict | None) -> dict:
    """Fingerprint of one scenario run.

    ``solves`` holds a solve_record per solve, ``ensembles`` a
    particles.summary per simulated ensemble, ``report`` the parsed
    report.json (None when the run wrote none).
    """
    checks = (report or {}).get("checks", {})
    return {
        "exit_code": exit_code,
        "solves": list(solves),
        "ensembles": list(ensembles),
        "passed": sorted(name for name, entry in checks.items() if entry["pass"]),
    }



def mismatches(observed: dict, reference: dict) -> list[str]:
    """Human-readable differences between a run and its reference; empty if none."""
    problems = []
    if observed["exit_code"] != reference["exit_code"]:
        problems.append(f"exit code {observed['exit_code']} != {reference['exit_code']}")
    if len(observed["solves"]) != len(reference["solves"]):
        problems.append(f"{len(observed['solves'])} solves != {len(reference['solves'])}")
    for i, (got, want) in enumerate(zip(observed["solves"], reference["solves"])):
        if got["status"] != want["status"]:
            problems.append(f"solve {i} status {got['status']} != {want['status']}")
        if not abs(got["cost"] - want["cost"]) <= (COST_REL_TOL * abs(want["cost"])
                                                   + COST_ABS_TOL):
            problems.append(f"solve {i} cost {got['cost']!r} != {want['cost']!r} "
                            f"beyond {COST_REL_TOL:g} relative")
    if len(observed["ensembles"]) != len(reference["ensembles"]):
        problems.append(f"{len(observed['ensembles'])} particle ensembles != "
                        f"{len(reference['ensembles'])}")
    for i, (got, want) in enumerate(zip(observed["ensembles"], reference["ensembles"])):
        for field, value in want.items():
            if not abs(got[field] - value) <= (ENSEMBLE_REL_TOL * abs(value)
                                               + ENSEMBLE_ABS_TOL):
                problems.append(f"ensemble {i} {field} {got[field]!r} != {value!r} "
                                f"beyond {ENSEMBLE_REL_TOL:g} relative")
    if observed["passed"] != reference["passed"]:
        problems.append(f"passing checks {observed['passed']} != {reference['passed']}")
    return problems


def load_references(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())


def save_references(references: dict, path: Path = REFERENCE_FILE):
    references = {key: {k: v for k, v in fp.items() if k != "ensembles"}
                  for key, fp in references.items()}
    path.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
