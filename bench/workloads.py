"""The benchmark's workloads: which scenarios one verify pass runs.

Shipped scenarios are read unchanged from ``scenarios/``.  Generated ones are
written from the workload seed, which becomes the scenario's ``seed``; they
are then loaded through the same ``load_scenario`` validation as the shipped
ones.  Bridge solves do not depend on the seed, so fingerprints do not either.
"""

from __future__ import annotations

import json
from pathlib import Path

GAUSSIAN_WELL = {"kind": "gaussian-well", "amplitude": 1.0, "width": 1.0}
STANDARD_NORMAL = {"kind": "gaussian", "mean": 0.0, "std": 1.0}


def gaussian_well_bridge(seed: int) -> dict:
    """N(0,1) to N(0,1) under a gaussian well: the dense-kernel solver branch."""
    return {
        "name": "gaussian-well-bridge",
        "potential": GAUSSIAN_WELL,
        "mu_in": STANDARD_NORMAL,
        "mu_fin": STANDARD_NORMAL,
        "grid": {"half_width": 8.0, "n_cells": 256},
        "time": {"horizon": 1.0, "n_steps": 128},
        "checks": ["entropy-bound", "corrector-bounds", "mean-linearity"],
        "seed": seed,
        "particles": 64,
    }


def gaussian_well_particles_600(seed: int) -> dict:
    """600 particles: above the 512-row chunk of the interaction drift."""
    return {
        "name": "gaussian-well-particles-600",
        "potential": GAUSSIAN_WELL,
        "mu_in": STANDARD_NORMAL,
        "mu_fin": STANDARD_NORMAL,
        "grid": {"half_width": 8.0, "n_cells": 256},
        "time": {"horizon": 1.0, "n_steps": 128},
        "checks": ["theta"],
        "seed": seed,
        "particles": 600,
    }


# workload -> scenario keys; a key is a shipped file stem or a generator name
WORKLOADS = {
    "bridge-asym": ("asymmetric",),
    "bridge-suite": ("relax_to_equilibrium", "mkv_endpoint", "classical_gaussian",
                     "equilibrium", "gaussian_well_particles", "gaussian_well_bridge"),
    "particles-well": ("gaussian_well_particles_600",),
}
GENERATORS = {
    "gaussian_well_bridge": gaussian_well_bridge,
    "gaussian_well_particles_600": gaussian_well_particles_600,
}


def scenario_paths(workload: str, seed: int, root: Path, generated_dir: Path) -> dict:
    """Scenario key -> file, writing the generated scenarios for this seed."""
    paths = {}
    for key in WORKLOADS[workload]:
        if key in GENERATORS:
            generated_dir.mkdir(parents=True, exist_ok=True)
            path = generated_dir / f"{key}.json"
            path.write_text(json.dumps(GENERATORS[key](seed), indent=2) + "\n")
        else:
            path = root / "scenarios" / f"{key}.json"
        paths[key] = path
    return paths
