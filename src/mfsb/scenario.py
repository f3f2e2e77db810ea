"""Scenario files: declarative experiment descriptions with standing-hypothesis
validation (H1 smooth symmetric bounded-Hessian potential, H2 admissible
endpoints on the truncated domain, H3 uniform convexity, H4 equal means)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dynamics import mkv_flow
from .errors import GridMismatch, HypothesisViolation, ParseError
from .functionals import equilibrium
from .grids import Density, SpatialGrid, TimeGrid, density_from_spec
from .potentials import InteractionPotential
from .solver import SolverConfig

# Checks and what they assume beyond H1/H2.
CHECKS_NEEDING_CONVEXITY = frozenset({
    "conserved", "conserved-bound", "turnpike", "turnpike-rate",
    "talagrand", "talagrand-equilibrium", "hwi", "mkv-distance",
})
# These have a classical (kappa -> 0) limit form and stay valid without H3;
# with kappa > 0 they assume equal means like the convexity checks.
CHECKS_WITH_CLASSICAL_LIMIT = frozenset({"entropy-bound", "corrector-bounds"})
CHECKS_UNCONDITIONAL = frozenset({
    "time-reversal", "theta", "mean-linearity", "optimality",
})
KNOWN_CHECKS = CHECKS_NEEDING_CONVEXITY | CHECKS_WITH_CLASSICAL_LIMIT | CHECKS_UNCONDITIONAL

BOUNDARY_MASS_GATE = 1e-10
MEAN_MATCH_TOL = 1e-6


@dataclass
class Scenario:
    """A fully validated experiment description."""

    name: str
    potential: InteractionPotential
    mu_in_spec: dict
    mu_fin_spec: object  # density spec dict, or "mkv-endpoint" / "equilibrium"
    grid: SpatialGrid
    time_grid: TimeGrid
    solver: SolverConfig
    checks: tuple
    seed: int
    n_particles: int
    raw: dict = field(repr=False, default_factory=dict)

    def mu_in(self) -> Density:
        return density_from_spec(self.grid, self.mu_in_spec)

    def mu_fin(self) -> Density:
        """Resolve the final density, including the two symbolic endpoints."""
        if self.mu_fin_spec == "equilibrium":
            return equilibrium(self.potential, self.grid, self.mu_in().mean()).density
        if self.mu_fin_spec == "mkv-endpoint":
            flow = mkv_flow(self.potential, self.mu_in(), self.time_grid)
            return flow.density(self.time_grid.n_steps)
        return density_from_spec(self.grid, self.mu_fin_spec)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _build_solver_config(spec: dict) -> SolverConfig:
    allowed = {f.name for f in fields(SolverConfig)} - {"provided_flow"}
    unknown = set(spec) - allowed
    _require(not unknown, f"unknown solver options: {sorted(unknown)}")
    kwargs = dict(spec)
    if "multi_start" in kwargs:
        kwargs["multi_start"] = tuple(kwargs["multi_start"])
    try:
        return SolverConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid solver configuration: {exc}") from exc


def _parse_structure(doc: dict) -> Scenario:
    _require(isinstance(doc, dict), "scenario document must be a JSON object")
    for key in ("name", "potential", "mu_in", "mu_fin", "grid", "time"):
        _require(key in doc, f"missing required field {key!r}")
    grid_spec, time_spec = doc["grid"], doc["time"]
    for block, keys in (("grid", ("half_width", "n_cells")),
                        ("time", ("horizon", "n_steps"))):
        for key in keys:
            _require(key in doc[block], f"missing {block}.{key}")
    try:
        grid = SpatialGrid(float(grid_spec["half_width"]), int(grid_spec["n_cells"]))
        time_grid = TimeGrid(float(time_spec["horizon"]), int(time_spec["n_steps"]))
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid grid specification: {exc}") from exc
    try:
        potential = InteractionPotential.from_spec(doc["potential"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid potential specification: {exc}") from exc

    mu_fin_spec = doc["mu_fin"]
    if isinstance(mu_fin_spec, str):
        _require(mu_fin_spec in ("equilibrium", "mkv-endpoint"),
                 f"unknown symbolic final density {mu_fin_spec!r}")
    checks = tuple(doc.get("checks", ()))
    unknown = set(checks) - KNOWN_CHECKS
    _require(not unknown, f"unknown checks: {sorted(unknown)}")
    seed = doc.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             "seed must be an integer")
    n_particles = doc.get("particles", 64)
    _require(isinstance(n_particles, int) and n_particles >= 2,
             "particles must be an integer >= 2")
    return Scenario(
        name=str(doc["name"]),
        potential=potential,
        mu_in_spec=doc["mu_in"],
        mu_fin_spec=mu_fin_spec,
        grid=grid,
        time_grid=time_grid,
        solver=_build_solver_config(doc.get("solver", {})),
        checks=checks,
        seed=seed,
        n_particles=n_particles,
        raw=doc,
    )


def _validate_hypotheses(sc: Scenario):
    pot, grid = sc.potential, sc.grid
    # H1: symmetry and bounded Hessian, sampled across the domain of differences.
    z = np.linspace(-2 * grid.half_width, 2 * grid.half_width, 4097)
    if not np.allclose(pot.w(z), pot.w(-z), rtol=0, atol=1e-12):
        raise HypothesisViolation("H1", "potential is not symmetric")
    if np.any(pot.d2w(z) > pot.hess_sup + 1e-9):
        raise HypothesisViolation("H1", "Hessian exceeds its declared upper bound")

    # H2: admissible endpoints with controlled domain truncation.
    try:
        mu_in = sc.mu_in()
        mu_fin = sc.mu_fin()
    except (GridMismatch, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid density specification: {exc}") from exc
    for name, mu in (("initial", mu_in), ("final", mu_fin)):
        if mu.boundary_mass() > BOUNDARY_MASS_GATE:
            raise HypothesisViolation(
                "H2", f"{name} density has boundary mass {mu.boundary_mass():.2e} "
                f"above {BOUNDARY_MASS_GATE:.0e}; enlarge half_width"
            )
        if not np.isfinite(mu.entropy()):
            raise HypothesisViolation("H2", f"{name} density has infinite entropy")

    requested = set(sc.checks)
    needs_convexity = requested & CHECKS_NEEDING_CONVEXITY
    if needs_convexity and pot.kappa <= 0:
        raise HypothesisViolation(
            "H3", f"checks {sorted(needs_convexity)} require kappa > 0"
        )
    needs_equal_means = needs_convexity | (
        requested & CHECKS_WITH_CLASSICAL_LIMIT if pot.kappa > 0 else set()
    )
    if needs_equal_means:
        gap = abs(mu_in.mean() - mu_fin.mean())
        if gap > MEAN_MATCH_TOL:
            raise HypothesisViolation(
                "H4", f"checks {sorted(needs_equal_means)} require equal means; "
                f"gap is {gap:.2e}"
            )
    if pot.kappa > 0:
        eq = equilibrium(pot, grid, mu_in.mean())
        if eq.density.boundary_mass() > BOUNDARY_MASS_GATE:
            raise HypothesisViolation(
                "H2", "equilibrium density has boundary mass above the gate; "
                "enlarge half_width"
            )


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario file.

    Raises ParseError for structural problems and HypothesisViolation (naming
    the violated hypothesis) for semantic ones.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"scenario file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    scenario = _parse_structure(doc)
    _validate_hypotheses(scenario)
    return scenario


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and validate a scenario from an in-memory document."""
    scenario = _parse_structure(doc)
    _validate_hypotheses(scenario)
    return scenario
