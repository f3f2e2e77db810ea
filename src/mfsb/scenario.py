"""Scenario files: declarative experiment descriptions with standing-hypothesis
validation (H1 smooth symmetric bounded-Hessian potential, H2 admissible
endpoints on the truncated domain, H3 uniform convexity, H4 equal means)."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .dynamics import THETA_MAX_PARTICLES, mkv_flow
from .errors import GridMismatch, HypothesisViolation, ParseError
from .functionals import EquilibriumMeasure, equilibrium
from .grids import (Density, MarginalFlow, SpatialGrid, TimeGrid, density_from_spec,
                    real_number)
from .potentials import InteractionPotential
from .solver import SolverConfig
from .verify import CHECKS

BOUNDARY_MASS_GATE = 1e-10
MEAN_MATCH_TOL = 1e-6
# Largest hess_sup*dt a particle check accepts.  Up to 1, the linearized Euler
# step does not expand along the drift's pair Laplacian, whose eigenvalues are
# at most 2*hess_sup.  On the shipped gaussian-well particle setup (width 1,
# amplitude scaled), theta passed at hess_sup*dt = 1 to 3.5 in steps of 0.5
# and first failed at 4, with a gap of 2.8e-5 against its 5e-10.
PARTICLE_STEP_LIMIT = 1.0
# Largest grids a scenario may ask for.  The largest dense arrays of a run are
# the n_cells x n_cells pair tables (the heat kernel, the gaussian-well
# tables) and the (n_steps + 1) x n_cells stacks of a descent, which holds
# about twenty of them.  At both bounds each such float64 array is 32 MiB.
MAX_N_CELLS = 2048
MAX_N_STEPS = 2048
_EXP_LIMIT = math.log(sys.float_info.max)  # the largest x with exp(x) finite


@dataclass
class Scenario:
    """A fully validated experiment description.

    The endpoint densities, the equilibrium at the initial mean and the MKV
    flow are resolved once per instance, on first use.
    """

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
        return self._mu_in

    def mu_fin(self) -> Density:
        """The final density, including the two symbolic endpoints."""
        return self._mu_fin

    @cached_property
    def equilibrium(self) -> EquilibriumMeasure:
        """The equilibrium at the initial density's mean; needs kappa > 0."""
        return equilibrium(self.potential, self.grid, self.mu_in().mean())

    @cached_property
    def mkv(self) -> MarginalFlow:
        """The self-interacting (MKV) flow from the initial density."""
        return mkv_flow(self.potential, self.mu_in(), self.time_grid)

    @cached_property
    def _mu_in(self) -> Density:
        return density_from_spec(self.grid, self.mu_in_spec)

    @cached_property
    def _mu_fin(self) -> Density:
        if self.mu_fin_spec == "equilibrium":
            return self.equilibrium.density
        if self.mu_fin_spec == "mkv-endpoint":
            return self.mkv.density(self.time_grid.n_steps)
        return density_from_spec(self.grid, self.mu_fin_spec)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _build_solver_config(spec: dict) -> SolverConfig:
    unknown = set(spec) - {f.name for f in fields(SolverConfig)}
    _require(not unknown, f"unknown solver options: {sorted(unknown)}")
    try:
        return SolverConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid solver configuration: {exc}") from exc


def _parse_structure(doc: dict) -> Scenario:
    _require(isinstance(doc, dict), "scenario document must be a JSON object")
    for key in ("name", "potential", "mu_in", "mu_fin", "grid", "time"):
        _require(key in doc, f"missing required field {key!r}")
    for key in ("grid", "time", "potential", "mu_in", "solver"):
        _require(isinstance(doc.get(key, {}), dict), f"{key} must be an object")
    grid_spec, time_spec = doc["grid"], doc["time"]
    for block, keys in (("grid", ("half_width", "n_cells")),
                        ("time", ("horizon", "n_steps"))):
        for key in keys:
            _require(key in doc[block], f"missing {block}.{key}")
    _require(_is_integer(grid_spec["n_cells"]), "grid.n_cells must be an integer")
    _require(_is_integer(time_spec["n_steps"]), "time.n_steps must be an integer")
    for name, value, bound in (("grid.n_cells", grid_spec["n_cells"], MAX_N_CELLS),
                               ("time.n_steps", time_spec["n_steps"], MAX_N_STEPS)):
        _require(value <= bound, f"{name} may be at most {bound}, got {value}")
    try:
        grid = SpatialGrid(real_number("half_width", grid_spec["half_width"]),
                           grid_spec["n_cells"])
        time_grid = TimeGrid(real_number("horizon", time_spec["horizon"]),
                             time_spec["n_steps"])
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
    else:
        _require(isinstance(mu_fin_spec, dict),
                 "mu_fin must be an object or a symbolic final density")
    checks = doc.get("checks", [])
    _require(isinstance(checks, list) and all(isinstance(c, str) for c in checks),
             "checks must be a list of check names")
    unknown = set(checks) - set(CHECKS)
    _require(not unknown, f"unknown checks: {sorted(unknown)}")
    seed = doc.get("seed", 0)
    _require(_is_integer(seed) and 0 <= seed < 2**64,
             "seed must be an integer in [0, 2**64)")
    n_particles = doc.get("particles", 64)
    _require(isinstance(n_particles, int) and n_particles >= 2,
             "particles must be an integer >= 2")
    _require(isinstance(doc["name"], str), "name must be a string")
    return Scenario(
        name=doc["name"],
        potential=potential,
        mu_in_spec=doc["mu_in"],
        mu_fin_spec=mu_fin_spec,
        grid=grid,
        time_grid=time_grid,
        solver=_build_solver_config(doc.get("solver", {})),
        checks=tuple(checks),
        seed=seed,
        n_particles=n_particles,
        raw=doc,
    )


def _validate_hypotheses(sc: Scenario):
    pot, grid = sc.potential, sc.grid
    # H1: symmetry and bounded Hessian, sampled across the domain of differences.
    # On a grid so wide that a square of the sample overflows, the kernels
    # give inf and nan there quietly: a Hessian sample that is nan is not
    # bounded, and a quadratic's densities have no mass (H2 below).
    z = np.linspace(-2 * grid.half_width, 2 * grid.half_width, 4097)
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = np.allclose(pot.w(z), pot.w(-z), rtol=0, atol=1e-12)
        bounded = np.all(pot.d2w(z) <= pot.hess_sup + 1e-9)
    if not symmetric:
        raise HypothesisViolation("H1", "potential is not symmetric")
    if not bounded:
        raise HypothesisViolation("H1", "Hessian is not within its declared upper bound")
    assumed = {name: CHECKS[name].assumes for name in sc.checks}
    stepped = sorted(name for name, a in assumed.items() if a == "particle-step")
    if stepped and sc.n_particles > THETA_MAX_PARTICLES:
        raise ParseError(
            f"checks {stepped} map at most {THETA_MAX_PARTICLES} particles, "
            f"got {sc.n_particles}; lower particles"
        )
    step = pot.hess_sup * sc.time_grid.dt
    if stepped and step > PARTICLE_STEP_LIMIT:
        raise HypothesisViolation(
            "H1", f"checks {stepped} need hess_sup·dt <= {PARTICLE_STEP_LIMIT:g} "
            f"for a stable particle step, got {step:.3g}; raise time.n_steps"
        )

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

    needs_convexity = {name for name, a in assumed.items() if a == "convexity"}
    if needs_convexity and pot.kappa <= 0:
        raise HypothesisViolation(
            "H3", f"checks {sorted(needs_convexity)} require kappa > 0"
        )
    needs_equal_means = {name for name, a in assumed.items() if a == "convexity"
                         or (a == "classical-limit" and pot.kappa > 0)}
    if needs_equal_means:
        gap = abs(mu_in.mean() - mu_fin.mean())
        if gap > MEAN_MATCH_TOL:
            raise HypothesisViolation(
                "H4", f"checks {sorted(needs_equal_means)} require equal means; "
                f"gap is {gap:.2e}"
            )
    # the same measure a symbolic "equilibrium" final density resolves to
    if pot.kappa > 0:
        try:
            eq_density = sc.equilibrium.density
        except ValueError as exc:  # a stiff potential's equilibrium misses every cell
            raise HypothesisViolation(
                "H2", f"equilibrium density is not resolved on the grid ({exc}); "
                "raise grid.n_cells"
            ) from exc
        if eq_density.boundary_mass() > BOUNDARY_MASS_GATE:
            raise HypothesisViolation(
                "H2", "equilibrium density has boundary mass above the gate; "
                "enlarge half_width"
            )
    # the descent's products overflow unless dt^3 and dt^-3 are finite, and the
    # checks unless exp(2·kappa·horizon) is (no probed descent past it converged)
    dt, growth = sc.time_grid.dt, 2.0 * pot.kappa * sc.time_grid.horizon
    if abs(math.log(dt)) > _EXP_LIMIT / 3 or growth > _EXP_LIMIT:
        raise ParseError(
            f"the time grid needs dt^3, dt^-3 and exp(2·kappa·horizon) finite, got "
            f"dt = {dt:.6g} and 2·kappa·horizon = {growth:.6g} (log(float max) = "
            f"{_EXP_LIMIT:.6g}); change time.horizon or time.n_steps"
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
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and validate a scenario from an in-memory document."""
    scenario = _parse_structure(doc)
    _validate_hypotheses(scenario)
    return scenario
