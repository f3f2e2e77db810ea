"""Uniform grids, discrete densities and 1-D transport utilities.

Everything lives on a uniform cell-centered grid over [-L, L].  Densities are
piecewise constant, integrals are midpoint sums, and the momentum field paired
with ``divergence_inverse`` is indexed by the right edge of each cell so that
the discrete divergence below is its exact inverse.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatch, NonZeroMass

# Floor used inside logarithms so that empty cells do not produce -inf.
LOG_FLOOR = 1e-300
# Cells with less than this fraction of the peak density are excluded from
# Fisher-type integrals and carry zero velocity.
MASS_FLOOR_REL = 1e-12
# Bulk cells carry at least this fraction of the peak of their slice; the
# optimality residual takes its sup norm over them.
BULK_REL = 1e-3
MASS_TOL = 1e-8           # tolerated mass drift of a flow, net mass of a source
BOUNDARY_MASS_TOL = 1e-8  # mass a start or end density may put in the outer cells


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell-centered grid on [-half_width, half_width]."""

    half_width: float
    n_cells: int

    def __post_init__(self):
        # 4·half_width, the span of pair differences, is finite too
        if not 0 < self.half_width <= sys.float_info.max / 4:
            raise ValueError(f"half_width must be positive with 4*half_width "
                             f"finite, got {self.half_width}")
        if self.n_cells < 8:
            raise ValueError(f"n_cells must be at least 8, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_cells

    @cached_property
    def centers(self) -> np.ndarray:
        x = -self.half_width + (np.arange(self.n_cells) + 0.5) * self.dx
        x.setflags(write=False)
        return x

    @cached_property
    def edges(self) -> np.ndarray:
        e = -self.half_width + np.arange(self.n_cells + 1) * self.dx
        e.setflags(write=False)
        return e

    def mean(self, values: np.ndarray) -> np.ndarray:
        """Mean of a density, or of each row of a stack: a row's bits do not
        depend on the stack or on the BLAS thread count."""
        return np.sum(self.centers * values, axis=-1) * self.dx


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, horizon] with n_steps intervals."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        # 2·horizon, the doubled horizon of turnpike-rate, is finite too
        if not 0 < self.horizon <= sys.float_info.max / 2:
            raise ValueError(f"horizon must be positive with 2*horizon finite, "
                             f"got {self.horizon}")
        if self.n_steps < 4:
            raise ValueError(f"n_steps must be at least 4, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        t = np.arange(self.n_steps + 1) * self.dt
        t.setflags(write=False)
        return t

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights of the nodes."""
        tw = np.full(self.n_steps + 1, self.dt)
        tw[0] *= 0.5
        tw[-1] *= 0.5
        tw.setflags(write=False)
        return tw

    def cumulative_trapezoid(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid integrals of node values from 0 to each node."""
        steps = 0.5 * (values[1:] + values[:-1]) * self.dt
        return np.concatenate([[0.0], np.cumsum(steps)])


class Density:
    """Probability density sampled at cell centers, normalized on construction."""

    def __init__(self, grid: SpatialGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_cells,):
            raise GridMismatch(
                f"expected {grid.n_cells} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        peak = values.max(initial=0.0)
        if np.any(values < -1e-12 * max(peak, 1.0)):
            raise ValueError("density values must be nonnegative")
        values = np.maximum(values, 0.0)
        total = values.sum() * grid.dx
        if total <= 0.0:
            raise ValueError("density has no mass")
        self.grid = grid
        self.values = values / total
        self.values.setflags(write=False)

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dx)

    def mean(self) -> float:
        return float(self.grid.mean(self.values))

    def variance(self) -> float:
        m = self.mean()
        return float(np.sum((self.grid.centers - m) ** 2 * self.values) * self.grid.dx)

    def entropy(self) -> float:
        """Integral of p log p (negative differential entropy)."""
        p = self.values
        return float(np.sum(p * np.log(np.maximum(p, LOG_FLOOR))) * self.grid.dx)

    def cdf_at_edges(self) -> np.ndarray:
        """Cumulative mass at the n_cells + 1 cell edges."""
        return np.concatenate([[0.0], np.cumsum(self.values) * self.grid.dx])

    def boundary_mass(self) -> float:
        """Mass carried by the two outermost cells."""
        return float((self.values[0] + self.values[-1]) * self.grid.dx)

    def __eq__(self, other):
        return (
            isinstance(other, Density)
            and self.grid == other.grid
            and np.array_equal(self.values, other.values)
        )


def real_number(name: str, value) -> float:
    """value as a float; strings, booleans and other non-numbers raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def density_from_spec(grid: SpatialGrid, spec: dict) -> Density:
    """Build a density from a declarative spec.

    Supported kinds: ``gaussian`` (mean, std), ``mixture`` (components, each a
    weighted gaussian), ``histogram`` (raw nonnegative cell values).
    """
    kind = spec.get("kind")
    x = grid.centers
    # a bump whose scaled square overflows is 0, and an infinite weight on it
    # is nan: Density rejects the values without mass or not finite
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "gaussian":
            mean, std = (real_number(key, spec[key]) for key in ("mean", "std"))
            if std <= 0:
                raise ValueError("gaussian std must be positive")
            vals = np.exp(-0.5 * ((x - mean) / std) ** 2)
        elif kind == "mixture":
            comps = spec["components"]
            if not comps:
                raise ValueError("mixture needs at least one component")
            vals = np.zeros_like(x)
            for comp in comps:
                w, mean, std = (real_number(key, comp[key])
                                for key in ("weight", "mean", "std"))
                if w < 0 or std <= 0:
                    raise ValueError("mixture weights must be >= 0 and stds > 0")
                vals += w * np.exp(-0.5 * ((x - mean) / std) ** 2) / std
        elif kind == "histogram":
            vals = np.array([real_number("histogram value", v)
                             for v in spec["values"]])
        else:
            raise ValueError(f"unknown density kind: {kind!r}")
    return Density(grid, vals)


@dataclass
class MarginalFlow:
    """Time-indexed family of densities, one row per time node."""

    time_grid: TimeGrid
    grid: SpatialGrid
    values: np.ndarray  # shape (n_steps + 1, n_cells)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (self.time_grid.n_steps + 1, self.grid.n_cells)
        if self.values.shape != expect:
            raise GridMismatch(f"flow shape {self.values.shape} != {expect}")

    def density(self, k: int) -> Density:
        return Density(self.grid, self.values[k])

    def slice_masses(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.grid.dx

    def mean_trajectory(self) -> np.ndarray:
        return self.grid.mean(self.values)


@dataclass
class GridField:
    """Scalar field sampled on the space-time grid (velocities, correctors...)."""

    time_grid: TimeGrid
    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (self.time_grid.n_steps + 1, self.grid.n_cells)
        if self.values.shape != expect:
            raise GridMismatch(f"field shape {self.values.shape} != {expect}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def grad(values: np.ndarray, dx: float) -> np.ndarray:
    """Spatial derivative: central differences inside, one-sided at the ends."""
    v = np.asarray(values, dtype=float)
    g = np.empty_like(v)
    g[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * dx)
    g[..., 0] = (v[..., 1] - v[..., 0]) / dx
    g[..., -1] = (v[..., -1] - v[..., -2]) / dx
    return g


def divergence(momentum: np.ndarray, dx: float) -> np.ndarray:
    """Discrete divergence matched to ``divergence_inverse``.

    ``momentum[i]`` is the flux through the right edge of cell i; the flux
    through the left domain boundary is zero.
    """
    m = np.asarray(momentum, dtype=float)
    d = np.empty_like(m)
    d[..., 0] = m[..., 0] / dx
    d[..., 1:] = (m[..., 1:] - m[..., :-1]) / dx
    return d


def divergence_inverse(source: np.ndarray, dx: float) -> np.ndarray:
    """Momentum m with div m = source and zero flux at both domain boundaries.

    Raises NonZeroMass when the source does not integrate to zero, which
    signals an unbalanced continuity-equation right-hand side.
    """
    s = np.asarray(source, dtype=float)
    total = s.sum(axis=-1) * dx
    if np.any(np.abs(total) > MASS_TOL):
        raise NonZeroMass(
            f"source integrates to {np.max(np.abs(total)):.3e}, "
            f"tolerance {MASS_TOL:.1e}"
        )
    return np.cumsum(s, axis=-1) * dx


def log_density_gradient(values: np.ndarray, dx: float) -> np.ndarray:
    """Discrete score: gradient of log density with the log floor applied."""
    return grad(np.log(np.maximum(values, LOG_FLOOR)), dx)


def time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Row-wise time derivative: central inside, one-sided at the two end rows."""
    v = np.asarray(values, dtype=float)
    ddt = np.empty_like(v)
    ddt[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    ddt[0] = (v[1] - v[0]) / dt
    ddt[-1] = (v[-1] - v[-2]) / dt
    return ddt


def retained_mask(values: np.ndarray) -> np.ndarray:
    """Cells carrying at least MASS_FLOOR_REL times the peak of their slice."""
    v = np.asarray(values, dtype=float)
    peak = v.max(axis=-1, keepdims=True)
    return v >= MASS_FLOOR_REL * peak


def wasserstein1(a: Density, b: Density) -> float:
    """Exact 1-D Wasserstein-1 distance via cumulative functions."""
    if a.grid != b.grid:
        raise GridMismatch("densities live on different grids")
    dx = a.grid.dx
    diff = np.cumsum(a.values - b.values) * dx
    return float(np.sum(np.abs(diff)) * dx)

