"""Interacting particle simulation, nonlinear Fokker-Planck flows and the
pathwise noise-to-trajectory transformation.

The Fokker-Planck stepper uses an implicit exponentially-fitted flux
(Scharfetter-Gummel): it is positivity preserving, conserves mass exactly in
flux form, and its stationary state coincides with the discrete Gibbs density
of the drift, so equilibria stay put to solver roundoff.  Each step solves one
tridiagonal system with _solve_tridiagonal, a transcription of LAPACK's dgtsv
in numpy, whose answers are bitwise LAPACK's (see _fp_banded for why).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, NoConvergence, TooLarge
from .grids import BOUNDARY_MASS_TOL, Density, MarginalFlow, TimeGrid
from .potentials import InteractionPotential, conv_force

_DIFFUSIVITY = 0.5  # unit Brownian noise: d mu = (1/2) mu'' + ...
THETA_TOL = 1e-10   # the theta check allows 5 THETA_TOL of mapped-to-simulated gap
THETA_MAX_PARTICLES = 10_000  # largest ensemble the theta map accepts
_DRIFT_RESOLUTION_LIMIT = 8.0  # cells the drift may move mass in one step


@dataclass
class PathEnsemble:
    """Discrete-time particle trajectories with their driving noise increments."""

    time_grid: TimeGrid
    positions: np.ndarray   # (n_particles, n_steps + 1)
    increments: np.ndarray  # (n_particles, n_steps)
    seed: int

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.increments = np.asarray(self.increments, dtype=float)
        n, k = self.positions.shape[0], self.time_grid.n_steps
        if self.positions.shape != (n, k + 1) or self.increments.shape != (n, k):
            raise ValueError("ensemble arrays inconsistent with the time grid")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("particle positions must be finite")

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]


def interaction_drift(pot: InteractionPotential, x: np.ndarray,
                      chunk: int = 64) -> np.ndarray:
    """Empirical drift -(1/N) sum_j W'(x_i - x_j) for every particle.

    x is copied to a contiguous array first: the simulator passes a strided
    column of its path array.  A dense kernel evaluates each pair once, in
    blocks of chunk rows, and applies its amplitude once to the total.
    """
    return pot.drift(np.ascontiguousarray(x, dtype=float), chunk)


def _particle_streams(seed: int, n_particles: int):
    """Counter-based per-particle generators; bitwise stable under any scheduling."""
    return [
        np.random.Generator(np.random.Philox(key=np.array([int(seed), i], dtype=np.uint64)))
        for i in range(n_particles)
    ]


def simulate_particles(pot: InteractionPotential, mu_in: Density,
                       time_grid: TimeGrid, n_particles: int, seed: int) -> PathEnsemble:
    """Euler-Maruyama simulation of the interacting particle system.

    Initial positions are drawn from mu_in by inverse CDF at the stratified
    quantiles (i + 1/2)/N, a variance reduction for marginal comparisons.
    Deterministic given the seed, which lies in [0, 2**64).
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if n_particles < 2:
        raise ValueError("need at least 2 particles")
    k_steps, dt = time_grid.n_steps, time_grid.dt
    streams = _particle_streams(seed, n_particles)

    cdf = mu_in.cdf_at_edges()
    quantiles = (np.arange(n_particles) + 0.5) / n_particles
    x0 = np.interp(quantiles, cdf / cdf[-1], mu_in.grid.edges)

    increments = np.empty((n_particles, k_steps))
    for row, g in zip(increments, streams):
        row[:] = g.normal(0.0, np.sqrt(dt), size=k_steps)
    increments.setflags(write=False)  # the noise paths and the theta map share it

    positions = np.empty((n_particles, k_steps + 1))
    positions[:, 0] = x0
    for k in range(k_steps):
        drift = interaction_drift(pot, positions[:, k])
        positions[:, k + 1] = positions[:, k] + drift * dt + increments[:, k]
    return PathEnsemble(time_grid, positions, increments, int(seed))


def noise_ensemble(ensemble: PathEnsemble) -> PathEnsemble:
    """Driving noise paths started at the initial positions: omega_t = X_0 + B_t."""
    x0 = ensemble.positions[:, 0]
    positions = np.empty_like(ensemble.positions)
    positions[:, 0] = x0
    np.cumsum(ensemble.increments, axis=1, out=positions[:, 1:])
    positions[:, 1:] += x0[:, None]
    return PathEnsemble(ensemble.time_grid, positions, ensemble.increments, ensemble.seed)


def tanaka_theta(pot: InteractionPotential, ensemble: PathEnsemble) -> PathEnsemble:
    """Map noise paths to interacting trajectories by forward substitution.

    The trajectories solve Y_{k+1} = omega_{k+1} + dt sum_{j<=k} b(Y_j), with
    b the ensemble-average drift: left-endpoint quadrature, matching the
    Euler-Maruyama stepping.  Node k+1 depends only on the nodes before it,
    so the map is lower triangular and its unique fixed point is computed in
    one pass of n_steps drift calls: the drift at node k is added into a
    running sum S, and Y_{k+1} = S dt + omega_{k+1}.  np.cumsum along the
    time axis is the same sequential sum, started from the first drift row
    (so a -0 drift stays -0), hence the result is bitwise a fixed point of
    the Picard update Y <- omega + dt cumsum(b(Y)).  The first node that is
    not finite raises NoConvergence at once.
    """
    if ensemble.n_particles > THETA_MAX_PARTICLES:
        raise TooLarge(f"ensemble exceeds the {THETA_MAX_PARTICLES} particle guard")
    omega = ensemble.positions.T  # node-major: row k holds every particle at node k
    dt = ensemble.time_grid.dt
    k_steps = ensemble.time_grid.n_steps
    y = np.empty(omega.shape)
    y[0] = omega[0]
    for k in range(k_steps):
        drift = interaction_drift(pot, y[k])
        if k == 0:
            total = np.array(drift, dtype=float)
        else:
            total += drift
        np.multiply(total, dt, out=y[k + 1])
        y[k + 1] += omega[k + 1]
        if not np.all(np.isfinite(y[k + 1])):
            raise NoConvergence(
                f"theta map stopped at step {k} of {k_steps} (time {k * dt:.6g}): "
                "the drift or the path is not finite")
    return PathEnsemble(ensemble.time_grid, y.T.copy(), ensemble.increments, ensemble.seed)


def _bernoulli(w: np.ndarray) -> np.ndarray:
    """B(w) = w / (e^w - 1), the exponential-fitting flux weight."""
    out = np.ones_like(w)
    nz = ~(np.abs(w) <= 1e-12)  # a NaN drift stays NaN
    with np.errstate(over="ignore"):
        den = np.expm1(w[nz])
    out[nz] = np.where(np.isinf(den), 0.0, w[nz] / den)
    return out


def _fp_banded(b_cells: np.ndarray, dx: float, dt: float) -> np.ndarray:
    """Banded matrix of one implicit Fokker-Planck step, no-flux boundaries.

    The matrix has unit column sums, a positive diagonal and nonpositive
    off-diagonals, so it is column diagonally dominant: LAPACK's dgtsv never
    interchanges rows on it, and _solve_tridiagonal, which is dgtsv without
    interchanges, returns dgtsv's answer bitwise.
    """
    b_edges = 0.5 * (b_cells[:-1] + b_cells[1:])
    w = b_edges * dx / _DIFFUSIVITY
    bm = _bernoulli(-w)  # weight of the left cell in the edge flux
    bp = _bernoulli(w)   # weight of the right cell
    c = _DIFFUSIVITY * dt / dx**2
    ab = np.zeros((3, b_cells.size))
    ab[1] = 1.0
    ab[1, :-1] += c * bm
    ab[1, 1:] += c * bp
    ab[0, 1:] = -c * bp   # superdiagonal
    ab[2, :-1] = -c * bm  # subdiagonal
    return ab


def _solve_tridiagonal(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system against the vector rhs.

    ab holds the superdiagonal, the diagonal and the subdiagonal in its rows,
    in LAPACK's banded storage.  This is LAPACK dgtsv's path without row
    interchanges, operation for operation.  Elimination: f = l_i / d_i,
    d_{i+1} -= f u_i and b_{i+1} -= f b_i.  Back substitution:
    b_{n-1} /= d_{n-1}, then b_i = (b_i - u_i b_{i+1} - 0 b_{i+2}) / d_i.
    The zero is the second superdiagonal of U, which stays empty without
    interchanges; subtracting it can turn a -0 into +0, as in LAPACK.  Every
    rounding is LAPACK's, in LAPACK's order, so the result is bitwise
    LAPACK's.

    Raises LinAlgError where dgtsv would interchange rows (|d_i| < |l_i|, or a
    NaN) or meet a zero pivot, and ValueError on non-finite input.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("tridiagonal system must be finite")
    sup, diag, sub = ab.tolist()
    upper = sup[1:]
    factors = []
    for i, l in enumerate(sub[:-1]):
        d = diag[i]
        if not abs(d) >= abs(l) or d == 0.0:
            raise np.linalg.LinAlgError(
                f"tridiagonal solve has no nonzero pivot without a row interchange "
                f"at row {i} (d = {d:.3e}, l = {l:.3e})")
        f = l / d
        diag[i + 1] -= f * upper[i]
        factors.append(f)
    if diag[-1] == 0.0:
        raise np.linalg.LinAlgError(
            f"tridiagonal solve has no nonzero pivot at row {len(diag) - 1}")
    n = len(diag)
    x = rhs.tolist() + [0.0]  # x[n] = +0: row n-2 has no zero term in dgtsv
    for i, f in enumerate(factors):
        x[i + 1] -= f * x[i]
    x[n - 1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1] - 0.0 * x[i + 2]) / diag[i]
    return np.array(x[:-1])


def _check_drift_resolution(b: np.ndarray, dx: float, dt: float):
    ratio = float(np.max(np.abs(b)) * dt / dx)
    if ratio > _DRIFT_RESOLUTION_LIMIT:
        raise CFLViolation(
            f"drift moves {ratio:.1f} cells per step "
            f"(limit {_DRIFT_RESOLUTION_LIMIT}); "
            "the time grid under-resolves the advection"
        )


def mkv_flow(pot: InteractionPotential, mu_in: Density,
             time_grid: TimeGrid) -> MarginalFlow:
    """Marginal flow of the McKean-Vlasov diffusion: an implicit Fokker-Planck
    march whose step-k drift is induced by its own density at step k."""
    if mu_in.boundary_mass() > BOUNDARY_MASS_TOL:
        raise ValueError(
            f"initial density carries {mu_in.boundary_mass():.2e} boundary mass; "
            "enlarge the domain"
        )
    grid, dx, dt = mu_in.grid, mu_in.grid.dx, time_grid.dt
    values = np.empty((time_grid.n_steps + 1, grid.n_cells))
    values[0] = mu_in.values
    for k in range(time_grid.n_steps):
        b = -conv_force(pot, Density(grid, values[k]))
        _check_drift_resolution(b, dx, dt)
        values[k + 1] = np.maximum(
            _solve_tridiagonal(_fp_banded(b, dx, dt), values[k]), 0.0)
    return MarginalFlow(time_grid, grid, values)
