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

import os
from dataclasses import dataclass

import numpy as np

from . import _fork
from .errors import CFLViolation, NoConvergence, TooLarge
from .grids import BOUNDARY_MASS_TOL, Density, MarginalFlow, TimeGrid
from .potentials import InteractionPotential, conv_force

_DIFFUSIVITY = 0.5  # unit Brownian noise: d mu = (1/2) mu'' + ...
THETA_TOL = 1e-10   # sup change of the theta iteration that counts as converged
_THETA_MAX_ITERS = 200  # Picard sweeps per window, and for the certificate
_THETA_WINDOW = 8       # time steps per Picard window
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

    Each pair is summed once, in blocks of chunk rows.
    """
    return pot.drift(np.asarray(x, dtype=float), chunk)


def _particle_streams(seed: int, n_particles: int):
    """Counter-based per-particle generators; bitwise stable under any scheduling."""
    return [
        np.random.Generator(np.random.Philox(key=np.array([int(seed), i], dtype=np.uint64)))
        for i in range(n_particles)
    ]


def simulate_particles(pot: InteractionPotential, mu_in: Density,
                       time_grid: TimeGrid, n_particles: int, seed: int, *,
                       init: str = "stratified") -> PathEnsemble:
    """Euler-Maruyama simulation of the interacting particle system.

    Initial positions are drawn from mu_in by inverse CDF, either at the
    stratified quantiles (i + 1/2)/N (default, variance reduction for marginal
    comparisons) or iid.  Deterministic given the seed, which lies in
    [0, 2**64).
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if n_particles < 2:
        raise ValueError("need at least 2 particles")
    if init not in ("stratified", "iid"):
        raise ValueError(f"unknown init mode {init!r}")
    k_steps, dt = time_grid.n_steps, time_grid.dt
    streams = _particle_streams(seed, n_particles)

    cdf = mu_in.cdf_at_edges()
    edges = mu_in.grid.edges
    if init == "stratified":
        quantiles = (np.arange(n_particles) + 0.5) / n_particles
    else:
        quantiles = np.array([g.uniform() for g in streams])
    x0 = np.interp(quantiles, cdf / cdf[-1], edges)

    increments = np.stack([
        g.normal(0.0, np.sqrt(dt), size=k_steps) for g in streams
    ])

    positions = np.empty((n_particles, k_steps + 1))
    positions[:, 0] = x0
    for k in range(k_steps):
        drift = interaction_drift(pot, positions[:, k])
        positions[:, k + 1] = positions[:, k] + drift * dt + increments[:, k]
    return PathEnsemble(time_grid, positions, increments, int(seed))


def noise_ensemble(ensemble: PathEnsemble) -> PathEnsemble:
    """Driving noise paths started at the initial positions: omega_t = X_0 + B_t."""
    cum = np.cumsum(ensemble.increments, axis=1)
    positions = np.concatenate([
        ensemble.positions[:, :1],
        ensemble.positions[:, :1] + cum,
    ], axis=1)
    return PathEnsemble(ensemble.time_grid, positions,
                        ensemble.increments.copy(), ensemble.seed)


def tanaka_theta(pot: InteractionPotential, ensemble: PathEnsemble) -> PathEnsemble:
    """Map noise paths to interacting trajectories by fixed-point iteration.

    The trajectories are the fixed point of
    Y <- omega + int_0^t (ensemble-average drift of Y) ds, with left-endpoint
    quadrature matching the Euler-Maruyama stepping.  Picard sweeps run on
    consecutive windows of _THETA_WINDOW time steps, where they contract much
    faster than on the whole horizon.  A sweep evaluates the drift on the
    window's nodes and applies the update to the whole path, so the later
    nodes carry the newest prediction; the window is done once a sweep moves
    its nodes by at most THETA_TOL.  Global sweeps then certify the whole
    path: the result is returned once one sweep over all nodes moves it by at
    most THETA_TOL, so it is a global fixed point to the same test as plain
    Picard iteration.  A node's drift is evaluated again only when its
    positions differ bitwise from the ones it was last evaluated at, which
    is exact because the drift is a pure function of the positions.  The
    first sweep whose change is not finite raises NoConvergence at once.

    In each sweep, the nodes that need a new drift go on a queue, a pipe
    read without blocking, one node per read, that the process, and its
    helper when one was forked, take nodes from until it is empty.  The
    helper is forked for the whole map when a CPU is idle; the path and the
    drift rows are arrays the two share, and the sweep waits for the helper
    once per _QUEUE_BATCH nodes.  Each node's drift is the same call on the
    same positions in either process, so the result is bitwise the
    one-process one.
    """
    if ensemble.n_particles > THETA_MAX_PARTICLES:
        raise TooLarge(f"ensemble exceeds the {THETA_MAX_PARTICLES} particle guard")
    omega = ensemble.positions.T  # node-major: row k holds every particle at node k
    dt = ensemble.time_grid.dt
    k_steps = ensemble.time_grid.n_steps
    y, drift = _fork.shared_arrays(((k_steps + 1, ensemble.n_particles), float),
                                   ((k_steps, ensemble.n_particles), float))
    drift_at = np.full_like(drift, np.nan)  # positions each drift row saw
    y[:] = omega  # the update with zero drift; row 0 stays omega's
    windows = [(lo, min(lo + _THETA_WINDOW, k_steps))
               for lo in range(0, k_steps, _THETA_WINDOW)]
    queue, queue_w = os.pipe()
    helper = None
    try:
        os.set_blocking(queue, False)
        if _fork.spare_cpus() > 0:
            helper = _fork.Child(_evaluate_queued, queue, pot, y, drift)
        for lo, hi in windows + [(0, k_steps)]:  # the last one certifies the path
            for sweep in range(1, _THETA_MAX_ITERS + 1):
                stale = [k for k in range(lo, hi)
                         if not np.array_equal(y[k], drift_at[k])]
                # a batch of tokens fits in any pipe's buffer, so the write returns
                for first in range(0, len(stale), _QUEUE_BATCH):
                    batch = np.array(stale[first:first + _QUEUE_BATCH], dtype="<u4")
                    os.write(queue_w, batch.tobytes())
                    if helper:
                        helper.call()
                    _evaluate_queued(queue, pot, y, drift)
                    if helper:
                        helper.answer()
                drift_at[stale] = y[stale]
                before = y[lo + 1:hi + 1].copy()
                np.cumsum(drift, axis=0, out=y[1:])
                y[1:] *= dt
                y[1:] += omega[1:]
                delta = float(np.max(np.abs(y[lo + 1:hi + 1] - before)))
                if delta <= THETA_TOL or not np.isfinite(delta):
                    break
            if not delta <= THETA_TOL:
                cause = ("the drift may violate its Lipschitz bound" if np.isfinite(delta)
                         else "the drift or the path is not finite")
                raise NoConvergence(
                    f"theta iteration stopped on the time window "
                    f"[{lo * dt:.6g}, {hi * dt:.6g}] (steps {lo}..{hi}) at sweep "
                    f"{sweep} of {_THETA_MAX_ITERS}, last sweep change {delta:.3e}; {cause}"
                )
    finally:
        if helper:
            helper.stop()
        os.close(queue)
        os.close(queue_w)
    return PathEnsemble(ensemble.time_grid, y.T.copy(),
                        ensemble.increments.copy(), ensemble.seed)


_QUEUE_BATCH = 1024  # 4-byte node tokens per queue write: 4096 bytes


def _evaluate_queued(queue: int, pot, y, drift):
    """Evaluate the drift on y at the nodes taken off the queue, one read
    at a time, until it is empty; the helper's body too."""
    while True:
        try:
            token = os.read(queue, 4)
        except BlockingIOError:  # empty
            return
        k = int.from_bytes(token, "little")
        drift[k] = interaction_drift(pot, y[k])


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
