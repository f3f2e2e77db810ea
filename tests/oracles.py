"""Independent oracles used by the tests.

Everything here is deliberately written against first principles (kernel
matrices, brute-force enumeration, closed-form Gaussians) rather than through
the package's solver machinery, so the tests compare two genuinely different
routes to the same quantity.  Two exceptions keep earlier versions of
package routines: reference_descend, the solver's descent as it was before
it wrote into preallocated buffers, kept so that the buffered descent can be
required to reproduce it bit for bit; and reference_theta, the noise-to-path
map by Picard sweeps over the whole horizon, kept so that the map by forward
substitution can be required to reach the same fixed point.
"""

import itertools
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from mfsb.dynamics import THETA_TOL, PathEnsemble, interaction_drift
from mfsb.errors import NoConvergence, TooLarge
from mfsb.grids import LOG_FLOOR, MASS_FLOOR_REL, time_derivative
from mfsb.solver import (
    _ARMIJO,
    _BACKTRACK,
    _ETA0,
    _ETA_MAX,
    _GROW,
    _KINETIC_REG,
    _MAX_BACKTRACKS,
    _MOMENTUM,
    _TOL_GRAD,
    _UPDATE_FLOOR_REL,
)


def exact_heat_kernel(grid, t: float) -> np.ndarray:
    """Mass transition matrix of free diffusion using the exact Gaussian kernel."""
    x = grid.centers
    return np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * t)) * grid.dx \
        / np.sqrt(2.0 * np.pi * t)


def ipfp_cost(mu_in, mu_fin, t: float, *, tol: float = 1e-13,
              max_iters: int = 20000) -> float:
    """Classical bridge cost by iterative proportional fitting.

    Scales the exact heat kernel to the two marginals and returns the
    relative entropy of the fitted coupling against the reference joint law.
    """
    grid = mu_in.grid
    a = mu_in.values * grid.dx
    b = mu_fin.values * grid.dx
    kernel = exact_heat_kernel(grid, t)
    u = np.ones_like(a)
    v = np.ones_like(b)
    for _ in range(max_iters):
        u = a / np.maximum(kernel.T @ v, 1e-300)
        ku = kernel @ u
        if np.max(np.abs(v * ku - b)) <= tol:
            break
        v = b / np.maximum(ku, 1e-300)
    # KL(pi | a x K) with pi = diag(v) K diag(u): the kernel factors cancel.
    live_a = a > 0
    cost = float(np.sum(a[live_a] * np.log(u[live_a] / a[live_a])))
    live_b = b > 0
    cost += float(np.sum(b[live_b] * np.log(np.maximum(v[live_b], 1e-300))))
    return cost


def path_distance(e1, e2) -> float:
    """Empirical Wasserstein-1 distance between path ensembles (or arrays).

    The ground cost between two paths is the sup over time nodes of their
    pointwise distance; the optimal pairing is an exact assignment.
    """
    a, b = (np.asarray(getattr(e, "positions", e), dtype=float) for e in (e1, e2))
    cost = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def brute_force_path_distance(pos_a: np.ndarray, pos_b: np.ndarray) -> float:
    """Exact empirical path distance by enumerating all pairings (N <= 6)."""
    n = pos_a.shape[0]
    assert n <= 6, "enumeration guard"
    cost = np.max(np.abs(pos_a[:, None, :] - pos_b[None, :, :]), axis=2)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return float(best)


def empirical_density_w1(samples: np.ndarray, density) -> float:
    """Exact 1-Wasserstein distance between an empirical measure and a
    piecewise-constant density, by integrating the CDF gap between all
    breakpoints (sample points and cell edges)."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    edges = density.grid.edges
    cdf_at_edges = density.cdf_at_edges()
    breaks = np.unique(np.concatenate([samples, edges]))
    lo = min(breaks[0], edges[0]) - 1.0
    hi = max(breaks[-1], edges[-1]) + 1.0
    breaks = np.concatenate([[lo], breaks, [hi]])
    total = 0.0
    for left, right in zip(breaks[:-1], breaks[1:]):
        if right <= left:
            continue
        f_emp = np.searchsorted(samples, left, side="right") / n
        # density CDF is piecewise linear; integrate |linear - const| exactly
        ca = np.interp(left, edges, cdf_at_edges)
        cb = np.interp(right, edges, cdf_at_edges)
        ga, gb = ca - f_emp, cb - f_emp
        width = right - left
        if ga * gb >= 0:
            total += 0.5 * abs(ga + gb) * width
        else:
            cross = width * abs(ga) / (abs(ga) + abs(gb))
            total += 0.5 * (abs(ga) * cross + abs(gb) * (width - cross))
    return float(total)


def gaussian_entropy_integral(std: float) -> float:
    """Closed form of the p log p integral for a Gaussian density."""
    return -0.5 * np.log(2.0 * np.pi * std**2) - 0.5


def gaussian_relative_free_energy(kappa: float, variance: float) -> float:
    """Free-energy gap of a centered Gaussian to the equilibrium, quadratic kernel."""
    s = 2.0 * kappa * variance
    return 0.5 * (s - 1.0 - np.log(s))


def mkv_gaussian_variance(kappa: float, v0: float, t: float) -> float:
    """Variance flow of the self-interacting diffusion from a Gaussian start."""
    v_inf = 1.0 / (2.0 * kappa)
    return v_inf + (v0 - v_inf) * np.exp(-2.0 * kappa * t)


def kernel_derivative(spec: dict):
    """W' of a potential spec, written out from its closed form."""
    if spec["kind"] == "zero":
        return lambda z: 0.0 * z
    if spec["kind"] == "quadratic":
        return lambda z: spec["kappa"] * z
    a, s = spec["amplitude"], spec["width"]  # W(z) = a (1 - exp(-z^2 / 2 s^2))
    return lambda z: a * z / s**2 * np.exp(-z**2 / (2.0 * s**2))


def dense_drift(spec: dict, x: np.ndarray) -> np.ndarray:
    """-(1/N) sum_j W'(x_i - x_j), summed over every ordered pair (i, j)."""
    dw = kernel_derivative(spec)
    return np.array([-sum(dw(xi - xj) for xj in x) for xi in x]) / x.size


# ---------------------------------------------------------------------------
# the allocating descent: every array a fresh temporary, each formula spelled
# out on strided [:, :-1] / [:, 1:] views


def momentum(mu: np.ndarray, dx: float, dt: float) -> np.ndarray:
    """Momentum slaved to the flow: the divergence inversion of -d(mu)/dt."""
    return np.cumsum(-time_derivative(mu, dt), axis=1) * dx


def _momentum_adjoint(gm: np.ndarray, dx: float, dt: float) -> np.ndarray:
    """Adjoint of mu -> momentum(mu), mapping dJ/dm into a dJ/dmu contribution."""
    q = np.cumsum(gm[:, ::-1], axis=1)[:, ::-1] * dx
    r = -q
    out = np.zeros_like(gm)
    out[2:] += r[1:-1] / (2.0 * dt)
    out[:-2] -= r[1:-1] / (2.0 * dt)
    out[1] += r[0] / dt
    out[0] -= r[0] / dt
    out[-1] += r[-1] / dt
    out[-2] -= r[-1] / dt
    return out


class _EdgeTerms(NamedTuple):
    """One point (mu, m) and the edge quantities its action is made of."""

    mu: np.ndarray
    m: np.ndarray
    peak: np.ndarray     # slice maxima of mu, one column
    log_mu: np.ndarray   # log mu, floored at LOG_FLOOR
    mask: np.ndarray     # edges that carry mass
    den: np.ndarray      # mollified edge density on the mask, 1 off it
    mu_edge: np.ndarray
    u: np.ndarray        # edge velocity, 0 off the mask


def _edge_terms(ws, mu: np.ndarray, m: np.ndarray, reg) -> _EdgeTerms:
    # reg is an absolute mollifier, scalar or per-slice column, fixed by the
    # caller so the objective stays an exact function of (mu, m)
    peak = mu.max(axis=1, keepdims=True)
    mu_edge = 0.5 * (mu[:, :-1] + mu[:, 1:])
    mask = mu_edge >= MASS_FLOOR_REL * peak
    den = np.where(mask, mu_edge + reg, 1.0)
    log_mu = np.log(np.maximum(mu, LOG_FLOOR))
    score = (log_mu[:, 1:] - log_mu[:, :-1]) / ws.dx
    force = ws.pot.force(mu, ws.sgrid)
    force_edge = 0.5 * (force[:, :-1] + force[:, 1:])
    u = np.where(mask, m[:, :-1] / den + 0.5 * score + force_edge, 0.0)
    return _EdgeTerms(mu, m, peak, log_mu, mask, den, mu_edge, u)


def _action(ws, t: _EdgeTerms) -> float:
    slicewise = 0.5 * np.sum(t.u**2 * t.mu_edge, axis=1) * ws.dx
    return float(np.sum(ws.tw * slicewise))


def _action_gradients(ws, t: _EdgeTerms):
    """Partial gradients (dJ/dmu, dJ/dm) at the point the terms were taken at."""
    twdx = ws.tw[:, None] * ws.dx
    rho = twdx * t.u * t.mu_edge
    gm = np.zeros_like(t.m)
    gm[:, :-1] = np.where(t.mask, rho / t.den, 0.0)
    edge = 0.5 * (twdx * 0.5 * t.u**2
                  - np.where(t.mask, rho * t.m[:, :-1] / t.den**2, 0.0))
    gmu = np.zeros_like(t.mu)
    gmu[:, :-1] += edge
    gmu[:, 1:] += edge
    half_rho = 0.5 * rho
    score_flow = half_rho / ws.dx
    safe = t.mu > 1e-100
    inv_mu = np.where(safe, 1.0 / np.where(safe, t.mu, 1.0), 0.0)
    gmu[:, :-1] -= score_flow * inv_mu[:, :-1]
    gmu[:, 1:] += score_flow * inv_mu[:, 1:]
    rho_cells = np.zeros_like(t.mu)
    rho_cells[:, :-1] += half_rho
    rho_cells[:, 1:] += half_rho
    gmu += ws.pot.force_adjoint(rho_cells, ws.sgrid)
    return gmu, gm


def _projected_gradient(ws, t: _EdgeTerms):
    """Cells free to move, and the mirror gradient on them.

    The gradient is zero on the pinned endpoints and on frozen cells, and
    centred per slice so that a step keeps each slice's mass.
    """
    gmu, gm = _action_gradients(ws, t)
    g = gmu + _momentum_adjoint(gm, ws.dx, ws.dt)
    g[0] = 0.0
    g[-1] = 0.0
    movable = t.mu >= _UPDATE_FLOOR_REL * t.peak
    g = np.where(movable, g, 0.0)
    centered = g - (np.sum(g * t.mu, axis=1, keepdims=True) * ws.dx)
    return movable, np.where(movable, centered, 0.0)


def _namespace(pot, flow):
    tgrid = flow.time_grid
    return SimpleNamespace(pot=pot, sgrid=flow.grid, dx=flow.grid.dx,
                           dt=tgrid.dt, tw=tgrid.trapezoid_weights)


def reference_action(pot, flow, m):
    """The unmollified action J of (flow, m) and its partial gradients
    (dJ/dmu, dJ/dm), computed with fresh temporaries."""
    ws = _namespace(pot, flow)
    t = _edge_terms(ws, flow.values, m, 0.0)
    return (_action(ws, t), *_action_gradients(ws, t))


def reference_descend(pot, flow0, config):
    """The solver's mirror descent with heavy-ball momentum and restart,
    computed with fresh temporaries; returns (mu, J, pg_norm, iterations,
    status) as the solver's _descend does."""
    ws = _namespace(pot, flow0)
    mu = flow0.values.copy()
    dx, dt = ws.dx, ws.dt
    # mollifier frozen at the initialization's slice peaks
    reg = _KINETIC_REG * mu.max(axis=1, keepdims=True)
    point = _edge_terms(ws, mu, momentum(mu, dx, dt), reg)
    J = _action(ws, point)
    log_mu = point.log_mu
    eta = _ETA0
    velocity = np.zeros_like(mu)
    pg_norm = np.inf
    iterations = 0
    for iterations in range(1, config.max_outer + 1):
        movable, centered = _projected_gradient(ws, point)
        weighted = mu * centered**2
        descent = float(np.sum(weighted))
        pg_norm = float(np.sqrt(np.sum(ws.tw * np.sum(weighted, axis=1) * dx)))
        if pg_norm <= _TOL_GRAD:
            return mu, J, pg_norm, iterations, "converged"
        del point  # the line search reads only mu and log_mu
        accepted = False
        for attempt in range(_MAX_BACKTRACKS):
            step = np.where(movable, -eta * centered + _MOMENTUM * velocity, 0.0)
            cand = mu * np.exp(np.clip(step, -50.0, 50.0))
            cand[0] = mu[0]
            cand[-1] = mu[-1]
            cand /= cand.sum(axis=1, keepdims=True) * dx
            cand_point = _edge_terms(ws, cand, momentum(cand, dx, dt), reg)
            J_cand = _action(ws, cand_point)
            if J_cand <= J - _ARMIJO * eta * descent:
                velocity = np.where(movable, cand_point.log_mu - log_mu, 0.0)
                mu, log_mu, point, J = cand, cand_point.log_mu, cand_point, J_cand
                eta = min(eta * _GROW, _ETA_MAX)
                accepted = True
                break
            del cand_point  # rejected: free its terms before the next candidate
            eta *= _BACKTRACK
            if attempt == 15:
                velocity[:] = 0.0  # momentum is hampering: restart the ball
        if not accepted:
            return mu, J, pg_norm, iterations, "stalled"
    return mu, J, pg_norm, iterations, "budget"


def theta_sweep(pot, noise, y: np.ndarray) -> np.ndarray:
    """One Picard sweep of the theta map over the whole horizon, from paths y."""
    drift = np.stack([interaction_drift(pot, y[:, k])
                      for k in range(noise.time_grid.n_steps)], axis=1)
    out = noise.positions.copy()
    out[:, 1:] += noise.time_grid.dt * np.cumsum(drift, axis=1)
    return out


def reference_theta(pot, ensemble, *, max_sweeps: int = 200):
    """Map noise paths to interacting trajectories by fixed-point iteration.

    Iterates Y <- omega + int_0^t (ensemble-average drift of Y) ds with
    left-endpoint quadrature, matching the Euler-Maruyama stepping, until the
    sup change over all paths and nodes falls below THETA_TOL.
    """
    if ensemble.n_particles > 10_000:
        raise TooLarge("ensemble exceeds the 10^4 particle guard")
    omega = ensemble.positions
    dt = ensemble.time_grid.dt
    k_steps = ensemble.time_grid.n_steps
    y = np.repeat(omega[:, :1], k_steps + 1, axis=1)
    for _ in range(max_sweeps):
        drift = np.empty((ensemble.n_particles, k_steps))
        for k in range(k_steps):
            drift[:, k] = interaction_drift(pot, y[:, k])
        y_next = omega.copy()
        y_next[:, 1:] += dt * np.cumsum(drift, axis=1)
        delta = float(np.max(np.abs(y_next - y)))
        y = y_next
        if delta <= THETA_TOL:
            break
    else:
        raise NoConvergence(
            f"theta iteration stalled at {delta:.3e}; "
            "the drift may violate its Lipschitz bound"
        )
    return PathEnsemble(ensemble.time_grid, y, ensemble.increments.copy(),
                        ensemble.seed)
