"""Bridge computation between two endpoint densities under pair interaction.

The primary solver minimizes one discrete kinetic action, the staggered one,

    J = (1/2) sum_k tw_k sum_e |m/mu_e + (1/2) D log mu + (W' * mu)_e|^2 mu_e dx

summed over interior cell edges e (momentum on edges, edge averages of mu
and the force, D the jump across the edge over dx), over flows with pinned
endpoints.  The momentum m is slaved to the flow through the divergence
inversion of its discrete time derivative (the 1-D tangent-space choice).
Updates are multiplicative (mirror) gradient steps with backtracking, which
keeps every slice a probability density and tames the 1/mu stiffness of the
score term.  The edge terms of each point are computed once: the line search
evaluates a candidate's action from them, and an accepted candidate carries
them into the next gradient.  bb_objective and bb_gradient expose this same
action.

Reported costs come from the corrector's cell quadrature (entropic_cost),
not from J; the two differ by O(dx^2), which
test_bb_objective_second_order_in_cell_quadrature checks.

A frozen-drift iterative-proportional-fitting baseline is also provided; it
alternates classical bridge fitting against the kernels of the frozen flow
and is not the mean-field optimizer in general (it lacks the Hessian coupling
of the optimality system), which is exactly why it is kept as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContinuityViolation, InfeasibleEndpoints, NoConvergence
from .functionals import (
    BridgeSolution,
    corrector,
    entropic_cost,
    velocity_from_flow,
)
from .grids import (
    BOUNDARY_MASS_TOL,
    BULK_REL,
    LOG_FLOOR,
    MASS_FLOOR_REL,
    Density,
    MarginalFlow,
    SpatialGrid,
    TimeGrid,
    divergence,
    grad,
    time_derivative,
)
from .potentials import InteractionPotential, conv_force
from .dynamics import _fp_step_matrix, mkv_flow


# Fixed numerics of the solvers.
_TOL_GRAD = 1e-6          # projected-gradient norm that counts as converged
_ETA0 = 0.5
_ETA_MAX = 1e4
_MAX_BACKTRACKS = 60
_BACKTRACK = 0.5
_GROW = 1.3
_ARMIJO = 1e-4
_MOMENTUM = 0.9           # heavy-ball weight in log space, restart on failure
_DAMPING = 0.5            # frozen-drift marginal update
_KINETIC_REG = 1e-7       # relative floor added to the velocity denominator
_UPDATE_FLOOR_REL = 1e-8  # cells below this fraction of the peak stay frozen
_IPFP_MAX_OUTER = 120
_IPFP_TOL = 1e-9
_SINKHORN_MAX_ITERS = 5000
_SINKHORN_TOL = 1e-12
_RESIDUAL_THRESHOLD_SCALE = 5e-2  # optimality threshold per unit of dx + dt


@dataclass(frozen=True)
class SolverConfig:
    """Budget and initialization policy for the bridge solver."""

    max_outer: int = 4000
    init: str = "heat"              # heat | mkv
    multi_start: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.max_outer, int) and not isinstance(self.max_outer, bool)
                and self.max_outer >= 1):
            raise ValueError("max_outer must be an integer >= 1")
        for name in (self.init, *self.multi_start):
            if name not in ("heat", "mkv"):
                raise ValueError(f"unknown init mode {name!r}")


# ---------------------------------------------------------------------------
# classical heat-kernel machinery (initialization)


def heat_kernel(grid: SpatialGrid, t: float) -> np.ndarray:
    """Mass transition matrix of free diffusion over time t on the grid."""
    if t <= 0:
        return np.eye(grid.n_cells)
    x = grid.centers
    return np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * t)) * grid.dx / np.sqrt(
        2.0 * np.pi * t
    )


def static_sinkhorn(a: np.ndarray, b: np.ndarray, kernel: np.ndarray):
    """Scaling vectors (u, v) with diag(v) K diag(u) matching masses (a, b)."""
    u = np.ones_like(a)
    v = np.ones_like(b)
    err = np.inf
    for _ in range(_SINKHORN_MAX_ITERS):
        u = a / np.maximum(kernel.T @ v, 1e-300)
        ku = kernel @ u
        err = float(np.max(np.abs(v * ku - b)))
        if err <= _SINKHORN_TOL:
            break
        v = b / np.maximum(ku, 1e-300)
    return u, v, err


def heat_interpolation_flow(mu_in: Density, mu_fin: Density, sgrid: SpatialGrid,
                            tgrid: TimeGrid) -> MarginalFlow:
    """Marginals of the classical (interaction-free) bridge between the endpoints."""
    a = mu_in.values * sgrid.dx
    b = mu_fin.values * sgrid.dx
    kernel = heat_kernel(sgrid, tgrid.horizon)
    u, v, _ = static_sinkhorn(a, b, kernel)
    values = np.empty((tgrid.n_steps + 1, sgrid.n_cells))
    values[0] = mu_in.values
    values[-1] = mu_fin.values
    for k in range(1, tgrid.n_steps):
        t = tgrid.nodes[k]
        fwd = heat_kernel(sgrid, t) @ u
        bwd = heat_kernel(sgrid, tgrid.horizon - t).T @ v
        values[k] = Density(sgrid, fwd * bwd).values
    return MarginalFlow(tgrid, sgrid, values)


def mkv_pullback_flow(pot: InteractionPotential, mu_in: Density, mu_fin: Density,
                      sgrid: SpatialGrid, tgrid: TimeGrid) -> MarginalFlow:
    """Self-interacting flow from mu_in, geometrically bent to hit mu_fin.

    When mu_fin equals the flow endpoint the correction is the identity.
    """
    base = mkv_flow(pot, mu_in, tgrid)
    values = base.values.copy()
    end = np.maximum(values[-1], LOG_FLOOR)
    log_ratio = np.log(np.maximum(mu_fin.values, LOG_FLOOR)) - np.log(end)
    lam = tgrid.nodes / tgrid.horizon
    for k in range(1, tgrid.n_steps + 1):
        values[k] = Density(
            sgrid, np.maximum(values[k], LOG_FLOOR) * np.exp(lam[k] * log_ratio)
        ).values
    values[-1] = mu_fin.values
    return MarginalFlow(tgrid, sgrid, values)


# ---------------------------------------------------------------------------
# discrete action and exact gradient


class _Workspace:
    """Per-solve cache: quadrature weights and grid scalars."""

    def __init__(self, pot: InteractionPotential, sgrid: SpatialGrid,
                 tgrid: TimeGrid):
        self.pot = pot
        self.sgrid = sgrid
        self.dx = sgrid.dx
        self.dt = tgrid.dt
        self.tw = tgrid.trapezoid_weights


def _momentum(mu: np.ndarray, dx: float, dt: float) -> np.ndarray:
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


# The one discrete action is staggered (edge-indexed): the momentum from the
# continuity inversion already lives on cell edges, the score is the
# log-density jump across the edge, and the density weight is the edge
# average.  The edge score sees odd-even (2 dx) modes of log mu, so the
# discrete minimizer cannot hide sub-grid oscillations in the kinetic term.
# Reported costs come from the corrector's cell quadrature (entropic_cost);
# the two values differ by O(dx^2), which
# test_bb_objective_second_order_in_cell_quadrature checks.
#
# The descent computes the edge terms of each point once, with _edge_terms:
# _action turns a line-search candidate's terms into J, and an accepted
# candidate carries its terms into _action_gradients and its logs into the
# next velocity.  Each shared subexpression keeps the operations and their
# order of the formula it came from, so the iterates do not move by roundoff.


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


def _edge_terms(ws: _Workspace, mu: np.ndarray, m: np.ndarray, reg) -> _EdgeTerms:
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


def _action(ws: _Workspace, t: _EdgeTerms) -> float:
    slicewise = 0.5 * np.sum(t.u**2 * t.mu_edge, axis=1) * ws.dx
    return float(np.sum(ws.tw * slicewise))


def _action_gradients(ws: _Workspace, t: _EdgeTerms):
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


def _edge_objective(ws: _Workspace, mu: np.ndarray, m: np.ndarray,
                    reg) -> float:
    return _action(ws, _edge_terms(ws, mu, m, reg))


def _edge_gradients(ws: _Workspace, mu: np.ndarray, m: np.ndarray, reg):
    return _action_gradients(ws, _edge_terms(ws, mu, m, reg))


def _as_matrix(flow, m):
    mu = flow.values
    m = np.asarray(m, dtype=float)
    if m.shape != mu.shape:
        raise ValueError("flow and momentum shapes differ")
    return mu, m


def bb_objective(flow: MarginalFlow, m: np.ndarray, pot: InteractionPotential, *,
                 tol_ce: float = 1e-8) -> float:
    """Staggered kinetic action of an admissible (flow, momentum) pair.

    This is the action the solver descends on, without its mollifier.  It
    differs by O(dx^2) from the corrector's cell quadrature
    entropic_cost(corrector(flow, m/mu), flow) that reports bridge costs.
    Raises ContinuityViolation when the pair does not satisfy the discrete
    continuity equation.
    """
    mu, m = _as_matrix(flow, m)
    ws = _Workspace(pot, flow.grid, flow.time_grid)
    residual = time_derivative(mu, ws.dt) + divergence(m, ws.dx)
    worst = float(np.max(np.abs(residual)))
    if worst > tol_ce:
        raise ContinuityViolation(
            f"continuity residual {worst:.3e} exceeds {tol_ce:.1e}"
        )
    return _edge_objective(ws, mu, m, 0.0)


def bb_gradient(flow: MarginalFlow, m: np.ndarray, pot: InteractionPotential):
    """Exact partial gradients (dJ/dmu, dJ/dm) of the staggered action.

    These are the gradients of bb_objective, the action the solver descends
    on; reported costs come from the corrector's cell quadrature instead.
    """
    mu, m = _as_matrix(flow, m)
    ws = _Workspace(pot, flow.grid, flow.time_grid)
    return _edge_gradients(ws, mu, m, 0.0)


# ---------------------------------------------------------------------------
# primary solver


def _effective_support(mu: Density) -> tuple:
    idx = np.flatnonzero(mu.values >= MASS_FLOOR_REL * mu.values.max())
    return idx[0], idx[-1]


def _validate_endpoints(mu_in: Density, mu_fin: Density, sgrid: SpatialGrid):
    if mu_in.grid != sgrid or mu_fin.grid != sgrid:
        raise InfeasibleEndpoints("endpoint densities live on a different grid")
    for name, mu in (("initial", mu_in), ("final", mu_fin)):
        if mu.boundary_mass() > BOUNDARY_MASS_TOL:
            raise InfeasibleEndpoints(
                f"{name} density carries {mu.boundary_mass():.2e} boundary mass; "
                "enlarge the domain"
            )
    lo_a, hi_a = _effective_support(mu_in)
    lo_b, hi_b = _effective_support(mu_fin)
    if hi_a < lo_b or hi_b < lo_a:
        raise InfeasibleEndpoints(
            "endpoint supports are disjoint; the discrete cost would blow up"
        )


def _initial_flow(name: str, pot, mu_in, mu_fin, sgrid, tgrid) -> MarginalFlow:
    if name == "heat":
        return heat_interpolation_flow(mu_in, mu_fin, sgrid, tgrid)
    return mkv_pullback_flow(pot, mu_in, mu_fin, sgrid, tgrid)


def _projected_gradient(ws: _Workspace, t: _EdgeTerms):
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


def _descend(ws: _Workspace, flow0: MarginalFlow, config: SolverConfig):
    """Mirror (multiplicative) descent with heavy-ball momentum and restart.

    Cells below the update floor keep their initialization (their action
    contribution is below solver accuracy but their 1/mu stiffness would
    otherwise dominate the line search); every slice stays a probability
    density by construction and the endpoints are pinned.  The edge terms
    of each point are computed once, when the point is evaluated; those of
    an accepted candidate give the next gradient.
    """
    mu = flow0.values.copy()
    dx, dt = ws.dx, ws.dt
    # mollifier frozen at the initialization's slice peaks
    reg = _KINETIC_REG * mu.max(axis=1, keepdims=True)
    point = _edge_terms(ws, mu, _momentum(mu, dx, dt), reg)
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
            cand_point = _edge_terms(ws, cand, _momentum(cand, dx, dt), reg)
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


def solve_mfsb(pot: InteractionPotential, mu_in: Density, mu_fin: Density,
               sgrid: SpatialGrid, tgrid: TimeGrid,
               config: SolverConfig | None = None) -> BridgeSolution:
    """Solve the two-marginal bridge problem by projected mirror descent.

    Returns the best iterate with convergence diagnostics; a run that exhausts
    its budget is returned flagged rather than raised.  Raises
    InfeasibleEndpoints when the endpoint validation fails.
    """
    config = config or SolverConfig()
    _validate_endpoints(mu_in, mu_fin, sgrid)
    ws = _Workspace(pot, sgrid, tgrid)

    init_names = [config.init] + [n for n in config.multi_start if n != config.init]
    starts = {}
    best = None
    for name in init_names:
        flow0 = _initial_flow(name, pot, mu_in, mu_fin, sgrid, tgrid)
        mu, J, pg_norm, iters, status = _descend(ws, flow0, config)
        starts[name] = {"cost": J, "pg_norm": pg_norm, "iterations": iters,
                        "status": status}
        if best is None or J < best[1]:
            best = (mu, J, pg_norm, iters, status, name)
    mu, J, pg_norm, iters, status, which = best

    flow = MarginalFlow(tgrid, sgrid, mu)
    velocity = velocity_from_flow(flow)
    psi = corrector(flow, velocity, pot)
    cost = entropic_cost(psi, flow)
    diagnostics = {
        "converged": status == "converged",
        "status": status,
        "iterations": iters,
        "pg_norm": pg_norm,
        "objective": J,
        "init": which,
        "starts": starts,
        "start_discrepancy": (
            max(s["cost"] for s in starts.values())
            - min(s["cost"] for s in starts.values())
        ),
    }
    return BridgeSolution(flow, velocity, psi, cost, diagnostics)


# ---------------------------------------------------------------------------
# frozen-drift baseline


def ipfp_frozen(pot: InteractionPotential, mu_in: Density, mu_fin: Density,
                sgrid: SpatialGrid, tgrid: TimeGrid) -> BridgeSolution:
    """Frozen-drift fitting baseline.

    Alternates (i) freezing the marginal flow and building the induced linear
    transition kernels, (ii) a classical two-marginal bridge fit against those
    kernels, (iii) a damped marginal update.  Documented bias: the fixed point
    satisfies the frozen-drift optimality condition, not the mean-field one.
    """
    _validate_endpoints(mu_in, mu_fin, sgrid)
    n_steps = tgrid.n_steps
    a = mu_in.values * sgrid.dx
    b_target = mu_fin.values * sgrid.dx
    flow_vals = heat_interpolation_flow(mu_in, mu_fin, sgrid, tgrid).values

    delta = np.inf
    converged = False
    outer = 0
    static_kl = np.nan
    for outer in range(1, _IPFP_MAX_OUTER + 1):
        forces = pot.force(flow_vals[:-1], sgrid)
        # without a force the kernels cannot depend on the frozen flow
        drift_free = not forces.any()
        if drift_free:
            steps = [_fp_step_matrix(-forces[0], sgrid.dx, tgrid.dt)] * n_steps
        else:
            steps = [_fp_step_matrix(-f, sgrid.dx, tgrid.dt) for f in forces]
        total = steps[0]
        for s_k in steps[1:]:
            total = s_k @ total
        u, v, _ = static_sinkhorn(a, b_target, total)
        fwd = np.empty((n_steps + 1, sgrid.n_cells))
        bwd = np.empty_like(fwd)
        fwd[0] = u
        for k in range(n_steps):
            fwd[k + 1] = steps[k] @ fwd[k]
        bwd[-1] = v
        for k in range(n_steps - 1, -1, -1):
            bwd[k] = steps[k].T @ bwd[k + 1]
        bridge = np.empty_like(flow_vals)
        for k in range(n_steps + 1):
            bridge[k] = Density(sgrid, fwd[k] * bwd[k]).values
        pi = v[:, None] * total * u[None, :]
        ref = total * a[None, :]
        live = pi > 0
        static_kl = float(np.sum(pi[live] * np.log(pi[live] / ref[live])))
        new_vals = (1.0 - _DAMPING) * flow_vals + _DAMPING * bridge
        new_vals /= new_vals.sum(axis=1, keepdims=True) * sgrid.dx
        delta = float(np.max(np.abs(new_vals - flow_vals)))
        flow_vals = new_vals
        if delta <= _IPFP_TOL or (drift_free and outer >= 2):
            converged = delta <= _IPFP_TOL or drift_free
            break
    if not converged and delta > 1e-4:
        raise NoConvergence(f"frozen-drift iteration stalled at delta {delta:.3e}")

    flow = MarginalFlow(tgrid, sgrid, flow_vals)
    velocity = velocity_from_flow(flow)
    psi = corrector(flow, velocity, pot)
    cost = entropic_cost(psi, flow)
    diagnostics = {
        "converged": converged,
        "outer_iterations": outer,
        "marginal_update_delta": delta,
        "static_kl": static_kl,
        "bias_note": "frozen-drift fixed point; not the mean-field optimizer in general",
    }
    return BridgeSolution(flow, velocity, psi, cost, diagnostics)


# ---------------------------------------------------------------------------
# optimality diagnostics


@dataclass
class OptimalityResidual:
    """Finite-difference residual of the corrector's drift-compensated
    martingale condition, reported in a bulk sup norm and an L2(mu) norm."""

    sup_bulk: float
    l2_weighted: float
    threshold: float


def optimality_residual(sol: BridgeSolution,
                        pot: InteractionPotential) -> OptimalityResidual:
    """Residual of the corrector optimality system on interior nodes.

    The time derivative is a forward difference of interior corrector slices,
    so the first-order endpoint reconstruction of the corrector never enters;
    the residual decays at first order under joint grid refinement.  The sup
    is taken over the bulk set (cells above BULK_REL of the slice peak).
    """
    flow, psi = sol.flow, sol.corrector.values
    mu = flow.values
    dx, dt = flow.grid.dx, flow.time_grid.dt
    n_nodes = flow.time_grid.n_steps + 1

    residual = np.zeros_like(mu)
    for k in range(1, n_nodes - 2):
        p = psi[k]
        dpsi_dt = (psi[k + 1] - p) / dt
        lap = np.zeros_like(p)
        lap[1:-1] = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / dx**2
        gpsi = grad(p, dx)
        force = conv_force(pot, flow.density(k))
        kern = pot.hessian_term(mu[k], p, flow.grid)
        residual[k] = dpsi_dt + 0.5 * lap + gpsi * (-force + p) - kern

    live = np.zeros_like(mu, dtype=bool)
    live[1:-2, 1:-1] = True
    bulk = live & (mu >= BULK_REL * mu.max(axis=1, keepdims=True))
    sup_bulk = float(np.max(np.abs(residual[bulk]))) if bulk.any() else 0.0
    tw = flow.time_grid.trapezoid_weights
    l2 = float(np.sqrt(np.sum(tw[:, None] * (residual * bulk) ** 2 * mu * dx)))
    return OptimalityResidual(sup_bulk, l2, _RESIDUAL_THRESHOLD_SCALE * (dx + dt))
