"""Bridge computation between two endpoint densities under pair interaction.

The primary solver minimizes the kinetic-action discretization

    J = (1/2) sum_k tw_k sum_i |m/mu + (1/2) grad log mu + W' * mu|^2 mu dx

over flows with pinned endpoints, where the momentum m is slaved to the flow
through the divergence inversion of its discrete time derivative (the 1-D
tangent-space choice).  Updates are multiplicative (mirror) gradient steps
with backtracking, which keeps every slice a probability density and tames
the 1/mu stiffness of the score term; the line search descends on a
staggered edge form of the same action (see below) so no density mode is
invisible to the discrete score.

A frozen-drift iterative-proportional-fitting baseline is also provided; it
alternates classical bridge fitting against the kernels of the frozen flow
and is not the mean-field optimizer in general (it lacks the Hessian coupling
of the optimality system), which is exactly why it is kept as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContinuityViolation, InfeasibleEndpoints, NoConvergence
from .functionals import (
    BridgeSolution,
    center_momentum,
    corrector,
    entropic_cost,
    velocity_from_flow,
)
from .grids import (
    LOG_FLOOR,
    Density,
    MarginalFlow,
    SpatialGrid,
    TimeGrid,
    divergence,
    grad,
    log_density_gradient,
    time_derivative,
)
from .potentials import InteractionPotential, conv_force
from .dynamics import _fp_step_matrix, mkv_flow


@dataclass(frozen=True)
class SolverConfig:
    """Budgets, tolerances and initialization policy for the bridge solvers."""

    max_outer: int = 4000
    max_backtracks: int = 60
    eta0: float = 0.5
    backtrack: float = 0.5
    grow: float = 1.3
    armijo: float = 1e-4
    momentum: float = 0.9           # heavy-ball weight in log space, restart on failure
    damping: float = 0.5            # frozen-drift marginal update
    tol_grad: float = 1e-6
    tol_ce: float = 1e-8
    tol_bc: float = 1e-9
    mass_floor_rel: float = 1e-12
    kinetic_reg: float = 1e-7       # relative floor added to the velocity denominator
    update_floor_rel: float = 1e-8  # cells below this fraction of the peak stay frozen
    init: str = "heat"              # heat | mkv | provided
    provided_flow: MarginalFlow | None = None
    multi_start: tuple = ()
    ipfp_max_outer: int = 120
    ipfp_tol: float = 1e-9
    sinkhorn_max_iters: int = 5000
    sinkhorn_tol: float = 1e-12

    def __post_init__(self):
        for name in ("tol_grad", "tol_ce", "tol_bc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.init not in ("heat", "mkv", "provided"):
            raise ValueError(f"unknown init mode {self.init!r}")


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


def static_sinkhorn(a: np.ndarray, b: np.ndarray, kernel: np.ndarray, *,
                    tol: float = 1e-12, max_iters: int = 5000):
    """Scaling vectors (u, v) with diag(v) K diag(u) matching masses (a, b)."""
    u = np.ones_like(a)
    v = np.ones_like(b)
    err = np.inf
    for _ in range(max_iters):
        u = a / np.maximum(kernel.T @ v, 1e-300)
        ku = kernel @ u
        err = float(np.max(np.abs(v * ku - b)))
        if err <= tol:
            break
        v = b / np.maximum(ku, 1e-300)
    return u, v, err


def heat_interpolation_flow(mu_in: Density, mu_fin: Density, sgrid: SpatialGrid,
                            tgrid: TimeGrid, config: SolverConfig) -> MarginalFlow:
    """Marginals of the classical (interaction-free) bridge between the endpoints."""
    a = mu_in.values * sgrid.dx
    b = mu_fin.values * sgrid.dx
    kernel = heat_kernel(sgrid, tgrid.horizon)
    u, v, _ = static_sinkhorn(a, b, kernel, tol=config.sinkhorn_tol,
                              max_iters=config.sinkhorn_max_iters)
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
# discrete objective and exact gradient


class _Workspace:
    """Per-solve cache: quadrature weights and grid scalars."""

    def __init__(self, pot: InteractionPotential, sgrid: SpatialGrid,
                 tgrid: TimeGrid, mass_floor_rel: float):
        self.pot = pot
        self.sgrid = sgrid
        self.tgrid = tgrid
        self.rel = mass_floor_rel
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


def _grad_adjoint(y: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(y)
    out[..., 2:] += y[..., 1:-1] / (2.0 * dx)
    out[..., :-2] -= y[..., 1:-1] / (2.0 * dx)
    out[..., 1] += y[..., 0] / dx
    out[..., 0] -= y[..., 0] / dx
    out[..., -1] += y[..., -1] / dx
    out[..., -2] -= y[..., -1] / dx
    return out


def _center_adjoint(y: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    out[..., :-1] = 0.5 * (y[..., :-1] + y[..., 1:])
    out[..., -1] = 0.5 * y[..., -1]
    return out


def _terms(ws: _Workspace, mu: np.ndarray, m: np.ndarray, reg: float = 0.0):
    """Velocity, score and force assembled into the action integrand root u.

    The edge-indexed momentum is centered before dividing by the density.
    With reg > 0 the velocity denominator is floored at reg times the slice
    peak; the solver descends on that slightly mollified objective while the
    public operations use the exact reg = 0 form.
    """
    peak = mu.max(axis=1, keepdims=True)
    mask = mu >= ws.rel * peak
    den = mu + reg * peak
    mc = center_momentum(m)
    w = np.where(mask, mc / np.where(mask, den, 1.0), 0.0)
    s = log_density_gradient(mu, ws.dx)
    force = ws.pot.force(mu, ws.sgrid)
    u = np.where(mask, w + 0.5 * s + force, 0.0)
    return mask, den, mc, u


def _objective(ws: _Workspace, mu: np.ndarray, m: np.ndarray, reg: float = 0.0) -> float:
    _, _, _, u = _terms(ws, mu, m, reg)
    slicewise = 0.5 * np.sum(u**2 * mu, axis=1) * ws.dx
    return float(np.sum(ws.tw * slicewise))


def _partial_gradients(ws: _Workspace, mu: np.ndarray, m: np.ndarray,
                       reg: float = 0.0):
    """Exact partial derivatives of the discrete objective at fixed active set."""
    mask, den, mc, u = _terms(ws, mu, m, reg)
    twdx = ws.tw[:, None] * ws.dx
    rho = twdx * u * mu  # recurring weight, zero off the active set
    gm = _center_adjoint(np.where(mask, rho / np.where(mask, den, 1.0), 0.0))
    gmu = twdx * 0.5 * u**2
    gmu -= np.where(mask, rho * mc / np.where(mask, den**2, 1.0), 0.0)
    score_part = 0.5 * _grad_adjoint(rho, ws.dx)
    safe = mu > 1e-100
    gmu += np.where(safe, score_part / np.where(safe, mu, 1.0), 0.0)
    gmu += ws.pot.force_adjoint(rho, ws.sgrid)
    return gmu, gm


def _as_matrix(flow, m):
    mu = flow.values if isinstance(flow, MarginalFlow) else np.asarray(flow, float)
    m = np.asarray(m, dtype=float)
    if m.shape != mu.shape:
        raise ValueError("flow and momentum shapes differ")
    return mu, m


def bb_objective(flow: MarginalFlow, m: np.ndarray, pot: InteractionPotential, *,
                 tol_ce: float = 1e-8, mass_floor_rel: float = 1e-12) -> float:
    """Kinetic action of an admissible (flow, momentum) pair.

    Raises ContinuityViolation when the pair does not satisfy the discrete
    continuity equation.  By construction the value coincides with
    entropic_cost(corrector(flow, m/mu), flow).
    """
    mu, m = _as_matrix(flow, m)
    ws = _Workspace(pot, flow.grid, flow.time_grid, mass_floor_rel)
    residual = time_derivative(mu, ws.dt) + divergence(m, ws.dx)
    worst = float(np.max(np.abs(residual)))
    if worst > tol_ce:
        raise ContinuityViolation(
            f"continuity residual {worst:.3e} exceeds {tol_ce:.1e}"
        )
    return _objective(ws, mu, m)


def bb_gradient(flow: MarginalFlow, m: np.ndarray, pot: InteractionPotential, *,
                mass_floor_rel: float = 1e-12):
    """Exact discrete partial gradients (dJ/dmu, dJ/dm) of the kinetic action."""
    mu, m = _as_matrix(flow, m)
    ws = _Workspace(pot, flow.grid, flow.time_grid, mass_floor_rel)
    return _partial_gradients(ws, mu, m)


# ---------------------------------------------------------------------------
# primary solver


def _effective_support(mu: Density, rel: float) -> tuple:
    idx = np.flatnonzero(mu.values >= rel * mu.values.max())
    return idx[0], idx[-1]


def _validate_endpoints(mu_in: Density, mu_fin: Density, sgrid: SpatialGrid, *,
                        rel: float, boundary_tol: float = 1e-8):
    if mu_in.grid != sgrid or mu_fin.grid != sgrid:
        raise InfeasibleEndpoints("endpoint densities live on a different grid")
    for name, mu in (("initial", mu_in), ("final", mu_fin)):
        if mu.boundary_mass() > boundary_tol:
            raise InfeasibleEndpoints(
                f"{name} density carries {mu.boundary_mass():.2e} boundary mass; "
                "enlarge the domain"
            )
    lo_a, hi_a = _effective_support(mu_in, rel)
    lo_b, hi_b = _effective_support(mu_fin, rel)
    if hi_a < lo_b or hi_b < lo_a:
        raise InfeasibleEndpoints(
            "endpoint supports are disjoint; the discrete cost would blow up"
        )


def _initial_flow(name: str, pot, mu_in, mu_fin, sgrid, tgrid,
                  config: SolverConfig) -> MarginalFlow:
    if name == "heat":
        return heat_interpolation_flow(mu_in, mu_fin, sgrid, tgrid, config)
    if name == "mkv":
        return mkv_pullback_flow(pot, mu_in, mu_fin, sgrid, tgrid)
    if name == "provided":
        if config.provided_flow is None:
            raise ValueError("init='provided' needs config.provided_flow")
        return config.provided_flow
    raise ValueError(f"unknown init mode {name!r}")


# The descent minimizes a staggered (edge-indexed) form of the action: the
# momentum from the continuity inversion already lives on cell edges, the
# score becomes the log-density jump across the edge, and the density weight
# is the edge average.  Unlike the colocated form, the edge score sees
# odd-even (2 dx) modes of log mu, so the discrete minimizer cannot hide
# sub-grid oscillations in the kinetic term.  Cell and edge action values
# differ by O(dx^2); reported costs always come from the colocated
# corrector quadrature.


def _edge_terms(ws: _Workspace, mu: np.ndarray, m: np.ndarray, reg):
    # reg is an absolute mollifier, scalar or per-slice column, fixed by the
    # caller so the objective stays an exact function of (mu, m)
    peak = mu.max(axis=1, keepdims=True)
    mu_edge = 0.5 * (mu[:, :-1] + mu[:, 1:])
    mask = mu_edge >= ws.rel * peak
    den = mu_edge + reg
    log_mu = np.log(np.maximum(mu, LOG_FLOOR))
    score = (log_mu[:, 1:] - log_mu[:, :-1]) / ws.dx
    force = ws.pot.force(mu, ws.sgrid)
    force_edge = 0.5 * (force[:, :-1] + force[:, 1:])
    u = np.where(mask, m[:, :-1] / np.where(mask, den, 1.0)
                 + 0.5 * score + force_edge, 0.0)
    return mask, den, mu_edge, u


def _edge_objective(ws: _Workspace, mu: np.ndarray, m: np.ndarray,
                    reg) -> float:
    _, _, mu_edge, u = _edge_terms(ws, mu, m, reg)
    slicewise = 0.5 * np.sum(u**2 * mu_edge, axis=1) * ws.dx
    return float(np.sum(ws.tw * slicewise))


def _edge_gradients(ws: _Workspace, mu: np.ndarray, m: np.ndarray, reg):
    mask, den, mu_edge, u = _edge_terms(ws, mu, m, reg)
    twdx = ws.tw[:, None] * ws.dx
    rho = twdx * u * mu_edge
    gm = np.zeros_like(m)
    gm[:, :-1] = np.where(mask, rho / np.where(mask, den, 1.0), 0.0)
    half_sq = twdx * 0.5 * u**2
    mflux = np.where(mask, rho * m[:, :-1] / np.where(mask, den**2, 1.0), 0.0)
    gmu = np.zeros_like(mu)
    gmu[:, :-1] += 0.5 * (half_sq - mflux)
    gmu[:, 1:] += 0.5 * (half_sq - mflux)
    score_flow = 0.5 * rho / ws.dx
    safe = mu > 1e-100
    inv_mu = np.where(safe, 1.0 / np.where(safe, mu, 1.0), 0.0)
    gmu[:, :-1] -= score_flow * inv_mu[:, :-1]
    gmu[:, 1:] += score_flow * inv_mu[:, 1:]
    rho_cells = np.zeros_like(mu)
    rho_cells[:, :-1] += 0.5 * rho
    rho_cells[:, 1:] += 0.5 * rho
    gmu += ws.pot.force_adjoint(rho_cells, ws.sgrid)
    return gmu, gm


def _descend(ws: _Workspace, flow0: MarginalFlow, config: SolverConfig):
    """Mirror (multiplicative) descent with heavy-ball momentum and restart.

    Cells below the update floor keep their initialization (their action
    contribution is below solver accuracy but their 1/mu stiffness would
    otherwise dominate the line search); every slice stays a probability
    density by construction and the endpoints are pinned.
    """
    mu = flow0.values.copy()
    dx, dt = ws.dx, ws.dt
    # mollifier frozen at the initialization's slice peaks
    reg = config.kinetic_reg * mu.max(axis=1, keepdims=True)
    m = _momentum(mu, dx, dt)
    J = _edge_objective(ws, mu, m, reg)
    eta = config.eta0
    velocity = np.zeros_like(mu)
    pg_norm = np.inf
    iterations = 0
    for iterations in range(1, config.max_outer + 1):
        gmu, gm = _edge_gradients(ws, mu, m, reg)
        g = gmu + _momentum_adjoint(gm, dx, dt)
        g[0] = 0.0
        g[-1] = 0.0
        movable = mu >= config.update_floor_rel * mu.max(axis=1, keepdims=True)
        g = np.where(movable, g, 0.0)
        centered = g - (np.sum(g * mu, axis=1, keepdims=True) * dx)
        centered = np.where(movable, centered, 0.0)
        descent = float(np.sum(mu * centered**2))
        pg_norm = float(np.sqrt(np.sum(ws.tw * np.sum(mu * centered**2, axis=1) * dx)))
        if pg_norm <= config.tol_grad:
            return mu, J, pg_norm, iterations, "converged"
        accepted = False
        for attempt in range(config.max_backtracks):
            step = np.where(movable, -eta * centered + config.momentum * velocity, 0.0)
            cand = mu * np.exp(np.clip(step, -50.0, 50.0))
            cand[0] = mu[0]
            cand[-1] = mu[-1]
            cand /= cand.sum(axis=1, keepdims=True) * dx
            m_cand = _momentum(cand, dx, dt)
            J_cand = _edge_objective(ws, cand, m_cand, reg)
            if J_cand <= J - config.armijo * eta * descent:
                with np.errstate(divide="ignore"):
                    velocity = np.where(
                        movable,
                        np.log(np.maximum(cand, LOG_FLOOR))
                        - np.log(np.maximum(mu, LOG_FLOOR)),
                        0.0,
                    )
                mu, m, J = cand, m_cand, J_cand
                eta = min(eta * config.grow, 1e4)
                accepted = True
                break
            eta *= config.backtrack
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
    _validate_endpoints(mu_in, mu_fin, sgrid, rel=config.mass_floor_rel)
    ws = _Workspace(pot, sgrid, tgrid, config.mass_floor_rel)

    init_names = [config.init] + [n for n in config.multi_start if n != config.init]
    starts = {}
    best = None
    for name in init_names:
        flow0 = _initial_flow(name, pot, mu_in, mu_fin, sgrid, tgrid, config)
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
                sgrid: SpatialGrid, tgrid: TimeGrid,
                config: SolverConfig | None = None) -> BridgeSolution:
    """Frozen-drift fitting baseline.

    Alternates (i) freezing the marginal flow and building the induced linear
    transition kernels, (ii) a classical two-marginal bridge fit against those
    kernels, (iii) a damped marginal update.  Documented bias: the fixed point
    satisfies the frozen-drift optimality condition, not the mean-field one.
    """
    config = config or SolverConfig()
    _validate_endpoints(mu_in, mu_fin, sgrid, rel=config.mass_floor_rel)
    n_steps = tgrid.n_steps
    a = mu_in.values * sgrid.dx
    b_target = mu_fin.values * sgrid.dx
    flow_vals = heat_interpolation_flow(mu_in, mu_fin, sgrid, tgrid, config).values

    delta = np.inf
    converged = False
    outer = 0
    static_kl = np.nan
    for outer in range(1, config.ipfp_max_outer + 1):
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
        u, v, _ = static_sinkhorn(a, b_target, total, tol=config.sinkhorn_tol,
                                  max_iters=config.sinkhorn_max_iters)
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
        new_vals = (1.0 - config.damping) * flow_vals + config.damping * bridge
        new_vals /= new_vals.sum(axis=1, keepdims=True) * sgrid.dx
        delta = float(np.max(np.abs(new_vals - flow_vals)))
        flow_vals = new_vals
        if delta <= config.ipfp_tol or (drift_free and outer >= 2):
            converged = delta <= config.ipfp_tol or drift_free
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


def optimality_residual(sol: BridgeSolution, pot: InteractionPotential, *,
                        threshold_scale: float = 5e-2,
                        bulk_rel: float = 1e-3) -> OptimalityResidual:
    """Residual of the corrector optimality system on interior nodes.

    The time derivative is a forward difference of interior corrector slices,
    so the first-order endpoint reconstruction of the corrector never enters;
    the residual decays at first order under joint grid refinement.  The sup
    is taken over the bulk set (cells above bulk_rel of the slice peak).
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
    bulk = live & (mu >= bulk_rel * mu.max(axis=1, keepdims=True))
    sup_bulk = float(np.max(np.abs(residual[bulk]))) if bulk.any() else 0.0
    tw = flow.time_grid.trapezoid_weights
    l2 = float(np.sqrt(np.sum(tw[:, None] * (residual * bulk) ** 2 * mu * dx)))
    return OptimalityResidual(sup_bulk, l2, threshold_scale * (dx + dt))
