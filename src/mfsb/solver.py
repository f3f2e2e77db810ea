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
them into the next gradient.  Each solve's descent runs in one set of
buffers, allocated when it starts, with ufunc passes that write into them,
and its iterates are bitwise those of the same formulas on fresh
temporaries.  bb_objective and
bb_gradient expose this same action, through the same kernels.

Reported costs come from the corrector's cell quadrature (entropic_cost),
not from J; the two differ by O(dx^2), which
test_bb_objective_second_order_in_cell_quadrature checks.

solve_ahead starts independent bridges in forked children; solve_mfsb, called
with the same arguments, then collects a child's result instead of solving.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ContinuityViolation, InfeasibleEndpoints
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
from . import _fork
from .potentials import InteractionPotential, conv_force
from .dynamics import mkv_flow


# Fixed numerics of the solvers.
_TOL_GRAD = 1e-6          # projected-gradient norm that counts as converged
_TOL_CONTINUITY = 1e-8    # continuity residual bb_objective accepts
_ETA0 = 0.5
_ETA_MAX = 1e4
_MAX_BACKTRACKS = 60
_BACKTRACK = 0.5
_GROW = 1.3
_ARMIJO = 1e-4
_MOMENTUM = 0.9           # heavy-ball weight in log space, restart on failure
_KINETIC_REG = 1e-7       # relative floor added to the velocity denominator
_UPDATE_FLOOR_REL = 1e-8  # cells below this fraction of the peak stay frozen
_SINKHORN_MAX_ITERS = 5000
_SINKHORN_TOL = 1e-12
_RESIDUAL_THRESHOLD_SCALE = 5e-2  # optimality threshold per unit of dx + dt


@dataclass(frozen=True)
class SolverConfig:
    """Budget and initialization policy for the bridge solver."""

    max_outer: int = 4000
    init: str = "heat"              # heat | mkv

    def __post_init__(self):
        if not (isinstance(self.max_outer, int) and not isinstance(self.max_outer, bool)
                and self.max_outer >= 1):
            raise ValueError("max_outer must be an integer >= 1")
        if self.init not in ("heat", "mkv"):
            raise ValueError(f"unknown init mode {self.init!r}")


# ---------------------------------------------------------------------------
# classical heat-kernel machinery (initialization)


def _neg_sq_distances(grid: SpatialGrid) -> np.ndarray:
    """-(x_i - x_j)^2 over the cell centers, the heat kernel's exponent at 2t = 1."""
    x = grid.centers
    return -((x[:, None] - x[None, :]) ** 2)


def heat_kernel(grid: SpatialGrid, t: float, neg_sq: np.ndarray) -> np.ndarray:
    """Mass transition matrix of free diffusion over time t > 0 on the grid,
    from neg_sq = _neg_sq_distances(grid), which every kernel of a grid shares."""
    kernel = np.divide(neg_sq, 2.0 * t)
    np.exp(kernel, out=kernel)
    kernel *= grid.dx
    kernel /= np.sqrt(2.0 * np.pi * t)
    return kernel


def static_sinkhorn(a: np.ndarray, b: np.ndarray, kernel: np.ndarray):
    """Scaling vectors (u, v) with diag(v) K diag(u) matching masses (a, b)."""
    u = np.ones_like(a)
    v = np.ones_like(b)
    for _ in range(_SINKHORN_MAX_ITERS):
        u = a / np.maximum(kernel.T @ v, 1e-300)
        ku = kernel @ u
        if np.max(np.abs(v * ku - b)) <= _SINKHORN_TOL:
            break
        v = b / np.maximum(ku, 1e-300)
    return u, v


def heat_interpolation_flow(mu_in: Density, mu_fin: Density, sgrid: SpatialGrid,
                            tgrid: TimeGrid) -> MarginalFlow:
    """Marginals of the classical (interaction-free) bridge between the endpoints."""
    a = mu_in.values * sgrid.dx
    b = mu_fin.values * sgrid.dx
    neg_sq = _neg_sq_distances(sgrid)
    kernel = heat_kernel(sgrid, tgrid.horizon, neg_sq)
    u, v = static_sinkhorn(a, b, kernel)
    values = np.empty((tgrid.n_steps + 1, sgrid.n_cells))
    values[0] = mu_in.values
    values[-1] = mu_fin.values
    for k in range(1, tgrid.n_steps):
        t = tgrid.nodes[k]
        fwd = heat_kernel(sgrid, t, neg_sq) @ u
        bwd = heat_kernel(sgrid, tgrid.horizon - t, neg_sq).T @ v
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


class _Buffers:
    """Every array one descent writes into, allocated once per descent.

    An edge array has the shape of a stack of slices: column j < n-1 holds
    the edge between cells j and j+1, so each edge pass is one contiguous
    pass over the flattened arrays, pairing element k with element k+1.
    Column n-1 pairs the last cell of a slice with the first of the next; it
    is held off the mask, where u, and with it every edge term that enters a
    sum over cells, is exactly zero.  Row sums over edges read columns
    0..n-2 only, so each adds the same numbers in the same order as a sum
    over a separate edge array.
    """

    def __init__(self, pot: InteractionPotential, sgrid: SpatialGrid,
                 tgrid: TimeGrid):
        shape = (tgrid.n_steps + 1, sgrid.n_cells)
        self.pot = pot
        self.sgrid = sgrid
        self.dx = sgrid.dx
        self.dt = tgrid.dt
        self.tw = tgrid.trapezoid_weights
        self.twdx = self.tw[:, None] * self.dx
        self.twdx_half = self.twdx * 0.5
        # edge terms of the last point evaluated
        self.peak = np.zeros((shape[0], 1))
        self.light = np.zeros(shape, dtype=bool)  # edges without mass
        self.mu_edge = np.zeros(shape)
        self.den = np.zeros(shape)       # mollified edge density, 1 off the mask
        self.u = np.zeros(shape)         # edge velocity, 0 off the mask
        # the descent direction and its domain
        self.immovable = np.zeros(shape, dtype=bool)
        self.centered = np.zeros(shape)
        self.safe = np.zeros(shape, dtype=bool)
        self.scratch = tuple(np.zeros(shape) for _ in range(6))


def _shifted(a: np.ndarray):
    """(a[k], a[k+1]) over the flattened array: the pairs of an edge pass."""
    flat = a.reshape(-1)
    return flat[:-1], flat[1:]


def _momentum(ws: _Buffers, mu: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Momentum slaved to mu, the divergence inversion of -d(mu)/dt, into out."""
    ddt = ws.scratch[0]  # -d(mu)/dt, each difference taken in reverse order
    np.subtract(mu[:-2], mu[2:], out=ddt[1:-1])
    ddt[1:-1] /= 2.0 * ws.dt
    np.subtract(mu[0], mu[1], out=ddt[0])
    np.subtract(mu[-2], mu[-1], out=ddt[-1])
    ddt[0] /= ws.dt
    ddt[-1] /= ws.dt
    np.cumsum(ddt, axis=1, out=out)
    out *= ws.dx
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
# _edge_terms evaluates one point into the buffers: _action turns the terms
# into J, and _action_gradients into the partial gradients at that point.
# Each pass keeps the operations, their operands' order and the numbers
# each row sum sees of the formula it implements, so the iterates are
# bitwise those of the same formulas on fresh temporaries
# (tests/oracles.py, reference_descend).


def _edge_terms(ws: _Buffers, mu: np.ndarray, m: np.ndarray, reg,
                log_mu: np.ndarray) -> None:
    """Edge terms of the point (mu, m) into ws, and log mu into log_mu.

    reg is an absolute mollifier, scalar or per-slice column, fixed by the
    caller so the objective stays an exact function of (mu, m).
    """
    left, right = _shifted(mu)
    mu_edge = ws.mu_edge
    np.add(left, right, out=_shifted(mu_edge)[0])
    mu_edge *= 0.5
    np.max(mu, axis=1, keepdims=True, out=ws.peak)
    np.less(mu_edge, MASS_FLOOR_REL * ws.peak, out=ws.light)
    ws.light[:, -1] = True
    np.add(mu_edge, reg, out=ws.den)
    np.copyto(ws.den, 1.0, where=ws.light)
    np.maximum(mu, LOG_FLOOR, out=log_mu)
    np.log(log_mu, out=log_mu)
    # u = m / den + 0.5 * score + force_edge on the mask, 0 off it
    u, half = ws.u, ws.scratch[1]
    half_flat = _shifted(half)[0]
    log_left, log_right = _shifted(log_mu)
    np.subtract(log_right, log_left, out=half_flat)
    half_flat /= ws.dx
    half_flat *= 0.5
    np.divide(m, ws.den, out=u)
    u += half
    np.add(*_shifted(ws.pot.force(mu, ws.sgrid)), out=half_flat)
    half_flat *= 0.5
    u += half
    np.copyto(u, 0.0, where=ws.light)


def _action(ws: _Buffers) -> float:
    """J of the point last evaluated by _edge_terms."""
    w = ws.scratch[1]
    np.multiply(ws.u, ws.u, out=w)
    w *= ws.mu_edge
    slicewise = 0.5 * np.sum(w[:, :-1], axis=1) * ws.dx
    return float(np.sum(ws.tw * slicewise))


def _to_cells(edge: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each edge's value added into its two cells: edge[j] + edge[j-1]."""
    left, right = _shifted(edge)
    np.add(right, left, out=_shifted(out)[1])
    out[0, 0] = edge[0, 0]
    return out


def _action_gradients(ws: _Buffers, mu: np.ndarray, m: np.ndarray):
    """Partial gradients (dJ/dmu, dJ/dm) at the point (mu, m) that the terms
    in ws were taken at, as two of ws's scratch arrays."""
    rho, gm, edge, flux, prod, gmu = ws.scratch
    np.multiply(ws.u, ws.twdx, out=rho)
    rho *= ws.mu_edge
    np.divide(rho, ws.den, out=gm)
    np.multiply(ws.u, ws.u, out=edge)
    edge *= ws.twdx_half
    np.multiply(rho, m, out=flux)
    np.multiply(ws.den, ws.den, out=prod)
    flux /= prod
    edge -= flux
    edge *= 0.5
    _to_cells(edge, gmu)
    # the score's flow through each edge, against 1/mu of its two cells
    half_rho, score_flow, inv_mu = rho, edge, flux
    half_rho *= 0.5
    np.divide(half_rho, ws.dx, out=score_flow)
    np.greater(mu, 1e-100, out=ws.safe)
    inv_mu.fill(0.0)
    np.divide(1.0, mu, out=inv_mu, where=ws.safe)
    np.multiply(score_flow, inv_mu, out=prod)
    gmu -= prod
    gmu_right, prod_right = _shifted(gmu)[1], _shifted(prod)[1]
    np.multiply(_shifted(score_flow)[0], _shifted(inv_mu)[1], out=prod_right)
    gmu_right += prod_right
    gmu += ws.pot.force_adjoint(_to_cells(half_rho, prod), ws.sgrid)
    return gmu, gm


def _as_matrix(flow, m):
    mu = flow.values
    m = np.asarray(m, dtype=float)
    if m.shape != mu.shape:
        raise ValueError("flow and momentum shapes differ")
    return mu, m


def _evaluated(pot: InteractionPotential, flow: MarginalFlow, mu, m) -> _Buffers:
    """Fresh buffers holding the unmollified edge terms of (mu, m)."""
    ws = _Buffers(pot, flow.grid, flow.time_grid)
    _edge_terms(ws, mu, m, 0.0, np.empty_like(mu))
    return ws


def bb_objective(flow: MarginalFlow, m: np.ndarray, pot: InteractionPotential) -> float:
    """Staggered kinetic action of an admissible (flow, momentum) pair.

    This is the action the solver descends on, without its mollifier.  It
    differs by O(dx^2) from the corrector's cell quadrature
    entropic_cost(corrector(flow, m/mu), flow) that reports bridge costs.
    Raises ContinuityViolation when the pair does not satisfy the discrete
    continuity equation.
    """
    mu, m = _as_matrix(flow, m)
    residual = time_derivative(mu, flow.time_grid.dt) + divergence(m, flow.grid.dx)
    worst = float(np.max(np.abs(residual)))
    if worst > _TOL_CONTINUITY:
        raise ContinuityViolation(
            f"continuity residual {worst:.3e} exceeds {_TOL_CONTINUITY:.1e}"
        )
    return _action(_evaluated(pot, flow, mu, m))


def bb_gradient(flow: MarginalFlow, m: np.ndarray, pot: InteractionPotential):
    """Exact partial gradients (dJ/dmu, dJ/dm) of the staggered action.

    These are the gradients of bb_objective, the action the solver descends
    on; reported costs come from the corrector's cell quadrature instead.
    """
    mu, m = _as_matrix(flow, m)
    return _action_gradients(_evaluated(pot, flow, mu, m), mu, m)


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


def _projected_gradient(ws: _Buffers, mu: np.ndarray, m: np.ndarray):
    """Cells that may not move, and the mirror gradient on the others.

    The gradient of J in mu, the momentum slaved to mu through _momentum, is
    zero on the pinned endpoints and on frozen cells, and centred per slice
    so that a step keeps each slice's mass.
    """
    gmu, gm = _action_gradients(ws, mu, m)
    # dJ/dm through the adjoint of _momentum: a running sum over cells from
    # the right, then the adjoint of the time difference, added to gmu
    q, adj, prod = ws.scratch[0], ws.scratch[2], ws.scratch[4]
    np.cumsum(gm[:, ::-1], axis=1, out=q[:, ::-1])
    q *= ws.dx
    q[1:-1] /= 2.0 * ws.dt
    q[0] /= ws.dt
    q[-1] /= ws.dt
    np.subtract(q[2:], q[:-2], out=adj[1:-1])
    g = gmu
    g[1:-1] += adj[1:-1]
    g[0] = 0.0
    g[-1] = 0.0
    np.less(mu, _UPDATE_FLOOR_REL * ws.peak, out=ws.immovable)
    np.copyto(g, 0.0, where=ws.immovable)
    np.multiply(g, mu, out=prod)
    np.subtract(g, np.sum(prod, axis=1, keepdims=True) * ws.dx, out=ws.centered)
    np.copyto(ws.centered, 0.0, where=ws.immovable)
    return ws.immovable, ws.centered


def _descend(pot: InteractionPotential, flow0: MarginalFlow, config: SolverConfig):
    """Mirror (multiplicative) descent with heavy-ball momentum and restart.

    Cells below the update floor keep their initialization (their action
    contribution is below solver accuracy but their 1/mu stiffness would
    otherwise dominate the line search); every slice stays a probability
    density by construction and the endpoints are pinned.  Each point is
    evaluated once, into one set of buffers: the current point and the
    line-search candidate are swapped on acceptance, and the terms of an
    accepted candidate give the next gradient.
    """
    ws = _Buffers(pot, flow0.grid, flow0.time_grid)
    dx = ws.dx
    mu = flow0.values.copy()
    cand, log_mu, cand_log, m, velocity = (np.zeros_like(mu) for _ in range(5))
    # mollifier frozen at the initialization's slice peaks
    reg = _KINETIC_REG * mu.max(axis=1, keepdims=True)
    _edge_terms(ws, mu, _momentum(ws, mu, m), reg, log_mu)
    J = _action(ws)
    eta = _ETA0
    pg_norm = np.inf
    iterations = 0
    weighted, pull = ws.scratch[1], ws.scratch[2]
    for iterations in range(1, config.max_outer + 1):
        immovable, centered = _projected_gradient(ws, mu, m)
        np.multiply(centered, centered, out=weighted)
        weighted *= mu
        descent = float(np.sum(weighted))
        pg_norm = float(np.sqrt(np.sum(ws.tw * np.sum(weighted, axis=1) * dx)))
        if pg_norm <= _TOL_GRAD:
            return mu, J, pg_norm, iterations, "converged"
        accepted = False
        for attempt in range(_MAX_BACKTRACKS):
            np.multiply(centered, -eta, out=cand)
            np.multiply(velocity, _MOMENTUM, out=pull)
            cand += pull
            np.copyto(cand, 0.0, where=immovable)
            np.clip(cand, -50.0, 50.0, out=cand)
            np.exp(cand, out=cand)
            cand *= mu
            cand[0] = mu[0]
            cand[-1] = mu[-1]
            cand /= cand.sum(axis=1, keepdims=True) * dx
            _edge_terms(ws, cand, _momentum(ws, cand, m), reg, cand_log)
            J_cand = _action(ws)
            if J_cand <= J - _ARMIJO * eta * descent:
                np.subtract(cand_log, log_mu, out=velocity)
                np.copyto(velocity, 0.0, where=immovable)
                mu, cand, log_mu, cand_log, J = cand, mu, cand_log, log_mu, J_cand
                eta = min(eta * _GROW, _ETA_MAX)
                accepted = True
                break
            eta *= _BACKTRACK
            if attempt == 15:
                velocity[:] = 0.0  # momentum is hampering: restart the ball
        if not accepted:
            return mu, J, pg_norm, iterations, "stalled"
    return mu, J, pg_norm, iterations, "budget"


def _solve(pot: InteractionPotential, mu_in: Density, mu_fin: Density,
           sgrid: SpatialGrid, tgrid: TimeGrid, config: SolverConfig) -> BridgeSolution:
    """The body of solve_mfsb: validate, initialize, descend, then take the
    solved flow's velocity, corrector and reported cost."""
    _validate_endpoints(mu_in, mu_fin, sgrid)
    flow0 = _initial_flow(config.init, pot, mu_in, mu_fin, sgrid, tgrid)
    mu, J, pg_norm, iters, status = _descend(pot, flow0, config)
    flow = MarginalFlow(tgrid, sgrid, mu)
    velocity = velocity_from_flow(flow)
    psi = corrector(flow, velocity, pot)
    return BridgeSolution(flow, velocity, psi, entropic_cost(psi, flow), {
        "converged": status == "converged",
        "status": status,
        "iterations": iters,
        "pg_norm": pg_norm,
        "objective": J,
        "init": config.init,
        "starts": {config.init: {"cost": J, "pg_norm": pg_norm,
                                 "iterations": iters, "status": status}},
    })


def solve_mfsb(pot: InteractionPotential, mu_in: Density, mu_fin: Density,
               sgrid: SpatialGrid, tgrid: TimeGrid,
               config: SolverConfig | None = None) -> BridgeSolution:
    """Solve the two-marginal bridge problem by projected mirror descent.

    Descends once from the configured initialization and returns the last
    iterate with convergence diagnostics; a run that exhausts its budget or
    stalls is returned flagged rather than raised.  Raises
    InfeasibleEndpoints when the endpoint validation fails.  A problem that
    solve_ahead started is collected from its child: the same solution, or
    the same exception, as solving it here.  A problem that solve_ahead saw
    is solved once, and each later call returns a copy of its solution.
    """
    problem = (pot, mu_in, mu_fin, sgrid, tgrid, config or SolverConfig())
    key = _problem_key(*problem)
    ahead = _AHEAD.get(key)
    if isinstance(ahead, _fork.Child):
        _AHEAD[key] = None  # a call after the child failed solves here
        try:
            sol = ahead.answer()
        finally:
            ahead.stop()
    elif ahead is not None:
        return copy.deepcopy(ahead)
    else:
        sol = _solve(*problem)
    if key in _AHEAD:
        _AHEAD[key] = sol
    return sol


# ---------------------------------------------------------------------------
# bridges solved ahead, in forked children


# key of each problem solve_ahead saw -> the Child solving it, its solution
# once obtained, or None while no child solves it
_AHEAD: dict = {}


def _problem_key(pot, mu_in: Density, mu_fin: Density, sgrid, tgrid, config) -> tuple:
    """What makes two calls of solve_mfsb the same problem."""
    return (pot, mu_in.grid, mu_in.values.tobytes(), mu_fin.grid,
            mu_fin.values.tobytes(), sgrid, tgrid, config or SolverConfig())


def solve_ahead(solving, problems):
    """Start solving problems, each the arguments of solve_mfsb, in children.

    solving is the problem the caller solves itself meanwhile.  Forks
    one child per problem, in order, while usable CPUs beyond the caller's
    own and its children's remain, and none where os.fork does not exist.
    A problem equal to solving or to an earlier one gets no child: it is
    solved once, and solve_mfsb returns that solution for each.  The caller
    obtains each solution by calling solve_mfsb as it would have without
    this call, and must call cancel_ahead when it is done.
    """
    _AHEAD[_problem_key(*solving)] = None
    for problem in problems:
        key = _problem_key(*problem)
        if key not in _AHEAD:
            _AHEAD[key] = (_fork.Child(_solve_in_child, problem)
                           if _fork.spare_cpus() > 0 else None)


def _solve_in_child(problem: tuple, inbox: int, reply):
    """The body of a child of solve_ahead: reply with problem's solution."""
    reply(_solve(*problem))


def cancel_ahead():
    """Stop and reap every child solve_ahead started that nothing collected,
    and forget the solutions kept for a later call."""
    while _AHEAD:
        _, ahead = _AHEAD.popitem()
        if isinstance(ahead, _fork.Child):
            ahead.stop()


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
