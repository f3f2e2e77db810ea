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
A descent that finds a CPU idle at its first line search forks one helper,
which runs every pass over time rows, the kernel's grid actions included, on
a block of the rows, while BLAS is held to one thread; the sums over the
whole stack stay in the process.  Each row of a grid action depends only on
the same row of its argument, and the helper is forked only where the
products on the two blocks are bitwise those on the whole stack, so the
iterates are bitwise the one-process ones.
"""

from __future__ import annotations

import copy
import math
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

    The points, their logs, the row sums and the scratch arrays but the
    second are in one anonymous shared mapping, so that a helper forked
    later writes into the same arrays: a block reads them at the other
    block's rows, or the forking process reads or writes them on every row.
    The other arrays are written and read on each block's own rows only,
    and stay in each process's own memory, where the heap reuses them once
    the descent is done.

    An edge array has the shape of a stack of slices: column j < n-1 holds
    the edge between cells j and j+1, so each edge pass is one contiguous
    pass over the flattened arrays, pairing element k with element k+1.
    Column n-1 pairs the last cell of a slice with the first of the next; it
    is held off the mask, where u, and with it every edge term that enters a
    sum over cells, is exactly zero.  Row sums over edges read columns
    0..n-2 only, so each adds the same numbers in the same order as a sum
    over a separate edge array.

    Each pass writes one block of rows, given as rows = (lo, hi); the pass
    over the whole stack is the same pass on (0, n_steps + 1).  Most read
    only their own rows.  The time differences read the rows next to the
    block, an edge pass reads the first cell after it, and a pass from edges
    to cells the last edge before it: each such read waits until both
    blocks have written what it reads, and no pass writes what another
    block reads in it.  The scratch arrays by pass:

      _evaluate:           0 -dmu/dt; 2 half of the edge terms, then J's
                           weights; 5 holds the force (read across)
      _edge_gradients:     0 rho, then rho/2; 1 dJ/dm; 2 the edge term;
                           3 the momentum flux, then 1/mu; 4 den^2, then
                           the score flow over mu
      _cell_gradients:     5 dJ/dmu; 4 the score flow into the next cell,
                           then the weights on the force; 3 the momentum
                           adjoint's running sum (reads 0 and 2 across)
      _centered_gradient:  1 the adjoint's time difference (reads 3
                           across); 5 the gradient; 4 gradient * mu; 2 the
                           weights of the descent and its norm
      _candidate:          0 the heavy-ball pull; 5 the candidate's force
    """

    def __init__(self, pot: InteractionPotential, sgrid: SpatialGrid,
                 tgrid: TimeGrid):
        rows = tgrid.n_steps + 1
        self.pot = pot
        self.sgrid = sgrid
        self.dx = sgrid.dx
        self.dt = tgrid.dt
        self.tw = tgrid.trapezoid_weights
        self.twdx = self.tw[:, None] * self.dx
        self.twdx_half = self.twdx * 0.5
        self.all = (0, rows)
        shape = (rows, sgrid.n_cells)
        (self.points,     # the current point and the line-search candidate
         self.logs,       # their logs
         across,
         self.sums,       # row sums of the action's and the descent's weights
         ) = _fork.shared_arrays(((2, *shape), float), ((2, *shape), float),
                                 ((5, *shape), float), ((2, rows), float))
        (self.m,          # the momentum of the last point evaluated
         self.velocity,   # heavy-ball velocity in log space
         # edge terms of the last point evaluated
         self.mu_edge,
         self.den,        # mollified edge density, 1 off the mask
         self.u,          # edge velocity, 0 off the mask
         self.centered,   # the descent direction
         own) = (np.zeros(shape) for _ in range(7))
        self.scratch = (across[0], own, *across[1:])
        self.peak = np.zeros((rows, 1))
        (self.light,      # edges without mass
         self.immovable,  # cells the descent does not move
         self.safe) = (np.zeros(shape, dtype=bool) for _ in range(3))
        self.reg = 0.0  # the absolute mollifier of den, fixed per descent


def _edge_pairs(a: np.ndarray, rows):
    """(a[k], a[k+1]) over the flattened array, for the edges k that start
    in the block of rows: the last cell of the block pairs with the next
    block's first, and the last cell of the stack with none."""
    flat, n = a.reshape(-1), a.shape[1]
    start, stop = rows[0] * n, min(rows[1] * n, flat.size - 1)
    return flat[start:stop], flat[start + 1:stop + 1]


def _cell_pairs(a: np.ndarray, rows):
    """(a[k-1], a[k]) over the flattened array, for the cells k of the block
    of rows but the first of the stack: the first cell of the block pairs
    with the previous block's last."""
    flat, n = a.reshape(-1), a.shape[1]
    start, stop = max(rows[0] * n, 1), rows[1] * n
    return flat[start - 1:stop - 1], flat[start:stop]


def _interior(rows, n_rows: int):
    """The rows of the block that are neither the first nor the last node."""
    return slice(max(rows[0], 1), min(rows[1], n_rows - 1))


def _momentum(ws: _Buffers, mu: np.ndarray, out: np.ndarray, rows=None) -> np.ndarray:
    """Momentum slaved to mu, the divergence inversion of -d(mu)/dt, into
    out on rows (all rows when None)."""
    lo, hi = rows = rows or ws.all
    ddt = ws.scratch[0]  # -d(mu)/dt, each difference taken in reverse order
    inner = _interior(rows, mu.shape[0])
    np.subtract(mu[inner.start - 1:inner.stop - 1], mu[inner.start + 1:inner.stop + 1],
                out=ddt[inner])
    ddt[inner] /= 2.0 * ws.dt
    if lo == 0:
        np.subtract(mu[0], mu[1], out=ddt[0])
        ddt[0] /= ws.dt
    if hi == mu.shape[0]:
        np.subtract(mu[-2], mu[-1], out=ddt[-1])
        ddt[-1] /= ws.dt
    np.cumsum(ddt[lo:hi], axis=1, out=out[lo:hi])
    out[lo:hi] *= ws.dx
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


def _logs(mu: np.ndarray, out: np.ndarray):
    """log mu, with the log floor, into out."""
    np.maximum(mu, LOG_FLOOR, out=out)
    np.log(out, out=out)


def _edge_terms(ws: _Buffers, mu: np.ndarray, m: np.ndarray, reg,
                log_mu: np.ndarray, rows=None) -> None:
    """Edge terms of the point (mu, m) into ws, on rows.

    reg is an absolute mollifier, scalar or per-slice column, fixed by the
    caller so the objective stays an exact function of (mu, m).  A block of
    rows reads log mu from log_mu and the force from ws.scratch[5], over
    the whole stack; with rows None, both are taken here, for every row.
    """
    if rows is None:
        rows = ws.all
        _logs(mu, log_mu)
        np.copyto(ws.scratch[5], ws.pot.force(mu, ws.sgrid))
    r = slice(*rows)
    mu_edge, den, u, light = ws.mu_edge[r], ws.den[r], ws.u[r], ws.light[r]
    np.add(*_edge_pairs(mu, rows), out=_edge_pairs(ws.mu_edge, rows)[0])
    mu_edge *= 0.5
    np.max(mu[r], axis=1, keepdims=True, out=ws.peak[r])
    np.less(mu_edge, MASS_FLOOR_REL * ws.peak[r], out=light)
    light[:, -1] = True
    np.add(mu_edge, np.broadcast_to(reg, ws.peak.shape)[r], out=den)
    np.copyto(den, 1.0, where=light)
    # u = m / den + 0.5 * score + force_edge on the mask, 0 off it
    half = ws.scratch[2][r]
    half_edges = _edge_pairs(ws.scratch[2], rows)[0]
    log_left, log_right = _edge_pairs(log_mu, rows)
    np.subtract(log_right, log_left, out=half_edges)
    half_edges /= ws.dx
    half_edges *= 0.5
    np.divide(m[r], den, out=u)
    u += half
    np.add(*_edge_pairs(ws.scratch[5], rows), out=half_edges)
    half_edges *= 0.5
    u += half
    np.copyto(u, 0.0, where=light)


def _slice_actions(ws: _Buffers, rows) -> None:
    """The row sums of J's weights at the point last evaluated, on rows,
    into ws.sums[0]."""
    r = slice(*rows)
    w = ws.scratch[2][r]
    np.multiply(ws.u[r], ws.u[r], out=w)
    w *= ws.mu_edge[r]
    np.sum(w[:, :-1], axis=1, out=ws.sums[0][r])


def _total_action(ws: _Buffers) -> float:
    """J from the row sums of _slice_actions."""
    slicewise = 0.5 * ws.sums[0] * ws.dx
    return float(np.sum(ws.tw * slicewise))


def _action(ws: _Buffers) -> float:
    """J of the point last evaluated by _edge_terms."""
    _slice_actions(ws, ws.all)
    return _total_action(ws)


def _to_cells(edge: np.ndarray, out: np.ndarray, rows) -> np.ndarray:
    """Each edge's value added into its two cells, edge[j] + edge[j-1], on
    rows."""
    left, right = _cell_pairs(edge, rows)
    np.add(right, left, out=_cell_pairs(out, rows)[1])
    if rows[0] == 0:
        out[0, 0] = edge[0, 0]
    return out


def _edge_gradients(ws: _Buffers, mu: np.ndarray, m: np.ndarray, rows) -> None:
    """The edge parts of the partial gradients at the point (mu, m) that
    the terms in ws were taken at, on rows."""
    r = slice(*rows)
    rho, gm, edge, flux, prod, _ = (s[r] for s in ws.scratch)
    u, den = ws.u[r], ws.den[r]
    np.multiply(u, ws.twdx[r], out=rho)
    rho *= ws.mu_edge[r]
    np.divide(rho, den, out=gm)
    np.multiply(u, u, out=edge)
    edge *= ws.twdx_half[r]
    np.multiply(rho, m[r], out=flux)
    np.multiply(den, den, out=prod)
    flux /= prod
    edge -= flux
    edge *= 0.5
    # the score's flow through each edge, rho / 2dx, against 1/mu of its
    # two cells; the flow into the next cell is taken by _cell_gradients
    half_rho, inv_mu = rho, flux
    half_rho *= 0.5
    np.greater(mu[r], 1e-100, out=ws.safe[r])
    inv_mu.fill(0.0)
    np.divide(1.0, mu[r], out=inv_mu, where=ws.safe[r])
    np.divide(half_rho, ws.dx, out=prod)
    prod *= inv_mu


def _cell_gradients(ws: _Buffers, rows) -> None:
    """dJ/dmu on rows, from the edge parts and the force's adjoint; and the
    running sum of dJ/dm from the right, the first step of its adjoint."""
    r = slice(*rows)
    half_rho, gm, edge, inv_mu, prod, gmu = ws.scratch
    _to_cells(edge, gmu, rows)
    gmu[r] -= prod[r]
    gmu_right, prod_right = _cell_pairs(gmu, rows)[1], _cell_pairs(prod, rows)[1]
    np.divide(_cell_pairs(half_rho, rows)[0], ws.dx, out=prod_right)
    prod_right *= _cell_pairs(inv_mu, rows)[1]
    gmu_right += prod_right
    _to_cells(half_rho, prod, rows)  # the weights on the force
    gmu[r] += ws.pot.force_adjoint(prod[r], ws.sgrid)
    q = inv_mu
    np.cumsum(gm[r, ::-1], axis=1, out=q[r, ::-1])
    q[r] *= ws.dx
    q[_interior(rows, q.shape[0])] /= 2.0 * ws.dt
    if rows[0] == 0:
        q[0] /= ws.dt
    if rows[1] == q.shape[0]:
        q[-1] /= ws.dt


def _action_gradients(ws: _Buffers, mu: np.ndarray, m: np.ndarray):
    """Partial gradients (dJ/dmu, dJ/dm) at the point (mu, m) that the terms
    in ws were taken at, as two of ws's scratch arrays."""
    _edge_gradients(ws, mu, m, ws.all)
    _cell_gradients(ws, ws.all)
    return ws.scratch[5], ws.scratch[1]


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
    # copies: a view would keep the buffers' whole shared mapping alive
    ws = _evaluated(pot, flow, mu, m)
    return tuple(g.copy() for g in _action_gradients(ws, mu, m))


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


def _centered_gradient(ws: _Buffers, mu: np.ndarray, rows) -> None:
    """The mirror gradient on rows, from dJ/dmu and the running sum that
    _cell_gradients left; and the row sums of its weights mu * g^2.

    The gradient is that of J in mu, the momentum slaved to mu through
    _momentum.  It is zero on the pinned endpoints and on the frozen cells
    (ws.immovable), and centred per slice so that a step keeps each slice's
    mass."""
    r = slice(*rows)
    q, adj, prod, weighted, g = (ws.scratch[i] for i in (3, 1, 4, 2, 5))
    # dJ/dm through the adjoint of _momentum: the running sum, then the
    # adjoint of the time difference, added to dJ/dmu
    inner = _interior(rows, mu.shape[0])
    np.subtract(q[inner.start + 1:inner.stop + 1], q[inner.start - 1:inner.stop - 1],
                out=adj[inner])
    g[inner] += adj[inner]
    if rows[0] == 0:
        g[0] = 0.0
    if rows[1] == mu.shape[0]:
        g[-1] = 0.0
    immovable, centered = ws.immovable[r], ws.centered[r]
    np.less(mu[r], _UPDATE_FLOOR_REL * ws.peak[r], out=immovable)
    np.copyto(g[r], 0.0, where=immovable)
    np.multiply(g[r], mu[r], out=prod[r])
    np.subtract(g[r], np.sum(prod[r], axis=1, keepdims=True) * ws.dx, out=centered)
    np.copyto(centered, 0.0, where=immovable)
    np.multiply(centered, centered, out=weighted[r])
    weighted[r] *= mu[r]
    np.sum(weighted[r], axis=1, out=ws.sums[1][r])


# The phases of one descent iteration.  Each runs on a block of rows, with
# the points named by their index in ws.points, so that the forked helper
# can be called with a phase's name and its args, and run it on its own
# block.  The kernel's grid actions run in the phases too, each on the
# block's own rows.


def _candidate(ws: _Buffers, rows, cur: int, eta: float, restart: bool = False):
    """The line-search candidate at step eta from the point cur, its log and
    its force, into the other point, on rows; restart stops the heavy ball
    first."""
    lo, hi = rows
    r = slice(lo, hi)
    mu, cand, velocity = ws.points[cur][r], ws.points[1 - cur][r], ws.velocity[r]
    pull = ws.scratch[0][r]
    if restart:
        velocity[:] = 0.0
    np.multiply(ws.centered[r], -eta, out=cand)
    np.multiply(velocity, _MOMENTUM, out=pull)
    cand += pull
    np.copyto(cand, 0.0, where=ws.immovable[r])
    np.clip(cand, -50.0, 50.0, out=cand)
    np.exp(cand, out=cand)
    cand *= mu
    if lo == 0:
        cand[0] = mu[0]
    if hi == ws.all[1]:
        cand[-1] = mu[-1]
    cand /= cand.sum(axis=1, keepdims=True) * ws.dx
    _logs(cand, ws.logs[1 - cur][r])
    np.copyto(ws.scratch[5][r], ws.pot.force(cand, ws.sgrid))


def _evaluate(ws: _Buffers, rows, which: int):
    """The momentum, edge terms and row sums of J of the point which, on
    rows; its logs and its force are taken."""
    x = ws.points[which]
    _edge_terms(ws, x, _momentum(ws, x, ws.m, rows), ws.reg, ws.logs[which], rows)
    _slice_actions(ws, rows)


def _gradient_terms(ws: _Buffers, rows, cur: int, accepted: bool):
    """The heavy ball's velocity, if the point cur was just accepted, and
    the edge parts of the gradient at cur, on rows."""
    r = slice(*rows)
    if accepted:
        np.subtract(ws.logs[cur][r], ws.logs[1 - cur][r], out=ws.velocity[r])
        np.copyto(ws.velocity[r], 0.0, where=ws.immovable[r])
    _edge_gradients(ws, ws.points[cur], ws.m, rows)


def _direction(ws: _Buffers, rows, cur: int, eta: float):
    """The mirror gradient at the point cur, and the first candidate along
    it, on rows."""
    _centered_gradient(ws, ws.points[cur], rows)
    _candidate(ws, rows, cur, eta)


class _Rows:
    """Runs each phase of one descent on every row; once share has forked a
    helper, on the rows before a split while the helper runs it on the rest,
    with BLAS held to one thread.  A call returns when both blocks are done.
    Every sum over the whole stack runs here only."""

    def __init__(self, ws: _Buffers):
        self.ws = ws
        self.rows = ws.all
        self.helper = None
        self.threads = None  # BLAS's thread count while share holds it at one
        self.tried = False

    def share(self):
        """Fork the helper, at the first call only, if a CPU is idle, the
        stack has 16 rows or more, and BLAS's thread count can be held at
        one; where the kernel's grid actions on the two blocks are not
        bitwise those on the whole stack, fork none and restore the count.

        A split at a multiple of 8 rows keeps the BLAS products on the
        blocks bitwise on the shipped grids.  It did not on some grids of 32
        to 100 cells, and the quadratic force on 2049 rows of 256 cells
        differs between one BLAS thread and two.  The current point shows
        which: the order of a product's operations depends on its shapes
        and thread count, not on its values."""
        if self.tried:
            return
        self.tried = True
        ws, n_rows = self.ws, self.ws.all[1]
        if n_rows < 16 or _fork.spare_cpus() == 0 or (blas := _fork.blas_calls()) is None:
            return
        split = n_rows // 16 * 8
        stack = ws.points[0]
        self.threads = blas[0]()
        for action in (ws.pot.force, ws.pot.force_adjoint):
            blas[1](self.threads)
            whole = action(stack, ws.sgrid)
            blas[1](1)
            for block in (slice(0, split), slice(split, n_rows)):
                if action(stack[block], ws.sgrid).tobytes() != whole[block].tobytes():
                    self.stop()
                    return
        self.helper = _fork.Child(_run_phase, ws, (split, n_rows))
        self.rows = (0, split)

    def __call__(self, phase, *args):
        if self.helper:
            self.helper.call(phase.__name__, *args)
        phase(self.ws, self.rows, *args)
        if self.helper:
            self.helper.answer()

    def evaluate(self, which: int) -> float:
        """J of the point which, whose logs and force are taken."""
        self(_evaluate, which)
        return _total_action(self.ws)

    def stop(self):
        """Stop the helper, and give BLAS back its thread count."""
        if self.helper:
            self.helper.stop()
        if self.threads is not None:
            _fork.blas_calls()[1](self.threads)
            self.threads = None


def _run_phase(ws: _Buffers, rows, name: str, *args):
    """The row helper's body: the phase of that name, on rows.  A name
    costs microseconds less per call than a function sent by reference,
    which pickle looks up through the import system at both ends."""
    globals()[name](ws, rows, *args)


def _descend(pot: InteractionPotential, flow0: MarginalFlow, config: SolverConfig,
             stall: dict | None = None):
    """Mirror (multiplicative) descent with heavy-ball momentum and restart.

    Cells below the update floor keep their initialization (their action
    contribution is below solver accuracy but their 1/mu stiffness would
    otherwise dominate the line search); every slice stays a probability
    density by construction and the endpoints are pinned.  Each point is
    evaluated once, into one set of buffers: the current point and the
    line-search candidate swap roles on acceptance, and the terms of an
    accepted candidate give the next gradient.

    From the first line search on, a forked helper runs each phase on a
    block of the rows when a CPU is idle (see _Rows.share); the passes are
    the same on either block, so the iterates are bitwise the one-process
    ones.  A descent
    that stalls puts in stall the last step it tried and the Armijo
    decrease that step asked, relative to |J|.
    """
    ws = _Buffers(pot, flow0.grid, flow0.time_grid)
    # mollifier frozen at the initialization's slice peaks
    ws.reg = _KINETIC_REG * flow0.values.max(axis=1, keepdims=True)
    start = ws.points[0]
    np.copyto(start, flow0.values)
    # the start's logs and force are taken on every row
    _edge_terms(ws, start, _momentum(ws, start, ws.m), ws.reg, ws.logs[0])
    J = _action(ws)
    run = _Rows(ws)
    try:
        eta = _ETA0
        pg_norm = np.inf
        iterations = 0
        cur, accepted = 0, False
        for iterations in range(1, config.max_outer + 1):
            run(_gradient_terms, cur, accepted)
            run(_cell_gradients)
            run(_direction, cur, eta)
            descent = float(np.sum(ws.scratch[2]))
            pg_norm = float(np.sqrt(np.sum(ws.tw * ws.sums[1] * ws.dx)))
            if pg_norm <= _TOL_GRAD:
                return ws.points[cur].copy(), J, pg_norm, iterations, "converged"
            run.share()
            accepted = False
            for attempt in range(_MAX_BACKTRACKS):
                if attempt:
                    # after 16 failures momentum is hampering: restart the ball
                    run(_candidate, cur, eta, attempt == 16)
                J_cand = run.evaluate(1 - cur)
                if J_cand <= J - _ARMIJO * eta * descent:
                    cur, J, accepted = 1 - cur, J_cand, True
                    eta = min(eta * _GROW, _ETA_MAX)
                    break
                tried = eta
                eta *= _BACKTRACK
            if not accepted:
                if stall is not None:
                    asked = _ARMIJO * tried * descent
                    stall.update(step=tried,
                                 armijo_decrease_rel=asked / abs(J) if J else math.inf)
                return ws.points[cur].copy(), J, pg_norm, iterations, "stalled"
        return ws.points[cur].copy(), J, pg_norm, iterations, "budget"
    finally:
        run.stop()


def _solve(pot: InteractionPotential, mu_in: Density, mu_fin: Density,
           sgrid: SpatialGrid, tgrid: TimeGrid, config: SolverConfig) -> BridgeSolution:
    """The body of solve_mfsb: validate, initialize, descend, then take the
    solved flow's corrector and reported cost."""
    _validate_endpoints(mu_in, mu_fin, sgrid)
    flow0 = _initial_flow(config.init, pot, mu_in, mu_fin, sgrid, tgrid)
    stall = {}
    mu, J, pg_norm, iters, status = _descend(pot, flow0, config, stall)
    flow = MarginalFlow(tgrid, sgrid, mu)
    psi = corrector(flow, velocity_from_flow(flow), pot)
    diagnostics = {
        "converged": status == "converged",
        "status": status,
        "iterations": iters,
        "pg_norm": pg_norm,
        "objective": J,
        "init": config.init,
        "starts": {config.init: {"cost": J, "pg_norm": pg_norm,
                                 "iterations": iters, "status": status}},
    }
    if stall:
        diagnostics["stall"] = stall
    return BridgeSolution(flow, psi, entropic_cost(psi, flow), diagnostics)


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
            _AHEAD[key] = None
            if _fork.spare_cpus() > 0:
                _AHEAD[key] = _fork.Child(_solve, *problem)
                _AHEAD[key].call()


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
