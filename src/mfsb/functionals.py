"""Free energy, equilibrium measure, Fisher information and corrector calculus.

The central objects are grid flows (mu_t) together with their tangent velocity
w, the corrector field Psi = w + (1/2) grad log mu + W' * mu, and the scalar
functionals built from them (entropic cost, free energy, conserved pairing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NonZeroMass, GridMismatch
from .grids import (
    BULK_REL,
    MASS_TOL,
    Density,
    GridField,
    MarginalFlow,
    SpatialGrid,
    divergence_inverse,
    grad,
    log_density_gradient,
    retained_mask,
    time_derivative,
)
from .potentials import InteractionPotential, conv_force, interaction_energy

_EQ_DAMPING = 0.5
_EQ_TOL = 1e-10
_EQ_MAX_ITERS = 2000
_EQ_MULTIPLIER_BOUNDS = (-50.0, 50.0)  # bracket of the mean multiplier b


@dataclass
class EquilibriumMeasure:
    """Minimizer of the free energy at a fixed mean."""

    density: Density
    mean_constraint: float
    fixed_point_residual: float


@dataclass
class BridgeSolution:
    """A solved bridge: marginal flow, tangent velocity, corrector and cost."""

    flow: MarginalFlow
    velocity: GridField
    corrector: GridField
    cost: float
    diagnostics: dict = field(default_factory=dict)


@dataclass
class ConservedProfile:
    """Interior-node profile of the pairing between forward and backward correctors."""

    times: np.ndarray
    values: np.ndarray
    mean: float
    spread: float


def free_energy(pot: InteractionPotential, mu: Density) -> float:
    """Entropy integral p log p plus the pair interaction energy."""
    return mu.entropy() + interaction_energy(pot, mu)


def equilibrium(pot: InteractionPotential, grid: SpatialGrid,
                mean: float) -> EquilibriumMeasure:
    """Fixed point of mu = normalize(exp(-2 W*mu + b x)) with mean pinned.

    The Lagrange multiplier b for the mean constraint is found by bisection at
    every outer iteration; the outer update is damped.  Requires kappa > 0.
    """
    if pot.kappa <= 0:
        raise ValueError("equilibrium requires a uniformly convex potential (kappa > 0)")
    x = grid.centers

    def solved_candidate(phi: np.ndarray) -> np.ndarray:
        lo, hi = _EQ_MULTIPLIER_BOUNDS
        for _ in range(200):
            b = 0.5 * (lo + hi)
            logits = phi + b * x
            vals = np.exp(logits - logits.max())
            vals /= vals.sum() * grid.dx
            m = np.sum(x * vals) * grid.dx
            if m < mean:
                lo = b
            else:
                hi = b
            if hi - lo < 1e-14:
                break
        return vals

    sigma2 = 1.0 / (2.0 * pot.kappa)
    mu = Density(grid, np.exp(-0.5 * (x - mean) ** 2 / sigma2))
    residual = np.inf
    for _ in range(_EQ_MAX_ITERS):
        phi = -2.0 * pot.potential(mu.values, grid)
        cand = solved_candidate(phi)
        residual = float(np.max(np.abs(cand - mu.values)))
        if residual <= _EQ_TOL:
            mu = Density(grid, cand)
            break
        mu = Density(grid, (1.0 - _EQ_DAMPING) * mu.values + _EQ_DAMPING * cand)
    else:
        raise NoConvergence(
            f"equilibrium fixed point stalled at residual {residual:.3e} "
            f"(tol {_EQ_TOL:.1e}); enlarge grid.half_width or raise grid.n_cells"
        )
    return EquilibriumMeasure(mu, mean, residual)


def relative_free_energy(pot: InteractionPotential, mu: Density,
                         equilibrium_measure: EquilibriumMeasure | None = None) -> float:
    """Free energy gap to the equilibrium measure with the same mean."""
    if equilibrium_measure is None:
        equilibrium_measure = equilibrium(pot, mu.grid, mu.mean())
    return free_energy(pot, mu) - free_energy(pot, equilibrium_measure.density)


def fisher_information(pot: InteractionPotential, mu: Density) -> float:
    """Integral of |grad log mu + 2 W' * mu|^2 against mu over retained cells."""
    score = log_density_gradient(mu.values, mu.grid.dx)
    force = conv_force(pot, mu)
    mask = retained_mask(mu.values)
    integrand = (score + 2.0 * force) ** 2 * mu.values
    return float(np.sum(integrand[mask]) * mu.grid.dx)


def momentum_from_flow(flow: MarginalFlow) -> np.ndarray:
    """Momentum rows solving the discrete continuity equation for the flow.

    Time derivatives are central at interior nodes and one-sided at the two
    endpoint nodes; each row is inverted to an edge-flux momentum that
    vanishes at the domain boundaries.
    """
    masses = flow.slice_masses()
    if np.max(np.abs(masses - masses[0])) > MASS_TOL:
        raise NonZeroMass("total mass drifts across flow slices")
    ddt = time_derivative(flow.values, flow.time_grid.dt)
    return divergence_inverse(-ddt, flow.grid.dx)


def center_momentum(m: np.ndarray) -> np.ndarray:
    """Average edge-indexed momentum onto cell centers (left boundary flux zero)."""
    c = np.empty_like(m)
    c[..., 0] = 0.5 * m[..., 0]
    c[..., 1:] = 0.5 * (m[..., 1:] + m[..., :-1])
    return c


def velocity_from_flow(flow: MarginalFlow) -> GridField:
    """Tangent velocity w = m / mu, zero on cells below the mass floor.

    The momentum is edge-indexed by construction; it is averaged back onto
    cell centers before dividing so velocity and density are colocated.
    """
    m = center_momentum(momentum_from_flow(flow))
    mask = retained_mask(flow.values)
    w = np.where(mask, m / np.where(mask, flow.values, 1.0), 0.0)
    return GridField(flow.time_grid, flow.grid, w)


def corrector(flow: MarginalFlow, velocity: GridField,
              pot: InteractionPotential) -> GridField:
    """Corrector field Psi = w + (1/2) grad log mu + W' * mu."""
    if velocity.values.shape != flow.values.shape:
        raise GridMismatch("velocity and flow shapes differ")
    score = log_density_gradient(flow.values, flow.grid.dx)
    force = pot.force(flow.values, flow.grid)
    return GridField(flow.time_grid, flow.grid, velocity.values + 0.5 * score + force)


def entropic_cost(psi: GridField, flow: MarginalFlow) -> float:
    """Cost (1/2) int int |Psi|^2 dmu dt, trapezoidal in time, midpoint in space."""
    if psi.values.shape != flow.values.shape:
        raise GridMismatch("corrector and flow shapes differ")
    tw = flow.time_grid.trapezoid_weights
    slicewise = 0.5 * np.sum(psi.values**2 * flow.values, axis=1) * flow.grid.dx
    return float(np.sum(tw * slicewise))


def backward_corrector(psi: GridField, flow: MarginalFlow,
                       pot: InteractionPotential) -> GridField:
    """Corrector of the time-reversed flow, indexed by reversed time.

    Applying the relation twice recovers the forward corrector exactly.
    """
    score = log_density_gradient(flow.values, flow.grid.dx)
    force = pot.force(flow.values, flow.grid)
    hat_forward_index = -psi.values + score + 2.0 * force
    return GridField(flow.time_grid, flow.grid, hat_forward_index[::-1].copy())


def conserved_quantity_profile(psi: GridField, psi_hat: GridField,
                               flow: MarginalFlow) -> ConservedProfile:
    """Pairing E(t) of the forward and backward correctors under the flow.

    Reported on interior nodes only (the middle three quarters of the grid)
    where the martingale structure is discretely meaningful.
    """
    n = flow.time_grid.n_steps
    ks = np.arange(n // 8, 7 * n // 8 + 1)
    vals = np.array([
        np.sum(psi.values[k] * psi_hat.values[n - k] * flow.values[k]) * flow.grid.dx
        for k in ks
    ])
    return ConservedProfile(
        times=flow.time_grid.nodes[ks],
        values=vals,
        mean=float(vals.mean()),
        spread=float(vals.max() - vals.min()),
    )


def schrodinger_potentials(sol: BridgeSolution, pot: InteractionPotential):
    """Potentials (psi, phi) with mu = exp(-2 W*mu + phi + psi) and HJB residuals.

    psi integrates the corrector in space, anchored per slice at the leftmost
    retained cell; phi closes the product form.  The two residuals are the
    coupled forward/backward HJB equations evaluated by finite differences on
    interior nodes, de-gauged by their mu-weighted spatial mean (both
    potentials are only defined up to a function of time).
    """
    flow, psi_field = sol.flow, sol.corrector
    grid, tg = flow.grid, flow.time_grid
    dx, dt = grid.dx, tg.dt
    mask = retained_mask(flow.values)

    n_nodes = tg.n_steps + 1
    psi_pot = np.zeros_like(flow.values)
    phi_pot = np.zeros_like(flow.values)
    wconv = pot.potential(flow.values, grid)
    force = pot.force(flow.values, grid)
    for k in range(n_nodes):
        idx = np.flatnonzero(mask[k])
        lo, hi = idx[0], idx[-1]
        interior = np.zeros(grid.n_cells)
        seg = psi_field.values[k, lo:hi + 1]
        acc = np.concatenate([[0.0], np.cumsum(0.5 * (seg[1:] + seg[:-1]) * dx)])
        interior[lo:hi + 1] = acc
        interior[:lo] = acc[0]
        interior[hi + 1:] = acc[-1]
        psi_pot[k] = interior
        logmu = np.log(np.maximum(flow.values[k], 1e-300))
        phi_pot[k] = logmu + 2.0 * wconv[k] - psi_pot[k]

    def hjb_residual(pot_vals: np.ndarray, gradient_field: np.ndarray, sign: float):
        # sign = +1 for the forward potential psi, -1 for the backward phi.
        # Forward time differences of interior slices only: the two endpoint
        # slices carry the one-sided corrector reconstruction.
        res = np.zeros_like(pot_vals)
        dpot_dt = (pot_vals[2:-1] - pot_vals[1:-2]) / dt
        # x -> int W'(x - y) (g(x) - g(y)) mu(dy), up to a constant per slice
        # (the quadratic closed-form adjoint drops one), which the de-gauging
        # below removes
        kern = (gradient_field * force
                + pot.force_adjoint(gradient_field * flow.values, grid))
        for j, k in enumerate(range(1, n_nodes - 2)):
            g = gradient_field[k]
            lap = grad(g, dx)
            r = sign * dpot_dt[j] + 0.5 * lap + 0.5 * g**2 - kern[k]
            w_slice = flow.values[k]
            r = r - np.sum(r * w_slice) * dx  # remove the free function of time
            res[k] = r
        # sup over the bulk: tail cells amplify finite-difference noise by
        # high-order derivative factors without carrying mass
        bulk = flow.values >= BULK_REL * flow.values.max(axis=1, keepdims=True)
        bulk[0] = bulk[-1] = bulk[-2] = False
        return float(np.max(np.abs(res[bulk]))) if bulk.any() else 0.0

    grad_psi = psi_field.values
    grad_phi = np.stack([grad(phi_pot[k], dx) for k in range(n_nodes)])
    residuals = {
        "hjb_forward_sup": hjb_residual(psi_pot, grad_psi, +1.0),
        "hjb_backward_sup": hjb_residual(phi_pot, grad_phi, -1.0),
    }
    return (
        GridField(tg, grid, psi_pot),
        GridField(tg, grid, phi_pot),
        residuals,
    )
