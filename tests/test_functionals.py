import numpy as np
import pytest

from mfsb import (
    FreeEnergyGauge,
    InteractionPotential,
    NoConvergence,
    MarginalFlow,
    SpatialGrid,
    TimeGrid,
    backward_corrector,
    conserved_quantity_profile,
    corrector,
    density_from_spec,
    entropic_cost,
    equilibrium,
    fisher_information,
    free_energy,
    time_reverse,
    velocity_from_flow,
)
from mfsb.functionals import momentum_from_flow
from mfsb.grids import GridField
from oracles import gaussian_entropy_integral, gaussian_relative_free_energy


@pytest.fixture(scope="module")
def wide_grid():
    # sigma up to sqrt(2) needs a wider box to keep boundary mass negligible
    return SpatialGrid(10.0, 320)


def heat_flow(grid, tg, v0=1.0):
    """Analytic free-diffusion marginals from a centered Gaussian."""
    vals = np.stack([
        np.exp(-0.5 * grid.centers**2 / (v0 + t)) / np.sqrt(2 * np.pi * (v0 + t))
        for t in tg.nodes
    ])
    vals /= vals.sum(axis=1, keepdims=True) * grid.dx
    return MarginalFlow(tg, grid, vals)


def stationary_flow(density, tg):
    return MarginalFlow(tg, density.grid,
                        np.repeat(density.values[None, :], tg.n_steps + 1, axis=0))


# ----------------------------------------------------------------- free energy


def test_free_energy_gaussian(grid256, pot_zero):
    mu = density_from_spec(grid256, {"kind": "gaussian", "mean": 0.0, "std": 1.0})
    assert free_energy(pot_zero, mu) == pytest.approx(
        gaussian_entropy_integral(1.0), abs=1e-3)


def test_free_energy_quadratic_addition(grid256, pot_quad05):
    mu = density_from_spec(grid256, {"kind": "gaussian", "mean": 0.0, "std": 1.0})
    expected = gaussian_entropy_integral(1.0) + 0.5
    assert free_energy(pot_quad05, mu) == pytest.approx(expected, abs=2e-3)


def test_free_energy_uniform(grid256, pot_zero):
    mu = density_from_spec(grid256, {"kind": "histogram",
                                     "values": np.ones(grid256.n_cells)})
    assert free_energy(pot_zero, mu) == pytest.approx(-np.log(16.0), abs=1e-9)


# ----------------------------------------------------------------- equilibrium


@pytest.mark.parametrize("kappa", [0.5, 2.0])
def test_equilibrium_variance(grid256, kappa):
    pot = InteractionPotential.quadratic(kappa)
    eq = equilibrium(pot, grid256, 0.0)
    assert eq.fixed_point_residual <= 1e-10
    assert eq.density.variance() == pytest.approx(1.0 / (2 * kappa), abs=1e-3)
    assert eq.density.mean() == pytest.approx(0.0, abs=1e-8)


def test_equilibrium_shifted_mean(grid256):
    pot = InteractionPotential.quadratic(2.0)
    eq = equilibrium(pot, grid256, 1.0)
    assert eq.density.mean() == pytest.approx(1.0, abs=1e-8)
    assert eq.density.variance() == pytest.approx(0.25, abs=1e-3)


def test_equilibrium_is_fixed_point(grid256, pot_quad05, eq05):
    again = equilibrium(pot_quad05, grid256, eq05.density.mean())
    assert again.fixed_point_residual <= 1e-10
    assert np.max(np.abs(again.density.values - eq05.density.values)) < 1e-9


def test_equilibrium_requires_convexity(grid256):
    with pytest.raises(ValueError):
        equilibrium(InteractionPotential.zero(), grid256, 0.0)


def test_equilibrium_stall_names_what_a_scenario_can_change(grid256, pot_quad05,
                                                             monkeypatch):
    from mfsb import functionals
    monkeypatch.setattr(functionals, "_EQ_TOL", 0.0)  # unreachable
    monkeypatch.setattr(functionals, "_EQ_MAX_ITERS", 3)
    with pytest.raises(NoConvergence, match="grid.half_width") as err:
        equilibrium(pot_quad05, grid256, 0.0)
    assert "damping" not in str(err.value)


# ------------------------------------------------------- relative free energy


def _relative(pot, mu):
    """Free energy of mu relative to the equilibrium at its own mean."""
    return FreeEnergyGauge(pot, mu.grid, mu.mean()).relative(mu)


def test_relative_free_energy_values(wide_grid, pot_quad05):
    for variance in (2.0, 0.5):
        mu = density_from_spec(wide_grid, {"kind": "gaussian", "mean": 0.0,
                                           "std": np.sqrt(variance)})
        assert _relative(pot_quad05, mu) == pytest.approx(
            gaussian_relative_free_energy(0.5, variance), abs=2e-3)


def test_relative_free_energy_vanishes_at_equilibrium(grid256, pot_quad05, eq05):
    gauge = FreeEnergyGauge(pot_quad05, grid256, eq05.mean_constraint)
    assert gauge.relative(eq05.density) == pytest.approx(0, abs=1e-8)


def test_relative_free_energy_nonnegative(grid256, pot_quad05):
    rng = np.random.default_rng(5)
    for _ in range(5):
        mu = density_from_spec(grid256, {"kind": "mixture", "components": [
            {"weight": w, "mean": m, "std": s}
            for w, m, s in zip(rng.uniform(0.2, 1, 2),
                               rng.uniform(-1.5, 1.5, 2),
                               rng.uniform(0.4, 1.0, 2))]})
        assert _relative(pot_quad05, mu) >= -5e-3


def test_log_sobolev_inequality(grid256):
    # dissipation dominates the free-energy gap: I >= 4 kappa F
    rng = np.random.default_rng(8)
    for kappa in (0.5, 2.0):
        pot = InteractionPotential.quadratic(kappa)
        for _ in range(4):
            mu = density_from_spec(grid256, {"kind": "mixture", "components": [
                {"weight": w, "mean": m, "std": s}
                for w, m, s in zip(rng.uniform(0.2, 1, 2),
                                   rng.uniform(-1.0, 1.0, 2),
                                   rng.uniform(0.4, 0.9, 2))]})
            lhs = fisher_information(pot, mu)
            rhs = 4 * kappa * _relative(pot, mu)
            assert lhs >= rhs - 1e-3


# ----------------------------------------------------------------- fisher info


def test_fisher_information_gaussian(grid256, pot_zero):
    for v in (1.0, 0.64):
        mu = density_from_spec(grid256, {"kind": "gaussian", "mean": 0.0,
                                         "std": np.sqrt(v)})
        assert fisher_information(pot_zero, mu) == pytest.approx(1 / v, rel=1e-2)


def test_fisher_information_quadratic_gaussian(grid256):
    pot = InteractionPotential.quadratic(0.3)
    for v in (1.0, 0.8):
        mu = density_from_spec(grid256, {"kind": "gaussian", "mean": 0.0,
                                         "std": np.sqrt(v)})
        expected = (1 / v) * (1 - 2 * 0.3 * v) ** 2
        assert fisher_information(pot, mu) == pytest.approx(expected, rel=1e-2)


def test_fisher_information_equilibrium(pot_quad05, eq05):
    assert fisher_information(pot_quad05, eq05.density) <= 1e-6


# ------------------------------------------------------- velocity and corrector


def test_velocity_constant_flow(grid256, eq05):
    tg = TimeGrid(1.0, 16)
    w = velocity_from_flow(stationary_flow(eq05.density, tg))
    assert np.max(np.abs(w.values)) < 1e-12


def test_velocity_translating_profile():
    # profile translating at one cell per step: w ~ dx/dt on the bulk
    grid = SpatialGrid(8.0, 256)
    tg = TimeGrid(1.0, 16)
    speed = grid.dx / tg.dt
    base = np.exp(-0.5 * grid.centers**2 / 0.64)
    vals = np.stack([np.roll(base, k) for k in range(tg.n_steps + 1)])
    vals /= vals.sum(axis=1, keepdims=True) * grid.dx
    flow = MarginalFlow(tg, grid, vals)
    w = velocity_from_flow(flow)
    k = tg.n_steps // 2
    bulk = flow.values[k] >= 0.2 * flow.values[k].max()
    assert np.median(w.values[k][bulk]) == pytest.approx(speed, rel=0.05)


def test_velocity_advection_round_trip():
    # advect a slice with the recovered velocity: first-order consistency
    grid = SpatialGrid(8.0, 256)
    tg = TimeGrid(0.5, 64)
    flow = heat_flow(grid, tg)
    w = velocity_from_flow(flow)
    k = 32
    p, vel = flow.values[k], w.values[k]
    flux = vel * p
    adv = p.copy()
    adv[1:-1] -= tg.dt * (flux[2:] - flux[:-2]) / (2 * grid.dx)
    assert np.max(np.abs(adv - flow.values[k + 1])) <= 5 * grid.dx * tg.dt


def test_corrector_equilibrium_flow(grid256, pot_quad05, eq05):
    tg = TimeGrid(1.0, 16)
    flow = stationary_flow(eq05.density, tg)
    psi = corrector(flow, velocity_from_flow(flow), pot_quad05)
    mask = flow.values >= 1e-12 * flow.values.max()
    assert np.max(np.abs(psi.values[mask])) < 1e-6


def test_corrector_heat_flow_vanishes(pot_zero):
    # free diffusion carries zero corrector: w = -(1/2) grad log mu.
    # The box must keep the final boundary mass below the truncation gate,
    # otherwise the leaked flux dominates; interior slices only (the endpoint
    # reconstruction is one-sided).
    grid = SpatialGrid(10.0, 640)
    tg = TimeGrid(1.0, 128)
    flow = heat_flow(grid, tg)
    psi = corrector(flow, velocity_from_flow(flow), pot_zero)
    slice_norms = np.sqrt(np.sum(psi.values**2 * flow.values, axis=1) * grid.dx)
    assert np.max(slice_norms[1:-1]) <= 1e-4


def test_corrector_potential_shift(grid256, pot_zero, pot_quad05):
    # swapping the kernel shifts the corrector by exactly the force difference
    tg = TimeGrid(1.0, 16)
    flow = heat_flow(grid256, tg)
    w = velocity_from_flow(flow)
    psi0 = corrector(flow, w, pot_zero)
    psi1 = corrector(flow, w, pot_quad05)
    for k in (0, 8, 16):
        mu = flow.density(k)
        expected = 0.5 * (grid256.centers - mu.mean())
        assert np.max(np.abs(psi1.values[k] - psi0.values[k] - expected)) < 1e-10


# -------------------------------------------------------------- entropic cost


def test_entropic_cost_trivial(grid256, eq05):
    tg = TimeGrid(1.0, 16)
    flow = stationary_flow(eq05.density, tg)
    zero = GridField(tg, grid256, np.zeros_like(flow.values))
    assert entropic_cost(zero, flow) == 0.0
    ones = GridField(tg, grid256, np.ones_like(flow.values))
    assert entropic_cost(ones, flow) == pytest.approx(0.5, abs=1e-10)


# ---------------------------------------------------------------- time reversal


def test_time_reverse_contracts(grid256):
    tg = TimeGrid(1.0, 8)
    flow = heat_flow(grid256, tg)
    rev = time_reverse(flow)
    assert np.array_equal(rev.values, flow.values[::-1])
    assert np.array_equal(time_reverse(rev).values, flow.values)


def test_backward_corrector_equilibrium(grid256, pot_quad05, eq05):
    tg = TimeGrid(1.0, 16)
    flow = stationary_flow(eq05.density, tg)
    zero = GridField(tg, grid256, np.zeros_like(flow.values))
    hat = backward_corrector(zero, flow, pot_quad05)
    mask = flow.values >= 1e-12 * flow.values.max()
    assert np.max(np.abs(hat.values[mask])) < 1e-6


def test_backward_corrector_involution(grid256, pot_quad05):
    tg = TimeGrid(1.0, 16)
    flow = heat_flow(grid256, tg)
    rng = np.random.default_rng(4)
    psi = GridField(tg, grid256, rng.normal(size=flow.values.shape))
    hat = backward_corrector(psi, flow, pot_quad05)
    back = backward_corrector(hat, time_reverse(flow), pot_quad05)
    assert np.max(np.abs(back.values - psi.values)) < 1e-10


def test_backward_corrector_heat_flow_score(grid256, pot_zero):
    # zero forward corrector on free diffusion: the backward one is the score
    tg = TimeGrid(1.0, 32)
    flow = heat_flow(grid256, tg)
    zero = GridField(tg, grid256, np.zeros_like(flow.values))
    hat = backward_corrector(zero, flow, pot_zero)
    k = 8  # reversed index: forward slice n - k
    fwd = tg.n_steps - k
    variance = 1.0 + tg.nodes[fwd]
    expected = -grid256.centers / variance
    bulk = flow.values[fwd] >= 1e-6 * flow.values[fwd].max()
    assert np.max(np.abs(hat.values[k][bulk] - expected[bulk])) < 1e-6


# ------------------------------------------------------------ conserved pairing


def test_conserved_profile_zero_field(grid256, eq05):
    tg = TimeGrid(1.0, 32)
    flow = stationary_flow(eq05.density, tg)
    zero = GridField(tg, grid256, np.zeros_like(flow.values))
    prof = conserved_quantity_profile(zero, zero, flow)
    assert np.all(prof.values == 0.0)
    assert prof.spread == 0.0


def test_conserved_profile_equilibrium_bridge(grid256, pot_quad05, eq05):
    tg = TimeGrid(1.0, 32)
    flow = stationary_flow(eq05.density, tg)
    psi = corrector(flow, velocity_from_flow(flow), pot_quad05)
    hat = backward_corrector(psi, flow, pot_quad05)
    prof = conserved_quantity_profile(psi, hat, flow)
    assert np.max(np.abs(prof.values)) < 1e-6


# ------------------------------------------------------------- momentum checks


def test_momentum_matches_continuity(grid256):
    from mfsb.grids import divergence, time_derivative
    tg = TimeGrid(1.0, 32)
    flow = heat_flow(grid256, tg)
    m = momentum_from_flow(flow)
    residual = time_derivative(flow.values, tg.dt) + divergence(m, grid256.dx)
    assert np.max(np.abs(residual)) < 1e-8
