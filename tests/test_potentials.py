import numpy as np
import pytest

from mfsb import (
    InteractionPotential,
    conv_force,
    density_from_spec,
    interaction_energy,
)
from mfsb.grids import SpatialGrid, Density


@pytest.fixture
def grid():
    return SpatialGrid(8.0, 256)


def test_symmetry_and_hessian_bounds():
    z = np.linspace(-16, 16, 1001)
    for pot in (InteractionPotential.zero(),
                InteractionPotential.quadratic(0.7),
                InteractionPotential.gaussian_well(1.3, 0.9)):
        assert np.allclose(pot.w(z), pot.w(-z))
        assert np.all(pot.d2w(z) <= pot.hess_sup + 1e-12)
        assert pot.dw(0.5) == -pot.dw(-0.5)  # W' is odd, also at a scalar
    quad = InteractionPotential.quadratic(0.7)
    assert quad.kappa == quad.hess_sup == 0.7
    assert np.allclose(quad.d2w(z), 0.7)
    well = InteractionPotential.gaussian_well(1.3, 0.9)
    assert well.kappa == 0.0
    assert well.d2w(0.0) == pytest.approx(well.hess_sup)


def test_conv_force_zero_and_quadratic(grid):
    mu = density_from_spec(grid, {"kind": "gaussian", "mean": 0.3, "std": 0.9})
    assert np.all(conv_force(InteractionPotential.zero(), mu) == 0.0)
    force = conv_force(InteractionPotential.quadratic(0.5), mu)
    assert np.max(np.abs(force - 0.5 * (grid.centers - mu.mean()))) < 1e-12


def test_conv_force_direct_sum_matches_closed_form(grid):
    # the affine fast path agrees with the literal pairwise sum
    mu = density_from_spec(grid, {"kind": "mixture", "components": [
        {"weight": 0.5, "mean": -1.0, "std": 0.6},
        {"weight": 0.5, "mean": 1.0, "std": 0.6}]})
    quad = InteractionPotential.quadratic(0.8)
    direct = np.array([
        np.sum(quad.dw(x - grid.centers) * mu.values) * grid.dx
        for x in grid.centers
    ])
    assert np.max(np.abs(direct - conv_force(quad, mu))) < 1e-10


def test_quadratic_stack_actions_keep_every_bit_of_their_formulas(grid):
    # the descent's force and force adjoint on a stack of rows, each formed
    # in one array, round as the closed forms written out do
    rows = np.random.default_rng(7).uniform(size=(9, grid.n_cells))
    x, dx = grid.centers, grid.dx
    for pot in (InteractionPotential.zero(), InteractionPotential.quadratic(0.8)):
        force = pot.kappa * (x - (rows @ x * dx)[:, None])
        adjoint = -(pot.kappa * dx * np.sum(rows, axis=-1, keepdims=True) * x)
        assert pot.force(rows, grid).tobytes() == force.tobytes()
        assert pot.force_adjoint(rows, grid).tobytes() == adjoint.tobytes()


def test_conv_force_antisymmetry_and_mean_cancellation(grid):
    pot = InteractionPotential.gaussian_well(1.0, 1.0)
    mu = density_from_spec(grid, {"kind": "gaussian", "mean": 0.0, "std": 1.0})
    force = conv_force(pot, mu)
    # symmetric density, symmetric kernel: antisymmetric force
    assert np.max(np.abs(force + force[::-1])) < 1e-10
    # the force never moves the center of mass
    for p in (pot, InteractionPotential.quadratic(0.5)):
        mu2 = density_from_spec(grid, {"kind": "mixture", "components": [
            {"weight": 0.7, "mean": -0.5, "std": 0.5},
            {"weight": 0.3, "mean": 1.2, "std": 0.9}]})
        f = conv_force(p, mu2)
        assert abs(np.sum(f * mu2.values) * grid.dx) < 1e-10


def test_interaction_energy_oracles(grid):
    mu = density_from_spec(grid, {"kind": "gaussian", "mean": 0.0, "std": 1.0})
    assert interaction_energy(InteractionPotential.zero(), mu) == 0.0
    # E W(X - Y) = kappa/2 E (X - Y)^2 = kappa * Var for iid X, Y
    quad = InteractionPotential.quadratic(0.5)
    assert interaction_energy(quad, mu) == pytest.approx(0.5, abs=1e-3)
    # single occupied cell: W(0) = 0 for every kernel in the library
    point = np.zeros(grid.n_cells)
    point[100] = 1.0
    assert interaction_energy(quad, Density(grid, point)) == pytest.approx(0.0)


def test_interaction_energy_reflection_invariance(grid):
    pot = InteractionPotential.gaussian_well(1.0, 1.2)
    mu = density_from_spec(grid, {"kind": "mixture", "components": [
        {"weight": 0.6, "mean": -1.0, "std": 0.5},
        {"weight": 0.4, "mean": 1.5, "std": 0.8}]})
    mirrored = Density(grid, mu.values[::-1])
    assert interaction_energy(pot, mu) == pytest.approx(
        interaction_energy(pot, mirrored), abs=1e-12)


def test_hessian_kernel_term(grid):
    mu = density_from_spec(grid, {"kind": "gaussian", "mean": 0.0, "std": 1.0})
    quad = InteractionPotential.quadratic(1.0)
    psi_const = np.full(grid.n_cells, 3.7)
    assert np.max(np.abs(quad.hessian_term(mu.values, psi_const, grid))) < 1e-12
    assert np.all(InteractionPotential.zero().hessian_term(mu.values, grid.centers,
                                                            grid) == 0.0)
    # kappa (psi - mean psi) for the quadratic kernel with psi = x, mean zero
    term = quad.hessian_term(mu.values, grid.centers.copy(), grid)
    assert np.max(np.abs(term - grid.centers)) < 1e-12
    # generic kernel agrees with the direct double sum
    well = InteractionPotential.gaussian_well(0.8, 1.1)
    psi = np.sin(grid.centers)
    direct = np.array([
        np.sum(well.d2w(x - grid.centers) * (p - psi) * mu.values) * grid.dx
        for x, p in zip(grid.centers, psi)
    ])
    assert np.max(np.abs(direct - well.hessian_term(mu.values, psi, grid))) < 1e-10
