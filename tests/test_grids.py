import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfsb import (
    Density,
    GridMismatch,
    MarginalFlow,
    NonZeroMass,
    SpatialGrid,
    TimeGrid,
    density_from_spec,
    divergence,
    divergence_inverse,
    grad,
    wasserstein1,
)
from mfsb import _fork
from oracles import (brute_force_path_distance, gaussian_entropy_integral,
                     path_distance)


@pytest.fixture
def grid():
    return SpatialGrid(8.0, 160)


def test_grid_invariants(grid):
    assert grid.dx == pytest.approx(0.1)
    assert np.all(np.diff(grid.centers) > 0)
    assert grid.centers[0] == pytest.approx(-8.0 + 0.05)
    with pytest.raises(ValueError):
        SpatialGrid(8.0, 4)
    with pytest.raises(ValueError):
        SpatialGrid(-1.0, 64)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 2)


def test_grad_constant_and_linear(grid):
    assert np.allclose(grad(np.ones(grid.n_cells), grid.dx), 0.0)
    g = grad(grid.centers.copy(), grid.dx)
    assert np.allclose(g[1:-1], 1.0, atol=1e-12)


def test_grad_quadratic_exact_interior():
    # central difference is exact for quadratics (f = x^2 near x = 0.5, dx = 0.1)
    grid = SpatialGrid(8.0, 160)
    g = grad(grid.centers**2, grid.dx)
    near = np.abs(grid.centers - 0.5) <= 0.11
    assert np.max(np.abs(g[near] - 2 * grid.centers[near])) < 1e-10


def test_divergence_inverse_round_trip(grid):
    # derivative of a bump, inverted, recovers the bump through the
    # compatible divergence
    bump = np.exp(-grid.centers**2)
    source = divergence(bump, grid.dx)
    source -= source.sum() / grid.n_cells  # enforce exact zero integral
    m = divergence_inverse(source, grid.dx)
    assert np.max(np.abs(divergence(m, grid.dx) - source)) < 1e-10
    assert abs(m[-1]) <= 1e-8 * np.linalg.norm(source)


def test_divergence_inverse_zero_and_parity(grid):
    assert np.allclose(divergence_inverse(np.zeros(grid.n_cells), grid.dx), 0.0)
    # even source -> antiderivative odd in the edge coordinate
    even = np.exp(-grid.centers**2) * grid.centers**2
    even -= even.sum() / grid.n_cells
    m = divergence_inverse(even, grid.dx)
    # m[i] is the flux at the right edge of cell i; reflection maps edge i
    # to edge n - 2 - i
    inner = m[:-1]
    assert np.max(np.abs(inner + inner[::-1])) < 1e-10


def test_divergence_inverse_rejects_unbalanced(grid):
    with pytest.raises(NonZeroMass):
        divergence_inverse(np.ones(grid.n_cells), grid.dx)


def test_density_normalization_and_moments(grid):
    d = density_from_spec(grid, {"kind": "gaussian", "mean": 0.5, "std": 0.8})
    assert d.mass() == pytest.approx(1.0, abs=1e-12)
    assert d.mean() == pytest.approx(0.5, abs=1e-9)
    assert d.variance() == pytest.approx(0.64, abs=1e-6)
    assert d.entropy() == pytest.approx(gaussian_entropy_integral(0.8), abs=1e-3)


@pytest.mark.parametrize("n_rows, n_cells", [(129, 256), (33, 1024)])
def test_mean_of_a_stack_is_bitwise_the_mean_of_each_row(n_rows, n_cells):
    grid = SpatialGrid(8.0, n_cells)
    stack = np.random.default_rng(n_cells).random((n_rows, n_cells))
    rows = np.array([grid.mean(row) for row in stack])
    assert grid.mean(stack).tobytes() == rows.tobytes()


@pytest.mark.parametrize("n_rows, n_cells", [(2049, 256), (513, 1024), (257, 2048)])
def test_mean_trajectory_bytes_do_not_depend_on_the_blas_thread_count(n_rows, n_cells):
    # at these shapes a BLAS matrix-vector product gives other bits on one
    # thread than on two
    calls = _fork.blas_calls()
    if calls is None:
        pytest.skip("numpy's BLAS has no thread-count calls")
    get, put = calls
    flow = MarginalFlow(TimeGrid(1.0, n_rows - 1), SpatialGrid(8.0, n_cells),
                        np.random.default_rng(n_rows).random((n_rows, n_cells)))
    before = get()
    try:
        means = []
        for threads in (1, 2):
            put(threads)
            means.append(flow.mean_trajectory().tobytes())
    finally:
        put(before)
    assert means[0] == means[1]


def test_cumulative_trapezoid_is_exact_for_linear_values():
    tg = TimeGrid(2.0, 8)  # dt = 1/4: every rounding below is exact
    t = tg.nodes
    cumulative = tg.cumulative_trapezoid(3.0 + 2.0 * t)
    assert cumulative[0] == 0.0
    assert np.array_equal(cumulative, 3.0 * t + t**2)
    assert cumulative[-1] == np.sum(tg.trapezoid_weights * (3.0 + 2.0 * t))


def test_density_from_spec_variants(grid):
    mix = density_from_spec(grid, {"kind": "mixture", "components": [
        {"weight": 0.3, "mean": -1.0, "std": 0.5},
        {"weight": 0.7, "mean": 1.0, "std": 0.5},
    ]})
    assert mix.mass() == pytest.approx(1.0, abs=1e-12)
    assert mix.mean() == pytest.approx(0.3 * (-1.0) + 0.7 * 1.0, abs=1e-9)
    hist = density_from_spec(grid, {"kind": "histogram",
                                    "values": np.ones(grid.n_cells)})
    assert hist.values[0] == pytest.approx(1.0 / 16.0)
    with pytest.raises(ValueError):
        density_from_spec(grid, {"kind": "cauchy"})
    with pytest.raises(ValueError):
        Density(grid, -np.ones(grid.n_cells))


@pytest.mark.parametrize("spec, message", [
    ({"kind": "gaussian", "mean": 0.0, "std": 1e-160}, "no mass"),
    ({"kind": "mixture", "components": [{"weight": 1.0, "mean": 0.0,
                                         "std": 1e-160}]}, "no mass"),
    ({"kind": "mixture", "components": [{"weight": float("inf"), "mean": 0.0,
                                         "std": 1e-160}]}, "finite"),
], ids=["gaussian", "mixture", "mixture-infinite-weight"])
def test_density_from_spec_overflowing_bump_raises_without_warning(grid, spec,
                                                                   message):
    # no cell centre lies within 1e-158 of the mean: every bump value is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            density_from_spec(grid, spec)


def test_wasserstein1_identity_and_shift(grid):
    a = density_from_spec(grid, {"kind": "gaussian", "mean": 0.0, "std": 1.0})
    assert wasserstein1(a, a) == 0.0
    shift_cells = 7
    b = Density(grid, np.roll(a.values, shift_cells))
    delta = shift_cells * grid.dx
    assert wasserstein1(a, b) == pytest.approx(delta, abs=grid.dx)
    other = SpatialGrid(8.0, 200)
    with pytest.raises(GridMismatch):
        wasserstein1(a, density_from_spec(other, {"kind": "gaussian",
                                                  "mean": 0.0, "std": 1.0}))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       st.lists(st.floats(0.3, 1.2), min_size=3, max_size=3))
def test_wasserstein1_metric_properties(means, stds):
    grid = SpatialGrid(8.0, 128)
    ds = [density_from_spec(grid, {"kind": "gaussian", "mean": m, "std": s})
          for m, s in zip(means, stds)]
    d01, d10 = wasserstein1(ds[0], ds[1]), wasserstein1(ds[1], ds[0])
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert wasserstein1(ds[0], ds[0]) <= 1e-12
    assert wasserstein1(ds[0], ds[2]) <= d01 + wasserstein1(ds[1], ds[2]) + 1e-12


def test_path_distance_trivial_and_shift():
    rng = np.random.default_rng(1)
    paths = rng.normal(size=(12, 9)).cumsum(axis=1)
    assert path_distance(paths, paths) == 0.0
    assert path_distance(paths, paths + 0.37) == pytest.approx(0.37, abs=1e-12)


def test_path_distance_matches_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(5):
        a = rng.normal(size=(5, 7)).cumsum(axis=1)
        b = rng.normal(size=(5, 7)).cumsum(axis=1)
        assert path_distance(a, b) == pytest.approx(
            brute_force_path_distance(a, b), abs=1e-12)
