import signal

import pytest

from mfsb import (
    BridgeSolution,
    InteractionPotential,
    SolverConfig,
    SpatialGrid,
    TimeGrid,
    corrector,
    density_from_spec,
    entropic_cost,
    equilibrium,
    mkv_flow,
    solve_mfsb,
    velocity_from_flow,
)
from mfsb.solver import heat_interpolation_flow

from mfsb import _fork

# The desk-scale reference configuration: 256 cells on [-8, 8], 128 steps.


@pytest.fixture
def time_bound():
    """Fail a test whose forked child hangs, instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("a forked child did not end in time")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def blas_threads():
    """Set BLAS's thread count with the function this yields; the count is
    restored after the test."""
    get, put = _fork.blas_calls()
    before = get()
    yield put
    put(before)


@pytest.fixture(scope="session")
def grid256():
    return SpatialGrid(8.0, 256)


@pytest.fixture(scope="session")
def pot_quad05():
    return InteractionPotential.quadratic(0.5)


@pytest.fixture(scope="session")
def pot_zero():
    return InteractionPotential.zero()


@pytest.fixture(scope="session")
def pot_well():
    return InteractionPotential.gaussian_well(1.0, 1.0)


@pytest.fixture(scope="session")
def eq05(grid256, pot_quad05):
    return equilibrium(pot_quad05, grid256, 0.0)


@pytest.fixture(scope="session")
def std_gaussian(grid256):
    return density_from_spec(grid256, {"kind": "gaussian", "mean": 0.0, "std": 1.0})


@pytest.fixture(scope="session")
def asym_endpoints(grid256):
    mu_in = density_from_spec(grid256, {"kind": "mixture", "components": [
        {"weight": 0.6, "mean": -1.0, "std": 0.6},
        {"weight": 0.4, "mean": 1.5, "std": 0.8},
    ]})
    mu_fin = density_from_spec(grid256, {"kind": "gaussian", "mean": 0.0, "std": 1.1})
    return mu_in, mu_fin


@pytest.fixture(scope="session")
def sol_classical(grid256, pot_zero, std_gaussian):
    return solve_mfsb(pot_zero, std_gaussian, std_gaussian,
                      grid256, TimeGrid(1.0, 128))


@pytest.fixture(scope="session")
def heat_bridges(pot_zero):
    """The exact heat-kernel classical bridge of N(0, 1) to itself over T = 1,
    at 256 cells x 128 steps and 512 x 256, keyed by cell count."""
    bridges = {}
    for n_cells, n_steps in ((256, 128), (512, 256)):
        grid = SpatialGrid(8.0, n_cells)
        mu = density_from_spec(grid, {"kind": "gaussian", "mean": 0.0, "std": 1.0})
        flow = heat_interpolation_flow(mu, mu, grid, TimeGrid(1.0, n_steps))
        psi = corrector(flow, velocity_from_flow(flow), pot_zero)
        bridges[n_cells] = BridgeSolution(flow, psi, entropic_cost(psi, flow), {})
    return bridges


@pytest.fixture(scope="session")
def sol_asym(grid256, pot_quad05, asym_endpoints):
    mu_in, mu_fin = asym_endpoints
    return solve_mfsb(pot_quad05, mu_in, mu_fin, grid256, TimeGrid(4.0, 128))


@pytest.fixture(scope="session")
def sol_asym_rev(grid256, pot_quad05, asym_endpoints):
    mu_in, mu_fin = asym_endpoints
    return solve_mfsb(pot_quad05, mu_fin, mu_in, grid256, TimeGrid(4.0, 128))


@pytest.fixture(scope="session")
def sol_asym_t8(grid256, pot_quad05, asym_endpoints):
    mu_in, mu_fin = asym_endpoints
    return solve_mfsb(pot_quad05, mu_in, mu_fin, grid256, TimeGrid(8.0, 128))


@pytest.fixture(scope="session")
def sol_asym_t8_rev(grid256, pot_quad05, asym_endpoints):
    mu_in, mu_fin = asym_endpoints
    return solve_mfsb(pot_quad05, mu_fin, mu_in, grid256, TimeGrid(8.0, 128))


@pytest.fixture(scope="session")
def mkv_pair(grid256, pot_quad05):
    """Initial mixture, its self-interacting flow, and the bridge to its endpoint."""
    mu_in = density_from_spec(grid256, {"kind": "mixture", "components": [
        {"weight": 0.5, "mean": -1.0, "std": 0.7},
        {"weight": 0.5, "mean": 1.0, "std": 0.7},
    ]})
    tg = TimeGrid(4.0, 128)
    flow = mkv_flow(pot_quad05, mu_in, tg)
    sol = solve_mfsb(pot_quad05, mu_in, flow.density(tg.n_steps), grid256, tg,
                     SolverConfig(init="mkv"))
    return mu_in, flow, sol


@pytest.fixture(scope="session")
def sol_relax(grid256, pot_quad05, eq05):
    """Bridge from an over-spread Gaussian down to the equilibrium."""
    mu_in = density_from_spec(grid256, {"kind": "gaussian", "mean": 0.0, "std": 1.25})
    return solve_mfsb(pot_quad05, mu_in, eq05.density, grid256, TimeGrid(4.0, 128))
