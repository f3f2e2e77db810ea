import inspect
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfsb import (
    CFLViolation,
    FreeEnergyGauge,
    InteractionPotential,
    SpatialGrid,
    TimeGrid,
    TooLarge,
    density_from_spec,
    mkv_flow,
    noise_ensemble,
    simulate_particles,
    tanaka_theta,
    wasserstein1,
)
from mfsb import _fork, cli, dynamics
from mfsb.dynamics import (_DRIFT_RESOLUTION_LIMIT, _THETA_WINDOW, THETA_TOL,
                           _fp_banded, _solve_tridiagonal, interaction_drift)
from mfsb.errors import NoConvergence
from mfsb.scenario import load_scenario
from oracles import (dense_drift, empirical_density_w1, kernel_derivative,
                     mkv_gaussian_variance, path_distance, reference_theta,
                     theta_sweep)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="module")
def tg():
    return TimeGrid(1.0, 128)


# ------------------------------------------------------------- particle system


KERNELS = [{"kind": "zero"}, {"kind": "quadratic", "kappa": 0.7},
           {"kind": "gaussian-well", "amplitude": 1.3, "width": 0.4}]
BLOCK = inspect.signature(interaction_drift).parameters["chunk"].default


@pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s["kind"])
@pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 600])
def test_interaction_drift_matches_dense_pair_sum(spec, n):
    pot = InteractionPotential.from_spec(spec)
    x = np.random.default_rng(n).normal(0.0, 1.5, n)
    expected = dense_drift(spec, x)
    for chunk in (1, 7, BLOCK - 1, BLOCK, n + 5):
        assert np.allclose(interaction_drift(pot, x, chunk=chunk), expected,
                           rtol=0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNELS),
       st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=150),
       st.integers(1, 200))
def test_interaction_drift_pairs_cancel(spec, x, chunk):
    # W' is odd, so each pair adds opposite amounts to its two particles
    x = np.array(x)
    drift = interaction_drift(InteractionPotential.from_spec(spec), x, chunk=chunk)
    scale = np.max(np.abs(kernel_derivative(spec)(x[:, None] - x[None, :])))
    assert abs(drift.sum()) <= 8 * x.size * np.finfo(float).eps * max(scale, 1.0)


def test_free_particles_diffuse(grid256, pot_zero, std_gaussian, tg):
    ens = simulate_particles(pot_zero, std_gaussian, tg, 2000, seed=42)
    displacement = ens.positions[:, -1] - ens.positions[:, 0]
    se = np.sqrt(2.0 / 2000)  # variance of the sample variance of N(0, 1)
    assert displacement.var() == pytest.approx(1.0, abs=3 * se)


def test_interacting_mean_is_martingale(grid256, pot_quad05, std_gaussian, tg):
    # the pair force cancels in the ensemble mean
    ens = simulate_particles(pot_quad05, std_gaussian, tg, 2000, seed=43)
    drift_of_mean = abs(ens.positions[:, -1].mean() - ens.positions[:, 0].mean())
    assert drift_of_mean <= 3 * np.sqrt(tg.horizon / 2000)


def test_simulation_bitwise_deterministic(grid256, pot_quad05, std_gaussian, tg):
    a = simulate_particles(pot_quad05, std_gaussian, tg, 256, seed=7)
    b = simulate_particles(pot_quad05, std_gaussian, tg, 256, seed=7)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.increments, b.increments)
    c = simulate_particles(pot_quad05, std_gaussian, tg, 256, seed=8)
    assert not np.array_equal(a.positions, c.positions)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_simulation_rejects_a_seed_beyond_64_bits(pot_zero, std_gaussian, tg, seed):
    # reduced modulo 2**64, -1 would give the ensemble of 2**64 - 1
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        simulate_particles(pot_zero, std_gaussian, tg, 4, seed=seed)
    assert simulate_particles(pot_zero, std_gaussian, tg, 4, seed=2**64 - 1).seed == 2**64 - 1


def test_increment_variance_sanity(grid256, pot_zero, std_gaussian, tg):
    ens = simulate_particles(pot_zero, std_gaussian, tg, 500, seed=5)
    ratio = ens.increments.var() / tg.dt
    assert 0.8 <= ratio <= 1.2


def test_iid_initialization_mode(grid256, pot_zero, std_gaussian, tg):
    ens = simulate_particles(pot_zero, std_gaussian, tg, 4000, seed=11,
                             init="iid")
    assert ens.positions[:, 0].mean() == pytest.approx(0.0, abs=3 / np.sqrt(4000))
    with pytest.raises(ValueError):
        simulate_particles(pot_zero, std_gaussian, tg, 16, seed=1, init="sobol")


# ----------------------------------------------------------- noise-to-path map


def test_theta_identity_for_free_noise(grid256, pot_zero, std_gaussian, tg):
    ens = simulate_particles(pot_zero, std_gaussian, tg, 64, seed=3)
    mapped = tanaka_theta(pot_zero, noise_ensemble(ens))
    assert np.max(np.abs(mapped.positions - ens.positions)) < 1e-12


@pytest.mark.parametrize("pot_name", ["zero", "quadratic", "gaussian-well"])
def test_theta_push_forward_identity(grid256, std_gaussian, tg, pot_name):
    pot = {
        "zero": InteractionPotential.zero(),
        "quadratic": InteractionPotential.quadratic(0.5),
        "gaussian-well": InteractionPotential.gaussian_well(1.0, 1.0),
    }[pot_name]
    ens = simulate_particles(pot, std_gaussian, tg, 64, seed=17)
    mapped = tanaka_theta(pot, noise_ensemble(ens))
    assert np.max(np.abs(mapped.positions - ens.positions)) <= 5e-10


class DriftLog:
    """Wraps drifts so that each call appends its process id to a file, from
    this process and from a forked drift helper alike."""

    def __init__(self, path):
        self.path = path

    def wrap(self, drift, parent_delay=0.0):
        """drift, logged; in this process each call first sleeps parent_delay
        seconds, so that a helper takes nodes meanwhile."""
        parent = os.getpid()

        def logged(pot, x):
            with open(self.path, "ab", buffering=0) as log:  # one appending write
                log.write(b"%d\n" % os.getpid())
            if os.getpid() == parent:
                time.sleep(parent_delay)
            return drift(pot, x)
        return logged

    def pids(self) -> list:
        return [int(pid) for pid in self.path.read_text().split()]


@pytest.fixture
def drift_log(tmp_path):
    return DriftLog(tmp_path / "drift_calls")


def _each_theta_mode(monkeypatch):
    """Make tanaka_theta see no idle CPU, then one, which it gives a drift
    helper; yields the name of each mode."""
    for mode, spare in (("serial", 0), ("helper", 1)):
        monkeypatch.setattr(_fork, "spare_cpus", lambda spare=spare: spare)
        yield mode


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _fork._RUNNING == set()


def _in_helper(drift, substitute):
    """drift in this process, substitute in any other."""
    parent = os.getpid()
    return lambda pot, x: (drift if os.getpid() == parent else substitute)(pot, x)


@pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s["kind"])
def test_windowed_theta_is_the_global_picard_fixed_point(std_gaussian, tg, spec,
                                                         monkeypatch, time_bound):
    pot = InteractionPotential.from_spec(spec)
    noise = noise_ensemble(simulate_particles(pot, std_gaussian, tg, 64, seed=17))
    reference = reference_theta(pot, noise).positions
    for _ in _each_theta_mode(monkeypatch):
        mapped = tanaka_theta(pot, noise).positions
        assert np.max(np.abs(mapped - reference)) <= 2 * THETA_TOL
        # the global stopping test of plain Picard iteration holds at the result
        assert np.max(np.abs(theta_sweep(pot, noise, mapped) - mapped)) <= THETA_TOL
        _assert_no_child()


@pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s["kind"])
def test_helper_theta_is_bitwise_the_serial_one(std_gaussian, spec, monkeypatch,
                                                drift_log, time_bound):
    pot = InteractionPotential.from_spec(spec)
    noise = noise_ensemble(simulate_particles(pot, std_gaussian, TimeGrid(1.0, 24),
                                              48, seed=29))
    monkeypatch.setattr(_fork, "spare_cpus", lambda: 0)
    serial = tanaka_theta(pot, noise).positions
    monkeypatch.setattr(_fork, "spare_cpus", lambda: 1)
    monkeypatch.setattr(dynamics, "interaction_drift",
                        drift_log.wrap(interaction_drift, parent_delay=1e-3))
    helped = tanaka_theta(pot, noise).positions
    assert len(set(drift_log.pids())) == 2  # the helper evaluated nodes
    assert helped.shape == serial.shape and helped.flags.c_contiguous
    assert helped.tobytes() == serial.tobytes()
    _assert_no_child()


def test_theta_drift_calls_on_the_shipped_particle_scenario(monkeypatch, tmp_path,
                                                            time_bound):
    sc = load_scenario(SCENARIOS / "gaussian_well_particles.json")
    noise = noise_ensemble(simulate_particles(
        sc.potential, sc.mu_in(), sc.time_grid, sc.n_particles, sc.seed))
    calls = {}
    for mode in _each_theta_mode(monkeypatch):
        log = DriftLog(tmp_path / mode)
        monkeypatch.setattr(dynamics, "interaction_drift", log.wrap(interaction_drift))
        tanaka_theta(sc.potential, noise)
        calls[mode] = len(log.pids())
    # the helper's calls count too; plain Picard over the whole horizon
    # makes 10 sweeps of 128 calls here
    assert calls["helper"] == calls["serial"] <= 600


def test_theta_stall_names_its_window(monkeypatch, std_gaussian, tg, pot_zero,
                                      tmp_path, time_bound):
    noise = noise_ensemble(simulate_particles(pot_zero, std_gaussian, tg, 4, seed=5))
    for mode in _each_theta_mode(monkeypatch):
        log = DriftLog(tmp_path / mode)
        monkeypatch.setattr(dynamics, "interaction_drift",
                            log.wrap(lambda pot, x: np.full_like(x, np.nan)))
        with pytest.raises(NoConvergence,
                           match=r"window \[0, 0\.0625\].*last sweep change nan"):
            tanaka_theta(pot_zero, noise)
        assert len(log.pids()) <= _THETA_WINDOW
        _assert_no_child()


def test_theta_stall_on_a_nan_drift_from_the_helper(monkeypatch, std_gaussian, tg,
                                                    pot_zero, drift_log, time_bound):
    monkeypatch.setattr(_fork, "spare_cpus", lambda: 1)
    noise = noise_ensemble(simulate_particles(pot_zero, std_gaussian, tg, 4, seed=5))
    nan_in_helper = _in_helper(interaction_drift, lambda pot, x: np.full_like(x, np.nan))
    monkeypatch.setattr(dynamics, "interaction_drift",
                        drift_log.wrap(nan_in_helper, parent_delay=0.05))
    with pytest.raises(NoConvergence,
                       match=r"window \[0, 0\.0625\].*last sweep change nan"):
        tanaka_theta(pot_zero, noise)
    pids = drift_log.pids()
    assert len(pids) == _THETA_WINDOW and len(set(pids)) == 2
    _assert_no_child()


@pytest.mark.parametrize("where", ["helper", "parent"])
def test_a_drift_exception_leaves_no_helper(monkeypatch, std_gaussian, tg, pot_well,
                                            drift_log, time_bound, where):
    monkeypatch.setattr(_fork, "spare_cpus", lambda: 1)
    noise = noise_ensemble(simulate_particles(pot_well, std_gaussian, tg, 8, seed=5))

    def broken(pot, x):
        raise ValueError(f"drift broke in the {where}")
    drift = (_in_helper(interaction_drift, broken) if where == "helper"
             else _in_helper(broken, interaction_drift))
    monkeypatch.setattr(dynamics, "interaction_drift",
                        drift_log.wrap(drift, parent_delay=0.01))
    with pytest.raises(ValueError, match=f"drift broke in the {where}") as raised:
        tanaka_theta(pot_well, noise)
    if where == "helper":
        # raised here, chained to the helper's traceback
        assert "raise ValueError" in str(raised.value.__cause__)
    _assert_no_child()


def test_a_helper_that_dies_without_answering_leaves_no_child(monkeypatch, std_gaussian,
                                                             tg, pot_well, drift_log,
                                                             time_bound):
    monkeypatch.setattr(_fork, "spare_cpus", lambda: 1)
    noise = noise_ensemble(simulate_particles(pot_well, std_gaussian, tg, 8, seed=5))
    dead = _in_helper(interaction_drift, lambda pot, x: os._exit(7))
    monkeypatch.setattr(dynamics, "interaction_drift",
                        drift_log.wrap(dead, parent_delay=0.01))
    with pytest.raises(RuntimeError,
                       match=r"child \d+ \(_evaluate_queued\) sent no result \(exit status 7\)"):
        tanaka_theta(pot_well, noise)
    _assert_no_child()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("mode, ending", [
    ("serial", "returns"), ("helper", "returns"), ("serial", "nan drift"),
    ("helper", "nan drift"), ("helper", "helper dies")])
def test_theta_closes_every_descriptor_it_opens(monkeypatch, std_gaussian, tg, pot_well,
                                                drift_log, time_bound, mode, ending):
    monkeypatch.setattr(_fork, "spare_cpus", lambda: {"serial": 0, "helper": 1}[mode])
    noise = noise_ensemble(simulate_particles(pot_well, std_gaussian, tg, 8, seed=5))
    drift = {"returns": interaction_drift,
             "nan drift": lambda pot, x: np.full_like(x, np.nan),
             "helper dies": _in_helper(interaction_drift, lambda pot, x: os._exit(7))}
    monkeypatch.setattr(dynamics, "interaction_drift",
                        drift_log.wrap(drift[ending], parent_delay=1e-3))
    before = sorted(os.listdir("/proc/self/fd"))
    if ending == "returns":
        tanaka_theta(pot_well, noise)
    else:
        with pytest.raises(NoConvergence if ending == "nan drift" else RuntimeError):
            tanaka_theta(pot_well, noise)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(set(drift_log.pids())) == {"serial": 1, "helper": 2}[mode]
    _assert_no_child()


@pytest.mark.parametrize("busy", ["one cpu", "no fork", "a running child",
                                  "in a child"])
def test_theta_forks_nothing_without_an_idle_cpu(monkeypatch, std_gaussian, pot_well,
                                                 busy):
    noise = noise_ensemble(simulate_particles(pot_well, std_gaussian, TimeGrid(1.0, 16),
                                              16, seed=3))
    expected = tanaka_theta(pot_well, noise).positions

    def refuse():
        raise AssertionError("tanaka_theta forked without an idle CPU")
    monkeypatch.setattr(os, "fork", refuse)
    cpus = {"one cpu": 1}.get(busy, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if busy == "no fork":
        monkeypatch.delattr(os, "fork")
    elif busy == "a running child":
        monkeypatch.setattr(_fork, "_RUNNING", {os.getpid()})
    elif busy == "in a child":
        monkeypatch.setattr(_fork, "_IN_CHILD", True)
    assert _fork.spare_cpus() == 0
    assert tanaka_theta(pot_well, noise).positions.tobytes() == expected.tobytes()


def test_theta_lipschitz_on_path_space(grid256, std_gaussian):
    pot = InteractionPotential.gaussian_well(1.0, 1.0)
    tg_short = TimeGrid(1.0, 32)
    bound = np.exp(2.0 * pot.hess_sup * tg_short.horizon)
    rng = np.random.default_rng(9)
    base = simulate_particles(pot, std_gaussian, tg_short, 8, seed=21)
    noise = noise_ensemble(base)
    for _ in range(3):
        other_positions = noise.positions + 0.05 * rng.normal(
            size=noise.positions.shape).cumsum(axis=1)
        other = type(noise)(tg_short, other_positions,
                            noise.increments, noise.seed)
        d_in = path_distance(noise, other)
        d_out = path_distance(tanaka_theta(pot, noise), tanaka_theta(pot, other))
        assert d_out <= bound * d_in + 1e-12
        assert d_out > 0  # injectivity on distinct inputs


def test_theta_size_guard(grid256, pot_zero, std_gaussian):
    tg_short = TimeGrid(1.0, 4)
    big = simulate_particles(pot_zero, std_gaussian, tg_short, 2, seed=1)
    padded = type(big)(tg_short, np.zeros((10_001, 5)), np.zeros((10_001, 4)), 0)
    with pytest.raises(TooLarge):
        tanaka_theta(pot_zero, padded)


# --------------------------------------------------------- Fokker-Planck flows


def test_mkv_stationary_at_equilibrium(grid256, pot_quad05, eq05):
    flow = mkv_flow(pot_quad05, eq05.density, TimeGrid(4.0, 128))
    worst = max(wasserstein1(flow.density(k), eq05.density)
                for k in range(0, 129, 8))
    assert worst <= 1e-6


def test_mkv_free_diffusion_variance(grid256, pot_zero, std_gaussian):
    flow = mkv_flow(pot_zero, std_gaussian, TimeGrid(1.0, 128))
    assert flow.density(128).variance() == pytest.approx(2.0, abs=1e-2)


def test_mkv_variance_relaxation():
    # Gaussian variance follows the closed-form relaxation toward 1/(2 kappa)
    grid = SpatialGrid(10.0, 320)
    pot = InteractionPotential.quadratic(0.5)
    mu0 = density_from_spec(grid, {"kind": "gaussian", "mean": 0.0, "std": 1.5})
    flow = mkv_flow(pot, mu0, TimeGrid(8.0, 128))
    expected = mkv_gaussian_variance(0.5, 2.25, 8.0)
    assert flow.density(128).variance() == pytest.approx(expected, abs=2e-2)
    assert expected == pytest.approx(1.0, abs=2e-2)


def test_mkv_mass_conservation(grid256, pot_quad05):
    mu0 = density_from_spec(grid256, {"kind": "mixture", "components": [
        {"weight": 0.5, "mean": -1.0, "std": 0.6},
        {"weight": 0.5, "mean": 1.2, "std": 0.7}]})
    flow = mkv_flow(pot_quad05, mu0, TimeGrid(4.0, 128))
    masses = flow.slice_masses()
    assert np.max(np.abs(np.diff(masses))) < 1e-10


def test_mkv_dissipates_free_energy(grid256, pot_quad05):
    mu0 = density_from_spec(grid256, {"kind": "mixture", "components": [
        {"weight": 0.5, "mean": -1.0, "std": 0.6},
        {"weight": 0.5, "mean": 1.2, "std": 0.7}]})
    flow = mkv_flow(pot_quad05, mu0, TimeGrid(4.0, 64))
    values = [FreeEnergyGauge(pot_quad05, grid256, mu.mean()).relative(mu)
              for mu in map(flow.density, range(0, 65, 4))]
    assert np.all(np.diff(values) <= 1e-6)


def test_mkv_drift_resolution_guard(grid256, pot_quad05, std_gaussian):
    with pytest.raises(CFLViolation):
        mkv_flow(pot_quad05, std_gaussian, TimeGrid(8.0, 4))


def test_propagation_of_chaos_rate(grid256, pot_quad05, std_gaussian):
    # empirical marginal converges to the nonlinear flow like C / sqrt(N)
    tg1 = TimeGrid(1.0, 64)
    flow = mkv_flow(pot_quad05, std_gaussian, tg1)
    final = flow.density(64)
    sizes = [500, 2000, 8000]
    gaps = []
    for n in sizes:
        # iid initials (the stratified mode suppresses the O(1/sqrt(N))
        # initial fluctuation), averaged over seeds to stabilize the fit
        per_seed = [
            empirical_density_w1(
                simulate_particles(pot_quad05, std_gaussian, tg1, n,
                                   seed=s, init="iid").positions[:, -1],
                final)
            for s in (101, 102, 103, 104)
        ]
        gaps.append(np.mean(per_seed))
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    assert -0.65 <= slope <= -0.35


# ------------------------------------------------------- tridiagonal solver


def _lapack(ab, rhs):
    from scipy.linalg import solve_banded  # the reference only; mfsb has no scipy
    return solve_banded((1, 1), ab, rhs)


def _same_bits(a, b):
    """Bitwise equality, zero signs included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_lapack_bitwise(ab, rhs):
    assert _same_bits(_solve_tridiagonal(ab, rhs), _lapack(ab, rhs))


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_fp_solves_along_each_shipped_mkv_flow_are_lapack_bitwise(path, monkeypatch):
    sc = load_scenario(path)
    systems = []

    def recorded(ab, rhs):
        systems.append((ab, rhs))
        return _solve_tridiagonal(ab, rhs)

    monkeypatch.setattr(dynamics, "_solve_tridiagonal", recorded)
    mkv_flow(sc.potential, sc.mu_in(), sc.time_grid)
    assert len(systems) == sc.time_grid.n_steps
    for ab, p in systems:
        _assert_lapack_bitwise(ab, p)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cells_moved", [0.01, 1.0, _DRIFT_RESOLUTION_LIMIT])
def test_fp_solve_of_a_random_drift_is_lapack_bitwise(seed, cells_moved):
    rng = np.random.default_rng(seed)
    n, dx, dt = 64 + 61 * seed, 16.0 / (64 + 61 * seed), rng.choice([1 / 128, 1 / 16])
    b = rng.uniform(-1.0, 1.0, n)
    b *= cells_moved * dx / dt / np.max(np.abs(b))  # moves mass cells_moved cells
    ab = _fp_banded(b, dx, dt)
    for rhs in (rng.uniform(0.0, 1.0, n), rng.normal(size=n)):
        _assert_lapack_bitwise(ab, rhs)


def test_tridiagonal_solve_keeps_lapacks_zero_signs():
    # LAPACK also subtracts 0 * x[i+2]; that turns a -0 partial result into +0
    ab = _fp_banded(np.linspace(-3.0, 2.0, 32), 0.5, 1 / 16)
    rng = np.random.default_rng(3)
    negative_zeros = np.where(rng.uniform(size=32) < 0.5, -0.0, 0.0)
    for rhs in (np.full(32, -0.0), negative_zeros):
        _assert_lapack_bitwise(ab, rhs)
    # without that term every entry of this solution would be -0
    signs = np.signbit(_lapack(ab, np.full(32, -0.0)))
    assert signs[-1] and not signs.all()


def test_tridiagonal_solve_raises_where_lapack_would_pivot():
    ab = _fp_banded(np.zeros(16), 0.5, 1 / 16)
    ab[2, 5] = -2.0 * ab[1, 5]  # |l_5| > |d_5|: LAPACK swaps rows 5 and 6
    with pytest.raises(np.linalg.LinAlgError, match="row interchange at row 5"):
        _solve_tridiagonal(ab, np.ones(16))
    singular = np.zeros((3, 16))
    singular[1, 1:] = 1.0  # d_0 = l_0 = 0: LAPACK reports a singular matrix
    with pytest.raises(np.linalg.LinAlgError, match="at row 0"):
        _solve_tridiagonal(singular, np.ones(16))
    singular[1] = [1.0] * 15 + [0.0]
    with pytest.raises(np.linalg.LinAlgError, match="pivot at row 15"):
        _solve_tridiagonal(singular, np.ones(16))


def test_fp_solve_of_a_nan_drift_raises():
    b = np.zeros(32)
    b[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _solve_tridiagonal(_fp_banded(b, 0.5, 1 / 16), np.ones(32))


def test_nan_drift_exits_4_through_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "conv_force",
                        lambda pot, mu: np.full(mu.values.shape, np.nan))
    rc = cli.main(["mkv", "--scenario", str(SCENARIOS / "asymmetric.json"),
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_INTERNAL == 4
    assert "tridiagonal system must be finite" in capsys.readouterr().err
