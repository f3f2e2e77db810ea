import numpy as np
import pytest

from mfsb import (
    CheckEntry,
    FreeEnergyGauge,
    InteractionPotential,
    SolverConfig,
    TimeGrid,
    mkv_flow,
    noise_ensemble,
    simulate_particles,
    solve_mfsb,
    tanaka_theta,
)
from mfsb.functionals import corrector_energy
from mfsb.verify import (
    VerificationReport,
    check_conserved,
    check_conserved_bound,
    check_corrector_bounds,
    check_entropy_bound,
    check_hwi,
    check_mean_linearity,
    check_mkv_distance,
    check_talagrand,
    check_talagrand_equilibrium,
    check_theta,
    check_time_reversal,
    check_turnpike,
    conserved_profile,
    flow_relative_energies,
    turnpike_rate,
)


@pytest.fixture(scope="module")
def gauge(grid256, pot_quad05):
    return FreeEnergyGauge(pot_quad05, grid256, 0.0)


@pytest.fixture(scope="module")
def sol_eq(grid256, pot_quad05, eq05):
    return solve_mfsb(pot_quad05, eq05.density, eq05.density, grid256,
                      TimeGrid(4.0, 128), SolverConfig(init="mkv"))


def test_entry_semantics():
    good = CheckEntry("x", lhs=1.0, rhs=1.005, tolerance=1e-2)
    assert good.passed and good.slack == pytest.approx(0.005)
    borderline = CheckEntry("x", lhs=1.0, rhs=0.995, tolerance=1e-2)
    assert borderline.passed
    bad = CheckEntry("x", lhs=1.0, rhs=0.9, tolerance=1e-2)
    assert not bad.passed
    # a non-finite right-hand side can never pass (no vacuous checks)
    vacuous = CheckEntry("x", lhs=0.0, rhs=np.inf, tolerance=1e-2)
    assert not vacuous.passed


def test_report_assembly_is_sorted(sol_eq, pot_quad05):
    entries = {
        "b-check": check_conserved(conserved_profile(sol_eq, pot_quad05)),
        "a-check": check_mean_linearity(sol_eq),
    }
    report = VerificationReport("scenario-x", entries, {"seed": 1})
    doc = report.to_dict()
    assert list(doc["checks"]) == sorted(doc["checks"])
    assert doc["passed"] is True
    assert doc["scenario"] == "scenario-x"


# ------------------------------------------------- trivial equilibrium passes


def test_equilibrium_bridge_passes_everything(sol_eq, pot_quad05, gauge,
                                              grid256, eq05):
    prof = conserved_profile(sol_eq, pot_quad05)
    energies = flow_relative_energies(sol_eq, gauge)
    assert check_conserved(prof).passed
    # the bridge from the equilibrium to itself is its own reverse
    assert check_conserved_bound(sol_eq, pot_quad05, prof,
                                 cost_reverse=sol_eq.cost).passed
    assert check_entropy_bound(sol_eq, pot_quad05, energies).passed
    assert check_turnpike(sol_eq, pot_quad05, energies, prof).passed
    assert check_talagrand(sol_eq, pot_quad05, gauge).passed
    assert check_talagrand_equilibrium(sol_eq, pot_quad05, gauge).passed
    assert check_hwi(sol_eq, pot_quad05, gauge, prof).passed
    partial, pointwise = check_corrector_bounds(
        sol_eq, pot_quad05, corrector_energy(sol_eq.corrector, sol_eq.flow))
    assert partial.passed and pointwise.passed
    assert check_mean_linearity(sol_eq).passed
    mkv = mkv_flow(pot_quad05, eq05.density, sol_eq.flow.time_grid)
    assert check_mkv_distance(sol_eq, pot_quad05, gauge, mkv).passed


def test_conserved_spread_equilibrium_is_tiny(sol_eq, pot_quad05):
    entry = check_conserved(conserved_profile(sol_eq, pot_quad05))
    assert entry.lhs <= 1e-6


# ------------------------------------------------------- asymmetric scenario


def test_inequalities_on_asymmetric_bridge(sol_asym, sol_asym_rev, pot_quad05,
                                           gauge, grid256, asym_endpoints):
    prof = conserved_profile(sol_asym, pot_quad05)
    energies = flow_relative_energies(sol_asym, gauge)
    entries = [
        check_conserved(prof),
        check_conserved_bound(sol_asym, pot_quad05, prof,
                              cost_reverse=sol_asym_rev.cost),
        check_entropy_bound(sol_asym, pot_quad05, energies),
        check_turnpike(sol_asym, pot_quad05, energies, prof),
        check_talagrand(sol_asym, pot_quad05, gauge),
        check_time_reversal(sol_asym, sol_asym_rev, pot_quad05),
        check_mean_linearity(sol_asym),
    ]
    mu_in, _ = asym_endpoints
    mkv = mkv_flow(pot_quad05, mu_in, sol_asym.flow.time_grid)
    entries.append(check_mkv_distance(sol_asym, pot_quad05, gauge, mkv))
    entries.extend(check_corrector_bounds(
        sol_asym, pot_quad05, corrector_energy(sol_asym.corrector, sol_asym.flow)))
    for entry in entries:
        assert entry.passed, f"{entry.name}: slack {entry.slack}"
        assert np.isfinite(entry.rhs)


def test_conserved_bound_shrinks_with_horizon(sol_asym, sol_asym_rev, sol_asym_t8,
                                              sol_asym_t8_rev, pot_quad05):
    short = check_conserved_bound(sol_asym, pot_quad05,
                                  conserved_profile(sol_asym, pot_quad05),
                                  cost_reverse=sol_asym_rev.cost)
    long = check_conserved_bound(sol_asym_t8, pot_quad05,
                                 conserved_profile(sol_asym_t8, pot_quad05),
                                 cost_reverse=sol_asym_t8_rev.cost)
    # doubling T shrinks the bound roughly like exp(-kappa T); the pairing
    # stays below it in both cases
    assert long.rhs < short.rhs
    assert long.rhs <= short.rhs * np.exp(-0.5 * 4.0) * 3.0
    assert long.passed and short.passed


def test_turnpike_rate_across_horizons(sol_asym, sol_asym_t8, pot_quad05, gauge):
    entry = turnpike_rate(sol_asym, sol_asym_t8, pot_quad05, gauge)
    assert entry.passed
    assert entry.rhs >= 0.8 * 0.5  # fitted rate beats 0.8 * 2 kappa min(theta, 1-theta)


def test_entropy_bound_classical_limit(sol_classical, pot_zero, grid256):
    gauge0 = FreeEnergyGauge(pot_zero, grid256, 0.0)
    entry = check_entropy_bound(sol_classical, pot_zero,
                                flow_relative_energies(sol_classical, gauge0))
    assert entry.passed
    partial, pointwise = check_corrector_bounds(sol_classical, pot_zero, corrector_energy(
        sol_classical.corrector, sol_classical.flow))
    assert partial.passed and pointwise.passed


def test_hwi_on_relaxation(sol_relax, pot_quad05, gauge):
    entry = check_hwi(sol_relax, pot_quad05, gauge,
                      conserved_profile(sol_relax, pot_quad05))
    assert entry.passed
    assert entry.detail["early_fisher_bounded"]
    tal = check_talagrand_equilibrium(sol_relax, pot_quad05, gauge)
    assert tal.passed


def test_hwi_large_horizon_matches_log_sobolev(sol_relax, pot_quad05, gauge):
    # as T grows the bound's leading term approaches I/(4 kappa) >= F
    entry = check_hwi(sol_relax, pot_quad05, gauge,
                      conserved_profile(sol_relax, pot_quad05))
    fisher = entry.detail["fisher_in"]
    assert entry.lhs <= fisher / (4 * 0.5) + 1e-2


def test_mkv_distance_strict_w2_mode(mkv_pair, pot_quad05, gauge):
    _, flow, sol = mkv_pair
    loose = check_mkv_distance(sol, pot_quad05, gauge, flow)
    strict = check_mkv_distance(sol, pot_quad05, gauge, flow, strict_w2=True)
    assert loose.passed and strict.passed
    assert loose.detail["metric"] == "w1"
    assert strict.detail["metric"] == "w2"
    assert loose.detail["worst_node"] >= 1 and strict.detail["worst_node"] >= 1


def test_checks_require_convexity(sol_classical, pot_zero, grid256):
    gauge0 = FreeEnergyGauge(pot_zero, grid256, 0.0)
    with pytest.raises(ValueError):
        check_turnpike(sol_classical, pot_zero,
                       flow_relative_energies(sol_classical, gauge0),
                       conserved_profile(sol_classical, pot_zero))
    with pytest.raises(ValueError):
        check_talagrand(sol_classical, pot_zero, gauge0)


# ------------------------------------------------------------ particle checks


@pytest.mark.parametrize("pot_kind", ["zero", "quadratic", "gaussian-well"])
def test_theta_check_passes(grid256, std_gaussian, pot_kind):
    pot = {
        "zero": InteractionPotential.zero(),
        "quadratic": InteractionPotential.quadratic(0.5),
        "gaussian-well": InteractionPotential.gaussian_well(1.0, 1.0),
    }[pot_kind]
    ens = simulate_particles(pot, std_gaussian, TimeGrid(1.0, 128), 64, seed=29)
    entry = check_theta(pot, ens)
    assert entry.passed
    assert entry.lhs <= 5e-10
    # the entry names the node and time of its largest deviation
    k = entry.detail["worst_node"]
    assert entry.detail["time"] == ens.time_grid.nodes[k]
    mapped = tanaka_theta(pot, noise_ensemble(ens)).positions
    assert np.max(np.abs(mapped[:, k] - ens.positions[:, k])) == entry.lhs
