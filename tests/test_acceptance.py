"""Acceptance criteria at desk scale: 256 cells on [-8, 8], 128 time steps.

Each test prints one pass/fail line (run with `pytest -s` to see them all).
Expensive bridge solutions are shared session fixtures from conftest.
"""

import json

import numpy as np
import pytest

from mfsb import (
    FreeEnergyGauge,
    InteractionPotential,
    MarginalFlow,
    SpatialGrid,
    TimeGrid,
    bb_gradient,
    bb_objective,
    density_from_spec,
    equilibrium,
    mkv_flow,
    optimality_residual,
    simulate_particles,
    solve_mfsb,
    wasserstein1,
)
from mfsb import cli, verify as V
from mfsb.functionals import corrector_energy
from mfsb.solver import heat_interpolation_flow
from oracles import ipfp_cost, momentum


def _report(criterion: str, passed: bool, detail: str):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_equilibrium_variance(grid256):
    worst = 0.0
    for kappa in (0.5, 2.0):
        eq = equilibrium(InteractionPotential.quadratic(kappa), grid256, 0.0)
        worst = max(worst, abs(eq.density.variance() - 1.0 / (2 * kappa)))
    _report("criterion-01 equilibrium variance",
            worst <= 1e-3, f"worst |Var - 1/(2k)| = {worst:.2e} (tol 1e-3)")


def test_criterion_02_classical_reduction(sol_classical, std_gaussian):
    oracle = ipfp_cost(std_gaussian, std_gaussian, 1.0)
    rel = abs(sol_classical.cost - oracle) / oracle
    _report("criterion-02 classical reduction",
            rel <= 0.01,
            f"solver {sol_classical.cost:.6f} vs fitting oracle {oracle:.6f} "
            f"(rel diff {rel:.2e}, tol 1%)")


def test_criterion_03_mkv_optimality(mkv_pair):
    _, flow, sol = mkv_pair
    worst_w1 = max(wasserstein1(sol.flow.density(k), flow.density(k))
                   for k in range(flow.time_grid.n_steps + 1))
    passed = sol.cost <= 1e-4 and worst_w1 <= 1e-2
    _report("criterion-03 self-interacting endpoint",
            passed, f"cost {sol.cost:.2e} (tol 1e-4), "
            f"per-slice W1 {worst_w1:.2e} (tol 1e-2)")


def test_criterion_04_conserved_quantity(sol_asym, pot_quad05):
    entry = V.check_conserved(V.conserved_profile(sol_asym, pot_quad05))
    _report("criterion-04 conserved pairing",
            entry.passed,
            f"interior spread {entry.lhs:.2e} <= {entry.rhs:.2e} "
            f"(E = {entry.detail['mean']:.4f})")


def test_criterion_05_time_reversal(sol_asym, sol_asym_rev, pot_quad05):
    entry = V.check_time_reversal(sol_asym, sol_asym_rev, pot_quad05)
    _report("criterion-05 time reversal",
            entry.passed, f"identity gap {entry.lhs:.2e} (tol 1e-2)")


def test_criterion_06_inequality_suite(sol_asym, sol_asym_rev, sol_relax,
                                       sol_classical, mkv_pair, pot_quad05,
                                       pot_zero, grid256, asym_endpoints):
    gauge = FreeEnergyGauge(pot_quad05, grid256, 0.0)
    gauge0 = FreeEnergyGauge(pot_zero, grid256, 0.0)
    mu_in, _ = asym_endpoints
    mkv_asym = mkv_flow(pot_quad05, mu_in, sol_asym.flow.time_grid)
    mkv_in, mkv_flow_ref, sol_mkv = mkv_pair
    prof_asym = V.conserved_profile(sol_asym, pot_quad05)
    energies_asym = V.flow_relative_energies(sol_asym, gauge)

    entries = [
        V.check_talagrand(sol_asym, pot_quad05, gauge),
        V.check_talagrand_equilibrium(sol_relax, pot_quad05, gauge),
        V.check_entropy_bound(sol_asym, pot_quad05, energies_asym),
        V.check_entropy_bound(sol_mkv, pot_quad05,
                              V.flow_relative_energies(sol_mkv, gauge)),
        V.check_entropy_bound(sol_classical, pot_zero,
                              V.flow_relative_energies(sol_classical, gauge0)),
        V.check_turnpike(sol_asym, pot_quad05, energies_asym, prof_asym),
        *V.check_corrector_bounds(sol_asym, pot_quad05,
                                  corrector_energy(sol_asym.corrector, sol_asym.flow)),
        *V.check_corrector_bounds(sol_classical, pot_zero, corrector_energy(
            sol_classical.corrector, sol_classical.flow)),
        V.check_conserved_bound(sol_asym, pot_quad05, prof_asym,
                                cost_reverse=sol_asym_rev.cost),
        V.check_hwi(sol_relax, pot_quad05, gauge,
                    V.conserved_profile(sol_relax, pot_quad05)),
        V.check_mkv_distance(sol_asym, pot_quad05, gauge, mkv_asym),
        V.check_mkv_distance(sol_mkv, pot_quad05, gauge, mkv_flow_ref),
    ]
    failed = [e.name for e in entries if not e.passed]
    worst = min(e.slack + e.tolerance for e in entries)
    _report("criterion-06 inequality suite",
            not failed,
            f"{len(entries)} entries, min residual slack {worst:.2e}"
            + (f", failed: {failed}" if failed else ""))


def test_criterion_07_turnpike_rate(sol_asym, sol_asym_t8, pot_quad05, grid256):
    gauge = FreeEnergyGauge(pot_quad05, grid256, 0.0)
    entry = V.turnpike_rate(sol_asym, sol_asym_t8, pot_quad05, gauge)
    _report("criterion-07 turnpike rate",
            entry.passed,
            f"fitted rate {entry.rhs:.3f} >= {entry.lhs:.3f} "
            "(0.8 of 2k min(theta, 1-theta))")


def test_criterion_08_theta_identity(grid256, std_gaussian):
    tg = TimeGrid(1.0, 128)
    worst = 0.0
    for pot in (InteractionPotential.zero(),
                InteractionPotential.quadratic(0.5),
                InteractionPotential.gaussian_well(1.0, 1.0)):
        ens = simulate_particles(pot, std_gaussian, tg, 64, seed=97)
        entry = V.check_theta(pot, ens)
        worst = max(worst, entry.lhs)
        assert entry.passed
    _report("criterion-08 noise-to-path identity",
            worst <= 5e-10, f"worst deviation {worst:.2e} over three kernels "
            "(tol 5e-10, N = 64)")


def test_criterion_09_gradient_correctness(grid256):
    grid = SpatialGrid(8.0, 64)
    tg = TimeGrid(1.0, 16)
    pot = InteractionPotential.quadratic(0.7)
    mu0 = density_from_spec(grid, {"kind": "gaussian", "mean": -0.5, "std": 1.0})
    mu1 = density_from_spec(grid, {"kind": "gaussian", "mean": 0.5, "std": 0.9})
    flow = heat_interpolation_flow(mu0, mu1, grid, tg)
    mu, m = flow.values, momentum(flow.values, grid.dx, tg.dt)
    gmu, gm = bb_gradient(flow, m, pot)
    rng = np.random.default_rng(19)
    h, worst = 1e-6, 0.0
    for _ in range(20):
        eta = rng.normal(size=mu.shape)
        mask = mu >= 1e-3 * mu.max(axis=1, keepdims=True)
        dmu = np.where(mask, mu * eta, 0.0)
        dmu[0] = dmu[-1] = 0.0
        dmu -= mu * (dmu.sum(axis=1, keepdims=True) * grid.dx)
        dm = momentum(dmu, grid.dx, tg.dt)
        plus = bb_objective(MarginalFlow(tg, grid, mu + h * dmu), m + h * dm,
                            pot)
        minus = bb_objective(MarginalFlow(tg, grid, mu - h * dmu), m - h * dm,
                             pot)
        fd = (plus - minus) / (2 * h)
        analytic = float(np.sum(gmu * dmu) + np.sum(gm * dm))
        worst = max(worst, abs(fd - analytic) / max(abs(fd), 1e-12))
    _report("criterion-09 gradient correctness",
            worst <= 1e-5, f"worst relative error {worst:.2e} over 20 "
            "directions (tol 1e-5)")


def test_criterion_10_discretization_convergence(sol_classical, pot_zero,
                                                 heat_bridges):
    # the solver's cost and the exact heat-kernel bridge's optimality
    # residual, each from 256 cells x 128 steps to 512 x 256
    fine_grid = SpatialGrid(8.0, 512)
    fine_mu = density_from_spec(fine_grid, {"kind": "gaussian", "mean": 0.0,
                                            "std": 1.0})
    fine = solve_mfsb(pot_zero, fine_mu, fine_mu, fine_grid, TimeGrid(1.0, 256))
    cost_change = abs(fine.cost - sol_classical.cost) / sol_classical.cost

    residuals = {n_cells: optimality_residual(bridge, pot_zero)
                 for n_cells, bridge in heat_bridges.items()}
    factor_sup = residuals[256].sup_bulk / residuals[512].sup_bulk
    factor_l2 = residuals[256].l2_weighted / residuals[512].l2_weighted
    passed = cost_change <= 0.02 and 1.5 <= factor_sup <= 3.0 \
        and 1.5 <= factor_l2 <= 3.0
    _report("criterion-10 discretization convergence",
            passed,
            f"cost change {cost_change:.2e} (tol 2e-2), residual halving "
            f"factors sup {factor_sup:.2f}, l2 {factor_l2:.2f} (window [1.5, 3])")


def test_criterion_11_determinism(tmp_path):
    doc = {
        "name": "determinism",
        "potential": {"kind": "quadratic", "kappa": 0.5},
        "mu_in": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
        "mu_fin": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
        "grid": {"half_width": 8.0, "n_cells": 64},
        "time": {"horizon": 1.0, "n_steps": 16},
        "checks": ["conserved", "mean-linearity", "theta"],
        "seed": 2024,
        "particles": 32,
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    outs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        for command in ("solve", "simulate", "verify"):
            rc = cli.main([command, "--scenario", str(scenario),
                           "--out", str(base / command)])
            assert rc == 0
        outs.append(base)
    mismatches = []
    files_a = sorted(p for p in outs[0].rglob("*") if p.is_file())
    for pa in files_a:
        pb = outs[1] / pa.relative_to(outs[0])
        if pa.read_bytes() != pb.read_bytes():
            mismatches.append(str(pa.relative_to(outs[0])))
    _report("criterion-11 determinism",
            not mismatches,
            f"{len(files_a)} artifacts byte-compared"
            + (f", mismatches: {mismatches}" if mismatches else ""))
