"""Command line front end: scenario runs producing artifacts on disk.

Commands: solve, mkv, simulate, verify, report.  Exit codes: 0 success,
1 failed check, 2 validation error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import mkv_flow, simulate_particles
from .errors import MFSBError, NoConvergence, ScenarioError
from .grids import TimeGrid
from .scenario import Scenario, load_scenario
from .solver import optimality_residual, solve_mfsb
from . import flowio
from . import verify as V

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _solve(scenario: Scenario, reverse: bool = False, time_grid=None):
    mu_in, mu_fin = scenario.mu_in(), scenario.mu_fin()
    if reverse:
        mu_in, mu_fin = mu_fin, mu_in
    return solve_mfsb(scenario.potential, mu_in, mu_fin, scenario.grid,
                      time_grid or scenario.time_grid, scenario.solver)


def _write_manifest(out: Path, scenario: Scenario, command: str, fmt: str,
                    extra=None):
    flowio.write_manifest(
        out / "manifest.json",
        command=command,
        scenario_hash=scenario.content_hash(),
        scenario_name=scenario.name,
        seed=scenario.seed,
        grid=scenario.grid,
        time_grid=scenario.time_grid,
        out_format=fmt,
        package_version=__version__,
        extra=extra,
    )


def _cmd_solve(scenario: Scenario, out: Path, fmt: str, args) -> int:
    sol = _solve(scenario)
    residual = optimality_residual(sol, scenario.potential)
    flowio.save_flow(out / f"flow.{fmt}", sol.flow, fmt)
    flowio.save_matrix(out / f"corrector.{fmt}", "corrector",
                       sol.corrector.values, fmt)
    flowio.write_json(out / "summary.json", {
        "cost": sol.cost,
        "diagnostics": sol.diagnostics,
        "optimality_residual": {
            "sup_bulk": residual.sup_bulk,
            "l2_weighted": residual.l2_weighted,
            "threshold": residual.threshold,
        },
    })
    _write_manifest(out, scenario, "solve", fmt)
    return EXIT_OK if sol.diagnostics["converged"] else EXIT_NO_CONVERGENCE


def _cmd_mkv(scenario: Scenario, out: Path, fmt: str, args) -> int:
    flow = mkv_flow(scenario.potential, scenario.mu_in(), scenario.time_grid)
    flowio.save_flow(out / f"mkv_flow.{fmt}", flow, fmt)
    flowio.write_json(out / "summary.json", {
        "final_mean": float(flow.density(scenario.time_grid.n_steps).mean()),
        "final_variance": float(flow.density(scenario.time_grid.n_steps).variance()),
    })
    _write_manifest(out, scenario, "mkv", fmt)
    return EXIT_OK


def _cmd_simulate(scenario: Scenario, out: Path, fmt: str, args) -> int:
    ens = simulate_particles(scenario.potential, scenario.mu_in(),
                             scenario.time_grid, scenario.n_particles,
                             scenario.seed)
    flowio.save_matrix(out / f"positions.{fmt}", "positions", ens.positions, fmt)
    flowio.save_matrix(out / f"increments.{fmt}", "increments", ens.increments, fmt)
    final = ens.positions[:, -1]
    flowio.write_json(out / "summary.json", {
        "n_particles": ens.n_particles,
        "final_mean": float(final.mean()),
        "final_variance": float(final.var()),
    })
    _write_manifest(out, scenario, "simulate", fmt)
    return EXIT_OK


def _run_checks(scenario: Scenario, strict_w2: bool):
    """Solve what the requested checks need and evaluate them."""
    pot = scenario.potential
    requested = list(scenario.checks)
    entries = {}
    environment = {}

    needs_bridge = bool(set(requested) - {"theta"})
    sol = _solve(scenario) if needs_bridge else None
    residual = gauge = None
    if sol is not None:
        environment["solver"] = sol.diagnostics
        residual = optimality_residual(sol, pot)
        environment["optimality_residual"] = {
            "sup_bulk": residual.sup_bulk,
            "l2_weighted": residual.l2_weighted,
            "threshold": residual.threshold,
        }
        gauge = V.FreeEnergyGauge(pot, scenario.grid, sol.flow.density(0).mean())

    sol_reverse = None
    if "time-reversal" in requested or "conserved-bound" in requested:
        sol_reverse = _solve(scenario, reverse=True)

    for name in requested:
        if name == "conserved":
            entries[name] = V.check_conserved(sol, pot)
        elif name == "conserved-bound":
            entries[name] = V.check_conserved_bound(
                sol, pot, gauge,
                cost_reverse=None if sol_reverse is None else sol_reverse.cost)
        elif name == "entropy-bound":
            entries[name] = V.check_entropy_bound(sol, pot, gauge)
        elif name == "turnpike":
            entries[name] = V.check_turnpike(sol, pot, gauge)
        elif name == "turnpike-rate":
            doubled = TimeGrid(2.0 * scenario.time_grid.horizon,
                               scenario.time_grid.n_steps)
            sol_double = _solve(scenario, time_grid=doubled)
            entries[name] = V.turnpike_rate(sol, sol_double, pot, gauge)
        elif name == "talagrand":
            entries[name] = V.check_talagrand(sol, pot, gauge)
        elif name == "talagrand-equilibrium":
            entries[name] = V.check_talagrand_equilibrium(sol, pot, gauge)
        elif name == "hwi":
            entries[name] = V.check_hwi(sol, pot, gauge)
        elif name == "mkv-distance":
            mkv = mkv_flow(pot, scenario.mu_in(), scenario.time_grid)
            entries[name] = V.check_mkv_distance(sol, pot, gauge, mkv,
                                                 strict_w2=strict_w2)
        elif name == "corrector-bounds":
            partial, pointwise = V.check_corrector_bounds(sol, pot)
            entries["corrector-bound-partial"] = partial
            entries["corrector-bound-pointwise"] = pointwise
        elif name == "time-reversal":
            entries[name] = V.check_time_reversal(sol, sol_reverse, pot)
        elif name == "theta":
            ens = simulate_particles(pot, scenario.mu_in(), scenario.time_grid,
                                     scenario.n_particles, scenario.seed)
            entries[name] = V.check_theta(pot, ens)
        elif name == "mean-linearity":
            entries[name] = V.check_mean_linearity(sol)
        elif name == "optimality":
            entries[name] = V.CheckEntry(
                "optimality", residual.l2_weighted, residual.threshold, 0.0,
                {"sup_bulk": residual.sup_bulk})
    return entries, environment, sol


def _cmd_verify(scenario: Scenario, out: Path, fmt: str, args) -> int:
    entries, environment, sol = _run_checks(scenario, args.strict_w2)
    environment.update({
        "grid": {"half_width": scenario.grid.half_width,
                 "n_cells": scenario.grid.n_cells},
        "time": {"horizon": scenario.time_grid.horizon,
                 "n_steps": scenario.time_grid.n_steps},
        "potential": scenario.potential.to_spec(),
        "seed": scenario.seed,
        "package_version": __version__,
    })
    report = V.VerificationReport(scenario.name, entries, environment)
    flowio.write_json(out / "report.json", report.to_dict())
    _write_manifest(out, scenario, "verify", fmt)
    if sol is not None and not sol.diagnostics["converged"]:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_report(scenario: Scenario, out: Path, fmt: str, args) -> int:
    pot = scenario.potential
    sol = _solve(scenario)
    tg = scenario.time_grid
    ts = tg.nodes

    gauge = V.FreeEnergyGauge(pot, scenario.grid, sol.flow.density(0).mean())
    f_rel = np.array([gauge.relative(sol.flow.density(k))
                      for k in range(tg.n_steps + 1)])
    c1 = np.array([V._exp_coeff_start(pot.kappa, tg.horizon, t) for t in ts])
    c3 = np.array([V._exp_coeff_cost(pot.kappa, tg.horizon, t) for t in ts])
    envelope = c1 * f_rel[0] + (1 - c1) * f_rel[-1] - c3 * sol.cost
    energy = V._corrector_energy(sol)
    cumulative = np.concatenate([[0.0], np.cumsum(
        0.5 * (energy[1:] + energy[:-1]) * tg.dt)])
    flowio.save_matrix(out / "free_energy_profile.csv", "free_energy",
                       np.column_stack([ts, f_rel, envelope]), "csv")
    flowio.save_matrix(out / "corrector_energy.csv", "corrector_energy",
                       np.column_stack([ts, energy, cumulative]), "csv")
    prof = V.conserved_profile(sol, pot)
    flowio.save_matrix(out / "conserved_profile.csv", "conserved",
                       np.column_stack([prof.times, prof.values]), "csv")

    if args.plots:
        _write_plots(out, ts, f_rel, envelope, energy, prof)
    _write_manifest(out, scenario, "report", fmt, extra={"cost": sol.cost})
    return EXIT_OK if sol.diagnostics["converged"] else EXIT_NO_CONVERGENCE


def _write_plots(out: Path, ts, f_rel, envelope, energy, prof):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib unavailable; skipping plots", file=sys.stderr)
        return
    for fname, ys, labels, title in (
        ("free_energy.svg", [f_rel, envelope], ["F(P_t)", "envelope"],
         "free energy along the bridge"),
        ("corrector_energy.svg", [energy], ["corrector energy"],
         "corrector energy profile"),
    ):
        fig, ax = plt.subplots(figsize=(6, 4))
        for y, label in zip(ys, labels):
            ax.plot(ts, y, label=label)
        ax.set_xlabel("t")
        ax.set_title(title)
        ax.legend()
        fig.savefig(out / fname)
        plt.close(fig)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(prof.times, prof.values)
    ax.set_xlabel("t")
    ax.set_title("conserved pairing E(t)")
    fig.savefig(out / "conserved.svg")
    plt.close(fig)


_COMMANDS = {
    "solve": _cmd_solve,
    "mkv": _cmd_mkv,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def run(scenario: Scenario, command: str, out_dir, *, fmt: str = "bin",
        strict_w2: bool = False, plots: bool = False) -> int:
    """Programmatic entry point mirroring the CLI; returns the exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    args = argparse.Namespace(strict_w2=strict_w2, plots=plots)
    try:
        return _COMMANDS[command](scenario, out, fmt, args)
    except NoConvergence as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfsb",
        description="Mean-field bridge laboratory: solve, simulate and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "compute the bridge and persist flow, corrector and summary"),
        ("mkv", "evolve the self-interacting flow from the initial density"),
        ("simulate", "run the interacting particle system"),
        ("verify", "run the scenario's checks and emit a report"),
        ("report", "emit plot data (and optional SVG figures)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--format", choices=("bin", "csv"), default="bin")
        p.add_argument("--strict-w2", action="store_true", dest="strict_w2",
                       help="check squared-distance bounds with exact quantile W2")
        if name == "report":
            p.add_argument("--plots", action="store_true",
                           help="also write SVG figures (needs matplotlib)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not hasattr(args, "plots"):
        args.plots = False
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return run(scenario, args.command, args.out, fmt=args.format,
                   strict_w2=args.strict_w2, plots=args.plots)
    except MFSBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
