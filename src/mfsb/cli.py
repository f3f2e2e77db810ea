"""Command line front end: scenario runs producing artifacts on disk.

Commands: solve, mkv, simulate, verify, report.  Exit codes: 0 success,
1 failed check, 2 validation error, 3 solver non-convergence, 4 internal
error (an unexpected exception, whose traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
# mkv_flow is not called here (Scenario.mkv evolves the flow), but it stays
# importable as mfsb.cli.mkv_flow, a name bench/spans.py wraps
from .dynamics import mkv_flow, simulate_particles  # noqa: F401
from .errors import MFSBError, NoConvergence, ScenarioError
from .grids import TimeGrid
from .scenario import Scenario, load_scenario
from .solver import cancel_ahead, optimality_residual, solve_ahead, solve_mfsb
from . import flowio
from . import verify as V

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4


class _Run:
    """What the commands compute from one scenario, each part on first use."""

    def __init__(self, scenario: Scenario, strict_w2: bool, plots: bool):
        self.scenario = scenario
        self.pot = scenario.potential
        self.strict_w2 = strict_w2
        self.plots = plots
        self.status = {}  # solver status of each bridge computed, by name

    def problem(self, bridge: str) -> tuple:
        """The arguments of solve_mfsb for the forward, reverse or
        doubled-horizon bridge."""
        sc = self.scenario
        mu_in, mu_fin, time_grid = sc.mu_in(), sc.mu_fin(), sc.time_grid
        if bridge == "reverse":
            mu_in, mu_fin = mu_fin, mu_in
        elif bridge == "doubled-horizon":
            time_grid = TimeGrid(2.0 * time_grid.horizon, time_grid.n_steps)
        elif bridge != "forward":
            raise ValueError(f"unknown bridge {bridge!r}")
        return self.pot, mu_in, mu_fin, sc.grid, time_grid, sc.solver

    def _solve(self, bridge):
        sol = solve_mfsb(*self.problem(bridge))
        self.status[bridge] = _status(sol.diagnostics)
        return sol

    @cached_property
    def sol(self):
        return self._solve("forward")

    @cached_property
    def sol_reverse(self):
        return self._solve("reverse")

    @cached_property
    def sol_double(self):
        return self._solve("doubled-horizon")

    @cached_property
    def residual(self):
        return optimality_residual(self.sol, self.pot)

    @cached_property
    def gauge(self):
        return V.FreeEnergyGauge(self.pot, self.scenario.grid,
                                 self.sol.flow.density(0).mean())

    @property
    def mkv(self):
        return self.scenario.mkv

    @cached_property
    def ensemble(self):
        sc = self.scenario
        return simulate_particles(self.pot, sc.mu_in(), sc.time_grid,
                                  sc.n_particles, sc.seed)


def _status(diagnostics: dict) -> str:
    """A solve's status, and for a stall where its line search gave up."""
    stall = diagnostics.get("stall")
    if not stall:
        return diagnostics["status"]
    return (f"{diagnostics['status']} (line search gave up at step "
            f"{stall['step']:.3e}, where the Armijo test asked J to fall by "
            f"{stall['armijo_decrease_rel']:.3e} of |J|)")


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


def _cmd_solve(run: _Run, out: Path, fmt: str) -> int:
    sol = run.sol
    flowio.save_flow(out / f"flow.{fmt}", sol.flow, fmt)
    flowio.save_matrix(out / f"corrector.{fmt}", "corrector",
                       sol.corrector.values, fmt)
    flowio.write_json(out / "summary.json", {
        "cost": sol.cost,
        "diagnostics": sol.diagnostics,
        "optimality_residual": dataclasses.asdict(run.residual),
    })
    _write_manifest(out, run.scenario, "solve", fmt)
    return EXIT_OK if sol.diagnostics["converged"] else EXIT_NO_CONVERGENCE


def _cmd_mkv(run: _Run, out: Path, fmt: str) -> int:
    final = run.mkv.density(run.scenario.time_grid.n_steps)
    flowio.save_flow(out / f"mkv_flow.{fmt}", run.mkv, fmt)
    flowio.write_json(out / "summary.json", {
        "final_mean": float(final.mean()),
        "final_variance": float(final.variance()),
    })
    _write_manifest(out, run.scenario, "mkv", fmt)
    return EXIT_OK


def _cmd_simulate(run: _Run, out: Path, fmt: str) -> int:
    ens = run.ensemble
    flowio.save_matrix(out / f"positions.{fmt}", "positions", ens.positions, fmt)
    flowio.save_matrix(out / f"increments.{fmt}", "increments", ens.increments, fmt)
    final = ens.positions[:, -1]
    flowio.write_json(out / "summary.json", {
        "n_particles": ens.n_particles,
        "final_mean": float(final.mean()),
        "final_variance": float(final.var()),
    })
    _write_manifest(out, run.scenario, "simulate", fmt)
    return EXIT_OK


def _cmd_verify(run: _Run, out: Path, fmt: str) -> int:
    # the bridges beyond the forward one, in the order the checks read them,
    # are solved in children while this process solves the forward one; a
    # bridge equal to an earlier one is solved once
    ahead = dict.fromkeys(bridge for name in run.scenario.checks
                          for bridge in V.CHECKS[name].bridges)
    try:
        if ahead:
            solve_ahead(run.problem("forward"),
                        (run.problem(bridge) for bridge in ahead))
        return _verify(run, out, fmt)
    finally:
        cancel_ahead()


def _verify(run: _Run, out: Path, fmt: str) -> int:
    scenario = run.scenario
    entries = {entry.name: entry for name in scenario.checks
               for entry in V.CHECKS[name].entries(run)}
    environment = {
        "grid": {"half_width": scenario.grid.half_width,
                 "n_cells": scenario.grid.n_cells},
        "time": {"horizon": scenario.time_grid.horizon,
                 "n_steps": scenario.time_grid.n_steps},
        "potential": scenario.potential.to_spec(),
        "seed": scenario.seed,
        "package_version": __version__,
    }
    if "forward" in run.status:
        environment["solver"] = run.sol.diagnostics
        environment["optimality_residual"] = dataclasses.asdict(run.residual)
    report = V.VerificationReport(scenario.name, entries, environment)
    flowio.write_json(out / "report.json", report.to_dict())
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    _write_manifest(out, scenario, "verify", fmt)
    unconverged = [f"{name} bridge {status}" for name, status in run.status.items()
                   if status != "converged"]
    if unconverged:
        print(f"solver did not converge: {', '.join(unconverged)}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_report(run: _Run, out: Path, fmt: str) -> int:
    sol = run.sol
    ts = run.scenario.time_grid.nodes
    f_rel, envelope = V.entropy_envelope(sol, run.pot, run.gauge)
    energy = V.corrector_energy(sol)
    cumulative = np.concatenate([[0.0], np.cumsum(
        0.5 * (energy[1:] + energy[:-1]) * run.scenario.time_grid.dt)])
    flowio.save_matrix(out / "free_energy_profile.csv", "free_energy",
                       np.column_stack([ts, f_rel, envelope]), "csv")
    flowio.save_matrix(out / "corrector_energy.csv", "corrector_energy",
                       np.column_stack([ts, energy, cumulative]), "csv")
    prof = V.conserved_profile(sol, run.pot)
    flowio.save_matrix(out / "conserved_profile.csv", "conserved",
                       np.column_stack([prof.times, prof.values]), "csv")

    if run.plots:
        _write_plots(out, ts, f_rel, envelope, energy, prof)
    _write_manifest(out, run.scenario, "report", fmt, extra={"cost": sol.cost})
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
    try:
        return _COMMANDS[command](_Run(scenario, strict_w2, plots), out, fmt)
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
    try:
        scenario = load_scenario(args.scenario)
        return run(scenario, args.command, args.out, fmt=args.format,
                   strict_w2=args.strict_w2, plots=getattr(args, "plots", False))
    except ScenarioError as exc:
        print(f"scenario validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MFSBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
