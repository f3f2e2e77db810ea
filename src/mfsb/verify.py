"""Named, tolerance-bearing checks turning the quantitative theory into tests.

Every check is a pure function of solved artifacts returning a CheckEntry with
the two sides of its inequality (or identity), the additive tolerance, and the
pass flag; a report is an order-stable collection of entries.  Inequality
tolerances are additive because several right-hand sides are legitimately
near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import THETA_TOL, PathEnsemble, noise_ensemble, tanaka_theta
from .functionals import (
    BridgeSolution,
    ConservedProfile,
    backward_corrector,
    conserved_quantity_profile,
    equilibrium,
    fisher_information,
    free_energy,
)
from .grids import Density, MarginalFlow, wasserstein1
from .potentials import InteractionPotential

CHECK_TOL = 1e-2  # additive tolerance of the inequalities; time-reversal gap
_CONSERVED_SPREAD = 0.05       # interior spread of E(t), relative to 1 + |mean|
_TURNPIKE_THETA = 0.5          # fraction of the horizon where the rate is fitted
_TURNPIKE_RATE_FRACTION = 0.8  # share of the rate 2 kappa min(theta, 1 - theta)
_MEAN_LINEARITY_SCALE = 1e-3   # deviation from the chord, relative to 1 + span
_N_QUANTILES = 2048            # quadrature nodes of the quantile W2 distance


@dataclass
class CheckEntry:
    """One verified statement: pass iff slack = rhs - lhs >= -tolerance."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    detail: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if not (np.isfinite(self.lhs) and np.isfinite(self.rhs)):
            return False
        return self.slack >= -self.tolerance

    def summary(self) -> str:
        """One line: [PASS] or [FAIL], the name, both sides, the slack, and
        the worst node and its time when the detail names them."""
        where = "".join(f" {key}={self.detail[key]:.6g}"
                        for key in ("worst_node", "time") if key in self.detail)
        return (f"[{'PASS' if self.passed else 'FAIL'}] {self.name} "
                f"lhs={self.lhs:.6g} rhs={self.rhs:.6g} slack={self.slack:.6g}{where}")

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    """Scenario-level outcome: named entries plus the run environment."""

    scenario_id: str
    entries: dict
    environment: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries.values())

    def summary_lines(self) -> list[str]:
        """Each entry's summary line, in the order of to_dict()."""
        return [self.entries[name].summary() for name in sorted(self.entries)]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "passed": bool(self.passed),
            "checks": {name: self.entries[name].to_dict()
                       for name in sorted(self.entries)},
            "environment": self.environment,
        }


class FreeEnergyGauge:
    """Free energy measured against the equilibrium value at a fixed mean.

    For kappa = 0 there is no equilibrium; the gauge then returns the raw
    free energy, which is the correct object in every check whose
    coefficients sum to one or that only uses free-energy differences.
    """

    def __init__(self, pot: InteractionPotential, grid, mean: float):
        self.pot = pot
        if pot.kappa > 0:
            self.equilibrium = equilibrium(pot, grid, mean)
            self.offset = free_energy(pot, self.equilibrium.density)
        else:
            self.equilibrium = None
            self.offset = 0.0

    def relative(self, mu: Density) -> float:
        return free_energy(self.pot, mu) - self.offset


def _expm1_ratio(kappa: float, s, horizon: float):
    """expm1(2 kappa s) / expm1(2 kappa horizon), and s / horizon at kappa = 0."""
    if kappa == 0.0:
        return s / horizon
    return np.expm1(2.0 * kappa * s) / np.expm1(2.0 * kappa * horizon)


def _exp_coeff_cost(kappa: float, horizon: float, t):
    """Weight of the cost term in the entropy envelope (vanishes as kappa -> 0)."""
    if kappa == 0.0:
        return 0.0
    den = np.expm1(2.0 * kappa * horizon)
    return np.expm1(2.0 * kappa * (horizon - t)) * np.expm1(2.0 * kappa * t) / den


def _pointwise_cost_coeff(kappa: float, horizon: float, t: float) -> float:
    if kappa == 0.0:
        return 1.0 / (horizon - t)
    return 2.0 * kappa / np.expm1(2.0 * kappa * (horizon - t))


def _require_convex(pot: InteractionPotential, check: str):
    if pot.kappa <= 0:
        raise ValueError(f"{check} requires a uniformly convex potential (kappa > 0)")


def conserved_profile(sol: BridgeSolution, pot: InteractionPotential):
    psi_hat = backward_corrector(sol.corrector, sol.flow, pot)
    return conserved_quantity_profile(sol.corrector, psi_hat, sol.flow)


def check_conserved(prof: ConservedProfile) -> CheckEntry:
    """Interior spread of the forward-backward corrector pairing."""
    return CheckEntry(
        "conserved",
        lhs=prof.spread,
        rhs=_CONSERVED_SPREAD * (1.0 + abs(prof.mean)),
        tolerance=0.0,
        detail={"mean": prof.mean, "n_nodes": int(prof.values.size)},
    )


def check_conserved_bound(sol: BridgeSolution, pot: InteractionPotential,
                          prof: ConservedProfile, *, cost_reverse: float) -> CheckEntry:
    """|E| against the two-directional cost geometric mean, decayed in T;
    cost_reverse is the cost of the bridge solved from mu_fin to mu_in."""
    _require_convex(pot, "conserved-bound")
    horizon = sol.flow.time_grid.horizon
    geo = np.sqrt(max(sol.cost * cost_reverse, 0.0))
    bound = 4.0 * pot.kappa / np.expm1(pot.kappa * horizon) * geo
    return CheckEntry(
        "conserved-bound",
        lhs=abs(prof.mean),
        rhs=bound,
        tolerance=CHECK_TOL,
        detail={"cost_forward": sol.cost, "cost_reverse": cost_reverse},
    )


def flow_relative_energies(sol: BridgeSolution, gauge: FreeEnergyGauge) -> np.ndarray:
    """Relative free energy of the flow at each time node."""
    return np.array([
        gauge.relative(sol.flow.density(k))
        for k in range(sol.flow.time_grid.n_steps + 1)
    ])


def entropy_envelope(sol: BridgeSolution, pot: InteractionPotential,
                     energies: np.ndarray) -> np.ndarray:
    """Exponential envelope of the relative free energies at the time nodes."""
    tg = sol.flow.time_grid
    c1 = _expm1_ratio(pot.kappa, tg.horizon - tg.nodes, tg.horizon)
    c3 = _exp_coeff_cost(pot.kappa, tg.horizon, tg.nodes)
    return c1 * energies[0] + (1.0 - c1) * energies[-1] - c3 * sol.cost


def check_entropy_bound(sol: BridgeSolution, pot: InteractionPotential,
                        energies: np.ndarray) -> CheckEntry:
    """Free energy along the flow under its exponential convex envelope."""
    ts = sol.flow.time_grid.nodes
    rhs = entropy_envelope(sol, pot, energies)
    slack = rhs - energies
    k = int(np.argmin(slack[1:-1])) + 1
    return CheckEntry(
        "entropy-bound",
        lhs=energies[k],
        rhs=rhs[k],
        tolerance=CHECK_TOL,
        detail={"worst_node": k, "time": float(ts[k]),
                "f_start": energies[0], "f_end": energies[-1], "cost": sol.cost},
    )


def check_turnpike(sol: BridgeSolution, pot: InteractionPotential,
                   energies: np.ndarray, prof: ConservedProfile) -> CheckEntry:
    """Hyperbolic-sine envelope built from the conserved quantity."""
    _require_convex(pot, "turnpike")
    tg = sol.flow.time_grid
    ts, horizon, kap = tg.nodes, tg.horizon, pot.kappa
    e_const = prof.mean
    sh = np.sinh
    base = e_const / (2.0 * kap)
    rhs = (sh(2 * kap * (horizon - ts)) / sh(2 * kap * horizon) * (energies[0] - base)
           + sh(2 * kap * ts) / sh(2 * kap * horizon) * (energies[-1] - base) + base)
    slack = rhs - energies
    k = int(np.argmin(slack[1:-1])) + 1
    return CheckEntry(
        "turnpike",
        lhs=energies[k],
        rhs=rhs[k],
        tolerance=CHECK_TOL,
        detail={"worst_node": k, "time": float(ts[k]), "conserved": e_const},
    )


def turnpike_rate(sol: BridgeSolution, sol_double: BridgeSolution,
                  pot: InteractionPotential, gauge: FreeEnergyGauge) -> CheckEntry:
    """Fitted mid-horizon decay rate across two horizons T and 2T."""
    _require_convex(pot, "turnpike-rate")
    theta = _TURNPIKE_THETA
    t1 = sol.flow.time_grid
    t2 = sol_double.flow.time_grid
    k1 = int(round(theta * t1.n_steps))
    k2 = int(round(theta * t2.n_steps))
    f1 = gauge.relative(sol.flow.density(k1))
    f2 = gauge.relative(sol_double.flow.density(k2))
    d_theta = theta * (t2.horizon - t1.horizon)
    fitted = float(np.log(max(f1, 1e-300) / max(f2, 1e-300)) / d_theta) \
        if f1 > 0 and f2 > 0 else np.inf
    target = _TURNPIKE_RATE_FRACTION * 2.0 * pot.kappa * min(theta, 1.0 - theta)
    return CheckEntry(
        "turnpike-rate",
        lhs=target,
        rhs=fitted,
        tolerance=0.0,
        detail={"f_mid_short": f1, "f_mid_long": f2,
                "horizons": [t1.horizon, t2.horizon], "theta": theta},
    )


def check_talagrand(sol: BridgeSolution, pot: InteractionPotential,
                    gauge: FreeEnergyGauge) -> CheckEntry:
    """Cost bounded linearly by the endpoint free energies, at three times."""
    _require_convex(pot, "talagrand")
    tg = sol.flow.time_grid
    horizon, kap = tg.horizon, pot.kappa
    f_in = gauge.relative(sol.flow.density(0))
    f_fin = gauge.relative(sol.flow.density(tg.n_steps))
    worst = None
    for t in (horizon / 4, horizon / 2, 3 * horizon / 4):
        rhs = (f_in / np.expm1(2 * kap * t)
               + np.exp(2 * kap * (horizon - t))
               / np.expm1(2 * kap * (horizon - t)) * f_fin)
        if worst is None or rhs < worst[1]:
            worst = (t, rhs)
    return CheckEntry(
        "talagrand",
        lhs=sol.cost,
        rhs=worst[1],
        tolerance=CHECK_TOL,
        detail={"tightest_time": worst[0], "f_in": f_in, "f_fin": f_fin},
    )


def check_talagrand_equilibrium(sol: BridgeSolution, pot: InteractionPotential,
                                gauge: FreeEnergyGauge) -> CheckEntry:
    """Sharper cost bound when the final density is the equilibrium."""
    _require_convex(pot, "talagrand-equilibrium")
    tg = sol.flow.time_grid
    f_in = gauge.relative(sol.flow.density(0))
    w1_gap = wasserstein1(sol.flow.density(tg.n_steps), gauge.equilibrium.density)
    rhs = f_in / np.expm1(2 * pot.kappa * tg.horizon)
    return CheckEntry(
        "talagrand-equilibrium",
        lhs=sol.cost,
        rhs=rhs,
        tolerance=CHECK_TOL,
        detail={"f_in": f_in, "endpoint_equilibrium_w1": w1_gap},
    )


def check_hwi(sol: BridgeSolution, pot: InteractionPotential,
              gauge: FreeEnergyGauge, prof: ConservedProfile) -> CheckEntry:
    """Free energy against Fisher information, conserved quantity and cost.

    Requires the final density to be the equilibrium.  The Fisher information
    on the first few slices is recorded (its continuity near zero cannot be
    checked discretely, only boundedness).
    """
    _require_convex(pot, "hwi")
    tg = sol.flow.time_grid
    kap, horizon = pot.kappa, tg.horizon
    mu_in = sol.flow.density(0)
    f_in = gauge.relative(mu_in)
    fisher = fisher_information(pot, mu_in)
    e_const = prof.mean
    inner = fisher * (0.25 * fisher - e_const)
    damp = -np.expm1(-2.0 * kap * horizon)
    rhs = damp / (2.0 * kap) * np.sqrt(max(inner, 0.0)) - damp * sol.cost
    early = [fisher_information(pot, sol.flow.density(k)) for k in range(1, 5)]
    return CheckEntry(
        "hwi",
        lhs=f_in,
        rhs=rhs,
        tolerance=CHECK_TOL,
        detail={"fisher_in": fisher, "conserved": e_const, "cost": sol.cost,
                "early_fisher_bounded": bool(np.all(np.isfinite(early))),
                "early_fisher": early},
    )


def _quantile_w2_sq(a: Density, b: Density) -> float:
    """Exact-in-quadrature squared 2-Wasserstein distance via quantiles."""
    us = (np.arange(_N_QUANTILES) + 0.5) / _N_QUANTILES
    qa = np.interp(us, a.cdf_at_edges(), a.grid.edges)
    qb = np.interp(us, b.cdf_at_edges(), b.grid.edges)
    return float(np.mean((qa - qb) ** 2))


def check_mkv_distance(sol: BridgeSolution, pot: InteractionPotential,
                       gauge: FreeEnergyGauge, mkv: MarginalFlow, *,
                       strict_w2: bool = False) -> CheckEntry:
    """Squared distance of the bridge to the self-interacting flow, per node.

    The stated bound controls the squared 2-Wasserstein distance; by default
    the computable 1-Wasserstein lower bound is checked (sound direction),
    strict mode uses the quantile-based 2-Wasserstein distance.  The first
    node is excluded because both sides vanish there, the final one because
    its right-hand side diverges.
    """
    _require_convex(pot, "mkv-distance")
    tg = sol.flow.time_grid
    kap, horizon = pot.kappa, tg.horizon
    f_in = gauge.relative(sol.flow.density(0))
    f_fin = gauge.relative(sol.flow.density(tg.n_steps))
    den = np.expm1(2 * kap * horizon)
    worst = None
    for k in range(1, tg.n_steps):
        t = tg.nodes[k]
        mu_k, mkv_k = sol.flow.density(k), mkv.density(k)
        if strict_w2:
            lhs = _quantile_w2_sq(mu_k, mkv_k)
        else:
            lhs = wasserstein1(mu_k, mkv_k) ** 2
        grow = (np.exp(2 * kap * horizon) - np.exp(2 * kap * (horizon - t))) \
            / np.expm1(2 * kap * (horizon - t))
        rhs = 2.0 * t * (f_in / den + grow * f_fin / den)
        if worst is None or (rhs - lhs) < (worst[1] - worst[0]):
            worst = (lhs, rhs, k)
    return CheckEntry(
        "mkv-distance",
        lhs=worst[0],
        rhs=worst[1],
        tolerance=CHECK_TOL,
        detail={"worst_node": worst[2], "metric": "w2" if strict_w2 else "w1"},
    )


def check_corrector_bounds(sol: BridgeSolution, pot: InteractionPotential,
                           energy: np.ndarray):
    """Partial-time and pointwise-in-time corrector energy bounds; energy is
    the corrector energy of sol at each time node."""
    tg = sol.flow.time_grid
    kap, horizon = pot.kappa, tg.horizon
    cumulative = tg.cumulative_trapezoid(energy)
    worst_partial = None
    worst_point = None
    for t in (horizon / 4, horizon / 2, 3 * horizon / 4):
        k = int(round(t / tg.dt))
        partial = float(cumulative[k])
        b_partial = _expm1_ratio(kap, t, horizon) * sol.cost
        b_point = _pointwise_cost_coeff(kap, horizon, t) * sol.cost
        if worst_partial is None or (b_partial - partial) < worst_partial.slack:
            worst_partial = CheckEntry("corrector-bound-partial", partial,
                                       b_partial, CHECK_TOL, {"time": t})
        if worst_point is None or (b_point - energy[k]) < worst_point.slack:
            worst_point = CheckEntry("corrector-bound-pointwise", float(energy[k]),
                                     b_point, CHECK_TOL, {"time": t})
    return worst_partial, worst_point


def check_time_reversal(sol_forward: BridgeSolution, sol_reverse: BridgeSolution,
                        pot: InteractionPotential) -> CheckEntry:
    """Cost difference of the two directions equals the free-energy drop."""
    tg = sol_forward.flow.time_grid
    f_in = free_energy(pot, sol_forward.flow.density(0))
    f_fin = free_energy(pot, sol_forward.flow.density(tg.n_steps))
    gap = abs(sol_reverse.cost - sol_forward.cost - f_in + f_fin)
    return CheckEntry(
        "time-reversal",
        lhs=gap,
        rhs=CHECK_TOL,
        tolerance=0.0,
        detail={"cost_forward": sol_forward.cost, "cost_reverse": sol_reverse.cost,
                "free_energy_drop": f_in - f_fin},
    )


def check_theta(pot: InteractionPotential, ensemble: PathEnsemble) -> CheckEntry:
    """Noise-to-trajectory map reproduces the simulated particle paths."""
    mapped = tanaka_theta(pot, noise_ensemble(ensemble))
    gap = np.subtract(mapped.positions, ensemble.positions)
    np.abs(gap, out=gap)
    k = int(np.unravel_index(np.argmax(gap), gap.shape)[1])
    return CheckEntry(
        "theta",
        lhs=float(gap.max()),
        rhs=5.0 * THETA_TOL,
        tolerance=0.0,
        detail={"worst_node": k, "time": float(ensemble.time_grid.nodes[k]),
                "n_particles": ensemble.n_particles, "tol_theta": THETA_TOL},
    )


def check_mean_linearity(sol: BridgeSolution) -> CheckEntry:
    """The flow's mean interpolates its endpoints linearly in time."""
    tg = sol.flow.time_grid
    means = sol.flow.mean_trajectory()
    chord = means[0] + (means[-1] - means[0]) * tg.nodes / tg.horizon
    dev = float(np.max(np.abs(means - chord)))
    span = abs(means[-1] - means[0])
    return CheckEntry(
        "mean-linearity",
        lhs=dev,
        rhs=_MEAN_LINEARITY_SCALE * (1.0 + span),
        tolerance=0.0,
        detail={"mean_start": float(means[0]), "mean_end": float(means[-1])},
    )


class Check(NamedTuple):
    """A check `mfsb verify` runs.

    assumes names what it needs beyond H1/H2 ("convexity" is H3 and H4,
    "classical-limit" is H4 when kappa > 0, "particle-step" bounds
    hess_sup*dt).  bridges names every bridge beyond the forward one that
    its entries read ("reverse", "doubled-horizon"), so that verify can
    start solving them before the first check runs.  entries maps a run to
    the check's entries.  The run computes sol, sol_reverse, sol_double,
    residual, gauge, energies (flow_relative_energies of sol), conserved
    (conserved_profile of sol), corrector_energy and ensemble on first use,
    and its scenario computes mkv on first use.
    """

    assumes: str | None
    bridges: tuple
    entries: Callable


# Check functions are looked up by name at call time.
CHECKS = {
    "conserved": Check("convexity", (), lambda r: [check_conserved(r.conserved)]),
    "conserved-bound": Check("convexity", ("reverse",), lambda r: [
        check_conserved_bound(r.sol, r.pot, r.conserved,
                              cost_reverse=r.sol_reverse.cost)]),
    "entropy-bound": Check("classical-limit", (), lambda r: [
        check_entropy_bound(r.sol, r.pot, r.energies)]),
    "turnpike": Check("convexity", (), lambda r: [
        check_turnpike(r.sol, r.pot, r.energies, r.conserved)]),
    "turnpike-rate": Check("convexity", ("doubled-horizon",), lambda r: [
        turnpike_rate(r.sol, r.sol_double, r.pot, r.gauge)]),
    "talagrand": Check("convexity", (), lambda r: [
        check_talagrand(r.sol, r.pot, r.gauge)]),
    "talagrand-equilibrium": Check("convexity", (), lambda r: [
        check_talagrand_equilibrium(r.sol, r.pot, r.gauge)]),
    "hwi": Check("convexity", (), lambda r: [
        check_hwi(r.sol, r.pot, r.gauge, r.conserved)]),
    "mkv-distance": Check("convexity", (), lambda r: [check_mkv_distance(
        r.sol, r.pot, r.gauge, r.scenario.mkv, strict_w2=r.strict_w2)]),
    "corrector-bounds": Check("classical-limit", (),
                              lambda r: check_corrector_bounds(r.sol, r.pot,
                                                               r.corrector_energy)),
    "time-reversal": Check(None, ("reverse",), lambda r: [
        check_time_reversal(r.sol, r.sol_reverse, r.pot)]),
    "theta": Check("particle-step", (), lambda r: [check_theta(r.pot, r.ensemble)]),
    "mean-linearity": Check(None, (), lambda r: [check_mean_linearity(r.sol)]),
    "optimality": Check(None, (), lambda r: [CheckEntry(
        "optimality", r.residual.l2_weighted, r.residual.threshold, 0.0,
        {"sup_bulk": r.residual.sup_bulk})]),
}
