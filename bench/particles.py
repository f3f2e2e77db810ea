"""Reference answers for particle runs, computed by the benchmark itself.

The ``theta`` check compares ``tanaka_theta`` against ``simulate_particles``,
and both go through the package's ``interaction_drift``, so a wrong drift
moves both sides alike and the check still passes.  This module simulates
the same particle system without the package's drift: the pairwise kernel
derivative is written out here from the potential's spec, summed densely.
The noise and the initial positions follow the package's documented
construction (per-particle Philox streams keyed by ``(seed, i)``, stratified
inverse-CDF start), so the reference depends on the scenario's seed exactly
as the package's ensemble does.
"""

from __future__ import annotations

import numpy as np

# Rows of the pairwise matrix per block: keeps the reference's memory well
# below that of the package's own drift, so it cannot set the peak RSS.
BLOCK = 64


def summary(positions) -> dict:
    """Numbers of a particle ensemble that any change of its paths moves."""
    positions = np.asarray(positions, dtype=float)
    final = positions[:, -1]
    return {"final_mean": float(final.mean()),
            "final_var": float(final.var()),
            "sup_abs": float(np.max(np.abs(positions)))}


def kernel_derivative(spec: dict):
    """W' of an interaction potential spec, from its closed form."""
    kind = spec["kind"]
    if kind == "zero":
        return lambda z: np.zeros_like(z)
    if kind == "quadratic":
        kappa = float(spec["kappa"])
        return lambda z: kappa * z
    if kind == "gaussian-well":
        # W(z) = a (1 - exp(-z^2 / 2 s^2))
        a, s = float(spec["amplitude"]), float(spec["width"])
        return lambda z: (a / s**2) * z * np.exp(-(z * z) / (2.0 * s * s))
    raise ValueError(f"no reference kernel for potential kind {kind!r}")


def reference_summary(scenario) -> dict:
    """summary() of the scenario's particle ensemble, simulated independently."""
    n = scenario.n_particles
    k_steps, dt = scenario.time_grid.n_steps, scenario.time_grid.dt
    dw = kernel_derivative(scenario.potential.to_spec())

    seed = int(scenario.seed) & (2**64 - 1)
    increments = np.stack([
        np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        .normal(0.0, np.sqrt(dt), size=k_steps)
        for i in range(n)])

    mu = scenario.mu_in()
    cdf = np.concatenate([[0.0], np.cumsum(mu.values)])
    x = np.interp((np.arange(n) + 0.5) / n, cdf / cdf[-1], mu.grid.edges)

    positions = np.empty((n, k_steps + 1))
    positions[:, 0] = x
    drift = np.empty(n)
    for k in range(k_steps):
        for lo in range(0, n, BLOCK):
            drift[lo:lo + BLOCK] = -dw(x[lo:lo + BLOCK, None] - x[None, :]).sum(axis=1) / n
        x = x + drift * dt + increments[:, k]
        positions[:, k + 1] = x
    return summary(positions)


def reference_ensembles(scenario) -> list:
    """Reference summaries of the ensembles one verify of the scenario simulates:
    one when the theta check is requested, none otherwise."""
    return [reference_summary(scenario)] if "theta" in scenario.checks else []
