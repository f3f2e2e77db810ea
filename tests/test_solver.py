import ast
import inspect
import os

import numpy as np
import pytest

from mfsb import (
    ContinuityViolation,
    InfeasibleEndpoints,
    InteractionPotential,
    MarginalFlow,
    SolverConfig,
    SpatialGrid,
    TimeGrid,
    bb_gradient,
    bb_objective,
    corrector,
    density_from_spec,
    entropic_cost,
    optimality_residual,
    solve_mfsb,
    velocity_from_flow,
    wasserstein1,
)
from mfsb import _fork, solver
from mfsb.grids import LOG_FLOOR, MASS_FLOOR_REL
from mfsb.solver import (
    _KINETIC_REG,
    _Buffers,
    _action,
    _action_gradients,
    _descend,
    _edge_terms,
    _initial_flow,
    _momentum,
    _projected_gradient,
    heat_interpolation_flow,
)
from oracles import ipfp_cost, momentum, reference_action, reference_descend


@pytest.fixture(scope="module")
def small():
    grid = SpatialGrid(8.0, 64)
    tg = TimeGrid(1.0, 16)
    mu0 = density_from_spec(grid, {"kind": "gaussian", "mean": -0.5, "std": 1.0})
    mu1 = density_from_spec(grid, {"kind": "gaussian", "mean": 0.5, "std": 0.9})
    return grid, tg, mu0, mu1


def _admissible_pair(grid, tg, mu0, mu1):
    flow = heat_interpolation_flow(mu0, mu1, grid, tg)
    return flow, momentum(flow.values, grid.dx, tg.dt)


# -------------------------------------------------------------- objective


def test_bb_objective_second_order_in_cell_quadrature(pot_quad05):
    # the staggered action the solver descends on and the corrector's cell
    # quadrature that reports costs agree to O(dx^2) on one pair of endpoints
    gaps = []
    for n_cells, n_steps in ((128, 32), (256, 64), (512, 128)):
        grid = SpatialGrid(8.0, n_cells)
        tg = TimeGrid(1.0, n_steps)
        mu0 = density_from_spec(grid, {"kind": "gaussian", "mean": -0.5, "std": 1.0})
        mu1 = density_from_spec(grid, {"kind": "gaussian", "mean": 0.5, "std": 0.9})
        flow, m = _admissible_pair(grid, tg, mu0, mu1)
        value = bb_objective(flow, m, pot_quad05)
        assert value >= 0.0
        psi = corrector(flow, velocity_from_flow(flow), pot_quad05)
        gaps.append(abs(value - entropic_cost(psi, flow)))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse >= 3.0 * fine


def test_bb_objective_stationary_equilibrium(grid256, pot_quad05, eq05):
    tg = TimeGrid(1.0, 16)
    vals = np.repeat(eq05.density.values[None, :], tg.n_steps + 1, axis=0)
    flow = MarginalFlow(tg, grid256, vals)
    m = momentum(vals, grid256.dx, tg.dt)
    assert bb_objective(flow, m, pot_quad05) <= 1e-6


def test_bb_objective_heat_flow_near_zero(grid256, pot_zero):
    tg = TimeGrid(1.0, 128)
    vals = np.stack([
        np.exp(-0.5 * grid256.centers**2 / (1 + t)) / np.sqrt(2 * np.pi * (1 + t))
        for t in tg.nodes])
    vals /= vals.sum(axis=1, keepdims=True) * grid256.dx
    flow = MarginalFlow(tg, grid256, vals)
    m = momentum(vals, grid256.dx, tg.dt)
    assert bb_objective(flow, m, pot_zero) <= 1e-4


def test_bb_objective_continuity_guard(small, pot_zero):
    grid, tg, mu0, mu1 = small
    flow, m = _admissible_pair(grid, tg, mu0, mu1)
    with pytest.raises(ContinuityViolation):
        bb_objective(flow, m + 0.1, pot_zero)


# --------------------------------------------------------------- gradient


KERNELS = {
    "zero": InteractionPotential.zero(),
    "quadratic": InteractionPotential.quadratic(0.7),
    "gaussian-well": InteractionPotential.gaussian_well(1.0, 1.2),
}


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_bb_gradient_matches_finite_differences(small, kind):
    pot = KERNELS[kind]
    grid, tg, mu0, mu1 = small
    flow, m = _admissible_pair(grid, tg, mu0, mu1)
    mu = flow.values
    gmu, gm = bb_gradient(flow, m, pot)
    # the same action with the mollifier the descent adds, through the
    # entry points the descent calls: _edge_terms once per point, then
    # _action for J and _action_gradients for its gradient
    ws = _Buffers(pot, grid, tg)
    log_mu = np.empty_like(mu)
    reg = _KINETIC_REG * mu.max(axis=1, keepdims=True)

    def mollified(mu_p, m_p):
        _edge_terms(ws, mu_p, m_p, reg, log_mu)
        return _action(ws)

    mollified(mu, m)
    egmu, egm = (g.copy() for g in _action_gradients(ws, mu, m))
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        # relative perturbations on comfortably-retained cells, zero-sum per
        # slice, pinned endpoints, momentum slaved through the continuity map
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
        assert abs(fd - analytic) <= 1e-5 * max(abs(fd), 1e-12)
        plus = mollified(mu + h * dmu, m + h * dm)
        minus = mollified(mu - h * dmu, m - h * dm)
        fd = (plus - minus) / (2 * h)
        analytic = float(np.sum(egmu * dmu) + np.sum(egm * dm))
        assert abs(fd - analytic) <= 1e-5 * max(abs(fd), 1e-12)


def _unfused_edge_gradients(ws, mu, m, reg):
    """The edge gradient with every subexpression computed where it is used."""
    peak = mu.max(axis=1, keepdims=True)
    mu_edge = 0.5 * (mu[:, :-1] + mu[:, 1:])
    mask = mu_edge >= MASS_FLOOR_REL * peak
    den = mu_edge + reg
    log_mu = np.log(np.maximum(mu, LOG_FLOOR))
    score = (log_mu[:, 1:] - log_mu[:, :-1]) / ws.dx
    force = ws.pot.force(mu, ws.sgrid)
    force_edge = 0.5 * (force[:, :-1] + force[:, 1:])
    u = np.where(mask, m[:, :-1] / np.where(mask, den, 1.0)
                 + 0.5 * score + force_edge, 0.0)
    twdx = ws.tw[:, None] * ws.dx
    rho = twdx * u * mu_edge
    gm = np.zeros_like(m)
    gm[:, :-1] = np.where(mask, rho / np.where(mask, den, 1.0), 0.0)
    half_sq = twdx * 0.5 * u**2
    mflux = np.where(mask, rho * m[:, :-1] / np.where(mask, den**2, 1.0), 0.0)
    gmu = np.zeros_like(mu)
    gmu[:, :-1] += 0.5 * (half_sq - mflux)
    gmu[:, 1:] += 0.5 * (half_sq - mflux)
    score_flow = 0.5 * rho / ws.dx
    safe = mu > 1e-100
    inv_mu = np.where(safe, 1.0 / np.where(safe, mu, 1.0), 0.0)
    gmu[:, :-1] -= score_flow * inv_mu[:, :-1]
    gmu[:, 1:] += score_flow * inv_mu[:, 1:]
    rho_cells = np.zeros_like(mu)
    rho_cells[:, :-1] += 0.5 * rho
    rho_cells[:, 1:] += 0.5 * rho
    gmu += ws.pot.force_adjoint(rho_cells, ws.sgrid)
    return gmu, gm


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_gradient_from_carried_terms_is_bitwise_the_recomputed_one(small, kind):
    pot = KERNELS[kind]
    grid, tg, mu0, mu1 = small
    ws = _Buffers(pot, grid, tg)
    mu = heat_interpolation_flow(mu0, mu1, grid, tg).values
    m, log_mu, cand_log = (np.zeros_like(mu) for _ in range(3))
    reg = _KINETIC_REG * mu.max(axis=1, keepdims=True)
    # one line-search candidate, formed and evaluated in the buffers the
    # start was evaluated in, as the descent does
    _edge_terms(ws, mu, _momentum(ws, mu, m), reg, log_mu)
    immovable, centered = _projected_gradient(ws, mu, m)
    cand = mu * np.exp(np.clip(np.where(immovable, 0.0, -0.5 * centered),
                               -50.0, 50.0))
    cand[0], cand[-1] = mu[0], mu[-1]
    cand /= cand.sum(axis=1, keepdims=True) * grid.dx
    _edge_terms(ws, cand, _momentum(ws, cand, m), reg, cand_log)
    assert np.isfinite(_action(ws))
    gmu, gm = _action_gradients(ws, cand, m)
    fresh = cand.copy()
    m_fresh = momentum(fresh, grid.dx, tg.dt)
    assert np.array_equal(m, m_fresh)
    recomputed = _Buffers(pot, grid, tg)
    _edge_terms(recomputed, fresh, m_fresh, reg, np.empty_like(fresh))
    for reference in (_action_gradients(recomputed, fresh, m_fresh),
                      _unfused_edge_gradients(recomputed, fresh, m_fresh, reg)):
        assert np.array_equal(gmu, reference[0])
        assert np.array_equal(gm, reference[1])


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_action_is_bitwise_the_allocating_reference_with_mass_on_every_edge(
        small, kind):
    # every edge carries mass, so a row sum over edges that also read the
    # pair straddling two slices, or summed in another order, would show
    # (a last-bit change of one row sum shows in J for some draws only)
    pot = KERNELS[kind]
    grid, tg, _, _ = small
    rng = np.random.default_rng(5)
    for _ in range(8):
        vals = rng.uniform(0.5, 1.5, size=(tg.n_steps + 1, grid.n_cells))
        vals /= vals.sum(axis=1, keepdims=True) * grid.dx
        flow = MarginalFlow(tg, grid, vals)
        m = momentum(vals, grid.dx, tg.dt)
        J, gmu, gm = reference_action(pot, flow, m)
        assert bb_objective(flow, m, pot) == J
        new_gmu, new_gm = bb_gradient(flow, m, pot)
        assert np.array_equal(new_gmu, gmu)
        assert np.array_equal(new_gm, gm)


def test_descent_evaluates_each_point_once(small, monkeypatch):
    grid, tg, mu0, mu1 = small
    counts = {"_edge_terms": 0, "_momentum": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(solver, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(solver, name, counted)
    flow0 = heat_interpolation_flow(mu0, mu1, grid, tg)
    pot = InteractionPotential.quadratic(0.7)
    *_, iterations, status = _descend(pot, flow0, SolverConfig())
    assert status == "converged" and iterations > 1
    # _momentum runs for the start and for each line-search candidate, so
    # every objective evaluation makes one _edge_terms call and no gradient
    # makes another
    assert counts["_momentum"] >= iterations
    assert counts["_edge_terms"] == counts["_momentum"]


@pytest.mark.parametrize("init", ["heat", "mkv"])
@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_descent_is_bitwise_the_allocating_reference(small, kind, init):
    pot = KERNELS[kind]
    grid, tg, mu0, mu1 = small
    flow0 = _initial_flow(init, pot, mu0, mu1, grid, tg)
    mu, *rest = _descend(pot, flow0, SolverConfig())
    ref_mu, *ref_rest = reference_descend(pot, flow0, SolverConfig())
    assert rest[-1] == "converged"
    assert np.array_equal(mu, ref_mu)
    assert rest == ref_rest


def test_descent_budget_is_bitwise_the_allocating_reference(small):
    pot = KERNELS["quadratic"]
    grid, tg, mu0, mu1 = small
    flow0 = heat_interpolation_flow(mu0, mu1, grid, tg)
    config = SolverConfig(max_outer=5)
    mu, *rest = _descend(pot, flow0, config)
    ref_mu, *ref_rest = reference_descend(pot, flow0, config)
    assert rest[2:] == [5, "budget"]
    assert np.array_equal(mu, ref_mu)
    assert rest == ref_rest


def _log_pids(monkeypatch, path, name):
    """Make solver.<name> append the pid of its caller to path, from this
    process and from a forked helper alike."""
    original = getattr(solver, name)

    def logged(*args):
        _append_pid(path)
        return original(*args)
    monkeypatch.setattr(solver, name, logged)


def _append_pid(path):
    with open(path, "ab", buffering=0) as log:  # one appending write
        log.write(b"%d\n" % os.getpid())


def _pids(path) -> set:
    return {int(pid) for pid in path.read_text().split()}


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _fork._RUNNING == set()


@pytest.mark.parametrize("max_outer", [4000, 5])
@pytest.mark.parametrize("init", ["heat", "mkv"])
@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_helper_descent_is_bitwise_the_one_process_one(small, monkeypatch, tmp_path,
                                                       time_bound, kind, init,
                                                       max_outer):
    pot = KERNELS[kind]
    grid, tg, mu0, mu1 = small
    flow0 = _initial_flow(init, pot, mu0, mu1, grid, tg)
    config = SolverConfig(max_outer=max_outer)
    monkeypatch.setattr(_fork, "spare_cpus", lambda: 0)
    mu, *rest = _descend(pot, flow0, config)
    assert rest[-1] == ("converged" if max_outer > 5 else "budget")
    # a helper on every kernel, the pair-table products' too
    monkeypatch.setattr(_fork, "spare_cpus", lambda: 1)
    monkeypatch.setattr(solver, "_closed_forms", lambda pot: True)
    _log_pids(monkeypatch, tmp_path / "evaluations", "_edge_terms")
    helped, *helped_rest = _descend(pot, flow0, config)
    assert len(_pids(tmp_path / "evaluations")) == 2  # the helper evaluated rows
    assert helped.tobytes() == mu.tobytes()
    assert helped_rest == rest
    _assert_no_child()


def test_only_closed_form_kernels_get_a_descent_helper():
    # the pair-table products run threaded BLAS, whose spinning worker
    # takes the helper's CPU
    assert {kind: solver._closed_forms(pot) for kind, pot in KERNELS.items()} == {
        "zero": True, "quadratic": True, "gaussian-well": False}


def test_the_descent_helper_calls_no_kernel_action(small, monkeypatch, tmp_path,
                                                   time_bound):
    calls = tmp_path / "kernel_calls"

    class Logged(type(KERNELS["quadratic"])):
        def force(self, mu, grid):
            _append_pid(calls)
            return super().force(mu, grid)

        def force_adjoint(self, rho, grid):
            _append_pid(calls)
            return super().force_adjoint(rho, grid)
    pot = Logged(0.7, 0.7)
    grid, tg, mu0, mu1 = small
    monkeypatch.setattr(_fork, "spare_cpus", lambda: 1)
    _log_pids(monkeypatch, tmp_path / "evaluations", "_edge_terms")
    *_, status = _descend(pot, heat_interpolation_flow(mu0, mu1, grid, tg),
                          SolverConfig())
    assert status == "converged"
    assert len(_pids(tmp_path / "evaluations")) == 2
    assert _pids(calls) == {os.getpid()}
    _assert_no_child()


def test_the_descent_helper_multiplies_no_matrices():
    # no phase a helper runs, nor a solver function that one calls, takes a
    # matrix product: those run BLAS, which the helper leaves to this process
    functions = {node.name: node for node in ast.parse(inspect.getsource(solver)).body
                 if isinstance(node, ast.FunctionDef)}
    products = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot", "linalg"}
    todo, seen = list(solver._PHASES), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            assert not isinstance(node, ast.MatMult), name
            assert not (isinstance(node, ast.Attribute) and node.attr in products), name
            if isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
    assert {"_momentum", "_edge_terms", "_edge_gradients", "_cell_gradients",
            "_centered_gradient"} <= seen


def test_bb_gradient_vanishes_at_equilibrium(grid256, pot_quad05, eq05):
    tg = TimeGrid(1.0, 16)
    vals = np.repeat(eq05.density.values[None, :], tg.n_steps + 1, axis=0)
    flow = MarginalFlow(tg, grid256, vals)
    m = momentum(vals, grid256.dx, tg.dt)
    gmu, gm = bb_gradient(flow, m, pot_quad05)
    centered = gmu - np.sum(gmu * vals, axis=1, keepdims=True) * grid256.dx
    pg = np.sqrt(np.sum(vals * centered**2) * grid256.dx * tg.dt)
    assert pg <= 1e-6


# ------------------------------------------------------------------ solver


def test_solve_equilibrium_to_equilibrium(grid256, pot_quad05, eq05):
    sol = solve_mfsb(pot_quad05, eq05.density, eq05.density, grid256,
                     TimeGrid(4.0, 128))
    assert sol.cost <= 1e-5
    worst = max(wasserstein1(sol.flow.density(k), eq05.density)
                for k in range(0, 129, 16))
    assert worst <= 1e-3


def test_solve_classical_matches_ipfp_oracle(sol_classical, std_gaussian):
    oracle = ipfp_cost(std_gaussian, std_gaussian, 1.0)
    assert abs(sol_classical.cost - oracle) <= 0.01 * oracle
    assert sol_classical.diagnostics["converged"]


def test_solve_cost_recomputes_from_fields(sol_classical):
    again = entropic_cost(sol_classical.corrector, sol_classical.flow)
    assert abs(again - sol_classical.cost) <= 1e-8 * max(sol_classical.cost, 1e-12)


def test_solve_mkv_endpoint_is_free(mkv_pair):
    _, flow, sol = mkv_pair
    assert sol.cost <= 1e-4
    worst = max(wasserstein1(sol.flow.density(k), flow.density(k))
                for k in range(0, 129, 8))
    assert worst <= 1e-2


def test_solve_time_reversal_identity(sol_asym, sol_asym_rev, pot_quad05):
    from mfsb import free_energy
    f_in = free_energy(pot_quad05, sol_asym.flow.density(0))
    f_fin = free_energy(pot_quad05, sol_asym.flow.density(128))
    gap = abs(sol_asym_rev.cost - sol_asym.cost - f_in + f_fin)
    assert gap <= 1e-2


def test_solve_corrector_energy_monotone(sol_asym):
    # with a convex kernel the corrector energy only grows along the bridge
    energy = 0.5 * np.sum(sol_asym.corrector.values**2 * sol_asym.flow.values,
                          axis=1) * sol_asym.flow.grid.dx
    interior = energy[1:-1]
    assert np.all(np.diff(interior) >= -1e-5)


def test_solver_rejects_disjoint_supports(grid256, pot_zero):
    a = density_from_spec(grid256, {"kind": "gaussian", "mean": -5.0, "std": 0.1})
    b = density_from_spec(grid256, {"kind": "gaussian", "mean": 5.0, "std": 0.1})
    with pytest.raises(InfeasibleEndpoints):
        solve_mfsb(pot_zero, a, b, grid256, TimeGrid(1.0, 16))


def test_solver_rejects_boundary_mass(grid256, pot_zero, std_gaussian):
    heavy = density_from_spec(grid256, {"kind": "gaussian", "mean": 0.0,
                                        "std": 3.5})
    with pytest.raises(InfeasibleEndpoints):
        solve_mfsb(pot_zero, heavy, std_gaussian, grid256, TimeGrid(1.0, 16))


def test_solver_reports_its_one_start(grid256, pot_quad05, eq05):
    sol = solve_mfsb(pot_quad05, eq05.density, eq05.density, grid256,
                     TimeGrid(2.0, 64), SolverConfig(init="mkv", max_outer=400))
    d = sol.diagnostics
    assert d["init"] == "mkv"
    assert d["starts"] == {"mkv": {"cost": d["objective"], "pg_norm": d["pg_norm"],
                                   "iterations": d["iterations"],
                                   "status": d["status"]}}


def test_solver_mean_linearity(grid256, pot_quad05):
    a = density_from_spec(grid256, {"kind": "gaussian", "mean": -0.5, "std": 0.8})
    b = density_from_spec(grid256, {"kind": "gaussian", "mean": 0.5, "std": 0.8})
    tg = TimeGrid(1.0, 128)
    sol = solve_mfsb(pot_quad05, a, b, grid256, tg)
    means = sol.flow.mean_trajectory()
    chord = means[0] + (means[-1] - means[0]) * tg.nodes / tg.horizon
    assert np.max(np.abs(means - chord)) <= 1e-3 * (1 + abs(means[-1] - means[0]))


# -------------------------------------------------------- classical bridge


def test_heat_bridge_cost_agrees_with_the_solver(heat_bridges, sol_classical):
    # two independent classical bridges on one grid: the exact heat-kernel
    # marginals and the mirror descent on the staggered action
    heat = heat_bridges[256]
    assert heat.flow.values.shape == sol_classical.flow.values.shape
    assert abs(heat.cost - sol_classical.cost) <= 1e-5 * sol_classical.cost


# ------------------------------------------------------- optimality residual


def test_optimality_residual_equilibrium(grid256, pot_quad05, eq05):
    sol = solve_mfsb(pot_quad05, eq05.density, eq05.density, grid256,
                     TimeGrid(2.0, 64), SolverConfig(init="mkv"))
    r = optimality_residual(sol, pot_quad05)
    assert r.sup_bulk <= 1e-6


def test_optimality_residual_halves_under_refinement(heat_bridges, pot_zero):
    values = {n_cells: optimality_residual(bridge, pot_zero)
              for n_cells, bridge in heat_bridges.items()}
    for attr in ("sup_bulk", "l2_weighted"):
        factor = getattr(values[256], attr) / getattr(values[512], attr)
        assert 1.5 <= factor <= 3.0
