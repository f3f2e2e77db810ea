import copy
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfsb import (
    ChecksumMismatch,
    FormatVersionMismatch,
    HypothesisViolation,
    MarginalFlow,
    MFSBError,
    ParseError,
    SpatialGrid,
    TimeGrid,
    load_flow,
    load_matrix,
    load_scenario,
    save_flow,
    save_matrix,
    scenario_from_dict,
)
from mfsb import _fork, cli, solver
from mfsb import verify as V
from mfsb.flowio import FLOW_MAGIC
from mfsb.dynamics import THETA_MAX_PARTICLES
from mfsb.scenario import MAX_N_CELLS, MAX_N_STEPS, PARTICLE_STEP_LIMIT

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

MINIMAL = {
    "name": "minimal",
    "potential": {"kind": "quadratic", "kappa": 0.5},
    "mu_in": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
    "mu_fin": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
    "grid": {"half_width": 8.0, "n_cells": 64},
    "time": {"horizon": 1.0, "n_steps": 16},
    "checks": ["mean-linearity"],
    "seed": 3,
    "particles": 16,
}


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ------------------------------------------------------------ scenario loading


def test_load_minimal_scenario(tmp_path):
    sc = load_scenario(_write(tmp_path, MINIMAL))
    assert sc.name == "minimal"
    assert sc.grid.n_cells == 64
    assert sc.mu_fin().mean() == pytest.approx(0.0, abs=1e-9)
    assert len(sc.content_hash()) == 64


def test_reference_scenarios_validate():
    for path in sorted(SCENARIOS.glob("*.json")):
        sc = load_scenario(path)
        assert sc.checks


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(path)
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "missing.json")


def _with(path, value):
    """MINIMAL with the entry at the key path set to value."""
    doc = copy.deepcopy(MINIMAL)
    *parents, key = path
    target = doc
    for name in parents:
        target = target.setdefault(name, {})
    target[key] = value
    return doc


INF, NAN = float("inf"), float("nan")
MALFORMED = {
    "negative-cells": (("grid", "n_cells"), -4, "n_cells"),
    "infinite-cells": (("grid", "n_cells"), INF, "grid"),
    "nan-half-width": (("grid", "half_width"), NAN, "half_width"),
    "infinite-half-width": (("grid", "half_width"), INF, "half_width"),
    # finite, but 4·half_width, the span of the H1 sample, is not
    "overflowing-half-width": (("grid", "half_width"), 1e308,
                               "invalid grid specification"),
    # finite, but the squares of the H1 sample overflow; so do its cells'
    "wide-half-width": (("grid", "half_width"), 1e200, "density has no mass"),
    "infinite-horizon": (("time", "horizon"), INF, "horizon"),
    "nan-horizon": (("time", "horizon"), NAN, "horizon"),
    # finite, but 2·horizon, the horizon of turnpike-rate's second bridge, is not
    "overflowing-horizon": (("time", "horizon"), 1e308, "horizon"),
    "histogram-length": (("mu_in",), {"kind": "histogram", "values": [1.0] * 10},
                         "expected 64 values"),
    "boolean-seed": (("seed",), True, "seed"),
    # particle streams key on the seed as 64 unsigned bits
    "negative-seed": (("seed",), -1, r"seed must be an integer in \[0, 2\*\*64\)"),
    "seed-beyond-64-bits": (("seed",), 2**64, r"seed must be an integer in \[0"),
    "nan-kappa": (("potential", "kappa"), NAN, "kappa"),
    "infinite-kappa": (("potential", "kappa"), INF, "kappa"),
    "nan-width": (("potential",),
                  {"kind": "gaussian-well", "amplitude": 1.0, "width": NAN}, "width"),
    "infinite-amplitude": (("potential",),
                           {"kind": "gaussian-well", "amplitude": INF, "width": 1.0},
                           "amplitude"),
    # the gaussian well's a/s^2 or 1/s^2 is not a finite float: s^2
    # underflows to 0 or to a subnormal, a/s^2 overflows, or s^2 does
    "underflowing-width": (("potential",),
                           {"kind": "gaussian-well", "amplitude": 1.0, "width": 1e-200},
                           "H1 needs a bounded Hessian"),
    "subnormal-width-squared": (("potential",), {"kind": "gaussian-well",
                                                 "amplitude": 1.0, "width": 1e-160},
                                "H1 needs a bounded Hessian"),
    "overflowing-curvature": (("potential",), {"kind": "gaussian-well",
                                               "amplitude": 1e300, "width": 1e-10},
                              "H1 needs a bounded Hessian"),
    "unscalable-width": (("potential",), {"kind": "gaussian-well",
                                          "amplitude": 1e-300, "width": 1e-160},
                         "H1 needs a bounded Hessian"),
    "overflowing-width": (("potential",),
                          {"kind": "gaussian-well", "amplitude": 1.0, "width": 1e200},
                          "H1 needs a bounded Hessian"),
    "dead-solver-option": (("solver", "tol_ce"), 1e-3, "unknown solver options"),
    "removed-solver-option": (("solver", "armijo"), 1e-3, "unknown solver options"),
    "fractional-cells": (("grid", "n_cells"), 64.7, "n_cells"),
    "fractional-steps": (("time", "n_steps"), 16.9, "n_steps"),
    "string-cells": (("grid", "n_cells"), "64", "n_cells"),
    "removed-multi_start": (("solver", "multi_start"), ["mkv"],
                            "unknown solver options"),
    "provided-init": (("solver", "init"), "provided", "provided"),
    "max_outer-string": (("solver", "max_outer"), "10", "max_outer"),
    "max_outer-fractional": (("solver", "max_outer"), 1.5, "max_outer"),
    "max_outer-zero": (("solver", "max_outer"), 0, "max_outer"),
    "removed-tol_grad": (("solver", "tol_grad"), NAN, "unknown solver options"),
    "mu_fin-number": (("mu_fin",), 5, "mu_fin"),
    "potential-string": (("potential",), "quadratic", "potential"),
    "grid-number": (("grid",), 5, "grid"),
    "checks-string": (("checks",), "mean-linearity", "list of check names"),
    "half_width-string": (("grid", "half_width"), "8", "half_width"),
    "horizon-boolean": (("time", "horizon"), True, "horizon"),
    "kappa-boolean": (("potential", "kappa"), True, "kappa"),
    "kappa-string": (("potential", "kappa"), "0.5", "kappa"),
    "amplitude-string": (("potential",),
                         {"kind": "gaussian-well", "amplitude": "1", "width": 1.0},
                         "amplitude"),
    "width-boolean": (("potential",),
                      {"kind": "gaussian-well", "amplitude": 1.0, "width": True},
                      "width"),
    "mean-string": (("mu_in", "mean"), "0.0", "mean"),
    "std-boolean": (("mu_in", "std"), True, "std"),
    "weight-string": (("mu_in",), {"kind": "mixture", "components": [
        {"weight": "1", "mean": 0.0, "std": 1.0}]}, "weight"),
    # narrow enough to pass H2 when its values are numbers
    "name-null": (("name",), None, "name"),
    "name-list": (("name",), [1], "name"),
    "histogram-strings": (("mu_fin",), {"kind": "histogram",
                                        "values": ["0"] * 30 + ["1"] * 4 + ["0"] * 30},
                          "histogram value"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_is_parse_error(tmp_path, case):
    path, value, message = MALFORMED[case]
    with pytest.raises(ParseError, match=message):
        load_scenario(_write(tmp_path, _with(path, value)))


def test_overflowing_horizon_exits_2_without_a_traceback(tmp_path, capsys):
    doc = {**_with(("time", "horizon"), 1e308), "checks": ["turnpike-rate"]}
    rc = cli.main(["verify", "--scenario", str(_write(tmp_path, doc)),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_VALIDATION == 2
    assert "2*horizon finite" in err and "Traceback" not in err


def _leaves(node, path=()):
    """Key paths of every scalar leaf of a JSON document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _leaves(child, path + (index,))
    else:
        yield path


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8),
    st.lists(st.integers(-4, 64), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-4, 64), max_size=2),
    st.sampled_from([NAN, INF, -INF]),
    # large integers stay cheap: the loader rejects a grid above its bounds
    # before allocating it
    st.integers(-4, 64), st.floats(-4, 64), st.integers(2**11 + 1, 2**62),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_leaves(MINIMAL), key=str)), JSON_VALUES)
def test_loader_returns_or_raises_a_package_error(path, value):
    doc = copy.deepcopy(MINIMAL)
    *parents, key = path
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    try:
        scenario_from_dict(doc)
    except MFSBError:  # main maps every one of these to exit 2
        pass


def test_unknown_check_is_parse_error(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["checks"] = ["free-lunch"]
    with pytest.raises(ParseError):
        load_scenario(_write(tmp_path, doc))


def test_h3_violation_names_hypothesis(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["potential"] = {"kind": "zero"}
    doc["checks"] = ["talagrand"]
    with pytest.raises(HypothesisViolation) as err:
        load_scenario(_write(tmp_path, doc))
    assert err.value.hypothesis == "H3"


def test_h4_violation_on_mean_mismatch(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["mu_fin"] = {"kind": "gaussian", "mean": 1.0, "std": 1.0}
    doc["checks"] = ["conserved"]
    with pytest.raises(HypothesisViolation) as err:
        load_scenario(_write(tmp_path, doc))
    assert err.value.hypothesis == "H4"


def test_h2_violation_on_boundary_mass(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["mu_in"] = {"kind": "gaussian", "mean": 0.0, "std": 3.5}
    with pytest.raises(HypothesisViolation) as err:
        load_scenario(_write(tmp_path, doc))
    assert err.value.hypothesis == "H2"


def test_h2_violation_on_an_unresolved_equilibrium():
    # std 1/sqrt(2 kappa) = 0.0032 against cells of 0.25: no cell holds mass
    doc = copy.deepcopy(MINIMAL)
    doc["potential"] = {"kind": "quadratic", "kappa": 47619}
    with pytest.raises(HypothesisViolation, match="not resolved on the grid") as err:
        scenario_from_dict(doc)
    assert err.value.hypothesis == "H2"


def _stiff_particles(amplitude, width):
    doc = json.loads((SCENARIOS / "gaussian_well_particles.json").read_text())
    doc["potential"] = {"kind": "gaussian-well", "amplitude": amplitude, "width": width}
    return doc


def test_stiff_well_rejected_before_particles(tmp_path, capsys, monkeypatch):
    # hess_sup*dt = 1e10/128: unguarded, theta's gap would read 2.1e-5 against
    # its 5e-10 (exit 1), not exit 2
    monkeypatch.setattr(cli, "simulate_particles", None)  # must not be reached
    scenario = _write(tmp_path, _stiff_particles(1e6, 0.01))
    rc = cli.main(["verify", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "H1" in err and "hess_sup·dt <= 1" in err and "['theta']" in err


def test_particle_step_guard_edge():
    dt = 1.0 / 128  # the shipped particle scenario's step
    at_limit = _stiff_particles(PARTICLE_STEP_LIMIT / dt, 1.0)
    assert scenario_from_dict(at_limit).potential.hess_sup * dt == PARTICLE_STEP_LIMIT
    with pytest.raises(HypothesisViolation) as err:
        scenario_from_dict(_stiff_particles(1.01 * PARTICLE_STEP_LIMIT / dt, 1.0))
    assert err.value.hypothesis == "H1"
    # a bridge check does not step particles, so the same well is admitted
    bridge_only = dict(_stiff_particles(1e6, 0.01), checks=["mean-linearity"])
    assert scenario_from_dict(bridge_only).checks == ("mean-linearity",)


def test_theta_particle_guard_edge(tmp_path, capsys, monkeypatch):
    # rejected at load, before an O(N^2) drift runs on every step
    monkeypatch.setattr(cli, "simulate_particles", None)  # must not be reached
    doc = json.loads((SCENARIOS / "gaussian_well_particles.json").read_text())
    at_limit = dict(doc, particles=THETA_MAX_PARTICLES)
    assert scenario_from_dict(at_limit).n_particles == THETA_MAX_PARTICLES == 10_000
    scenario = _write(tmp_path, dict(doc, particles=THETA_MAX_PARTICLES + 1))
    rc = cli.main(["verify", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "at most 10000 particles, got 10001" in capsys.readouterr().err
    # a bridge check maps no particles, so the same count is admitted
    bridge_only = dict(doc, particles=THETA_MAX_PARTICLES + 1, checks=["mean-linearity"])
    assert scenario_from_dict(bridge_only).n_particles == THETA_MAX_PARTICLES + 1


@pytest.mark.parametrize("block, key, bound", [("grid", "n_cells", MAX_N_CELLS),
                                               ("time", "n_steps", MAX_N_STEPS)])
def test_grid_size_guard_edge(tmp_path, capsys, block, key, bound):
    doc = copy.deepcopy(MINIMAL)
    doc["potential"] = {"kind": "zero"}  # no equilibrium to solve at the edge
    doc[block][key] = bound
    sc = scenario_from_dict(doc)
    assert (sc.grid.n_cells, sc.time_grid.n_steps)[block == "time"] == bound == 2048
    doc[block][key] = bound + 1
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"{block}.{key} may be at most {bound}, "
                                             f"got {bound + 1}"):
            scenario_from_dict(doc)
        # rejected before any array of the grid exists
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    rc = cli.main(["verify", "--scenario", str(_write(tmp_path, doc)),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_VALIDATION == 2
    assert f"{block}.{key} may be at most {bound}" in capsys.readouterr().err


def test_mean_shift_without_kappa_checks_is_fine():
    doc = copy.deepcopy(MINIMAL)
    doc["mu_fin"] = {"kind": "gaussian", "mean": 1.0, "std": 1.0}
    doc["checks"] = ["mean-linearity", "time-reversal"]
    assert scenario_from_dict(doc).checks == ("mean-linearity", "time-reversal")


# ------------------------------------------------------------------- flow io


@pytest.fixture
def flow():
    grid = SpatialGrid(6.0, 48)
    tg = TimeGrid(1.0, 8)
    rng = np.random.default_rng(12)
    vals = rng.random((9, 48)) + 0.05
    vals /= vals.sum(axis=1, keepdims=True) * grid.dx
    return MarginalFlow(tg, grid, vals)


def test_flow_binary_round_trip_bitwise(tmp_path, flow):
    path = tmp_path / "flow.bin"
    save_flow(path, flow, "bin")
    back = load_flow(path)
    assert np.array_equal(back.values, flow.values)
    assert back.grid == flow.grid and back.time_grid == flow.time_grid


def test_flow_csv_round_trip(tmp_path, flow):
    path = tmp_path / "flow.csv"
    save_flow(path, flow, "csv")
    back = load_flow(path)
    assert np.max(np.abs(back.values - flow.values)) <= 1e-12


def test_flow_csv_header_takes_numpy_floats(tmp_path, flow):
    # a numpy scalar's repr is "np.float64(6.0)", which no loader parses
    grid = SpatialGrid(np.float64(6.0), 48)
    path = tmp_path / "flow.csv"
    save_flow(path, MarginalFlow(TimeGrid(np.float64(1.0), 8), grid, flow.values), "csv")
    assert path.read_text().startswith(
        "# mfsb-flow,version=1,half_width=6.0,n_cells=48,horizon=1.0,n_steps=8\n")
    assert load_flow(path).grid == flow.grid


def test_flow_checksum_guard(tmp_path, flow):
    path = tmp_path / "flow.bin"
    save_flow(path, flow, "bin")
    blob = bytearray(path.read_bytes())
    blob[len(FLOW_MAGIC) + 60] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        load_flow(path)


def test_flow_truncated_file(tmp_path, flow):
    path = tmp_path / "flow.bin"
    save_flow(path, flow, "bin")
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(ChecksumMismatch):
        load_flow(path)


def test_flow_version_guard(tmp_path, flow):
    import struct
    import zlib
    path = tmp_path / "flow.bin"
    save_flow(path, flow, "bin")
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(FLOW_MAGIC), 99)  # bump the version field
    body = bytes(blob[len(FLOW_MAGIC):-4])
    blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatVersionMismatch):
        load_flow(path)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(5, 11))
    for fmt in ("bin", "csv"):
        path = tmp_path / f"mat.{fmt}"
        save_matrix(path, "positions", values, fmt)
        name, back = load_matrix(path)
        assert name == "positions"
        if fmt == "bin":
            assert np.array_equal(back, values)
        else:
            assert np.max(np.abs(back - values)) <= 1e-12


@pytest.mark.parametrize("load", [load_flow, load_matrix])
def test_empty_csv_is_parse_error(tmp_path, load):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="missing mfsb-"):
        load(path)


# -------------------------------------------------------------- CLI commands


def test_cli_solve_and_artifacts(tmp_path):
    scenario = _write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"flow.bin", "corrector.bin", "summary.json", "manifest.json"} <= names
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diagnostics"]["converged"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["seed"] == 3
    assert "threads" not in manifest


def test_cli_validation_exit_code(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["grid"]["n_cells"] = -4
    scenario = _write(tmp_path, doc)
    rc = cli.main(["solve", "--scenario", str(scenario),
                   "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("case", ["infinite-horizon", "histogram-length",
                                  "fractional-cells", "removed-multi_start",
                                  "overflowing-half-width", "wide-half-width",
                                  "subnormal-width-squared", "unscalable-width"])
def test_cli_malformed_scenario_exit_code(tmp_path, case, capsys):
    path, value, message = MALFORMED[case]
    scenario = _write(tmp_path, _with(path, value))
    rc = cli.main(["verify", "--scenario", str(scenario),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Warning" not in err


def test_cli_nan_hessian_sample_is_h1(tmp_path, capsys):
    # a/s^2 = 1e298 is finite, but off the origin (z/s)^2 overflows and the
    # well's W'' is nan; admitted, the optimality check would fail on nan
    doc = dict(MINIMAL, checks=["optimality"],
               potential={"kind": "gaussian-well", "amplitude": 1e-10, "width": 1e-154})
    scenario = _write(tmp_path, doc)
    rc = cli.main(["verify", "--scenario", str(scenario),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "H1: Hessian is not within its declared upper bound" in err
    assert "Warning" not in err


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    scenario = _write(tmp_path, MINIMAL)
    out = tmp_path / "v"
    # make the only requested check unsatisfiable
    from mfsb import verify as V
    original = V.check_mean_linearity

    def impossible(sol, **kwargs):
        entry = original(sol, **kwargs)
        entry.rhs = -1.0
        return entry

    monkeypatch.setattr(V, "check_mean_linearity", impossible)
    rc = cli.main(["verify", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False


def test_cli_verify_exits_1_on_a_failing_check_end_to_end(tmp_path, capsys):
    # the asymmetric pair on 64 cells x 32 steps: the optimality residual's
    # l2 norm (about 0.118) is well above its threshold 5e-2 (dx + dt)
    doc = json.loads((SCENARIOS / "asymmetric.json").read_text())
    doc["grid"]["n_cells"] = 64
    doc["time"]["n_steps"] = 32
    doc["checks"] = ["optimality"]
    out = tmp_path / "v"
    rc = cli.main(["verify", "--scenario", str(_write(tmp_path, doc)),
                   "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    entry = report["checks"]["optimality"]
    assert entry["pass"] is False
    assert entry["lhs"] > entry["rhs"] == pytest.approx(5e-2 * (0.25 + 0.125))
    assert capsys.readouterr().err.splitlines() == [
        f"[FAIL] optimality lhs={entry['lhs']:.6g} rhs={entry['rhs']:.6g} "
        f"slack={entry['slack']:.6g}"]


def test_cli_verify_prints_one_summary_line_per_check(tmp_path, capsys):
    out = tmp_path / "v"
    rc = cli.run(load_scenario(SCENARIOS / "gaussian_well_particles.json"),
                 "verify", out)
    assert rc == 0
    entry = json.loads((out / "report.json").read_text())["checks"]["theta"]
    node, time = entry["detail"]["worst_node"], entry["detail"]["time"]
    assert capsys.readouterr().err.splitlines() == [
        f"[PASS] theta lhs={entry['lhs']:.6g} rhs={entry['rhs']:.6g} "
        f"slack={entry['slack']:.6g} worst_node={node} time={time:.6g}"]


def test_cli_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    from mfsb import verify as V

    def broken(sol, **kwargs):
        raise RuntimeError("broken check")

    monkeypatch.setattr(V, "check_mean_linearity", broken)
    rc = cli.main(["verify", "--scenario", str(_write(tmp_path, MINIMAL)),
                   "--out", str(tmp_path / "v")])
    assert rc == cli.EXIT_INTERNAL == 4
    assert "RuntimeError" in capsys.readouterr().err


@pytest.mark.parametrize("checks, solves", [
    (["theta"], 0),
    (["mean-linearity"], 1),
    (["time-reversal", "conserved-bound"], 2),
    (["turnpike-rate", "time-reversal"], 3),
])
def test_cli_verify_solves_each_bridge_once_on_demand(tmp_path, monkeypatch,
                                                      checks, solves):
    calls = []
    solve = cli.solve_mfsb

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_mfsb", counted)
    out = tmp_path / "v"
    doc = {**MINIMAL, "checks": checks}
    # turnpike-rate fails on these near-equilibrium endpoints; only the
    # number of solves matters here
    assert cli.main(["verify", "--scenario", str(_write(tmp_path, doc)),
                     "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    assert len(calls) == solves
    report = json.loads((out / "report.json").read_text())
    assert ("solver" in report["environment"]) == (solves > 0)


@pytest.mark.parametrize("command", ["verify", "report"])
def test_cli_computes_the_relative_energy_profile_once(tmp_path, monkeypatch, command):
    calls = []
    relative = V.FreeEnergyGauge.relative
    backward = V.backward_corrector
    backward_calls = []

    def counted(self, mu):
        calls.append(mu)
        return relative(self, mu)

    def counted_backward(*args):
        backward_calls.append(args)
        return backward(*args)

    monkeypatch.setattr(V.FreeEnergyGauge, "relative", counted)
    monkeypatch.setattr(V, "backward_corrector", counted_backward)
    doc = {**MINIMAL, "checks": ["entropy-bound", "turnpike", "conserved"]}
    out = tmp_path / "v"
    assert cli.main([command, "--scenario", str(_write(tmp_path, doc)),
                     "--out", str(out)]) == cli.EXIT_OK
    # one call per time node: the checks, or the report, share one profile
    assert len(calls) == MINIMAL["time"]["n_steps"] + 1
    # and one conserved profile, built from one backward corrector
    assert len(backward_calls) == 1


@pytest.mark.parametrize("checks, bridge", [(["time-reversal"], "reverse"),
                                            (["turnpike-rate"], "doubled-horizon")])
def test_cli_verify_exits_3_when_a_later_solve_stalls(tmp_path, monkeypatch, capsys,
                                                      checks, bridge):
    # every bridge is solved in this process when the CLI asks for it, and
    # the second one under an Armijo test that no step passes
    monkeypatch.setattr(_fork, "spare_cpus", lambda: 0)
    solve = cli.solve_mfsb
    seen = []

    def second_stalls(*args, **kwargs):
        if seen:
            monkeypatch.setattr(solver, "_ARMIJO", 1e300)
        sol = solve(*args, **kwargs)
        seen.append(sol.diagnostics)
        return sol

    monkeypatch.setattr(cli, "solve_mfsb", second_stalls)
    out = tmp_path / "v"
    # a reverse bridge of its own, not a copy of the forward one
    doc = {**MINIMAL, "checks": checks,
           "mu_fin": {"kind": "gaussian", "mean": 0.0, "std": 1.1}}
    rc = cli.main(["verify", "--scenario", str(_write(tmp_path, doc)),
                   "--out", str(out)])
    assert rc == cli.EXIT_NO_CONVERGENCE == 3
    assert len(seen) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["environment"]["solver"]["status"] == "converged"
    assert "stall" not in report["environment"]["solver"]
    # the line search of the first iteration halved the first step, 0.5,
    # 59 times, and asked the last one for far more than J
    stall = seen[1]["stall"]
    assert seen[1]["status"] == "stalled" and seen[1]["iterations"] == 1
    assert stall["step"] == 0.5 ** 60 and stall["armijo_decrease_rel"] > 1e250
    assert (f"solver did not converge: {bridge} bridge stalled (line search gave up "
            f"at step {0.5 ** 60:.3e}, where the Armijo test asked J to fall by "
            f"{stall['armijo_decrease_rel']:.3e} of |J|)") in capsys.readouterr().err


@pytest.mark.parametrize("mu_fin, mkv_flows", [("mkv-endpoint", 1),
                                               ("equilibrium", 1)])
def test_scenario_inputs_are_resolved_once(tmp_path, monkeypatch, mu_fin, mkv_flows):
    from mfsb import scenario, verify
    calls = {"mkv_flow": 0, "equilibrium": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((scenario, "mkv_flow"), (cli, "mkv_flow"),
                         (scenario, "equilibrium"), (verify, "equilibrium")):
        counted(module, name)
    doc = {**MINIMAL, "mu_fin": mu_fin,
           "checks": ["time-reversal", "turnpike-rate", "mkv-distance"]}
    sc = load_scenario(_write(tmp_path, doc))
    # turnpike-rate may fail on these near-equilibrium endpoints; only the
    # number of evaluations matters here
    assert cli.run(sc, "verify", tmp_path / "v") in (cli.EXIT_OK,
                                                      cli.EXIT_CHECK_FAILED)
    # the loader resolves mu_fin and the equilibrium gate once, the MKV flow
    # is evolved once (an mkv-endpoint and mkv-distance share it), and the
    # free-energy gauge solves its own equilibrium at the bridge's initial mean
    assert calls == {"mkv_flow": mkv_flows, "equilibrium": 2}


def test_readme_lists_the_check_table_and_solver_options():
    from dataclasses import fields
    from mfsb import SolverConfig, verify as V
    readme = (SCENARIOS.parent / "README.md").read_text()
    listed = re.search(r"Available checks:(.*?)\.\s", readme, re.S).group(1)
    assert set(re.findall(r"`([^`]+)`", listed)) == set(V.CHECKS)
    row = next(line for line in readme.splitlines() if line.startswith("| `solver`"))
    assert set(re.findall(r"`([^`]+)`", row)) - {"solver"} == \
        {f.name for f in fields(SolverConfig)}


def test_cli_optimality_check_reuses_residual(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["checks"] = ["optimality", "mean-linearity"]
    out = tmp_path / "v"
    assert cli.main(["verify", "--scenario", str(_write(tmp_path, doc)),
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    residual = report["environment"]["optimality_residual"]
    assert report["checks"]["optimality"]["lhs"] == residual["l2_weighted"]
    assert report["checks"]["optimality"]["rhs"] == residual["threshold"]


def test_cli_mkv_simulate_report(tmp_path):
    scenario = _write(tmp_path, MINIMAL)
    assert cli.main(["mkv", "--scenario", str(scenario),
                     "--out", str(tmp_path / "m"), "--format", "csv"]) == 0
    assert (tmp_path / "m" / "mkv_flow.csv").exists()
    assert cli.main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "positions.bin").exists()
    assert cli.main(["report", "--scenario", str(scenario),
                     "--out", str(tmp_path / "r")]) == 0
    for name in ("free_energy_profile.csv", "corrector_energy.csv",
                 "conserved_profile.csv"):
        assert (tmp_path / "r" / name).exists()


def test_cli_report_plots(tmp_path):
    pytest.importorskip("matplotlib")
    scenario = _write(tmp_path, MINIMAL)
    out = tmp_path / "plots"
    rc = cli.main(["report", "--scenario", str(scenario), "--out", str(out),
                   "--plots"])
    assert rc == 0
    for name in ("free_energy.svg", "corrector_energy.svg", "conserved.svg"):
        assert (out / name).exists()


def test_cli_nonconvergence_exit_code(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["mu_fin"] = {"kind": "gaussian", "mean": 0.9, "std": 0.7}
    doc["solver"] = {"max_outer": 1, "init": "mkv"}
    doc["checks"] = []
    scenario = _write(tmp_path, doc)
    rc = cli.main(["solve", "--scenario", str(scenario),
                   "--out", str(tmp_path / "nc")])
    assert rc == 3


def test_cli_reruns_are_byte_identical(tmp_path):
    scenario = _write(tmp_path, MINIMAL)
    outs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        assert cli.main(["solve", "--scenario", str(scenario),
                         "--out", str(base / "solve")]) == 0
        assert cli.main(["simulate", "--scenario", str(scenario),
                         "--out", str(base / "sim")]) == 0
        assert cli.main(["verify", "--scenario", str(scenario),
                         "--out", str(base / "verify")]) == 0
        outs.append(base)
    a_files = sorted(p for p in outs[0].rglob("*") if p.is_file())
    b_files = sorted(p for p in outs[1].rglob("*") if p.is_file())
    assert [p.relative_to(outs[0]) for p in a_files] == \
        [p.relative_to(outs[1]) for p in b_files]
    for pa, pb in zip(a_files, b_files):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
