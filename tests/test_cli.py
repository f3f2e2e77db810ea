import copy
import json
from pathlib import Path

import numpy as np
import pytest

from mfsb import (
    ChecksumMismatch,
    FormatVersionMismatch,
    HypothesisViolation,
    MarginalFlow,
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
from mfsb import cli
from mfsb.flowio import FLOW_MAGIC

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
    "infinite-horizon": (("time", "horizon"), INF, "horizon"),
    "nan-horizon": (("time", "horizon"), NAN, "horizon"),
    "histogram-length": (("mu_in",), {"kind": "histogram", "values": [1.0] * 10},
                         "expected 64 values"),
    "boolean-seed": (("seed",), True, "seed"),
    "nan-kappa": (("potential", "kappa"), NAN, "kappa"),
    "infinite-kappa": (("potential", "kappa"), INF, "kappa"),
    "nan-width": (("potential",),
                  {"kind": "gaussian-well", "amplitude": 1.0, "width": NAN}, "width"),
    "infinite-amplitude": (("potential",),
                           {"kind": "gaussian-well", "amplitude": INF, "width": 1.0},
                           "amplitude"),
    "dead-solver-option": (("solver", "tol_ce"), 1e-3, "unknown solver options"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_is_parse_error(tmp_path, case):
    path, value, message = MALFORMED[case]
    with pytest.raises(ParseError, match=message):
        load_scenario(_write(tmp_path, _with(path, value)))


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


@pytest.mark.parametrize("case", ["infinite-horizon", "histogram-length"])
def test_cli_malformed_scenario_exit_code(tmp_path, case, capsys):
    path, value, message = MALFORMED[case]
    scenario = _write(tmp_path, _with(path, value))
    rc = cli.main(["verify", "--scenario", str(scenario),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


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
