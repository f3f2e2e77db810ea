"""verify's bridges solved in forked children: the same bytes, the same exit
codes, and no child left behind."""

import json
import os
from functools import cached_property
from pathlib import Path
from unittest import mock

import pytest

from mfsb import (InfeasibleEndpoints, NoConvergence, _fork, cli, scenario_from_dict,
                  solver)
from mfsb import verify as V

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# the run attributes that hold the bridges beyond the forward one
BRIDGE_ATTRIBUTES = {"sol_reverse": "reverse", "sol_double": "doubled-horizon"}


def _small_asymmetric(checks=None) -> dict:
    """The shipped asymmetric pair on 64 cells x 32 steps."""
    doc = json.loads((SCENARIOS / "asymmetric.json").read_text())
    doc["grid"]["n_cells"] = 64
    doc["time"]["n_steps"] = 32
    if checks is not None:
        doc["checks"] = checks
    return doc


pytestmark = pytest.mark.usefixtures("time_bound")


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs this process may use."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use


class _Forks(list):
    """The pid of every child this process forks.  live holds the number of
    its children alive at each fork, and bodies the body of each Child."""

    def __init__(self):
        super().__init__()
        self.live, self.bodies = [], []


@pytest.fixture
def forks(monkeypatch):
    """The children this process forks, as a _Forks."""
    forked = _Forks()
    fork, start = os.fork, _fork.Child.__init__

    def recorded():
        live = len(_fork._RUNNING)
        pid = fork()
        if pid:
            forked.append(pid)
            forked.live.append(live)
        return pid

    def started(child, body, *args):
        forked.bodies.append(body.__name__)
        start(child, body, *args)
    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(_fork.Child, "__init__", started)
    return forked


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raising_in(where, exc, monkeypatch):
    """Make the solver body raise exc in the children, or in this process."""
    parent = os.getpid()
    solve = solver._solve

    def body(*problem):
        if (os.getpid() == parent) == (where == "parent"):
            raise exc
        return solve(*problem)
    monkeypatch.setattr(solver, "_solve", body)


class _RecordingRun:
    """A run whose every attribute is a mock, recording the names read."""

    def __init__(self):
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return mock.MagicMock()


@pytest.mark.parametrize("name", sorted(V.CHECKS))
def test_each_check_reads_exactly_the_bridges_it_declares(monkeypatch, name):
    for attr in dir(V):
        if attr.startswith("check_") or attr == "turnpike_rate":
            monkeypatch.setattr(V, attr, mock.MagicMock())
    run = _RecordingRun()
    V.CHECKS[name].entries(run)
    read = {attr for attr in run.read if attr.startswith("sol")}
    assert read <= {"sol", *BRIDGE_ATTRIBUTES}
    assert {BRIDGE_ATTRIBUTES[attr] for attr in read - {"sol"}} == \
        set(V.CHECKS[name].bridges)


def test_run_solves_each_declared_bridge_by_name():
    for attr in BRIDGE_ATTRIBUTES:
        assert isinstance(vars(cli._Run)[attr], cached_property)
    run = cli._Run(scenario_from_dict(_small_asymmetric()), False, False)
    forward = run.problem("forward")
    reverse = run.problem("reverse")
    doubled = run.problem("doubled-horizon")
    assert (reverse[1], reverse[2]) == (forward[2], forward[1])
    assert doubled[4].horizon == 2.0 * forward[4].horizon
    with pytest.raises(ValueError, match="unknown bridge"):
        run.problem("sideways")


@pytest.mark.parametrize("mode", ["one cpu", "no fork"])
def test_forked_and_sequential_verify_write_the_same_bytes(tmp_path, monkeypatch,
                                                          cpus, forks, mode):
    doc = _small_asymmetric()
    doc["checks"] = doc["checks"] + ["turnpike-rate"]
    cpus(3)
    forked = cli.run(scenario_from_dict(doc), "verify", tmp_path / "forked")
    assert len(forks) == 2
    _assert_no_child()
    if mode == "one cpu":
        cpus(1)

        def refuse():
            raise AssertionError("verify forked with one usable CPU")
        monkeypatch.setattr(os, "fork", refuse)
    else:
        monkeypatch.delattr(os, "fork")
    sequential = cli.run(scenario_from_dict(doc), "verify", tmp_path / "sequential")
    assert forked == sequential
    for name in ("report.json", "manifest.json"):
        assert (tmp_path / "forked" / name).read_bytes() == \
            (tmp_path / "sequential" / name).read_bytes(), name


def test_children_are_capped_by_usable_cpus(tmp_path, cpus, forks):
    cpus(2)
    doc = _small_asymmetric(["time-reversal", "turnpike-rate"])
    assert cli.run(scenario_from_dict(doc), "verify", tmp_path) in (
        cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    # no fork while the one usable CPU beyond this process's own is taken:
    # the reverse bridge's child, and once it is collected, the helper of
    # the doubled-horizon descent
    assert forks.live == [0] * len(forks)
    assert forks.bodies == ["_solve", "_run_phase"]
    _assert_no_child()


@pytest.mark.parametrize("exc, code", [
    (NoConvergence("reverse bridge gave up"), cli.EXIT_NO_CONVERGENCE),
    (InfeasibleEndpoints("reverse endpoints are infeasible"), cli.EXIT_VALIDATION),
    (ValueError("reverse bridge broke"), cli.EXIT_INTERNAL),
])
def test_an_exception_in_a_child_keeps_its_exit_code(tmp_path, monkeypatch, capsys,
                                                     cpus, forks, exc, code):
    cpus(2)
    _raising_in("child", exc, monkeypatch)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_small_asymmetric(["conserved", "time-reversal"])))
    assert cli.main(["verify", "--scenario", str(path),
                     "--out", str(tmp_path / "v")]) == code
    assert len(forks) == 1
    _assert_no_child()
    err = capsys.readouterr().err
    assert str(exc) in err
    if code == cli.EXIT_INTERNAL:
        # the child's traceback, down to the frame that raised
        assert "in body" in err and "raise exc" in err


@pytest.mark.parametrize("end", ["dies", "answers what cannot be pickled"])
def test_a_child_without_a_usable_answer_is_an_internal_error(tmp_path, monkeypatch,
                                                              capsys, cpus, forks, end):
    cpus(2)
    parent = os.getpid()
    solve = solver._solve

    def body(*problem):
        if os.getpid() == parent:
            return solve(*problem)
        if end == "dies":
            os._exit(7)
        return lambda: None
    monkeypatch.setattr(solver, "_solve", body)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_small_asymmetric(["conserved", "time-reversal"])))
    assert cli.main(["verify", "--scenario", str(path),
                     "--out", str(tmp_path / "v")]) == cli.EXIT_INTERNAL
    assert len(forks) == 1
    _assert_no_child()
    err = capsys.readouterr().err
    if end == "dies":
        assert f"child {forks[0]} (body) sent no result (exit status 7)" in err
    else:
        # raised in the child's reply, and sent back as its exception
        assert "pickle" in err and "in _serve" in err


@pytest.mark.parametrize("path", ["returns", "forward solve raises", "check raises"])
def test_no_child_outlives_run(tmp_path, monkeypatch, cpus, forks, path):
    cpus(2)
    if path == "forward solve raises":
        _raising_in("parent", RuntimeError("forward bridge broke"), monkeypatch)
    elif path == "check raises":
        def broken(sol, **kwargs):
            raise RuntimeError("check broke")
        monkeypatch.setattr(V, "check_mean_linearity", broken)
    sc = scenario_from_dict(_small_asymmetric(["mean-linearity", "time-reversal"]))
    if path == "returns":
        # mean-linearity fails on this coarse grid; only the children matter
        assert cli.run(sc, "verify", tmp_path) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    else:
        with pytest.raises(RuntimeError, match="broke"):
            cli.run(sc, "verify", tmp_path)
    assert len(forks) == 1
    _assert_no_child()
    assert solver._AHEAD == {}


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_bridge_equal_to_the_forward_one_is_solved_once(tmp_path, monkeypatch, cpus,
                                                          forks, n_cpus):
    # on classical_gaussian the reverse bridge is the forward one
    doc = json.loads((SCENARIOS / "classical_gaussian.json").read_text())
    doc["grid"]["n_cells"] = 64
    doc["time"]["n_steps"] = 32
    doc["checks"] = ["time-reversal"]
    cpus(n_cpus)
    solves, answers = [], []
    solve, call = solver._solve, cli.solve_mfsb
    monkeypatch.setattr(solver, "_solve", lambda *p: solves.append(p) or solve(*p))
    monkeypatch.setattr(cli, "solve_mfsb",
                        lambda *p: answers.append(call(*p)) or answers[-1])
    assert cli.run(scenario_from_dict(doc), "verify", tmp_path) == cli.EXIT_OK
    # no child solves the reverse bridge; a spare CPU goes to the forward
    # descent's helper
    assert len(solves) == 1 and forks.live == [0] * len(forks)
    assert forks.bodies == ["_run_phase"] * (n_cpus - 1)
    # the CLI still asks for each bridge, and each answer is its own copy
    forward, reverse = answers
    assert reverse is not forward and reverse.diagnostics is not forward.diagnostics
    assert (reverse.cost, reverse.diagnostics) == (forward.cost, forward.diagnostics)
    assert reverse.flow.values.tobytes() == forward.flow.values.tobytes()
    assert solver._AHEAD == {}
    _assert_no_child()


def test_a_descent_helper_that_dies_is_an_internal_error(tmp_path, monkeypatch, capsys,
                                                        cpus, forks, blas_threads):
    cpus(2)
    parent = os.getpid()
    edge_terms = solver._edge_terms

    def dies_in_the_helper(*args):
        if os.getpid() != parent:
            os._exit(7)
        return edge_terms(*args)
    monkeypatch.setattr(solver, "_edge_terms", dies_in_the_helper)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_small_asymmetric(["conserved"])))
    # the descent gives BLAS back the thread count it found
    for count in (2, 3):
        blas_threads(count)
        assert cli.main(["verify", "--scenario", str(path),
                         "--out", str(tmp_path / "v")]) == cli.EXIT_INTERNAL
        assert forks.bodies[-1:] == ["_run_phase"]
        _assert_no_child()
        assert _fork._RUNNING == set()
        assert _fork.blas_calls()[0]() == count
        err = capsys.readouterr().err
        assert f"child {forks[-1]} (_run_phase) sent no result (exit status 7)" in err
    assert len(forks.bodies) == 2
