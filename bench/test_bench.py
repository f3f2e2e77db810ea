"""Tests of the benchmark's own logic: the fingerprint gate and span arithmetic.

Run from the repository root with ``python -m pytest bench``.
"""

import copy
import dataclasses
import sys
import types

import numpy as np
import pytest

import fingerprint
import particles
import run
import spans
import workloads


@pytest.fixture
def reference():
    return {**fingerprint.load_references()["asymmetric"], "ensembles": []}


def test_identical_run_matches(reference):
    assert fingerprint.mismatches(copy.deepcopy(reference), reference) == []


def test_cost_within_tolerance_matches(reference):
    observed = copy.deepcopy(reference)
    observed["solves"][0]["cost"] *= 1 + 1e-7
    observed["solves"][1]["iterations"] -= 500  # iterations are not gated
    assert fingerprint.mismatches(observed, reference) == []


def test_cost_moved_by_1e_5_relative_fails(reference):
    observed = copy.deepcopy(reference)
    observed["solves"][1]["cost"] *= 1 + 1e-5
    assert fingerprint.mismatches(observed, reference)


def test_smallest_reference_cost_is_still_gated():
    references = fingerprint.load_references()
    cost = min((s["cost"] for fp in references.values() for s in fp["solves"]
                if s["cost"] > 1e-9), default=None)
    assert cost is not None
    ref = {"exit_code": 0, "passed": [], "ensembles": [], "solves": [
        {"cost": cost, "status": "converged", "iterations": 1}]}
    observed = copy.deepcopy(ref)
    observed["solves"][0]["cost"] *= 1 + 1e-5
    assert fingerprint.mismatches(observed, ref)


def test_flipped_check_fails(reference):
    observed = copy.deepcopy(reference)
    observed["passed"].remove("talagrand")
    assert fingerprint.mismatches(observed, reference)


@pytest.mark.parametrize("change", [
    lambda fp: fp.update(exit_code=1),
    lambda fp: fp.update(exit_code=None),
    lambda fp: fp["solves"][0].update(status="budget"),
    lambda fp: fp["solves"].pop(),
    lambda fp: fp["solves"][0].update(cost=float("nan")),
])
def test_other_differences_fail(reference, change):
    observed = copy.deepcopy(reference)
    change(observed)
    assert fingerprint.mismatches(observed, reference)


@pytest.fixture(scope="module")
def particle_scenario(tmp_path_factory):
    """The particles-well scenario: 600 particles, above the drift's 512-row chunk."""
    cli = run.import_mfsb()
    paths = workloads.scenario_paths("particles-well", 7, run.ROOT,
                                     tmp_path_factory.mktemp("scenarios"))
    scenario = cli.load_scenario(paths["gaussian_well_particles_600"])
    assert scenario.n_particles > 512
    return scenario


def _particle_fingerprint(ensembles):
    return fingerprint.make(0, [], ensembles, {"checks": {"theta": {"pass": True}}})


def _scaled(drift, factor):
    return lambda pot, x, **kw: factor * drift(pot, x, **kw)


def _first_chunk_only(drift):
    # each chunk of rows sees only its own chunk of columns
    def broken(pot, x, chunk=512):
        return np.concatenate([drift(pot, x[lo:lo + chunk], chunk=chunk)
                               for lo in range(0, x.size, chunk)])
    return broken


@pytest.mark.parametrize("break_drift, should_match", [
    (None, True),
    (lambda drift: _scaled(drift, 1 + 1e-4), False),
    (lambda drift: _scaled(drift, 0.0), False),
    (_first_chunk_only, False),
])
def test_particle_gate_catches_a_wrong_drift(particle_scenario, monkeypatch,
                                             break_drift, should_match):
    import mfsb.cli
    import mfsb.dynamics

    if break_drift:
        monkeypatch.setattr(mfsb.dynamics, "interaction_drift",
                            break_drift(mfsb.dynamics.interaction_drift))
    s = particle_scenario
    ensemble = mfsb.cli.simulate_particles(s.potential, s.mu_in(), s.time_grid,
                                           s.n_particles, s.seed)
    observed = _particle_fingerprint([particles.summary(ensemble.positions)])
    reference = _particle_fingerprint(particles.reference_ensembles(s))
    assert (fingerprint.mismatches(observed, reference) == []) == should_match


def test_particle_reference_follows_the_seed(particle_scenario):
    other = dataclasses.replace(particle_scenario, seed=particle_scenario.seed + 1)
    assert (particles.reference_summary(other)
            != particles.reference_summary(particle_scenario))


def _nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    return [
        spans.Span("cli.run", None, 0.0, 10.0),
        spans.Span("solver.solve_mfsb", 0, 1.0, 4.0),
        spans.Span("functionals.corrector", 1, 2.0, 3.0),
        spans.Span("verify.check_talagrand", 0, 5.0, 9.0),
    ]


def test_self_times_of_nested_spans_sum_to_total():
    tree = _nested_spans()
    own = spans.self_times(tree)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(tree[0].duration)


def test_overlapping_children_are_covered_once():
    tree = [spans.Span("cli.run", None, 0.0, 10.0),
            spans.Span("a", 0, 1.0, 6.0),
            spans.Span("b", 0, 4.0, 8.0)]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_layer_metrics_split_the_root_span():
    tracer = spans.Tracer()
    tracer.spans = _nested_spans()
    tracer.add_probe("potentials.conv_force", 0.5)
    m = spans.layer_metrics(tracer)
    assert m["solver.descent_s"] == pytest.approx(2.0)
    assert m["functionals.corrector_s"] == pytest.approx(1.0)
    assert m["verify.checks_s"] == pytest.approx(4.0)
    assert m["solver.solves"] == 1
    assert m["below_root_s"] == pytest.approx(7.0)
    # probe time is a breakdown inside a span, not another tile
    assert (m["potentials.conv_force_calls"], m["potentials.conv_force_s"]) == (1, 0.5)


def test_patches_trace_caller_site_and_restore(monkeypatch):
    inner = types.ModuleType("fake_inner")
    caller = types.ModuleType("fake_caller")

    def work(x):
        return 2 * x

    inner.work = work
    caller.work = work  # the caller imported the function by name
    monkeypatch.setitem(sys.modules, "fake_inner", inner)
    monkeypatch.setitem(sys.modules, "fake_caller", caller)

    tracer = spans.Tracer()
    with spans.Patches() as patches:
        assert patches.wrap("fake_caller", "work",
                            lambda fn: spans._span_wrapper(tracer, "x.work", fn))
        assert not patches.wrap("fake_caller", "missing", lambda fn: fn)
        assert not patches.wrap("fake_caller", "_private", lambda fn: fn)
        assert caller.work(3) == 6
        assert inner.work(3) == 6
    assert caller.work is work
    assert [s.name for s in tracer.spans] == ["x.work"]


def test_traced_pass_is_covered_by_spans(tmp_path):
    cli = run.import_mfsb()
    scenario = cli.load_scenario(run.ROOT / "scenarios" / "equilibrium.json")
    tracer = spans.Tracer()
    with spans.Patches() as patches:
        calls = run.install_recorders(patches)
        assert spans.install(patches, tracer) == []
        seconds, outcomes = run.verify_pass(cli, {"equilibrium": scenario}, tmp_path,
                                            calls, tracer)
    assert not hasattr(cli.solve_mfsb, "__wrapped__")  # every patch was undone
    prints = run.fingerprints(outcomes, tmp_path)
    reference = {**fingerprint.load_references()["equilibrium"], "ensembles": []}
    assert fingerprint.mismatches(prints["equilibrium"], reference) == []
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == [spans.ROOT_SPAN]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(roots[0].duration)
    m = run.per_layer(tracer, seconds, prints, tmp_path)
    assert m["solver.solves"] == 1
    assert m["verify.checks_passed"] == 4
    assert 0.5 < m["trace.coverage_frac"] <= 1.0
