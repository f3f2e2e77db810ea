import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mfsb

ROOT = Path(__file__).resolve().parents[1]

# Every keyword default of the public API, by "module.function" or
# "module.Class.method"; a dataclass lists its defaulted fields.  Fixed
# numerics are module constants, so a new default here is a deliberate edit.
DEFAULTS = {
    "cli.main": {"argv"},
    "cli.run": {"fmt", "strict_w2", "plots"},
    "dynamics.interaction_drift": {"chunk"},
    "dynamics.simulate_particles": {"init"},
    "flowio.save_flow": {"fmt"},
    "flowio.save_matrix": {"fmt"},
    "flowio.write_manifest": {"extra"},
    "functionals.BridgeSolution": {"diagnostics"},
    "potentials.InteractionPotential": {"params"},
    "scenario.Scenario": {"raw"},
    "solver.SolverConfig": {"max_outer", "init"},
    "solver.solve_mfsb": {"config"},
    "verify.CheckEntry": {"detail"},
    "verify.VerificationReport": {"environment"},
    "verify.check_conserved_bound": {"cost_reverse"},
    "verify.check_mkv_distance": {"strict_w2"},
}


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        qualified = f"{module.__name__.removeprefix('mfsb.')}.{name}"
        if inspect.isfunction(obj):
            yield qualified, obj
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                yield qualified, obj.__init__
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{qualified}.{attr}", member


def test_public_defaults_are_the_listed_ones():
    found = {}
    for info in pkgutil.iter_modules(mfsb.__path__):
        module = importlib.import_module(f"mfsb.{info.name}")
        for qualified, function in _public_callables(module):
            defaults = {name for name, p in inspect.signature(function).parameters.items()
                        if p.default is not inspect.Parameter.empty}
            if defaults:
                found[qualified] = defaults
    assert found == DEFAULTS


PROCESS_CALLS = {"fork", "kill", "waitpid", "_exit"}


def _process_calls(path: Path) -> set:
    """The os.fork, os.kill, os.waitpid and os._exit calls in a file."""
    return {node.func.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
            and node.func.attr in PROCESS_CALLS}


def test_only_the_fork_module_starts_and_ends_processes():
    src = ROOT / "src" / "mfsb"
    assert _process_calls(src / "_fork.py") == PROCESS_CALLS  # the walk finds them
    calls = {path.name: _process_calls(path) for path in sorted(src.glob("*.py"))
             if path.name != "_fork.py"}
    assert len(calls) > 1 and not any(calls.values()), calls


def _wire_uses(path: Path) -> set:
    """"pickle" if a file imports pickle, and "_poll" if it names _poll."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(a.name == "pickle" for a in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "pickle":
            found.add("pickle")
        if isinstance(node, ast.Name) and node.id == "_poll" \
                or isinstance(node, ast.Attribute) and node.attr == "_poll":
            found.add("_poll")
    return found


def test_only_the_fork_module_reads_and_writes_a_child_s_pipes():
    # the inbox's wire format is _fork's own: a child is reached through call
    src = ROOT / "src" / "mfsb"
    assert _wire_uses(src / "_fork.py") == {"pickle", "_poll"}  # the walk finds them
    uses = {path.name: _wire_uses(path) for path in sorted(src.glob("*.py"))
            if path.name != "_fork.py"}
    assert len(uses) > 1 and not any(uses.values()), uses


def _run_without_scipy(code: str, *args):
    """Run code in a fresh interpreter in which every import of scipy fails."""
    done = subprocess.run([sys.executable, "-c",
                           'import sys; sys.modules["scipy"] = None\n' + code,
                           *map(str, args)],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_startup_and_a_particle_verify_import_no_scipy_solver(tmp_path):
    scenarios = ROOT / "scenarios"
    paths = sorted(p for p in scenarios.glob("*.json") if p.stem != "mkv_endpoint")
    assert len(paths) == 5
    _run_without_scipy("""
import mfsb.cli
out, verify, *paths = sys.argv[1:]
for path in paths:
    mfsb.cli.load_scenario(path)
assert mfsb.cli.run(mfsb.cli.load_scenario(verify), "verify", out) == 0
""", tmp_path, scenarios / "gaussian_well_particles.json", *paths)


def test_fokker_planck_steps_run_without_scipy(tmp_path):
    # loading mkv_endpoint evolves an MKV flow; its verify takes the mkv init
    # and the mkv-distance check
    paths = sorted((ROOT / "scenarios").glob("*.json"))
    assert len(paths) == 6
    _run_without_scipy("""
import mfsb.cli
out, *paths = sys.argv[1:]
for path in paths:
    mfsb.cli.load_scenario(path)
verify = next(p for p in paths if p.endswith("mkv_endpoint.json"))
assert mfsb.cli.run(mfsb.cli.load_scenario(verify), "verify", out) == 0
""", tmp_path, *paths)
