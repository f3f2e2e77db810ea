import dataclasses
import importlib
import inspect
import pkgutil

import mfsb

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
    "functionals.relative_free_energy": {"equilibrium_measure"},
    "potentials.InteractionPotential": {"params"},
    "scenario.Scenario": {"raw"},
    "solver.SolverConfig": {"max_outer", "init", "multi_start"},
    "solver.bb_objective": {"tol_ce"},
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
