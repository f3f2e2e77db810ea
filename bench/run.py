"""Benchmark of `mfsb verify`: wall time, set-up time and memory per workload,
every answer checked against a reference fingerprint, and per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload bridge-asym --seed 1 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from hashlib import sha256
from pathlib import Path

import fingerprint
import particles
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_out"
# Share of an untraced run spent on set-up samples, which are taken between
# passes so that they meet the machine in the same states the passes do.
SETUP_SHARE = 0.15
MIN_SETUP_SAMPLES = 5

# One set-up sample, in a fresh interpreter: what every CLI invocation pays
# before it starts working (import, then load and validate each scenario).
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mfsb.cli
for path in sys.argv[2:]:
    mfsb.cli.load_scenario(path)
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass and store its fingerprints as the reference")
    return parser.parse_args(argv)


def import_mfsb():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "mfsb" / "__init__.py").is_file():
        sys.exit(f"no mfsb sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import mfsb.cli
    if Path(mfsb.__file__).resolve().parent != (SRC / "mfsb").resolve():
        sys.exit(f"imported mfsb from {mfsb.__file__}, not from {SRC}")
    return mfsb.cli


def setup_sample(paths) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, paths)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _git_commit() -> str | None:
    # only this checkout's own .git, never that of a repository around it
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = sha256()
    for path in sorted((SRC / "mfsb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def record_calls(sink: list, summarize, fn):
    """Wrap fn so that each call appends summarize(result) to sink."""
    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(summarize(result))
        return result
    return recorded


def install_recorders(patches: spans.Patches) -> dict:
    """Record every solve and particle ensemble the CLI asks for."""
    calls = {"solves": [], "ensembles": []}
    patches.wrap("mfsb.cli", "solve_mfsb", functools.partial(
        record_calls, calls["solves"], fingerprint.solve_record))
    patches.wrap("mfsb.cli", "simulate_particles", functools.partial(
        record_calls, calls["ensembles"], lambda ens: particles.summary(ens.positions)))
    return calls


def verify_pass(cli, scenarios: dict, out: Path, calls: dict, tracer=None):
    """One `mfsb verify` over every scenario; returns (seconds, outcomes)."""
    for key in scenarios:
        shutil.rmtree(out / key, ignore_errors=True)
    outcomes = {}
    t0 = time.perf_counter()
    for key, scenario in scenarios.items():
        index = tracer.open(spans.ROOT_SPAN) if tracer else None
        try:
            code = cli.run(scenario, "verify", out / key)
        except Exception:
            traceback.print_exc()
            code = None
        finally:
            if tracer:
                tracer.close(index)
        outcomes[key] = (code, {kind: sink[:] for kind, sink in calls.items()})
        for sink in calls.values():
            sink.clear()
    return time.perf_counter() - t0, outcomes


def fingerprints(outcomes: dict, out: Path) -> dict:
    prints = {}
    for key, (code, recorded) in outcomes.items():
        report_path = out / key / "report.json"
        report = json.loads(report_path.read_text()) if report_path.is_file() else None
        prints[key] = fingerprint.make(code, recorded["solves"], recorded["ensembles"],
                                       report)
    return prints


def bytes_written(out: Path, keys) -> int:
    return sum(f.stat().st_size for key in keys for f in (out / key).rglob("*")
               if f.is_file())


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_mfsb()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = RUN_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    paths = workloads.scenario_paths(args.workload, args.seed, ROOT, work / "scenarios")
    stored = {} if args.record else fingerprint.load_references()

    with spans.Patches() as always:
        calls = install_recorders(always)

        load_tracer = spans.Tracer()
        with spans.Patches() as traced:
            if args.trace:
                for site in spans.install(traced, load_tracer):
                    print(f"warning: span site {site} not found", file=sys.stderr)
            scenarios = {key: cli.load_scenario(path) for key, path in paths.items()}
        references = {key: {**stored[key],
                            "ensembles": particles.reference_ensembles(scenario)}
                      for key, scenario in scenarios.items() if key in stored}

        if args.record:
            _, outcomes = verify_pass(cli, scenarios, out, calls)
            recorded = fingerprints(outcomes, out)
            if fingerprint.REFERENCE_FILE.is_file():
                recorded = {**fingerprint.load_references(), **recorded}
            fingerprint.save_references(recorded)
            print(json.dumps(recorded, indent=2, sort_keys=True))
            return 0

        attempted = failed = 0
        durations = {False: [], True: []}
        layer_samples = []
        setup, setup_spent = [], 0.0
        share = 0.0 if args.trace else SETUP_SHARE
        modes = itertools.cycle((False, True)) if args.trace else itertools.repeat(False)
        start = time.perf_counter()
        while True:
            while setup_spent < share * (time.perf_counter() - start):
                t0 = time.perf_counter()
                setup.append(setup_sample(paths.values()))
                setup_spent += time.perf_counter() - t0
            # start another pass only if a typical pass would end in time
            if durations[False] and (durations[True] or not args.trace):
                typical = statistics.median(durations[False] + durations[True])
                if time.perf_counter() - start + typical > args.seconds:
                    break
            traced_pass = next(modes)
            tracer = spans.Tracer() if traced_pass else None
            with spans.Patches() as traced:
                if tracer:
                    spans.install(traced, tracer)
                seconds, outcomes = verify_pass(cli, scenarios, out, calls, tracer)
            durations[traced_pass].append(seconds)
            prints = fingerprints(outcomes, out)
            for key, observed in prints.items():
                attempted += 1
                problems = (fingerprint.mismatches(observed, references[key])
                            if key in references else ["no reference fingerprint"])
                if problems:
                    failed += 1
                    print(f"FAIL {key}: " + "; ".join(problems), file=sys.stderr)
            if tracer:
                layer_samples.append(per_layer(tracer, seconds, prints, out))
        while share and len(setup) < MIN_SETUP_SAMPLES:
            setup.append(setup_sample(paths.values()))

    if args.trace:
        metrics = {name: statistics.median(s[name] for s in layer_samples)
                   for name in layer_samples[0]}
        metrics["scenario.load_s"] = spans.layer_metrics(load_tracer)["scenario.load_s"]
        metrics["trace.overhead_frac"] = (statistics.median(durations[True])
                                          / statistics.median(durations[False]) - 1.0)
        wanted = benchmark["per_layer"]
    else:
        metrics = {
            "verify_s": statistics.median(durations[False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        wanted = benchmark["end_to_end"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(durations[False])} untraced and {len(durations[True])} traced "
          f"passes over {len(scenarios)} scenarios")
    print(f"  untraced pass times (s): {' '.join(f'{d:.4f}' for d in durations[False])}")
    if setup:
        print(f"  setup samples (s): {' '.join(f'{d:.4f}' for d in setup)}")
    result = {}
    for spec in wanted:
        value = metrics[spec["name"]]
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<30} {value:>14.6g} {spec['unit']}")
    print(f"  {'fail_frac':<30} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} scenario runs failed)")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def per_layer(tracer, pass_s: float, prints: dict, out: Path) -> dict:
    """Per-layer metrics of one traced pass."""
    m = spans.layer_metrics(tracer)
    below_root = m.pop("below_root_s")
    m.pop("scenario.load_s")
    iterations = sum(s["iterations"] for p in prints.values() for s in p["solves"])
    m["solver.iterations"] = iterations
    m["solver.descent_ms_per_iter"] = (1e3 * m["solver.descent_s"] / iterations
                                       if iterations else 0.0)
    m["verify.checks_passed"] = sum(len(p["passed"]) for p in prints.values())
    m["flowio.bytes_written"] = bytes_written(out, prints)
    m["cli.self_s"] = pass_s - below_root
    m["trace.coverage_frac"] = below_root / pass_s
    return m


if __name__ == "__main__":
    sys.exit(main())
