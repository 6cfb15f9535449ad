#!/usr/bin/env python3
"""The quadrep benchmark: seeded workloads, checked answers, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series --seed 1 --seconds 60 --trace 0

One process, one client, closed loop: an op starts when the previous one
has finished.  A run repeats the workload's op list in passes, each pass
starting from empty library caches, until `--seconds` is used up.  With
`--trace 0` the result carries the end-to-end metrics; with `--trace 1`
it carries the per-layer metrics of a traced pass, measured next to
untraced passes of the same op list.  The line before the result is a
report with the environment, the op-tail percentile, the workload's
repeat shares and any failures.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("series", "enum_cli")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
SETUP_PROBES = 7
# an untraced run makes at least this many passes, so that the median pass
# is not a single pass and the tail has samples from more than one pass
MIN_PASSES = 3
CLI_PROBES = 3
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_PROBE_CODE = (
    "import time; t = time.perf_counter(); import numpy; "
    "t1 = time.perf_counter(); import quadrep.cli; print(t1 - t)"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the calling shell set: one client, one core."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed: int, loadavg: str) -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": nproc(),
        "blas_threads": {var: int(os.environ[var]) for var in BLAS_VARS},
        "loadavg_at_start": loadavg,
        "commit": commit,
        "seed": seed,
    }


def setup(name: str, specs: list[dict], cli_env: dict | None):
    """Import numpy and quadrep and build the ops from generated specs.

    Returns the time this took and the ops.  Generating the specs is the
    benchmark's own work and is done before, outside the clock.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import workloads

    ops = workloads.build(name, specs, cli_env)
    return time.perf_counter() - t0, ops


def probe_setup(name: str, seed: int, specs: list[dict]) -> float:
    """Set-up time of a fresh interpreter, handed the specs on its stdin."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        input=json.dumps(specs), capture_output=True, text=True, env=child_env(),
        check=True, timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def probe_cli() -> tuple[float, float]:
    """(start-up wall time, numpy import time) of a fresh `import quadrep.cli`."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI_PROBE_CODE], capture_output=True,
                          text=True, env=child_env(), check=True, timeout=120)
    return time.perf_counter() - t0, float(proc.stdout.strip())


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {reason}")


def run_pass(ops, tracer=None):
    """One timed pass over the op list, from empty caches.

    Returns the pass wall time, each op's latency and each op's outcome:
    ("ok", result) or ("raised", reason).  Checks run after the pass.
    """
    import workloads

    workloads.clear_caches()
    if not workloads.caches_empty():
        raise RuntimeError("library caches are not empty at the start of a timed pass")
    lats, outcomes = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        t = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                tracer.op = i
                result = tracer.call("bench.op", op.run)
            outcome = ("ok", result)
        except Exception as exc:  # a failed op is counted, not fatal
            outcome = ("raised", f"{type(exc).__name__}: {exc}")
        lats.append(time.perf_counter() - t)
        outcomes.append(outcome)
    return time.perf_counter() - t0, lats, outcomes


def check_pass(ops, outcomes, tally: Tally) -> None:
    for op, (kind, value) in zip(ops, outcomes):
        if kind == "raised":
            tally.add(op.label, value)
            continue
        try:
            tally.add(op.label, op.check(value))
        except Exception as exc:  # a malformed result fails its op
            tally.add(op.label, f"check raised {type(exc).__name__}: {exc}")


def op_tail(samples: list[float]) -> dict:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    The samples are every op latency of every pass, so the percentile
    depends on the op count and on how many passes the run made.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return {"percentile": 100 * rank / n, "samples": n, "beyond": n - rank,
            "value": ordered[rank - 1]}


def measure(ops, seconds: float, tally: Tally, reserve: float = 0.0, min_passes: int = 1):
    """Passes, each checked after it ends, while another fits in `seconds`.

    `reserve` keeps room for that many more passes after the last one;
    at least `min_passes` passes run.  Returns the pass wall times and
    every op latency of every pass.
    """
    walls, samples = [], []
    begin = time.perf_counter()
    while True:
        wall, lats, outcomes = run_pass(ops)
        check_pass(ops, outcomes, tally)
        walls.append(wall)
        samples += lats
        elapsed = time.perf_counter() - begin
        if len(walls) >= min_passes and elapsed + max(walls) * (1 + reserve) > seconds:
            return walls, samples


def traced_section(name: str, specs: list[dict], tally: Tally):
    """Traced build of the ops plus one traced pass; returns the tracer and
    the pass wall time."""
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    workloads.clear_caches()
    tracer.install()
    try:
        tracer.op = "setup"
        ops = workloads.build(name, specs, None)
        wall, _, outcomes = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    check_pass(ops, outcomes, tally)
    return tracer, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "quadrep" / "__init__.py").is_file():
        print(f"perfbench: no quadrep sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_blas_threads()
    if args.probe_setup:
        print(setup(args.workload, json.loads(sys.stdin.read()), None)[0])
        return 0

    loadavg = _read("/proc/loadavg").strip()
    name, seed = args.workload, args.seed
    cli_env = None if args.trace else child_env()
    import workloads

    specs = workloads.make_specs(name, seed)
    ops = workloads.build(name, specs, cli_env)

    tally = Tally()
    report = {
        "workload": name,
        "environment": environment(seed, loadavg),
        "ops_per_pass": len(ops),
        "properties": workloads.properties(name, specs),
    }

    if args.trace:
        # leave room for one traced pass, about as long as an untraced one
        walls, _ = measure(ops, args.seconds, tally, reserve=1.0)
        tracer, traced_wall = traced_section(name, specs, tally)
        import tracer as tracing

        probes = [probe_cli() for _ in range(CLI_PROBES)]
        extra = {
            "cli.startup_s": statistics.median(p[0] for p in probes),
            "cli.numpy_import_s": statistics.median(p[1] for p in probes),
            "trace.overhead_s": traced_wall - statistics.median(walls),
        }
        values = tracing.layer_metrics(tracer.spans, tracer.counts, extra)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in tracing.LAYER_METRICS}
        report.update({
            "untraced_walls_s": walls,
            "traced_wall_s": traced_wall,
            "layer_shares_of_traced_pass": tracing.layer_shares(tracer.spans, traced_wall,
                                                                skip_op="setup"),
        })
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace_{name}_seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"report": report, "metrics": values, **tracer.dump()}, fh)
    else:
        walls, samples = measure(ops, args.seconds, tally, min_passes=MIN_PASSES)
        # the larger of the process's own peak and its CLI children's
        peak_rss = max(resource.getrusage(usage).ru_maxrss
                       for usage in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
        tail = op_tail(samples)
        setups = [probe_setup(name, seed, specs) for _ in range(SETUP_PROBES)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_tail_ms": tail["value"] * 1e3,
            "peak_rss_mib": peak_rss,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        report.update({
            "walls_s": walls,
            "setup_samples_s": setups,
            "op_tail": {k: tail[k] for k in ("percentile", "samples", "beyond")},
            "tracer_loaded": "tracer" in sys.modules,
        })

    report.update({
        "passes": len(walls),
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.reasons,
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
