"""plcsim benchmark: drives ``plcsim.cli.main`` in-process on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload reach-sweep --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  One invocation runs one
workload in this fresh process, on one thread, against the sources under
``src/``.  ``--seed`` picks the workload's K inputs (CLI calls with
distinct master seeds); the run calls them round-robin until ``--seconds``
of timed calls have passed.  Outputs are checked outside the timed calls.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: time of one CLI call, from entering ``main`` to its last
  output file written (import excluded): the median over rounds of the
  round's mean call time,
* ``setup_s``: median, over several fresh interpreters, of the time to
  ``import plcsim`` and build ``TrafficModel.from_config(SimulationConfig())``,
* ``peak_rss_mb``: peak RSS of this process after the timed calls.

``--trace 1`` runs each call untraced and traced and reports the per-layer
metrics of ``tracing.LAYER_METRICS``; traced outputs must be byte-identical
to untraced ones, apart from ``created_utc``.

The last stdout line is the JSON result; the line before it holds the
environment, raw samples and quartiles, also written with the recorded
spans under ``.bench_build/perfbench/``.  Without plcsim's sources the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_PROBES = 11
# hard stop for the measuring loop, well inside a run's 180 s limit
MAX_ELAPSED_S = 120.0

# `setup_s` probe: everything a CLI call pays before its first operation
PROBE = """\
import time
t0 = time.perf_counter()
import plcsim
from plcsim import SimulationConfig, TrafficModel
TrafficModel.from_config(SimulationConfig())
print(repr(time.perf_counter() - t0), plcsim.__file__)
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_CREATED_UTC = re.compile(rb'\n\s*"created_utc": "[^"]*"')


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> list[float]:
    """Time `import plcsim` + a ready TrafficModel in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=60, check=True,
        )
        elapsed, module_file = proc.stdout.split()
        if not _under_src(module_file):
            raise RuntimeError("setup probe imported plcsim from %s" % module_file)
        samples.append(float(elapsed))
    return samples


def summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": values}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of each output file, ignoring manifests' created_utc."""
    return {
        p.name: hashlib.sha256(_CREATED_UTC.sub(b"", p.read_bytes())).hexdigest()
        for p in sorted(out.iterdir())
    }


class Runner:
    """Runs a workload's operations and keeps the attempted/failed tally.

    Input k (k = 1..K) is the CLI call with master seed base + k; input 0
    is the untimed warm-up.  The first outputs of each input get the
    workload's exact check; every later call on the same input, traced or
    not, must reproduce them byte for byte.
    """

    def __init__(self, workload, seed: int) -> None:
        from plcsim.cli import main

        self.main = main
        self.workload = workload
        self.base_seed = random.Random(seed).randrange(1 << 31)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, dict[str, str]] = {}
        self.calls = 0

    def op(self, k: int, out: Path, tracer=None) -> float:
        """One checked CLI call on input k; returns its wall time."""
        if out.exists():
            shutil.rmtree(out)
        argv = self.workload.argv(out, self.base_seed + k)
        sink = io.StringIO()
        self.calls += 1
        if tracer is not None:
            tracer.op = self.calls  # spans of one call share this id
            tracer.violations = []
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        rc = self.main(argv)
                    else:
                        rc = tracer.call(tracer.MAIN_SPAN, self.main, (argv,))
                except Exception as exc:  # counted as a failed operation
                    rc = exc
                wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()

        reps = self.workload.replications
        self.attempted += reps
        if rc != 0:
            self.fail(reps, ["exit %r: %s" % (rc, sink.getvalue()[-300:])], k)
            return wall
        failed, problems = 0, []
        if tracer is not None and tracer.violations:
            failed, problems = reps, list(tracer.violations)
        outputs = digest(out)
        if k not in self.digests:
            self.digests[k] = outputs
            checked, found = self.workload.check(out, self.base_seed + k)
            failed, problems = max(failed, checked), problems + found
        elif outputs != self.digests[k]:
            failed, problems = reps, problems + ["outputs differ from the first call"]
        if failed:
            self.fail(failed, problems, k)
        return wall

    def fail(self, count: int, problems: list[str], k: int) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append("input %d: %s" % (k, "; ".join(problems[:3])))

    def rounds(self, seconds: float, call) -> None:
        """Warm up on input 0, then call inputs 1..K round-robin until the
        timed calls add up to `seconds` (whole rounds only)."""
        start = time.perf_counter()
        call(0)
        measured = 0.0
        while measured < seconds and time.perf_counter() - start < MAX_ELAPSED_S:
            for k in range(1, self.workload.inputs + 1):
                measured += call(k)


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    out = WORK / ("%s-out" % runner.workload.name)
    walls: dict[int, list[float]] = defaultdict(list)

    def call(k: int) -> float:
        wall = runner.op(k, out)
        if k:
            walls[k].append(wall)
        return wall

    runner.rounds(seconds, call)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(out, ignore_errors=True)
    # every round calls the same K inputs, so round means differ only by
    # machine noise; their median damps the noise of single calls
    round_means = [statistics.fmean(r) for r in zip(*walls.values())]
    metrics = {
        "wall_s": statistics.median(round_means),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "wall_s": summary(round_means),
        "wall_s_per_input": {str(k): v for k, v in walls.items()},
        "setup_s": summary(setup),
    }
    return {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}, detail


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    import tracing

    plain_out = WORK / ("%s-untraced" % runner.workload.name)
    traced_out = WORK / ("%s-traced" % runner.workload.name)
    warm = tracing.Tracer()
    tracer = tracing.Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    pairs = 0

    def call(k: int) -> float:
        nonlocal pairs
        active = tracer if k else warm
        # alternate which side runs first, so drift does not bias overhead
        order = (False, True) if pairs % 2 == 0 else (True, False)
        pairs += 1
        spent = 0.0
        for traced in order:
            if traced:
                wall = runner.op(k, traced_out, active)
                if k:
                    active.counts["bytes_written"] += sum(
                        p.stat().st_size for p in traced_out.iterdir()
                    )
            else:
                wall = runner.op(k, plain_out)
            if k:
                walls[traced].append(wall)
            spent += wall
        return spent

    runner.rounds(seconds, call)
    for out in (plain_out, traced_out):
        shutil.rmtree(out, ignore_errors=True)
    tracer.absent |= warm.absent

    n_ops = len(walls[True])
    values = tracer.metrics(n_ops, sum(walls[True]), sum(walls[False]))
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better, _moves in tracing.LAYER_METRICS
    }
    spans_path.write_text(json.dumps({
        "fields": ["id", "parent", "op", "name", "t0", "t1"],
        "spans": tracer.spans,
    }))
    detail = {
        "traced_wall_s": summary(walls[True]),
        "untraced_wall_s": summary(walls[False]),
        "layer_self_s": tracer.layer_self_s(n_ops),
        "absent": sorted(tracer.absent),
        "moves": {name: moves for name, _u, _b, moves in tracing.LAYER_METRICS},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plcsim" / "__init__.py").is_file():
        print("perfbench: no plcsim sources under %s" % SRC, file=sys.stderr)
        return 2
    # one thread: keep numpy's linear-algebra pools out of the measurement
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import plcsim

    if not _under_src(plcsim.__file__):
        print("perfbench: plcsim imported from %s, not %s" % (plcsim.__file__, SRC), file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    WORK.mkdir(parents=True, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], args.seed)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        metrics, detail = run_traced(runner, args.seconds, WORK / ("spans-%s.json" % stem))
    else:
        metrics, detail = run_untraced(runner, args.seconds)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "fail_frac": runner.failed / runner.attempted,
        "failures": runner.failures,
        **detail,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    (WORK / ("result-%s.json" % stem)).write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
