"""Benchmark of the nhosc command line, run in-process from a source checkout.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One closed-loop client: each task is `nhosc.cli.main(argv)` with stdout
captured, and the next task starts when it returns.  A run makes passes over
the workload's seeded task pool: one whole pass, then more tasks in pool order
while each is expected to end within --seconds.  Each task's output is checked
outside the timed region (see checks.py).

End-to-end times are normalised: a fixed reference kernel (reference.py) is
timed between tasks, each task repeat is divided by the reference samples
around it, and each task counts once, with its median repeat, so every run
weighs the same mix of tasks.  Raw wall times are printed beside them but not
gated.

--trace 0 prints the end-to-end metrics.  --trace 1 makes one untraced pass,
then traced passes, and prints the per-layer metrics (see tracing.py); the
difference between the two kinds of pass is the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Output digests and work counters of every task are kept in
bench/out/digests.json; a task whose digest or counters differ from an earlier
run in the same checkout counts as failed.  Delete bench/out/ after changing
the program's output on purpose.
"""

import os

# Pinned before numpy is imported: one BLAS thread, serial scans.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NHOSC_SCAN_WORKERS", None)

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import checks
import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 11
# Reference samples (see reference.py) take this share of a run's time, taken
# between tasks; each task is normalised by the samples within REF_WINDOW_S of it.
REF_SHARE = 0.05
REF_WINDOW_S = 1.0
RUN_TIMEOUT_S = 170


def declared_units(trace):
    """Metric name -> unit, from BENCHMARK.json, for the end-to-end or per-layer set."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment():
    """Machine and library versions, recorded with every result."""
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def import_cli():
    """Import nhosc afresh from the checkout's src/, dropping any earlier copy."""
    for name in [name for name in sys.modules if name == "nhosc" or name.startswith("nhosc.")]:
        del sys.modules[name]
    cli = importlib.import_module("nhosc.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"imported nhosc from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv):
    """Run the CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed task, not a failed benchmark
            code = "exception"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def setup(workload, seed):
    """Import the package, build the task pool and warm up, SETUP_REPEATS times.

    Each repeat follows a reference sample.  Returns the CLI module of the last
    repeat, the pool and (set-up seconds, reference ms) for each repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        ref_ms = reference.sample()
        start = perf_counter()
        cli = import_cli()
        pool = workloads.POOLS[workload](seed)
        for argv in workloads.WARMUP:
            code, _, err = call(cli, argv)
            if code != 0:
                raise SystemExit(f"warm-up {' '.join(argv)} exited {code}: {err.strip()}")
        times.append((perf_counter() - start, ref_ms))
    return cli, pool, times


class DigestStore:
    """sha256 of each task's stdout and its work counters, kept across runs."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as handle:
                self.entries = json.load(handle)
        except (OSError, ValueError):
            self.entries = {}

    def check(self, key, field, value):
        """Record value; return a message if it differs from the one on record."""
        entry = self.entries.setdefault(key, {})
        known = entry.setdefault(field, value)
        if known != value:
            return f"{field} differs from an earlier run: {value} != {known}"
        return None

    def save(self):
        self.path.parent.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.entries, handle, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


class Run:
    """Timed passes over one pool, with checks after each task."""

    def __init__(self, cli, pool, store):
        self.cli = cli
        self.pool = pool
        self.store = store
        self.oracles = {}
        self.samples = []  # (task key, start, wall ms, CPU ms) of every timed task
        self.refs = []  # (time, ms) of every reference sample
        self.ref_seconds = 0.0
        self.last_wall = {}
        self.started = perf_counter()
        self.failures = []

    def task(self, task, tracer=None):
        """Run one task in the timed region, then check it."""
        while self.ref_seconds <= REF_SHARE * (perf_counter() - self.started):
            at = perf_counter()
            ms = reference.sample()
            self.refs.append((at, ms))
            self.ref_seconds += ms / 1e3
        if tracer is not None:
            tracer.begin_task()
        start_cpu = process_time()
        start = perf_counter()
        code, stdout, stderr = call(self.cli, task.argv)
        wall = perf_counter() - start
        cpu = process_time() - start_cpu
        self.samples.append((task.key, start, 1e3 * wall, 1e3 * cpu))
        self.last_wall[task.key] = wall

        data = stdout.encode("utf-8")
        oracle = None
        if task.kind == "spectrum":
            if task.key not in self.oracles:
                self.oracles[task.key] = checks.oracle_levels(
                    task.expect["quadratic"], task.expect["trunc"], task.expect["levels"])
            oracle = self.oracles[task.key]
        errors = checks.check(task, code, stdout, oracle)
        if stderr and code == 0:
            errors.append(f"unexpected stderr: {stderr.strip()[:200]}")
        errors.append(self.store.check(task.key, "sha256", hashlib.sha256(data).hexdigest()))
        if tracer is not None:
            counters = tracer.end_task(wall, len(data))
            errors.append(self.store.check(task.key, "counters", counters))
        errors = [e for e in errors if e]
        if errors:
            self.failures.append({"task": task.key, "errors": errors,
                                  "stderr": stderr.strip()[-2000:]})

    def passes(self, budget_s, tracer=None):
        """Whole passes, at least one, while the next is expected to end within budget_s."""
        start = perf_counter()
        done = 0
        while True:
            for task in self.pool:
                self.task(task, tracer)
            done += 1
            elapsed = perf_counter() - start
            if elapsed * (done + 1) / done > budget_s:
                return done, elapsed

    def until(self, budget_s):
        """One whole pass, then tasks in pool order while each is expected to
        end within budget_s, taking as long as its last repeat.

        Each task counts with its median repeat, so a last pass cut short
        leaves the mix of work unchanged while it uses the whole budget.
        """
        start = perf_counter()
        self.passes(0.0)
        while True:
            for task in self.pool:
                if perf_counter() - start + self.last_wall[task.key] > budget_s:
                    return
                self.task(task)


def local_ref(refs, start, end):
    """Median of the reference samples taken within REF_WINDOW_S of [start, end]."""
    times = [at for at, _ in refs]
    lo = bisect.bisect_left(times, start - REF_WINDOW_S)
    hi = bisect.bisect_right(times, end + REF_WINDOW_S)
    return statistics.median(ms for _, ms in refs[min(lo, hi - 1):hi])


def normalised(run, field):
    """Each task's median repeat in normalised ms; field 2 is wall, 3 is CPU time.

    Every repeat is divided by the reference samples around it and multiplied
    by reference.NOMINAL_MS, which takes out how fast the machine happened to
    be while the task ran.
    """
    per_task = {}
    for sample in run.samples:
        key, start, wall_ms = sample[:3]
        ref_ms = local_ref(run.refs, start, start + wall_ms / 1e3)
        per_task.setdefault(key, []).append(sample[field] * reference.NOMINAL_MS / ref_ms)
    return [statistics.median(repeats) for repeats in per_task.values()]


def end_to_end(run, setup_times):
    """The gated metrics, plus raw figures that are printed but not gated."""
    wall = normalised(run, 2)
    cpu = normalised(run, 3)
    raw = {}
    for key, _, wall_ms, _ in run.samples:
        raw.setdefault(key, []).append(wall_ms)
    raw = [statistics.median(repeats) for repeats in raw.values()]
    return {
        "setup_s": statistics.median(
            seconds * reference.NOMINAL_MS / ref_ms for seconds, ref_ms in setup_times),
        "tasks_per_s_norm": 1e3 * len(wall) / sum(wall),
        "cpu_ms_per_task_norm": statistics.fmean(cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "task_p50_ms_norm": statistics.median(wall),
        "raw_tasks_per_s": 1e3 * len(raw) / sum(raw),
        "raw_task_p50_ms": statistics.median(raw),
        "raw_setup_s": statistics.median(seconds for seconds, _ in setup_times),
        "ref_ms": statistics.median(ms for _, ms in run.refs),
    }


def traced(run, seconds):
    """One untraced pass, then traced passes; per-layer metrics."""
    start = perf_counter()
    run.passes(0.0)
    tracer = tracing.Tracer()
    tracer.install({layer: sys.modules[f"nhosc.{layer}"] for layer in tracing.LAYERS})
    done, _ = run.passes(seconds - (perf_counter() - start), tracer)
    size = len(run.pool)
    walls = [wall_ms for _, _, wall_ms, _ in run.samples]
    untraced_pass = sum(walls[:size])
    traced_pass = sum(walls[size:]) / done
    return tracer.layer_metrics(1.0 - untraced_pass / traced_pass)


def report(args, units, metrics, run, env, passes_note):
    attempted = len(run.samples)
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result, "all_metrics": metrics,
              "failures": run.failures[:20], "samples": run.samples, "refs": run.refs}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  {passes_note}  "
          f"tasks {attempted}  failed_share {failed / attempted:.4g}")
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:>16.6g} {unit}")
    for name in sorted(set(metrics) - set(units)):
        print(f"  {name:42s} {metrics[name]:>16.6g} (printed only)")
    for failure in run.failures[:5]:
        print(f"FAILED {failure['task']}: {'; '.join(failure['errors'])}", file=sys.stderr)
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process; one table of all end-to-end metrics."""
    ok = True
    print(f"{'workload':12s} {'metric':22s} {'value':>14s} unit")
    for workload in workloads.POOLS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload:12s} {name:22s} {metric['value']:>14.6g} {metric['unit']}")
        print(f"{workload:12s} {'failed_share':22s} "
              f"{result['failed'] / result['attempted']:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']} tasks)")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.POOLS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "nhosc" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'nhosc'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    units = declared_units(args.trace)
    sys.path.insert(0, str(SRC))

    cli, pool, setup_times = setup(args.workload, args.seed)
    env = environment()
    store = DigestStore(OUT_DIR / "digests.json")
    run = Run(cli, pool, store)
    if args.trace:
        metrics = traced(run, args.seconds)
        note = "traced"
    else:
        run.until(args.seconds)
        metrics = end_to_end(run, setup_times)
        note = f"repeats per task {len(run.samples) / len(pool):.2f}"
    store.save()
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    report(args, units, metrics, run, env, note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
