#!/usr/bin/env python3
"""Benchmark of the qsymdp command line, run in-process through qsymdp.cli.run.

One thread, closed loop: the next op starts when the previous one returns.
A run is PARTS processes in turn, each with its own string hash seed drawn
from --seed and its own block of the workload's cycle, and pools their
figures.  Inputs come only from --seed.  Every
output is checked after the timed part by an independent route (checks.py);
a wrong, failed or timed-out op counts in fail_ratio.  Times are reported
scaled to a machine of fixed speed, timed beside the ops through a reference
work (see REFERENCE_S).  See perfbench/README.md for the workloads and
metrics.

    python3 perfbench/run.py --workload poset-queries --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload poset-queries --seed 1 --seconds 12 --trace 1 --spans spans.jsonl
    python3 perfbench/run.py ... --record runs.jsonl     # append a run record
    python3 perfbench/run.py --compare base.jsonl new.jsonl
    python3 perfbench/run.py --selftest

The last line of a run's output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import pickle
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OP_TIME_LIMIT_S = 10.0
MIN_OPS = 100  # over a run's parts, so that op_p90_ms has at least ten samples beyond it
# setup_s launches before each part: spread over the run, they see the same
# drift in the machine's speed as the parts do
SETUP_LAUNCHES_PER_PART = 5
# The package keeps orders as frozensets of string pairs, so its speed depends
# on the interpreter's string hash seed, by up to a quarter.  A run splits each
# cycle of its schedule into PARTS blocks of rounds and runs block i in a
# process of its own, with hash seed i drawn from --seed: a run pools PARTS
# hash layouts, and a set of runs many.
PARTS = 4
PART_TIMEOUT_S = 40
# The speed of this kind of virtual machine drifts, by up to 40 % between
# periods a minute apart, with other tenants' load.  Each run therefore times
# a fixed reference work (reference_work) between its ops and launches, and
# reports its times scaled to a machine on which that work takes REFERENCE_S:
# the times of each part and of the launches are multiplied by
# REFERENCE_S / (median time of the reference work over them).  The raw
# figures are printed and recorded beside them.
REFERENCE_N = 2000
REFERENCE_S = 0.002
REFERENCE_EVERY_S = 0.05


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(cli, argv, limit: float = OP_TIME_LIMIT_S):
    """(seconds, exit code, stdout, failure) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    rc = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except OpTimeout:
        failure = f"exceeded the {limit:g} s op time limit"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        failure = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, rc, out.getvalue(), failure


def cache_clearers():
    """cache_clear of every memoised function in the package: each op starts
    cold, as a fresh CLI process does.  Collect them before a tracer is
    installed, while the module names still hold the memoised functions."""
    import qsymdp

    mods = [m for name, m in sys.modules.items() if name.startswith("qsymdp.")] + [qsymdp]
    return [obj.cache_clear for m in mods for obj in vars(m).values() if hasattr(obj, "cache_clear")]


def reference_work() -> int:
    """A fixed piece of pure-Python work of the package's kind (tuple keys,
    dict accumulation, sorting, a frozenset), independent of the package and
    of the string hash seed: its time tracks the speed of the machine."""
    counts = {}
    for i in range(REFERENCE_N):
        key = (i % 37, i % 11, i % 5)
        counts[key] = counts.get(key, 0) + i * 3
    return len(frozenset(k for k, v in sorted(counts.items()) if v % 2))


def time_reference() -> float:
    """Seconds the reference work takes, with the garbage collector off so
    that what the ops left on the heap does not time into it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def closed_loop(rounds, seconds, clearers, tracer=None, cycles=None, reference=None):
    """Run whole cycles of `rounds` (all of them, in order): exactly `cycles`
    of them, or else until `seconds` have passed and a part's share of MIN_OPS
    ops is done.  Whole cycles make every run's op mix the seed's full mix.
    With a list `reference`, times the reference work after the first op and
    then after an op whenever REFERENCE_EVERY_S have passed since it last
    ran, and appends the times; that time is left out of the wall and round
    times.
    Returns (results, wall, round rates, cycles run)."""
    from qsymdp import cli

    results = []  # (op, seconds, rc, stdout, failure)
    outputs = {}  # one copy of each distinct output
    round_rates = []
    gc.collect()
    gc.freeze()  # the harness's own objects stay out of the ops' collections
    start = time.perf_counter()
    last_reference = -math.inf
    excluded = 0.0  # seconds spent on the reference work
    done = 0
    while done != cycles:
        if cycles is None and done and time.perf_counter() - start - excluded >= seconds and len(results) * PARTS >= MIN_OPS:
            break
        for rnd in rounds:
            round_start, round_excluded = time.perf_counter(), excluded
            for op in rnd:
                for clear in clearers:
                    clear()
                if tracer is not None:
                    tracer.begin_op()
                elapsed, rc, out, failure = run_op(cli, op.argv)
                out = outputs.setdefault((tuple(op.argv), out), out)
                results.append((op, elapsed, rc, out, failure))
                if reference is not None and time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                    reference.append(time_reference())
                    excluded += reference[-1]
                    last_reference = time.perf_counter()
            round_rates.append(len(rnd) / (time.perf_counter() - round_start - (excluded - round_excluded)))
        done += 1
    wall = time.perf_counter() - start - excluded
    gc.unfreeze()
    return results, wall, round_rates, done


def check_all(results, checker):
    """Number of failed ops; prints the first few reasons to stderr."""
    from model import CheckError

    failed = 0
    for op, _, rc, out, failure in results:
        if failure is None:
            try:
                checker.check(op, out, rc)
            except CheckError as exc:
                failure = str(exc)
        if failure is not None:
            failed += 1
            if failed <= 5:
                print(f"FAILED {' '.join(op.argv)}: {failure}", file=sys.stderr)
    return failed


def measure_setup(launches: int, reference: list):
    """Seconds from launching a fresh interpreter until it has imported
    qsymdp.cli, for each of `launches` launches.  The child reads the same
    monotonic clock, so its exit and the parent's wake-up are not counted.
    Times the reference work twice after each launch, into `reference`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import qsymdp.cli, time; print(time.perf_counter())"
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
        times.append(float(child.stdout) - start)
        reference += [time_reference(), time_reference()]
    return times


def summary(values):
    """median, q1, q3, n of a sample."""
    values = list(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def speed_scale(reference_times) -> float:
    """The factor that scales times taken beside these reference times to a
    machine on which the reference work takes REFERENCE_S."""
    return REFERENCE_S / statistics.median(reference_times)


def end_to_end(setup_times, setup_reference, parts, scaled=True):
    """The end-to-end metrics of the pooled parts: (value, summary, what the
    summary is over).  Times are scaled by speed_scale, the launches' by that
    of the reference times taken between them and each part's by its own;
    with scaled=False they are the raw times."""
    one = lambda ref: speed_scale(ref) if scaled else 1.0
    setup_times = [t * one(setup_reference) for t in setup_times]
    lat_ms = [t * 1000 * one(p["reference"]) for p in parts for t in p["latencies"]]
    wall = sum(p["wall"] * one(p["reference"]) for p in parts)
    round_rates = [r / one(p["reference"]) for p in parts for r in p["round_rates"]]
    rss = [p["peak_rss_mb"] for p in parts]
    return {
        "setup_s": (statistics.median(setup_times), summary(setup_times), "launches"),
        "ops_per_s": (len(lat_ms) / wall, summary(round_rates), "rounds"),
        "op_p50_ms": (statistics.median(lat_ms), summary(lat_ms), "ops"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], summary(lat_ms), "ops"),
        "peak_rss_mb": (max(rss), summary(rss), "parts"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha():
    """The checkout's commit; None outside a git repository or without git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory for input files inside the checkout, removed afterwards."""
    parent = ROOT / ".perfbench-tmp"
    parent.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def part_hash_seed(seed: int, part: int) -> str:
    """PYTHONHASHSEED of one part of a run."""
    return str(random.Random(f"hash/{seed}/{part}").randrange(2**32))


def part_rounds(rounds, part: int):
    """The rounds of one part: the part-th of PARTS contiguous blocks of a cycle."""
    n = len(rounds)
    return rounds[part * n // PARTS : (part + 1) * n // PARTS]


def run_workload(args) -> int:
    """Writes the schedule once, runs the parts in turn, each in a fresh
    interpreter, and reports their pooled figures.  Part 0 runs its block for
    a PARTS-th of --seconds; the others run theirs as many times, so that the
    run holds whole cycles of the schedule."""
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    launches = 0 if args.trace else SETUP_LAUNCHES_PER_PART
    setup_reference = []
    measure_setup(min(launches, 1), [])  # warm-up: the first launch reads the files from disk
    setup_times = []
    if args.spans:
        open(args.spans, "w").close()
    hash_seeds = [part_hash_seed(args.seed, i) for i in range(PARTS)]
    parts = []
    with scratch_dir() as tmp:
        schedule = os.path.join(tmp, "schedule.pickle")
        with open(schedule, "wb") as fh:
            pickle.dump(workloads.schedule(args.workload, args.seed, tmp), fh)
        for i, hash_seed in enumerate(hash_seeds):
            setup_times += measure_setup(launches, setup_reference)
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
            argv += ["--trace", str(args.trace), "--part", str(i), "--schedule", schedule]
            argv += ["--cycles", str(parts[0]["cycles"])] if parts else ["--seconds", str(args.seconds / PARTS)]
            argv += ["--spans", os.path.abspath(args.spans)] if args.spans else []
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            child = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PART_TIMEOUT_S)
            if child.returncode != 0:
                print(f"error: part {i} exited with code {child.returncode}", file=sys.stderr)
                return 1
            parts.append(json.loads(child.stdout.splitlines()[-1]))
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    kinds = sum((Counter(p["kinds"]) for p in parts), Counter())
    summaries, scales = {}, None
    if args.trace:
        metrics, report = traced_metrics(parts, layertrace)
    else:
        e2e = end_to_end(setup_times, setup_reference, parts)
        raw = {name: value for name, (value, _, _) in end_to_end(setup_times, setup_reference, parts, scaled=False).items()}
        metrics = {name: value for name, (value, _, _) in e2e.items()}
        summaries = {name: {**s, "raw": raw[name]} for name, (_, s, _) in e2e.items()}
        scales = [speed_scale(setup_reference)] + [speed_scale(p["reference"]) for p in parts]
        report = [f"  speed scale: launches {scales[0]:.4f}, parts {', '.join(f'{x:.4f}' for x in scales[1:])}"]
        report += [
            f"  {name:<12} {value:>12.4f} {units[name]:<4} median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} n {s['n']} {what}; raw {raw[name]:.4f}"
            for name, (value, s, what) in e2e.items()
        ]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} ops ({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))})")
    print(f"  {parts[0]['cycles']} cycle(s) in {PARTS} parts, hash seeds {', '.join(hash_seeds)}")
    for line in report:
        print(line)
    print(f"  {'fail_ratio':<12} {failed / attempted:>12.4f}      {failed} failed of {attempted} attempted")
    named = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "hash_seeds": hash_seeds,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "op_counts": dict(kinds),
            "speed_scales": scales,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {**m, **summaries.get(name, {})} for name, m in named.items()},
        }
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": named}))
    return 0


def run_part(args) -> int:
    """One part of a run, under this interpreter's hash seed: the timed loop
    over the part's block of rounds, then the checks.  Prints the raw figures
    as one JSON line for the parent."""
    import checks

    with open(args.schedule, "rb") as fh:
        rounds = part_rounds(pickle.load(fh), args.part)
    clearers = cache_clearers()
    if args.trace:
        part, results = traced_part(rounds, clearers, args)
    else:
        reference = []
        results, wall, round_rates, cycles = closed_loop(rounds, args.seconds, clearers, cycles=args.cycles, reference=reference)
        part = {"cycles": cycles, "latencies": [r[1] for r in results], "wall": wall, "round_rates": round_rates, "peak_rss_mb": peak_rss_mb()}
        part["reference"] = reference
    part["failed"] = check_all(results, checks.Checker(args.seed))
    part["attempted"] = len(results)
    part["kinds"] = Counter(op.kind for op, *_ in results)
    print(json.dumps(part))
    return 0


def declared_metrics(trace: int):
    """name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def traced_part(rounds, clearers, args):
    """Traced and untraced cycles of the part's rounds in turn, --cycles of
    each or until the traced ones have run for --seconds: the untraced ones
    give the tracing overhead, with both exposed alike to drift in the
    machine's speed.  The caches are cleared through `clearers`, collected
    before the tracer wraps the memoised functions."""
    import layertrace

    tracer = layertrace.Tracer()
    traced, untraced = [], []
    traced_wall = untraced_wall = 0.0
    cycles = 0
    while cycles != args.cycles and (args.cycles is not None or not cycles or traced_wall < args.seconds):
        tracer.install()
        try:
            results, wall, _, _ = closed_loop(rounds, 0, clearers, tracer=tracer, cycles=1)
        finally:
            tracer.uninstall()
        traced += results
        traced_wall += wall
        results, wall, _, _ = closed_loop(rounds, 0, clearers, cycles=1)
        untraced += results
        untraced_wall += wall
        cycles += 1
    if args.spans:
        tracer.write_spans(args.spans, args.part)
    part = {
        "stats": tracer.stats,
        "counts": tracer.counts,
        "cycles": cycles,
        "traced_ops": len(traced),
        "traced_wall": traced_wall,
        "untraced_ops": len(untraced),
        "untraced_wall": untraced_wall,
        "op_time": sum(r[1] for r in traced),
        "self_time": tracer.self_time(),
    }
    return part, traced + untraced


def traced_metrics(parts, layertrace):
    """The per-layer metrics of the pooled parts.  Counts and times are per
    cycle, so a count repeats exactly when the program does the same work."""
    stats = defaultdict(lambda: [0, 0.0, 0])
    counts = Counter()
    for p in parts:
        for name, row in p["stats"].items():
            stats[name] = [a + b for a, b in zip(stats[name], row)]
        counts.update(p["counts"])
    cycles = parts[0]["cycles"]  # every part ran its block this often: whole cycles of the schedule
    total = {key: sum(p[key] for p in parts) for key in ("traced_ops", "traced_wall", "untraced_ops", "untraced_wall", "op_time", "self_time")}
    metrics = layertrace.metrics(stats, counts, per=cycles)
    traced_rate = total["traced_ops"] / total["traced_wall"]
    untraced_rate = total["untraced_ops"] / total["untraced_wall"]
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate
    metrics["trace.self_coverage"] = total["self_time"] / total["op_time"]
    report = [
        f"  {cycles} cycle(s) each way; per-layer counts and times are per cycle",
        f"  traced {traced_rate:.4f} ops/s, untraced {untraced_rate:.4f} ops/s over the same {total['traced_ops']} ops:"
        f" ratio {traced_rate / untraced_rate:.4f}",
        f"  layers' self time {total['self_time']:.4f} s of {total['op_time']:.4f} s traced op time",
    ] + [f"  {name:<30} {value:.6g}" for name, value in metrics.items()]
    return metrics, report


def compare(base_path: str, new_path: str) -> int:
    """Per workload and metric: median over the runs in each record file, and their ratio."""

    def load(path):
        runs = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    runs.setdefault((rec["workload"], name), []).append(m["value"])
        return runs

    base, new = load(base_path), load(new_path)
    print(f"{'workload':<14} {'metric':<30} {'base median (q1-q3, n)':>34} {'new median (q1-q3, n)':>34} {'new/base':>9}")
    for key in sorted(base.keys() & new.keys()):
        b, n = summary(base[key]), summary(new[key])
        ratio = n["median"] / b["median"] if b["median"] else float("nan")
        cell = lambda s: f"{s['median']:.5g} ({s['q1']:.4g}-{s['q3']:.4g}, {s['n']})"
        print(f"{key[0]:<14} {key[1]:<30} {cell(b):>34} {cell(n):>34} {ratio:>9.4f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run's record (JSON line) to a file")
    parser.add_argument("--spans", help="with --trace 1: write the spans (JSON lines) to a file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two record files")
    parser.add_argument("--selftest", action="store_true", help="check the benchmark's own checker and tracer")
    parser.add_argument("--part", type=int, help="run one part of a run in this process and print its raw figures")
    parser.add_argument("--schedule", help="with --part: the run's schedule, pickled")
    parser.add_argument("--cycles", type=int, help="with --part: run the part's block this often, whatever the time")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "qsymdp" / "cli.py").is_file():
        print(f"error: {SRC / 'qsymdp'} not found; run from a qsymdp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    import qsymdp

    if Path(qsymdp.__file__).resolve().parent != SRC / "qsymdp":
        print(f"error: imported qsymdp from {qsymdp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main(sys.modules[__name__])
    if not args.workload:
        parser.error("--workload is required")
    return run_part(args) if args.part is not None else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
