"""The benchmark's self-test: python3 perfbench/run.py --selftest

1. model.py's down-set chain sum agrees with qsymdp.oracles.epartitions_into.
2. For one op of every kind, the checker accepts the CLI's output and rejects
   it with one coefficient (or the verdict) changed, or with another exit code.
3. An op over the time limit comes back failed, and the next op still runs.
4. Traced ops: the layers' self times add up to the traced op time, every
   per-layer metric of BENCHMARK.json is reported, uninstall restores every
   binding, and the package's caches are still cleared before each op.
"""

from __future__ import annotations

import json
import random
import re
import sys

import checks
import layertrace
import model
import workloads

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def corrupt(out: str) -> str:
    """The same output with one coefficient, number or verdict changed."""
    lines = out.splitlines()
    last = lines[-1]
    if last.endswith("PASS"):
        last = last[: -len("PASS")] + "FAIL"
    elif "M(" in last:
        m = re.search(r"(\d+)(?:/\d+)?\*M\(|M\(", last)
        if m.group(1):
            last = last[: m.start(1)] + str(int(m.group(1)) + 1) + last[m.end(1):]
        else:
            last = last[: m.start()] + "2*" + last[m.start():]
    else:
        m = re.search(r"-?\d+", last)
        last = last[: m.start()] + str(int(m.group()) + 1) + last[m.end():]
    return "\n".join(lines[:-1] + [last]) + "\n"


def check_model() -> None:
    from qsymdp.gamma import weighted_from_dict
    from qsymdp.oracles import epartitions_into

    rng = random.Random(0)
    agree = True
    for _ in range(40):
        doc = workloads.random_double_poset(rng, rng.randint(1, 4), 2)
        d, wd = model.DoublePoset(doc), weighted_from_dict(doc)
        for m in (1, 2, 3):
            x = [rng.randint(1, 50) for _ in range(m)]
            want = 0
            for pi in epartitions_into(wd, m):
                term = 1
                for e, i in pi.items():
                    term *= x[i - 1] ** wd.w[e]
                want += term
            agree = agree and d.epartition_sum(x) == want
    expect(agree, "down-set chain sum equals the sum over oracles.epartitions_into (40 posets, m = 1..3)")


def sample_ops(tmp: str):
    """The first op of every kind in each workload's schedule for seed 0."""
    ops = {}
    for name in workloads.WORKLOADS:
        for rnd in workloads.schedule(name, 0, tmp):
            for op in rnd:
                ops.setdefault(op.kind, op)
    return list(ops.values())


def check_checker(bench, ops) -> None:
    from qsymdp import cli

    checker = checks.Checker(0)
    for op in ops:
        _, rc, out, failure = bench.run_op(cli, op.argv)
        try:
            checker.check(op, out, rc)
            accepted = failure is None
        except model.CheckError as exc:
            accepted, failure = False, str(exc)
        expect(accepted, f"checker accepts {op.kind}" + (f" ({failure})" if failure else ""))
        for bad_out, bad_rc, what in ((corrupt(out), rc, "a changed coefficient"), (out, 1, "exit code 1")):
            try:
                checker.check(op, bad_out, bad_rc)
                rejected = False
            except model.CheckError:
                rejected = True
            expect(rejected, f"checker rejects {op.kind} with {what}")


def check_time_limit(bench) -> None:
    from qsymdp import cli

    _, _, _, failure = bench.run_op(cli, ["selftest"], limit=0.05)
    expect(failure is not None and "time limit" in failure, "an op over the time limit is a failed op")
    _, rc, out, failure = bench.run_op(cli, ["antipode-m", "(1,2)"])
    expect(failure is None and rc == 0 and model.parse_qsym(out) == model.antipode_m((1, 2)), "the next op runs normally")


def check_tracer(bench, ops) -> None:
    import qsymdp.cli

    gamma_module = sys.modules["qsymdp.gamma"]  # the package's name qsymdp.gamma is the function
    original = qsymdp.cli.gamma_of
    clearers = bench.cache_clearers()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        wrapped = qsymdp.cli.gamma_of is not original and gamma_module.gamma is qsymdp.cli.gamma_of
        results, _, _, _ = bench.closed_loop([ops], 0, clearers, tracer=tracer, cycles=1)
        self_time, spans, metrics = tracer.self_time(), list(tracer.spans), tracer.metrics()
        antipode = [workloads.Op("antipode-f", ["antipode-f", "(2,1,3,1,2)"])]
        basis_work = []  # compositions calls made under the memoised antipode basis, per run of the op
        for _ in range(2):
            before = tracer.metrics()["compositions.calls"]
            bench.closed_loop([antipode], 0, clearers, tracer=tracer, cycles=1)
            basis_work.append(tracer.metrics()["compositions.calls"] - before)
    finally:
        tracer.uninstall()
    expect(wrapped, "cli.gamma_of and gamma.gamma get the same wrapper")
    expect(qsymdp.cli.gamma_of is original, "uninstall restores every binding")
    expect(
        basis_work[0] > 0 and basis_work[0] == basis_work[1],
        f"a traced op starts with cold caches (antipode-f twice: {basis_work} compositions calls)",
    )
    op_time = sum(r[1] for r in results)
    roots = sum(end - start for _, _, parent, _, start, end in spans if parent is None)
    expect(abs(self_time - roots) < 1e-6, "layers' self times add up to the root spans' time")
    expect(0.9 * op_time < self_time <= op_time, f"root spans cover the op time ({self_time:.3f} of {op_time:.3f} s)")
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    missing = sorted(n for n in names if not n.startswith("trace.") and n not in metrics)
    expect(not missing, f"every per-layer metric is reported {missing or ''}")
    called = [layer for layer in layertrace.LAYERS if metrics[f"{layer}.calls"] > 0]
    expect(len(called) == len(layertrace.LAYERS), f"every layer is called by the sample ops ({', '.join(called)})")
    expect(metrics["equivariant.gamma_calls"] > 0 and metrics["qsym.add.calls"] > 0, "nested-call counters are counted")


def main(bench) -> int:
    with bench.scratch_dir() as tmp:
        check_model()
        ops = sample_ops(tmp)
        check_checker(bench, ops)
        check_time_limit(bench)
        check_tracer(bench, ops)
    print(f"selftest: {'PASS' if not failures else f'FAIL ({len(failures)})'}")
    return 1 if failures else 0
