#!/usr/bin/env python3
"""Benchmark of zeroratio: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
The workload's ops are built from `--seed` (see workloads.py) and repeated
in whole rounds for about `--seconds` seconds of timed work, single-threaded
(`--threads 1`, one BLAS thread).  Set-up is timed in fresh interpreters
started between ops, spread over the run.  Every output is checked
afterwards.  The last line of stdout is one JSON object:

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
rounds alternate untraced and traced; in a traced round every public
function of the program is wrapped in a span (tracer.py).  The spans are
written to perfbench/.out/trace-<workload>-<seed>.jsonl and the metrics are
the per-layer ones, with the tracing overhead measured against the untraced
rounds.  Diagnostics, the calibration time and
check failures go to stderr.  The exit code is 0 whenever a result was
printed, and 2 when the program cannot be imported from this checkout.
"""

import os

# the single-threaded baseline: BLAS reads these when numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402

START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

# fresh interpreters started per run to time set-up; setup_s is their median
SETUP_PROBES = 9

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import zeroratio from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, SRC)
    import zeroratio
    import zeroratio.cli  # noqa: F401  (the CLI is not imported by the package)

    where = os.path.dirname(os.path.abspath(zeroratio.__file__))
    if where != os.path.join(SRC, "zeroratio"):
        raise ImportError(f"zeroratio was imported from {where}, not from {SRC}")
    return zeroratio


def probe_setup(zr, args) -> int:
    """Child side of a set-up probe: build the inputs, report, clean up."""
    import workloads

    t0 = time.perf_counter()
    import_s = t0 - START
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        workloads.WORKLOADS[args.workload](zr, args.seed, args.size == "tiny", workdir)
        inputs_s = time.perf_counter() - t0
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> dict:
    """Start a fresh interpreter that imports the program and builds the
    workload's inputs; time it from start until its inputs are built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--probe-setup"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    sample = json.loads(line)
    sample["wall_s"] = wall
    return sample


def calibrate() -> float:
    """Milliseconds of a fixed numpy loop; tells machine drift from program change."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((192, 192))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(20):
            b = a @ a
            b = np.sin(b) + np.sqrt(np.abs(b))
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


class Record(NamedTuple):
    op: int  # index of the op in the round
    wall: float  # seconds
    cpu: float  # process CPU seconds
    error: str | None
    traced: bool


def run_rounds(ops, seconds: float, probe, probes: int, tracer=None) -> tuple:
    """Repeat whole rounds of the ops until the next round boundary would land
    farther from `seconds` of op time than the current one.

    `probe()` is called `probes` times between ops, spread evenly over the
    `seconds` (the first before the first op, any left over after the last),
    so that set-up is sampled across the run and not in one burst; its time
    is not op time.  With a tracer, rounds alternate untraced and traced (at
    least one of each), so that the tracing overhead is measured within the
    run.  Only the first output of each op is kept; a repeat that does not
    reproduce it is recorded as an error.  Returns (records, first outputs,
    rounds, probe samples).
    """
    records = []
    first: dict = {}
    samples = []
    rounds = 0
    elapsed = 0.0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for i, op in enumerate(ops):
            if len(samples) < probes and elapsed >= len(samples) * seconds / probes:
                samples.append(probe())
            if traced:
                tracer.op = len(records)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                output, error = op.run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            elapsed += wall
            if error is None and first.setdefault(i, output) != output:
                error = "output differs from the first run of the same op"
            records.append(Record(i, wall, cpu, error, traced))
        if traced:
            tracer.op = None
            tracer.uninstall()
        rounds += 1
        enough = rounds >= (2 if tracer is not None else 1)
        if enough and elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    while len(samples) < probes:
        samples.append(probe())
    return records, first, rounds, samples


def check_records(ops, records, first, rounds) -> list:
    """Failure messages per record.  Each op's first output is checked once;
    with a single round the first op is repeated here, untimed, and must
    reproduce its output exactly."""
    verdicts = {i: ops[i].check(output) for i, output in first.items()}
    if rounds == 1 and 0 in first:
        try:
            again = ops[0].run()
        except Exception as exc:  # reported as the op's failure
            again = f"{type(exc).__name__}: {exc}"
        if again != first[0]:
            verdicts[0] = verdicts[0] + ["repeating the op did not reproduce its output"]
    return [[r.error] if r.error is not None else verdicts[r.op] for r in records]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("engineered-verify", "wide-tail", "transform-fit", "zero-location"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small ops, for the benchmark's own test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        zr = import_program()
    except ImportError as exc:
        print(f"cannot import zeroratio from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.probe_setup:
        return probe_setup(zr, args)

    tiny = args.size == "tiny"

    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if tracer is not None:
            tracer.install()
            tracer.op = "setup"
        try:
            ops = workloads.WORKLOADS[args.workload](zr, args.seed, tiny, workdir)
        finally:
            if tracer is not None:
                tracer.op = None
                tracer.uninstall()
        calibration = [calibrate()]
        records, first, rounds, setup = run_rounds(
            ops, args.seconds, lambda: measure_setup(args), 1 if tiny else SETUP_PROBES, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calibration.append(calibrate())
        failures = check_records(ops, records, first, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [k for k, f in enumerate(failures) if f]
    unexpected = [k for k in failed if not ops[records[k].op].known_fault]
    for k in unexpected:
        print(f"op {ops[records[k].op].key}: " + "; ".join(failures[k]), file=sys.stderr)
    ok_walls = [r.wall for r, f in zip(records, failures) if not f]
    correct = not unexpected and bool(ok_walls)

    if tracer is None:
        values = {
            "setup_s": statistics.median(s["wall_s"] for s in setup),
            "ops_per_s": len(ok_walls) / math.fsum(r.wall for r in records),
            "op_p50_ms": 1e3 * statistics.median(ok_walls) if ok_walls else 0.0,
            "cpu_ms_per_op": 1e3 * math.fsum(r.cpu for r in records) / len(records),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        traced = {k: r.wall for k, r in enumerate(records) if r.traced}
        # per op of the round: traced over untraced median wall
        ratios = [
            statistics.median(r.wall for r in records if r.op == i and r.traced)
            / statistics.median(r.wall for r in records if r.op == i and not r.traced)
            for i in range(len(ops))
        ]
        values = tracing.layer_metrics(tracer.spans, traced)
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
        values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setup)
        values["trace.op_p50_ms"] = 1e3 * statistics.median(traced.values())
        values["trace.overhead_ratio"] = statistics.median(ratios)
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in values.items()}
        tracer.write_jsonl(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": rounds, "ops": len(records),
        "loop_s": math.fsum(r.wall for r in records), "calibration_ms": calibration,
        "setup_probes_s": [s["wall_s"] for s in setup],
        "op_wall_cpu_s": [[r.op, r.wall, r.cpu] for r in records],
    }), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
