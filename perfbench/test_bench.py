"""The benchmark's own test: tiny runs finish, and every output check rejects
a deliberately perturbed output.

    python3 -m pytest perfbench -q
"""

import cmath
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import zeroratio  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_finishes(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # the pointwise Faddeeva op, one of the two ops of a tiny transform-fit
    # round, is the one known fault
    if workload == "transform-fit":
        assert 2 * result["failed"] == result["attempted"]
    else:
        assert result["failed"] == 0
    units = tracer.LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.top_span_coverage"]["value"] >= 0.9


def test_missing_program_exits_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "oracles.py", "tracer.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-tail", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# perturbed outputs
# ---------------------------------------------------------------------------


def _ops(workload, tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp(workload))
    return workloads.WORKLOADS[workload](zeroratio, 3, True, workdir)


@pytest.fixture(scope="module")
def engineered(tmp_path_factory):
    op = _ops("engineered-verify", tmp_path_factory)[0]
    return op, op.run()


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    op = _ops("wide-tail", tmp_path_factory)[0]
    return op, op.run()


@pytest.fixture(scope="module")
def transform(tmp_path_factory):
    ops = _ops("transform-fit", tmp_path_factory)
    return ops, [op.run() for op in ops]


@pytest.fixture(scope="module")
def located(tmp_path_factory):
    op = _ops("zero-location", tmp_path_factory)[0]
    return op, op.run()


def _scale_observed(output, job, factor, index=0):
    rows = []
    for name, code, stdout, stderr in output:
        if name == job:
            reports = json.loads(stdout)
            reports[index]["observed"] = repr(float(reports[index]["observed"]) * factor)
            stdout = json.dumps(reports)
        rows.append((name, code, stdout, stderr))
    return tuple(rows)


def test_engineered_checks(engineered):
    op, output = engineered
    assert op.check(output) == []
    for job in ("theorem", "lemma2"):
        for factor in (1.1, 1 / 1.1):
            assert op.check(_scale_observed(output, job, factor)), (job, factor)
    assert op.check(_scale_observed(output, "decomposition", 1e12))
    failed = tuple((job, 2 if job == "step5" else code, out, err) for job, code, out, err in output)
    assert op.check(failed)


def test_wide_tail_checks(wide):
    op, output = wide
    assert op.check(output) == []
    for job in ("theorem", "lemma2"):
        assert op.check(_scale_observed(output, job, 1.1)), job
        assert op.check(_scale_observed(output, job, 0.9)), job


def test_transform_checks(transform):
    ops, outputs = transform
    fit_op, fault_op = ops
    fit_out, fault_out = outputs
    assert fit_op.check(fit_out) == []
    for gamma_row in range(2):
        row = list(fit_out[gamma_row])
        for field, factor in ((2, 1.05), (3, 1.1), (7, 1.3)):  # rho, sigma, ray C1
            bad = list(row)
            bad[field] = row[field] * factor
            perturbed = list(fit_out)
            perturbed[gamma_row] = tuple(bad)
            assert fit_op.check(tuple(perturbed)), (gamma_row, field)
        values = list(row[8])
        scale = max(abs(v) for v in values)
        values[0] += 1e-6 * scale
        bad = list(row)
        bad[8] = tuple(values)
        perturbed = list(fit_out)
        perturbed[gamma_row] = tuple(bad)
        assert fit_op.check(tuple(perturbed)), gamma_row
    # the known fault: pointwise evaluation cancels along arg z = -3pi/4
    assert fault_op.known_fault
    assert fault_op.check(fault_out)
    exact = tuple(oracles.gaussian_transform(1.0, r * cmath.exp(1j * workloads.FAULT_ANGLE))
                  for r in workloads.FAULT_RADII)
    assert fault_op.check(exact) == []


def test_zero_location_checks(located):
    op, output = located
    assert op.check(output) == []
    z1, z2, zk, lhs, rhs = output
    moved = ((z1[0][0] + 1e-6, z1[0][1]),) + z1[1:]
    assert op.check((moved, z2, zk, lhs, rhs))
    wrong_mult = ((z2[0][0], z2[0][1] + 1),) + z2[1:]
    assert op.check((z1, wrong_mult, zk, lhs, rhs))
    moved_k = ((zk[0][0] + 1e-6j, zk[0][1]),) + zk[1:]
    assert op.check((z1, z2, moved_k, lhs, rhs))
    assert op.check((z1, z2, zk[1:], lhs, rhs))
    assert op.check((z1, z2, zk, lhs, rhs + 1e-6))
