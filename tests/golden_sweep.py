"""The same-output sweep: a fixed list of `zeroratio` runs and what they report.

Rewrite the golden file after a change that moves an output, then log every
moved field in CHANGES.md:

    PYTHONPATH=src python tests/golden_sweep.py

The runs are `verify theorem|step5|decomposition|lemma2|remark5` on engineered
seeds 0-19 (odd seeds with `--poly-scale 1.5e-05`), `verify lemma3
--poly-seed 0..19`, the five pair checks at `--grid 16x64` (remark 5, which
samples no disk, without it) on six wide pair files drawn from a fixed rng,
and a few `--format csv` runs.  The file holds one run per line: the argv (a
pair file path as `{dir}/NAME`), the exit code, and per report its check,
verdict, bound, observed, samples and each precondition's name and flag; a
CSV row carries the names of its unmet preconditions instead.  The
decomposition identity's record leaves out bound and observed: its observed
is a rounding residue near 1e-16 that moves with the host's libm and SIMD
paths, and its bound scales with it, so the identity is compared by verdict.
`test_golden_sweep.py` reruns every argv in-process through `cli.main` and
compares.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import numpy as np

from zeroratio import cli
from zeroratio.constants import ClassParams
from zeroratio.factors import ZeroSet
from zeroratio.models import PairSpec, compliant_tail_zeros, save_pair_file

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_sweep.json")

PAIR_CHECKS = ("theorem", "step5", "decomposition", "lemma2", "remark5")
WIDE_R = 400.0
WIDE_DELTA = 2.0 / 3.0
WIDE_SIGMAS = (0.03, 0.045, 0.06, 0.03, 0.045, 0.06)
WIDE_SHARED = 12
# checks recorded without bound and observed
VERDICT_ONLY = ("decomposition-identity",)


def _wide_spec(rng, sigma: float) -> PairSpec:
    """A pair like the benchmark's wide pair files: 12 shared zeros in
    [0.3R, 0.95R], one double, and two outer sets at 0.9 of the class rate."""
    params = ClassParams(C0=0.5, C1=1.0, rho=1.0, sigma=sigma, mu=1.0, r0=1.0)
    radii = np.sort(rng.uniform(0.3 * WIDE_R, 0.95 * WIDE_R, WIDE_SHARED))
    mults = np.ones(WIDE_SHARED, dtype=int)
    mults[int(rng.integers(0, WIDE_SHARED))] = 2
    shared = ZeroSet.from_points(
        radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, WIDE_SHARED)), mults)
    outer_a = compliant_tail_zeros(int(rng.integers(0, 1 << 30)), params, WIDE_R, fill=0.9)
    outer_b = compliant_tail_zeros(int(rng.integers(0, 1 << 30)), params, WIDE_R, fill=0.9)
    return PairSpec(shared=shared, outer_a=outer_a, outer_b=outer_b, R=WIDE_R,
                    delta=WIDE_DELTA, params=params)


def write_pair_files(directory: str) -> None:
    rng = np.random.default_rng(2023)
    for i, sigma in enumerate(WIDE_SIGMAS):
        save_pair_file(_wide_spec(rng, sigma), os.path.join(directory, f"wide_{i}.json"))


def sweep_argvs() -> list[list[str]]:
    """Every run of the sweep, pair file paths written as `{dir}/NAME`."""
    argvs = []
    for seed in range(20):
        extra = ["--poly-scale", "1.5e-05"] if seed % 2 else []
        argvs += [["verify", check, "--preset", "engineered", "--seed", str(seed)] + extra
                  for check in PAIR_CHECKS]
    argvs += [["verify", "lemma3", "--poly-seed", str(seed)] for seed in range(20)]
    for i in range(len(WIDE_SIGMAS)):
        argvs += [["verify", check, "--pair", f"{{dir}}/wide_{i}.json", "--R", repr(WIDE_R),
                   "--delta", repr(WIDE_DELTA)] + (check != "remark5") * ["--grid", "16x64"]
                  for check in PAIR_CHECKS]
    csv = ["--format", "csv"]
    argvs += [
        ["verify", "theorem", "--preset", "engineered", "--seed", "1", "--poly-scale", "1.5e-05"] + csv,
        ["verify", "step5", "--preset", "engineered", "--seed", "2"] + csv,
        ["verify", "remark5", "--preset", "engineered", "--seed", "3"] + csv,
        ["verify", "lemma3", "--poly-seed", "4"] + csv,
        ["verify", "step5", "--pair", "{dir}/wide_0.json", "--R", repr(WIDE_R),
         "--delta", repr(WIDE_DELTA), "--grid", "16x64"] + csv,
    ]
    return argvs


def run(argv: list[str], directory: str) -> tuple[int, str]:
    """Exit code and stdout of one in-process run, `{dir}` replaced."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([a.replace("{dir}", directory) for a in argv])
    return code, out.getvalue()


def summarize(argv: list[str], code: int, stdout: str) -> dict:
    """The golden record of one run."""
    reports = []
    if code in (0, 1) and "csv" in argv:
        for line in stdout.splitlines()[1:]:
            check, verdict, bound, observed, _margin, samples, unmet = line.split(",", 6)
            reports.append(dict(check=check, verdict=verdict, bound=bound, observed=observed,
                                samples=int(samples), unmet=[u for u in unmet.strip('"').split(";") if u]))
    elif code in (0, 1):
        for r in json.loads(stdout):
            reports.append(dict(check=r["check"], verdict=r["verdict"], bound=r["bound"],
                                observed=r["observed"], samples=int(r["samples"]),
                                preconditions=[[c["name"], c["satisfied"]] for c in r["preconditions"]]))
    for r in reports:
        if r["check"] in VERDICT_ONLY:
            del r["bound"], r["observed"]
    return dict(argv=argv, exit=code, reports=reports)


def record(directory: str) -> list[dict]:
    write_pair_files(directory)
    return [summarize(argv, *run(argv, directory)) for argv in sweep_argvs()]


def dump(runs: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(r, separators=(",", ":")) for r in runs) + "\n]\n"


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        runs = record(directory)
    with open(GOLDEN, "w", newline="\n") as fh:
        fh.write(dump(runs))
    print(f"wrote {len(runs)} runs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
