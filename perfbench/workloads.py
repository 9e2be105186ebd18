"""The benchmark's four workloads: inputs from a seed, the ops, and their checks.

A workload is a *round*: a fixed list of ops built from `--seed` at set-up.
The harness repeats whole rounds, so every run attempts the same ops in the
same proportions.  An op returns a plain, comparable value (strings, numbers,
tuples); its `check` returns a list of failure messages, empty when the
output is right.  Every check compares against a computation made apart from
the program (see oracles.py) or against a property the method must have;
none compares against a stored copy of earlier output.

The program is always reached through attribute lookups on the zeroratio
modules at call time, so that the traced run sees every call.  The checks
import oracles.py (and with it mpmath) when they first run, so that set-up
time does not include it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

PASS = "pass"
PASS_UNMET = "pass-with-unmet-preconditions"

# reports whose only unmet precondition is R >= R0(eps): R0 far exceeds R
UNMET_R0 = {
    "ratio-bound-accuracy-form": ["R >= R0(eps)"],
    "difference-on-real-segment": ["R >= R0(eps)"],
}


@dataclass
class Op:
    """One timed unit of work.  Equal keys must give equal outputs."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    known_fault: bool = False


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def run_cli(cli, jobs) -> tuple:
    """Run each argv through cli.main in-process: (job, exit code, stdout, stderr)."""
    out = []
    for argv in jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        out.append((argv[1], code, stdout.getvalue(), stderr.getvalue()))
    return tuple(out)


def _parse_jobs(output, failures) -> dict:
    """{job: [report dicts]} for the jobs that exited 0 with a JSON array."""
    reports = {}
    for job, code, stdout, stderr in output:
        if code != 0:
            failures.append(f"{job}: exit code {code}: {stderr.strip()[:200]}")
            continue
        if stderr:
            failures.append(f"{job}: unexpected stderr: {stderr.strip()[:200]}")
        try:
            reports[job] = json.loads(stdout)
        except json.JSONDecodeError as exc:
            failures.append(f"{job}: stdout is not JSON ({exc})")
    return reports


def _unmet(report) -> list:
    return [p["name"] for p in report["preconditions"] if not p["satisfied"]]


def _finite(report, field) -> float | None:
    try:
        value = float(report[field])
    except (KeyError, TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _sup_within(label, observed, reference, below, above, failures) -> None:
    """A sampled sup lies in [reference (1 - below), reference (1 + above)].

    Samples lie in the closed disk, so they cannot exceed the boundary
    maximum beyond rounding (`above`); `below` allows for the sampling.
    """
    if observed is None:
        failures.append(f"{label}: observed sup is not a finite number")
        return
    rel = observed / reference - 1.0
    if not (-below <= rel <= above):
        failures.append(
            f"{label}: sup {observed:.10g} vs circle maximum {reference:.10g} "
            f"(relative {rel:+.3e}, allowed [-{below:g}, +{above:g}])"
        )


def _circle(radius: float, count: int, phase: float = 0.0) -> np.ndarray:
    return radius * np.exp(1j * (2.0 * np.pi * np.arange(count) / count + phase))


# ---------------------------------------------------------------------------
# engineered-verify
# ---------------------------------------------------------------------------

ENGINEERED_SEEDS = tuple(range(20))
# the odd preset seeds get polynomial exponents of a seeded size in this
# range; the even ones none.  A fixed half keeps the cost of a round the
# same for every benchmark seed.
ENGINEERED_POLY_SCALES = (1e-5, 2e-5)
# relative room of a sampled sup against the mpmath circle maximum, at the
# default grid (512 boundary samples on the refined grid)
ENGINEERED_SUP_TOL = 1e-4


def engineered_jobs(seed: int, poly_scale: float, poly_seed: int) -> list:
    common = ["--preset", "engineered", "--seed", str(seed), "--threads", "1"]
    if poly_scale:
        common += ["--poly-scale", repr(poly_scale)]
    jobs = [["verify", job] + common
            for job in ("theorem", "step5", "decomposition", "lemma2", "remark5")]
    jobs.append(["verify", "lemma3", "--poly-seed", str(poly_seed), "--threads", "1"])
    return jobs


def check_engineered(output, build) -> list:
    """Checks of one engineered bundle; `build` is the pair the CLI built."""
    import oracles

    failures: list = []
    reports = _parse_jobs(output, failures)
    for job, rows in reports.items():
        for r in rows:
            want = UNMET_R0.get(r["check"], [])
            verdict = PASS_UNMET if want else PASS
            if r["verdict"] != verdict or _unmet(r) != want:
                failures.append(
                    f"{job}/{r['check']}: verdict {r['verdict']} with unmet {_unmet(r)}, "
                    f"expected {verdict} with unmet {want}"
                )
    spec, p = build.spec, build.p
    if "theorem" in reports:
        ref = oracles.ratio_deviation_max(
            list(spec.outer_a), list(spec.outer_b), spec.poly_a, spec.poly_b, p,
            spec.R ** (1.0 - spec.delta),
        )
        for r in reports["theorem"]:
            _sup_within(f"theorem/{r['check']}", _finite(r, "observed"), ref,
                        ENGINEERED_SUP_TOL, ENGINEERED_SUP_TOL, failures)
    if "lemma2" in reports:
        radius = (p + 1) * spec.R ** (1.0 - spec.delta)
        for side, r in zip((spec.outer_a, spec.outer_b), reports["lemma2"]):
            ref = oracles.tail_deviation_max(list(side), p, radius)
            _sup_within("lemma2", _finite(r, "observed"), ref,
                        ENGINEERED_SUP_TOL, ENGINEERED_SUP_TOL, failures)
    for r in reports.get("decomposition", ()):
        observed, bound = _finite(r, "observed"), _finite(r, "bound")
        if observed is None or bound is None or not observed < bound:
            failures.append(f"decomposition: discrepancy {r['observed']} not below {r['bound']}")
    for r in reports.get("lemma3", ()):
        if r["details"].get("cramer_ok") is not True:
            failures.append("lemma3: Cramer coefficient bounds do not hold")
    return failures


def build_engineered_verify(zr, seed: int, tiny: bool, workdir: str) -> list:
    from zeroratio import cli

    rng = np.random.default_rng(seed)
    seeds = ENGINEERED_SEEDS[:2] if tiny else ENGINEERED_SEEDS
    order = [seeds[i] for i in rng.permutation(len(seeds))]
    ops = []
    for s in order:
        scale = float(rng.uniform(*ENGINEERED_POLY_SCALES)) if s % 2 else 0.0
        jobs = engineered_jobs(s, scale, int(rng.integers(0, 1 << 16)))

        def check(output, s=s, scale=scale):
            return check_engineered(output, zr.engineered_pair(s, poly_scale=scale))

        ops.append(Op(key=f"engineered-{s}-{scale!r}",
                      run=lambda jobs=jobs: run_cli(cli, jobs), check=check))
    return ops


# ---------------------------------------------------------------------------
# wide-tail
# ---------------------------------------------------------------------------

WIDE_R = 400.0
WIDE_DELTA = 2.0 / 3.0
WIDE_GRID = "16x64"
# one pair per growth type; fill 0.9 fixes the outer zero counts per sigma
WIDE_SIGMAS = (0.03, 0.045, 0.06)
WIDE_FILL = 0.9
WIDE_SHARED = 12
# 128 boundary samples on the refined 16x64 grid
WIDE_SUP_BELOW = 1e-2
WIDE_SUP_ABOVE = 1e-4


def wide_pair_spec(zr, rng, sigma: float, fill: float = WIDE_FILL):
    params = zr.ClassParams(C0=0.5, C1=1.0, rho=1.0, sigma=sigma, mu=1.0, r0=1.0)
    radii = np.sort(rng.uniform(0.3 * WIDE_R, 0.95 * WIDE_R, WIDE_SHARED))
    mults = np.ones(WIDE_SHARED, dtype=int)
    mults[int(rng.integers(0, WIDE_SHARED))] = 2
    shared = zr.ZeroSet.from_points(
        radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, WIDE_SHARED)), mults)
    outer_a = zr.compliant_tail_zeros(int(rng.integers(0, 1 << 30)), params, WIDE_R, fill=fill)
    outer_b = zr.compliant_tail_zeros(int(rng.integers(0, 1 << 30)), params, WIDE_R, fill=fill)
    return zr.PairSpec(shared=shared, outer_a=outer_a, outer_b=outer_b, R=WIDE_R,
                       delta=WIDE_DELTA, params=params)


def check_wide(output, spec, log_tail) -> list:
    """Checks of one wide-tail bundle; `log_tail(spec, z)` is the program's tail log."""
    import oracles

    failures: list = []
    reports = _parse_jobs(output, failures)
    for job, rows in reports.items():
        for r in rows:
            if r["verdict"] not in (PASS, PASS_UNMET):
                failures.append(f"{job}/{r['check']}: verdict {r['verdict']}")
    base = WIDE_R ** (1.0 - WIDE_DELTA)
    if "lemma2" in reports:
        for side, r in zip((spec.outer_a, spec.outer_b), reports["lemma2"]):
            p = int(r["details"]["p"])
            radius = (p + 1) * base
            ref = oracles.tail_deviation_max(list(side), p, radius)
            _sup_within("lemma2", _finite(r, "observed"), ref,
                        WIDE_SUP_BELOW, WIDE_SUP_ABOVE, failures)
            # |log Pi(z)| <= |z|^(p+1) sum |z_n|^-(p+1) on the boundary and inside
            pts = np.concatenate([_circle(radius, 256), _circle(0.5 * radius, 64)])
            logs = np.asarray(log_tail(side, p, pts))
            bounds = np.array([oracles.tail_log_bound(list(side), p, abs(z)) for z in pts])
            over = np.abs(logs) > bounds * (1.0 + 1e-12)
            if over.any() or not np.all(np.isfinite(logs)):
                failures.append(f"lemma2: |log Pi| exceeds its power-sum bound at {int(over.sum())} points")
    if "theorem" in reports:
        p = int(reports["theorem"][0]["details"]["p"])
        ref = oracles.ratio_deviation_max(list(spec.outer_a), list(spec.outer_b), (), (), p, base)
        for r in reports["theorem"]:
            _sup_within(f"theorem/{r['check']}", _finite(r, "observed"), ref,
                        WIDE_SUP_BELOW, WIDE_SUP_ABOVE, failures)
    return failures


def build_wide_tail(zr, seed: int, tiny: bool, workdir: str) -> list:
    from zeroratio import cli

    rng = np.random.default_rng(seed)
    sigmas = WIDE_SIGMAS[:1] if tiny else WIDE_SIGMAS
    grid = "8x32" if tiny else WIDE_GRID

    def log_tail(zeros, p, pts):
        spec = zr.TailProductSpec(zeros=zeros, genus=p, cutoff=WIDE_R)
        return zr.log_tail_product_grid(spec, pts)

    ops = []
    for i, sigma in enumerate(sigmas):
        spec = wide_pair_spec(zr, rng, sigma, fill=0.5 if tiny else WIDE_FILL)
        path = os.path.join(workdir, f"wide_{i}.json")
        zr.save_pair_file(spec, path)
        common = ["--pair", path, "--R", repr(WIDE_R), "--delta", repr(WIDE_DELTA),
                  "--grid", grid, "--threads", "1"]
        jobs = [["verify", job] + common for job in ("lemma2", "step5", "theorem", "decomposition")]
        ops.append(Op(key=f"wide-{i}", run=lambda jobs=jobs: run_cli(cli, jobs),
                      check=lambda output, spec=spec: check_wide(output, spec, log_tail)))
    return ops


# ---------------------------------------------------------------------------
# transform-fit
# ---------------------------------------------------------------------------

GROWTH_RADII = tuple(np.geomspace(4.0, 8.0, 5))
# kernel constants of the two ops of a round, fixed so that every seed does
# the same quadrature work; the seed draws the ray and the check circle
TRANSFORM_C = (1.0, 1.5)
CHECK_RADIUS = 6.0
CHECK_POINTS = 64
RHO_TOL = 0.02
SIGMA_RTOL = 0.02
# a transform evaluation, relative to the maximum over the check circle
CIRCLE_RTOL = 1e-9
# the known fault: pointwise evaluation where the real-axis integral cancels
FAULT_RADII = (8.0, 9.9, 18.9)
FAULT_ANGLE = -0.75 * math.pi
FAULT_RTOL = 1e-6


def run_transforms(zr, kernels, angle: float, phase: float) -> tuple:
    out = []
    circle = _circle(CHECK_RADIUS, CHECK_POINTS, phase)
    for gamma, C in kernels:
        jost = zr.JostFn(zr.Kernel.superexp(C, gamma))
        fit = zr.growth_fit(jost, radii=GROWTH_RADII)
        ray = zr.ray_decay_fit(jost, angle=angle, r_min=2.0, r_max=400.0)
        values = tuple(complex(v) for v in jost.evaluate(circle))
        out.append((gamma, C, fit.rho, fit.sigma, fit.degenerate, len(fit.radii),
                    ray.mu, ray.C1, values))
    return tuple(out)


def check_transforms(output, phase: float) -> list:
    import oracles

    failures: list = []
    circle = _circle(CHECK_RADIUS, CHECK_POINTS, phase)
    for gamma, C, rho, sigma, degenerate, used, mu, C1, values in output:
        label = f"gamma={gamma:g}"
        rho_ref, sigma_ref = oracles.laplace_growth(gamma)
        if degenerate or used != len(GROWTH_RADII):
            failures.append(f"{label}: growth fit degenerate={degenerate} on {used} radii")
        if abs(rho - rho_ref) > RHO_TOL:
            failures.append(f"{label}: fitted rho {rho:.6g}, Laplace gives {rho_ref:.6g}")
        if abs(sigma / sigma_ref - 1.0) > SIGMA_RTOL:
            failures.append(f"{label}: fitted sigma {sigma:.6g}, Laplace gives {sigma_ref:.6g}")
        # psi - 1 ~ C/(-iz) along every ray into the upper half plane
        if not (0.95 <= mu <= 1.0) or not (0.9 <= C1 / C <= 1.1):
            failures.append(f"{label}: ray fit mu={mu:.4g}, C1/C={C1 / C:.4g}, expected ~1 and ~1")
        values = np.asarray(values)
        if gamma == 2.0:
            idx = range(CHECK_POINTS)
            ref = np.array([oracles.gaussian_transform(C, z) for z in circle])
        else:
            idx = range(0, CHECK_POINTS, CHECK_POINTS // 4)
            ref = np.array([oracles.superexp_transform(C, gamma, circle[i]) for i in idx])
        err = float(np.max(np.abs(values[list(idx)] - ref)))
        scale = float(np.max(np.abs(values)))
        if not err <= CIRCLE_RTOL * scale:
            failures.append(f"{label}: check-circle error {err:.3g} against maximum {scale:.3g}")
    return failures


def run_fault(zr) -> tuple:
    jost = zr.JostFn(zr.Kernel.superexp(1.0, 2.0))
    points = np.array(FAULT_RADII) * np.exp(1j * FAULT_ANGLE)
    return tuple(complex(v) for v in jost.evaluate(points))


def check_fault(output) -> list:
    import oracles

    failures = []
    for r, value in zip(FAULT_RADII, output):
        ref = oracles.gaussian_transform(1.0, r * complex(math.cos(FAULT_ANGLE), math.sin(FAULT_ANGLE)))
        rel = abs(value - ref) / abs(ref)
        if not rel <= FAULT_RTOL:
            failures.append(f"|z|={r:g}, arg z=-3pi/4: relative error {rel:.3g} against the Faddeeva form")
    return failures


def build_transform_fit(zr, seed: int, tiny: bool, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for i, C in enumerate(TRANSFORM_C[:1] if tiny else TRANSFORM_C):
        kernels = ((2.0, C), (3.0, C))
        angle = float(rng.uniform(math.pi / 3, 2 * math.pi / 3))
        phase = float(rng.uniform(0.0, 2 * math.pi / CHECK_POINTS))
        ops.append(Op(
            key=f"transform-{i}",
            run=lambda kernels=kernels, angle=angle, phase=phase: run_transforms(zr, kernels, angle, phase),
            check=lambda output, phase=phase: check_transforms(output, phase),
        ))
    ops.append(Op(key="faddeeva-pointwise", run=lambda: run_fault(zr), check=check_fault,
                  known_fault=True))
    return ops


# ---------------------------------------------------------------------------
# zero-location
# ---------------------------------------------------------------------------

PAIR_RADIUS = 300.0
KERNEL_RADIUS = 40.0
KERNEL_KNOTS = (0.0, 0.5, 1.0)
# located pair zeros against the prescribed ones, relative to |z|
ZERO_RTOL = 1e-9
# |psi / psi'| at a located transform zero, relative to max(1, |w|)
NEWTON_RTOL = 1e-9
JENSEN_TOL = 1e-8


def random_kernel_coeffs(rng) -> tuple:
    return tuple((float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.8, 0.8)))
                 for _ in range(len(KERNEL_KNOTS) - 1))


def run_locate(zr, build, coeffs) -> tuple:
    z1 = zr.locate_zeros(build.psi1.as_analytic_fn(), 0j, PAIR_RADIUS)
    z2 = zr.locate_zeros(build.psi2.as_analytic_fn(), 0j, PAIR_RADIUS)
    transform = zr.JostFn(zr.Kernel.piecewise(KERNEL_KNOTS, coeffs)).as_analytic_fn()
    zk = zr.locate_zeros(transform, 0j, KERNEL_RADIUS)
    lhs, rhs = zr.jensen_check(transform, KERNEL_RADIUS, zeros=zk)
    return tuple(z1), tuple(z2), tuple(zk), lhs, rhs


def check_pair_zeros(label, located, prescribed, failures) -> None:
    want = [(complex(w), int(m)) for w, m in prescribed if abs(w) < PAIR_RADIUS]
    got = list(located)
    if len(got) != len(want):
        failures.append(f"{label}: {len(got)} zeros located, {len(want)} prescribed")
        return
    for w, m in want:
        best = min(got, key=lambda g: abs(g[0] - w))
        err = abs(best[0] - w)
        if err > ZERO_RTOL * max(1.0, abs(w)) or best[1] != m:
            failures.append(f"{label}: zero {w:.10g} (mult {m}) located at {best[0]:.10g} "
                            f"(mult {best[1]}), error {err:.3g}")


def check_locate(output, prescribed, coeffs) -> list:
    import oracles

    z1, z2, zk, lhs, rhs = output
    failures: list = []
    check_pair_zeros("psi1", z1, prescribed, failures)
    check_pair_zeros("psi2", z2, prescribed, failures)
    for w, _m in zk:
        f, df = oracles.piecewise_transform(KERNEL_KNOTS, coeffs, w)
        # a Newton step from the located zero, by mpmath
        step = abs(f / df) if df else math.inf
        if not step <= NEWTON_RTOL * max(1.0, abs(w)):
            failures.append(f"transform zero {w:.10g}: |psi/psi'| = {step:.3g} by mpmath")
    # Jensen's right side, recomputed here from the located zeros
    expected = math.fsum(m * math.log(KERNEL_RADIUS / abs(w)) for w, m in zk if abs(w) < KERNEL_RADIUS)
    if not abs(lhs - expected) <= JENSEN_TOL or not abs(rhs - expected) <= JENSEN_TOL:
        failures.append(f"Jensen: lhs {lhs:.12g}, rhs {rhs:.12g}, from the located zeros {expected:.12g}")
    return failures


def build_zero_location(zr, seed: int, tiny: bool, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    seeds = ENGINEERED_SEEDS[:2] if tiny else ENGINEERED_SEEDS
    order = [seeds[i] for i in rng.permutation(len(seeds))]
    ops = []
    for s in order:
        build = zr.engineered_pair(s)
        coeffs = random_kernel_coeffs(rng)
        ops.append(Op(
            key=f"locate-{s}",
            run=lambda build=build, coeffs=coeffs: run_locate(zr, build, coeffs),
            check=lambda output, shared=tuple(build.spec.shared), coeffs=coeffs:
                check_locate(output, shared, coeffs),
        ))
    return ops


WORKLOADS = {
    "engineered-verify": build_engineered_verify,
    "wide-tail": build_wide_tail,
    "transform-fit": build_transform_fit,
    "zero-location": build_zero_location,
}
