"""Command-line entry point for the verification laboratory.

Subcommands: constants (derived-constant table), zeros (locate zeros, CSV),
jensen (circle-average identity), jost (kernel transform evaluation and
fits), verify (inequality checks producing a JSON report array).

Exit codes: 0 when every verdict is pass or pass-with-unmet-preconditions,
1 when any verdict is fail, 2 on evaluation errors (a non-finite bound,
observation or transform value among them) and on any other unexpected
error, 64 on usage errors, 66 when an input file is missing or unreadable,
73 when an output file cannot be written.

Identical invocations produce byte-identical output: all randomness is keyed
by --seed (default 0) and every evaluation runs in one thread in a fixed
order (--threads is accepted and ignored).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .constants import (
    MAX_GENUS,
    ClassParams,
    ParameterError,
    constant_Ap,
    derive_constants,
    select_p,
)
from .factors import ZeroSet
from .grids import DiskGrid, parse_disk_grid
from .jost import JostFn, boost_ray_decay, growth_fit, load_kernel, ray_decay_fit
from .models import PairBuild, build_pair, engineered_pair, load_pair_file
from .report import FAIL, VerificationReport, format_float, reports_to_json
from .verifier import (
    check_decomposition,
    check_lemma2,
    check_lemma3,
    check_remark5,
    check_step5_bounds,
    check_theorem,
)
from .zeros import EvaluationError, jensen_check, locate_zeros

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_EVAL = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 64 and puts a
    flag in the Namespace only when the command line gives it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# small parsers and emitters
# ---------------------------------------------------------------------------


def _parse_complex(text: str) -> complex:
    """'RE,IM' or a bare real, both parts finite, as for --eval and --center."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"expected RE,IM, got {text!r}")
    value = complex(*map(float, parts))
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"parts must be finite, got {text!r}")
    return value


def _parse_coeffs(text: str) -> tuple[complex, ...]:
    """Comma-separated finite complex literals, e.g. '1e-4,-2e-5,(1e-6+2e-7j)'."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        out.append(complex(piece))
    if not out:
        raise ValueError("empty coefficient list")
    if not all(map(cmath.isfinite, out)):
        raise argparse.ArgumentTypeError(f"coefficients must be finite, got {text!r}")
    return tuple(out)


# argparse names a type that raises ValueError by its __name__ ("invalid complex value")
_parse_complex.__name__ = "complex"
_parse_coeffs.__name__ = "complex list"


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(f"cannot write output file {out}: {exc}") from exc


def _reports_csv(reports: list[VerificationReport]) -> str:
    lines = ["check,verdict,bound,observed,margin,samples,unmet_preconditions"]
    for r in reports:
        unmet = ";".join(p.name for p in r.preconditions if not p.satisfied)
        lines.append(
            f"{r.check},{r.verdict},{format_float(r.bound)},{format_float(r.observed)},"
            f"{format_float(r.margin)},{r.samples},\"{unmet}\""
        )
    return "\n".join(lines) + "\n"


def _number_range(cast, low: float, high: float, low_inclusive: bool = False):
    """argparse type for a cast(text) in (low, high), or in [low, high) when low_inclusive."""

    def parse(text: str):
        value = cast(text)
        if not (low <= value if low_inclusive else low < value) or not value < high:
            raise argparse.ArgumentTypeError(
                f"must lie in {'[' if low_inclusive else '('}{low:g}, {high:g}), got {text!r}"
            )
        return value

    parse.__name__ = cast.__name__  # for argparse's "invalid float value" message
    return parse


_parse_delta = _number_range(float, 0.0, 1.0)
# --R, --eps, --radius, --r, --rmin, --rmax, --a and lemma 3's --mu
_parse_positive = _number_range(float, 0.0, math.inf)
_parse_non_negative = _number_range(float, 0.0, math.inf, low_inclusive=True)  # --poly-scale
_parse_seed = _number_range(int, 0, math.inf, low_inclusive=True)  # --seed, --poly-seed
_parse_finite = _number_range(float, -math.inf, math.inf)  # --angle
_parse_genus = _number_range(int, 1, MAX_GENUS + 1, low_inclusive=True)  # --p-override, --p


def _parse_grid(text: str) -> DiskGrid:
    """--grid NRxNT; a bad shape is reported with its reason, not the parser's name."""
    try:
        return parse_disk_grid(text)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _class_params(args) -> ClassParams:
    try:
        return ClassParams(**{name: getattr(args, name) for name in _CLASS})
    except ParameterError as exc:
        raise _UsageError(f"invalid class parameter: {exc}") from exc


# ---------------------------------------------------------------------------
# inputs and subcommand bodies
# ---------------------------------------------------------------------------


def _kernel_fn(args):
    """The transform of --kernel FILE, decay-boosted with --boost."""
    jost = JostFn(load_kernel(args.kernel))
    return boost_ray_decay(jost) if args.boost else jost.as_analytic_fn()


def _pair_file(args) -> PairBuild:
    return build_pair(load_pair_file(args.pair, args.R, args.delta))


def _member(build: PairBuild, args):
    """The --component of a pair, as zeros and jensen read it."""
    return (build.psi2 if args.component == 2 else build.psi1).as_analytic_fn()


def _emit_json(payload, args) -> int:
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_PASS


def _cmd_constants(args) -> int:
    derived = derive_constants(_class_params(args), args.delta, eps=args.eps, a=args.a,
                               p_override=args.p_override)
    return _emit_json(derived.to_json_dict(), args)


def _cmd_zeros(fn, args) -> int:
    zs = locate_zeros(fn, center=args.center, radius=args.radius)
    # rows by modulus to 12 digits, then real and imaginary part, so a last-bit
    # change in a zero does not swap mirror-image rows
    _emit(zs.csv_text(key=lambda e: (float(f"{abs(e[0]):.12g}"), e[0].real, e[0].imag)), args.out)
    return EXIT_PASS


def _cmd_jensen(fn, args) -> int:
    lhs, rhs = jensen_check(fn, args.radius)
    return _emit_json({"lhs": format_float(lhs), "rhs": format_float(rhs),
                       "diff": format_float(lhs - rhs)}, args)


def _jost_eval(fn, args) -> dict:
    value = complex(np.asarray(fn(args.eval), dtype=complex))
    if not np.isfinite(value):
        raise EvaluationError(f"non-finite transform value at z = {args.eval}")
    return {"z": [format_float(args.eval.real), format_float(args.eval.imag)],
            "value": [format_float(value.real), format_float(value.imag)]}


def _jost_ray_fit(fn, args) -> dict:
    if args.rmin >= args.rmax:
        raise _UsageError(f"--rmin {args.rmin:g} must lie below --rmax {args.rmax:g}")
    fit = ray_decay_fit(fn, angle=args.angle, r_min=args.rmin, r_max=args.rmax)
    fields = ("C1", "mu", "slope", "angle", "r_min", "r_max")
    return {name: format_float(getattr(fit, name)) for name in fields} | {
        "samples": fit.samples, "degenerate": fit.degenerate}


def _jost_growth_fit(fn, args) -> dict:
    fit = growth_fit(fn)
    return {name: format_float(getattr(fit, name)) for name in ("C0", "sigma", "rho")} | {
        "degenerate": fit.degenerate,
        "radii": [format_float(r) for r in fit.radii],
        "maxima": [format_float(m) for m in fit.maxima],
        "stopped": {"reason": fit.stopped[0],
                    "radius": None if fit.stopped[1] is None else format_float(fit.stopped[1])},
    }


def _lemma2_zeros(args) -> list[VerificationReport]:
    """Lemma 2 on a standalone outer zero list, in the class of the class flags."""
    params = _class_params(args)
    p = args.p_override or select_p(params.rho, params.mu, args.delta)
    zeros = ZeroSet.from_csv(args.zeros)
    return [check_lemma2(zeros, args.R, args.a or float(p + 1), p, args.delta, params,
                         grid=args.grid)]


def _lemma2_tails(build: PairBuild, args) -> list[VerificationReport]:
    """Lemma 2 on each outer zero set of a pair."""
    spec = build.spec
    a = args.a or float(build.p + 1)
    return [check_lemma2(side, spec.R, a, build.p, spec.delta, spec.params, grid=args.grid)
            for side in (spec.outer_a, spec.outer_b)]


def _poly_seed_coeffs(args) -> tuple[complex, ...]:
    """A polynomial of degree --p drawn from --poly-seed, scaled into lemma 3's preconditions."""
    degree = args.p
    rng = np.random.default_rng(args.poly_seed)
    Ap = constant_Ap(degree, args.mu)
    try:
        scales = [args.r ** -(j - 1) for j in range(1, degree + 2)]
    except OverflowError:
        raise EvaluationError(f"--r {args.r:g} is too small for --p {degree}: the "
                              f"coefficient scale r^-p = {args.r:g}^-{degree} overflows") from None
    shape = np.array([(rng.normal() + 1j * rng.normal()) * s for s in scales])
    # rescale so the measured segment envelope lands well inside the
    # eps*Ap <= 1/4 precondition (linear proxy: |e^g - 1| ~ |g|)
    ts = np.linspace(args.r, (degree + 1) * args.r, 257)
    g_vals = np.polyval(shape[::-1], ts.astype(complex))
    proxy = float(np.max(np.abs(g_vals) * (ts / args.r) ** args.mu))
    target = 0.25 / Ap * 10.0 ** rng.uniform(-3.0, -0.7)
    return tuple(shape * (target / proxy))


def _cmd_verify(reports: list[VerificationReport], args) -> int:
    """The one verify runner: write the reports, and exit 1 if any fails."""
    for r in reports:
        for name, value in (("bound", r.bound), ("observed", r.observed)):
            if not np.isfinite(value):
                raise EvaluationError(f"{r.check}: {name} is {format_float(value)}")
    text = reports_to_json(reports) if args.format == "json" else _reports_csv(reports)
    _emit(text, args.out)
    return EXIT_FAIL if any(r.verdict == FAIL for r in reports) else EXIT_PASS


# ---------------------------------------------------------------------------
# the runs: which flags each one reads and requires
# ---------------------------------------------------------------------------


class _Row(NamedTuple):
    """One way to run a subcommand.  `select` is the flag that picks the row
    (None: the subcommand's fallback), `label` names it in usage messages,
    and `run` maps the completed arguments to an exit code.  A row calls the
    checks through this module's names, so a wrapper put there sees them."""

    select: str | None
    label: str
    reads: tuple[str, ...]
    requires: tuple[str, ...]
    run: Callable[[argparse.Namespace], int]


_CLASS = ("C0", "C1", "rho", "sigma", "mu", "r0")
_PAIR_FILE = ("pair", "R", "delta")
_REPORT = ("threads", "out", "format")  # read by every verify run

# the value of a flag that a run reads and the command line leaves out; any
# other flag is None.  The class flags' and --delta's are lemma 2's with
# --zeros FILE, the one run that reads them without requiring them.
_DEFAULTS = dict(C0=0.5, C1=0.5, rho=1.0, sigma=0.03, mu=1.0, r0=1.0, delta=2.0 / 3.0,
                 eps=1.0, seed=0, poly_scale=0.0, component=1, boost=False, center=0j,
                 angle=float(np.pi / 2), rmin=2.0, rmax=400.0, p=2, r=2.0, format="json")


def _function_rows(body, reads: tuple[str, ...]) -> list[_Row]:
    """zeros or jensen on a kernel transform, or on a member of a pair file's
    pair or of the preset's; `body` maps (function, args) to an exit code."""
    return [
        _Row("kernel", "--kernel", ("kernel", "boost") + reads, ("radius",),
             lambda a: body(_kernel_fn(a), a)),
        _Row("pair", "--pair FILE", _PAIR_FILE + ("component",) + reads, ("R", "delta", "radius"),
             lambda a: body(_member(_pair_file(a), a), a)),
        _Row(None, "the engineered preset", ("preset", "seed", "component") + reads, ("radius",),
             lambda a: body(_member(engineered_pair(a.seed), a), a)),
    ]


def _jost_row(select: str, label: str, reads: tuple[str, ...], payload) -> _Row:
    """jost in one mode; `payload` maps (transform, args) to the JSON object."""
    return _Row(select, label, ("kernel", "boost", select, "out") + reads, ("kernel",),
                lambda a: _emit_json(payload(_kernel_fn(a), a), a))


def _pair_rows(check, reads: tuple[str, ...]) -> list[_Row]:
    """A pair check on a pair file or on the preset; `check` maps (build, args) to reports."""
    return [
        _Row("pair", "--pair FILE", _PAIR_FILE + reads + _REPORT, ("R", "delta"),
             lambda a: _cmd_verify(check(_pair_file(a), a), a)),
        _Row(None, "the engineered preset", ("preset", "seed", "poly_scale") + reads + _REPORT, (),
             lambda a: _cmd_verify(check(engineered_pair(a.seed, poly_scale=a.poly_scale), a), a)),
    ]


# subcommand -> its rows; the first row whose `select` flag is given runs,
# and a row whose `select` is None runs when no earlier one does
_RUNS = {
    "constants": [_Row(None, "constants", _CLASS + ("delta", "eps", "a", "p_override", "out"),
                       _CLASS + ("delta",), _cmd_constants)],
    "zeros": _function_rows(_cmd_zeros, ("radius", "center", "out")),
    "jensen": _function_rows(_cmd_jensen, ("radius", "out")),
    "jost": [
        _jost_row("eval", "--eval RE,IM", (), _jost_eval),
        _jost_row("ray_fit", "--ray-fit", ("angle", "rmin", "rmax"), _jost_ray_fit),
        _jost_row("growth_fit", "--growth-fit", (), _jost_growth_fit),
    ],
    "verify lemma2": [
        _Row("zeros", "--zeros FILE", ("zeros", "R", "delta", "a", "p_override", "grid")
             + _CLASS + _REPORT, ("R",), lambda a: _cmd_verify(_lemma2_zeros(a), a)),
        *_pair_rows(_lemma2_tails, ("a", "grid")),
    ],
    "verify lemma3": [
        _Row("coeffs", "--coeffs LIST", ("coeffs", "r", "mu", "grid") + _REPORT, (),
             lambda a: _cmd_verify([check_lemma3(a.coeffs, a.r, a.mu, grid=a.grid)], a)),
        _Row("poly_seed", "--poly-seed N", ("poly_seed", "p", "r", "mu", "grid") + _REPORT, (),
             lambda a: _cmd_verify([check_lemma3(_poly_seed_coeffs(a), a.r, a.mu, grid=a.grid)], a)),
    ],
    "verify decomposition": _pair_rows(
        lambda build, a: [check_decomposition(build, grid=a.grid)], ("grid",)),
    "verify step5": _pair_rows(lambda build, a: check_step5_bounds(build, grid=a.grid), ("grid",)),
    "verify theorem": _pair_rows(
        lambda build, a: check_theorem(build, eps=a.eps, grid=a.grid), ("grid", "eps")),
    "verify remark5": _pair_rows(lambda build, a: [check_remark5(build, eps=a.eps)], ("eps",)),
}


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _select(args) -> _Row:
    """The row that runs the parsed `args`, under one usage rule: the command
    line gives every flag the row requires and none that it does not read.
    The flags it reads that the command line leaves out get their defaults.
    A flag that no row of the subcommand reads, or that all of them require,
    is named against the subcommand, any other against the row; a stray
    flag that other rows read also gets the flags that select those rows."""
    key = args.command if args.command != "verify" else f"verify {args.which}"
    given = [flag for flag in vars(args) if flag not in ("command", "which")]
    rows = _RUNS[key]
    row = next((r for r in rows if r.select is None or r.select in given), None)
    if row is None:
        raise _UsageError(f"{key} needs one of {', '.join(r.label for r in rows)}")
    stray = next((flag for flag in given if flag not in row.reads), None)
    if stray is not None:
        readers = [r for r in rows if stray in r.reads]
        message = f"{_option(stray)} does not apply to {row.label if readers else key}"
        selectors = [r.label for r in readers if r.select not in (None, stray)]
        if selectors:
            message += f": {_option(stray)} needs {' or '.join(selectors)}"
        raise _UsageError(message)
    missing = [flag for flag in row.requires if flag not in given]
    if missing:
        where = key if all(missing[0] in r.requires for r in rows) else row.label
        raise _UsageError(f"{where} requires {', '.join(map(_option, missing))}")
    namespace = vars(args)
    for flag in row.reads:
        if flag not in namespace:
            namespace[flag] = _DEFAULTS.get(flag)
    return row


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

# every flag's argparse settings, the same in each subcommand that takes it
_FLAGS = {
    "C0": dict(type=float, help="growth constant"),
    "C1": dict(type=float, help="ray decay constant"),
    "rho": dict(type=float, help="growth order"),
    "sigma": dict(type=float, help="growth type"),
    "mu": dict(type=float, help="ray decay exponent"),
    "r0": dict(type=float, help="ray validity radius"),
    "delta": dict(type=_parse_delta, help="disk shrink exponent"),
    "eps": dict(type=_parse_positive, help="target accuracy (default 1)"),
    "a": dict(type=_parse_positive, help="disk scale (default p+1)"),
    "p_override": dict(type=_parse_genus, help="force the genus instead of deriving it"),
    "kernel": dict(help="kernel JSON file"),
    "pair": dict(help="pair JSON file"),
    "zeros": dict(help="standalone outer zero CSV"),
    "R": dict(type=_parse_positive, help="pair coincidence radius"),
    "preset": dict(choices=("engineered",), help="the default without --pair"),
    "seed": dict(type=_parse_seed, help="default 0"),
    "poly_scale": dict(type=_parse_non_negative,
                       help="inject polynomial exponents g into the preset pair, with |g(z)|*|z|^mu "
                            "at most this on the ray measurement window (default 0)"),
    "component": dict(type=int, choices=(1, 2), help="which function of the pair (default 1)"),
    "boost": dict(action="store_true", help="apply the decay-boost transform to the kernel transform"),
    "radius": dict(type=_parse_positive),
    "center": dict(type=_parse_complex, metavar="RE,IM"),
    "eval": dict(type=_parse_complex, metavar="RE,IM"),
    "ray_fit": dict(action="store_true"),
    "growth_fit": dict(action="store_true"),
    "angle": dict(type=_parse_finite),
    "rmin": dict(type=_parse_positive),
    "rmax": dict(type=_parse_positive),
    "coeffs": dict(type=_parse_coeffs, help="comma-separated complex coefficients, constant first"),
    "poly_seed": dict(type=_parse_seed, help="draw an admissible polynomial from this seed"),
    "p": dict(type=_parse_genus, help="degree for --poly-seed"),
    "r": dict(type=_parse_positive, help="segment base radius"),
    "grid": dict(type=_parse_grid, metavar="NRxNT", help="rings x spokes of the disk grid; disk sups read the spokes only"),
    "threads": dict(type=int, help="accepted and ignored; evaluation is single-threaded"),
    "out": dict(help="write the output here instead of stdout"),
    "format": dict(choices=("json", "csv")),
}
# lemma 3's --mu is a segment's decay exponent, not a class flag
_SEGMENT_MU = dict(type=_parse_positive, help="segment decay exponent")

_HELP = {
    "constants": "derived constants for one parameter set",
    "zeros": "locate zeros, emitting a re,im,mult CSV",
    "jensen": "circle-average identity at one radius",
    "jost": "evaluate or fit a kernel transform",
    "verify lemma2": "tail-product smallness on the wide disk",
    "verify lemma3": "segment-to-disk amplification for one polynomial",
    "verify decomposition": "exact identity between the two ratio representations",
    "verify step5": "the five chained intermediate bounds",
    "verify theorem": "final ratio bound, constant and accuracy forms",
    "verify remark5": "difference bound on the real segment",
}

# the pair checks take each other's pair-file and preset flags: one that a
# pair check reads is, in the others, a flag that does not apply rather than
# an unknown one.  Lemma 2's --zeros FILE flags stay its own.
_PAIR_CHECKS = tuple(key for key in _RUNS if key.startswith("verify ") and key != "verify lemma3")


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on first use and kept: parse_args returns a fresh
    Namespace and every type= callable is stateless, so calls share nothing.
    A subcommand takes the flags its rows read; which of them a run reads
    and requires, and their defaults, are `_select`'s to settle."""
    parser = _Parser(prog="zeroratio", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    verify = None
    for key in _RUNS:
        command, _, which = key.partition(" ")
        if which and verify is None:
            verify = sub.add_parser(command, help="run inequality checks").add_subparsers(
                dest="which", required=True)
        p = verify.add_parser(which, help=_HELP[key]) if which else sub.add_parser(key, help=_HELP[key])
        rows = list(_RUNS[key])
        if key in _PAIR_CHECKS:
            rows += [row for k in _PAIR_CHECKS for row in _RUNS[k] if row.select in ("pair", None)]
        for flag in dict.fromkeys(f for row in rows for f in row.reads):
            spec = _SEGMENT_MU if (key, flag) == ("verify lemma3", "mu") else _FLAGS[flag]
            p.add_argument(_option(flag), **spec)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _select(args).run(args)
    except SystemExit as exc:  # --help paths
        return int(exc.code) if exc.code else 0
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # output files raise _OutputError, so this is an input
        print(f"cannot read input file {exc.filename or ''}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except _OutputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CANTCREAT
    except Exception as exc:  # any other failure, foreseen or not
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
