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
    """argparse that reports usage problems through exit code 64."""

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


def _plot_data_csv(reports: list[VerificationReport]) -> str:
    lines = ["check,r,bound,observed"]
    for r in reports:
        for row in r.details.get("profile", ()):
            radius, bound, observed = row
            lines.append(
                f"{r.check},{format_float(radius)},{format_float(bound)},{format_float(observed)}"
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
        return ClassParams(
            C0=args.C0, C1=args.C1, rho=args.rho, sigma=args.sigma, mu=args.mu, r0=args.r0
        )
    except ParameterError as exc:
        raise _UsageError(f"invalid class parameter: {exc}") from exc


def _reject_stray(args, flags, source: str) -> None:
    """A usage error naming the first of `flags` given on the command line,
    since the chosen `source` reads none of them."""
    stray = [flag for flag in flags if getattr(args, flag, None) is not None]
    if stray:
        raise _UsageError(f"--{stray[0].replace('_', '-')} does not apply to {source}")


# the flags of the engineered preset, which a pair or zero file replaces
_PRESET_FLAGS = ("preset", "seed", "poly_scale")


def _load_build(args) -> PairBuild:
    if args.pair is not None:
        _reject_stray(args, _PRESET_FLAGS, "--pair FILE")
        if args.R is None or args.delta is None:
            raise _UsageError("--pair requires --R and --delta")
        spec = load_pair_file(args.pair, args.R, args.delta)
        return build_pair(spec)
    if args.preset == "custom":
        raise _UsageError("--preset custom requires --pair FILE")
    for flag in ("R", "delta"):
        if getattr(args, flag) is not None:
            raise _UsageError(f"--{flag} needs --pair FILE: the engineered preset sets its own")
    return engineered_pair(args.seed or 0, poly_scale=getattr(args, "poly_scale", None) or 0.0)


# the zeros/jensen flags that select a pair
_PAIR_SELECTION = ("pair", "R", "delta", "preset", "seed", "component")


def _select_function(args):
    """Input function for zeros/jensen: kernel file, pair file, or preset.
    A flag of the source not chosen is a usage error, not ignored."""
    if args.kernel is not None:
        _reject_stray(args, _PAIR_SELECTION, "--kernel")
        jost = JostFn(load_kernel(args.kernel))
        return boost_ray_decay(jost) if args.boost else jost.as_analytic_fn()
    if args.boost:
        raise _UsageError("--boost applies only to --kernel")
    build = _load_build(args)
    model = build.psi2 if args.component == 2 else build.psi1
    return model.as_analytic_fn()


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_constants(args) -> int:
    params = _class_params(args)
    derived = derive_constants(
        params, args.delta, eps=args.eps, a=args.a, p_override=args.p_override
    )
    _emit(json.dumps(derived.to_json_dict(), indent=2), args.out)
    return EXIT_PASS


def _cmd_zeros(args) -> int:
    fn = _select_function(args)
    zs = locate_zeros(fn, center=args.center, radius=args.radius)
    # rows by modulus to 12 digits, then real and imaginary part, so a last-bit
    # change in a zero does not swap mirror-image rows
    _emit(zs.csv_text(key=lambda e: (float(f"{abs(e[0]):.12g}"), e[0].real, e[0].imag)), args.out)
    return EXIT_PASS


def _cmd_jensen(args) -> int:
    fn = _select_function(args)
    lhs, rhs = jensen_check(fn, args.radius)
    payload = {
        "lhs": format_float(lhs),
        "rhs": format_float(rhs),
        "diff": format_float(lhs - rhs),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_PASS


def _cmd_jost(args) -> int:
    jost = JostFn(load_kernel(args.kernel))
    fn = boost_ray_decay(jost) if args.boost else jost.as_analytic_fn()
    if args.eval is not None:
        value = complex(np.asarray(fn(args.eval), dtype=complex))
        if not np.isfinite(value):
            raise EvaluationError(f"non-finite transform value at z = {args.eval}")
        payload = {
            "z": [format_float(args.eval.real), format_float(args.eval.imag)],
            "value": [format_float(value.real), format_float(value.imag)],
        }
    elif args.ray_fit:
        if args.rmin >= args.rmax:
            raise _UsageError(f"--rmin {args.rmin:g} must lie below --rmax {args.rmax:g}")
        fit = ray_decay_fit(fn, angle=args.angle, r_min=args.rmin, r_max=args.rmax)
        payload = {
            "C1": format_float(fit.C1),
            "mu": format_float(fit.mu),
            "slope": format_float(fit.slope),
            "angle": format_float(fit.angle),
            "r_min": format_float(fit.r_min),
            "r_max": format_float(fit.r_max),
            "samples": fit.samples,
            "degenerate": fit.degenerate,
        }
    elif args.growth_fit:
        fit = growth_fit(fn)
        payload = {
            "C0": format_float(fit.C0),
            "sigma": format_float(fit.sigma),
            "rho": format_float(fit.rho),
            "degenerate": fit.degenerate,
            "radii": [format_float(r) for r in fit.radii],
            "maxima": [format_float(m) for m in fit.maxima],
            "stopped": {"reason": fit.stopped[0],
                        "radius": None if fit.stopped[1] is None else format_float(fit.stopped[1])},
        }
    else:
        raise _UsageError("jost needs one of --eval RE,IM, --ray-fit, --growth-fit")
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_PASS


def _verify_lemma2(args) -> list[VerificationReport]:
    if args.zeros is not None:
        _reject_stray(args, ("pair",) + _PRESET_FLAGS, "--zeros FILE")
        params = _class_params(args)
        if args.R is None:
            raise _UsageError("verify lemma2 with --zeros requires --R")
        delta = args.delta if args.delta is not None else 2.0 / 3.0
        p = args.p_override
        if p is None:
            p = select_p(params.rho, params.mu, delta)
        a = args.a if args.a is not None else float(p + 1)
        zeros = ZeroSet.from_csv(args.zeros)
        return [
            check_lemma2(zeros, args.R, a, p, delta, params, grid=args.grid)
        ]
    build = _load_build(args)
    spec = build.spec
    a = args.a if args.a is not None else float(build.p + 1)
    return [
        check_lemma2(
            side, spec.R, a, build.p, spec.delta, spec.params, grid=args.grid
        )
        for side in (spec.outer_a, spec.outer_b)
    ]


def _verify_lemma3(args) -> list[VerificationReport]:
    if args.coeffs is not None:
        coeffs = args.coeffs
    elif args.poly_seed is not None:
        degree = args.p if args.p is not None else 2
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
        coeffs = tuple(shape * (target / proxy))
    else:
        raise _UsageError("verify lemma3 needs --coeffs LIST or --poly-seed N")
    return [check_lemma3(coeffs, args.r, args.mu, grid=args.grid)]


def _cmd_verify(args) -> int:
    kind = args.which
    if kind in ("lemma2", "step5", "decomposition"):
        _reject_stray(args, ("eps",), f"verify {kind}")
    eps = 1.0 if getattr(args, "eps", None) is None else args.eps
    if kind == "lemma2":
        reports = _verify_lemma2(args)
    elif kind == "lemma3":
        reports = _verify_lemma3(args)
    else:
        build = _load_build(args)
        if kind == "decomposition":
            reports = [check_decomposition(build, grid=args.grid)]
        elif kind == "step5":
            reports = check_step5_bounds(build, grid=args.grid)
        elif kind == "theorem":
            reports = check_theorem(build, eps=eps, grid=args.grid)
        elif kind == "remark5":
            reports = [check_remark5(build, eps=eps)]
        else:  # pragma: no cover - argparse restricts choices
            raise _UsageError(f"unknown verify target {kind!r}")
    for r in reports:
        for name, value in (("bound", r.bound), ("observed", r.observed)):
            if not np.isfinite(value):
                raise EvaluationError(f"{r.check}: {name} is {format_float(value)}")
    text = reports_to_json(reports) if args.format == "json" else _reports_csv(reports)
    _emit(text, args.out)
    if args.plot_data is not None:
        _emit(_plot_data_csv(reports), args.plot_data)
    if any(r.verdict == FAIL for r in reports):
        return EXIT_FAIL
    return EXIT_PASS


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_class_flags(parser, defaults=None) -> None:
    """Class-parameter flags; required when no defaults are supplied."""
    helps = {
        "C0": "growth constant", "C1": "ray decay constant", "rho": "growth order",
        "sigma": "growth type", "mu": "ray decay exponent", "r0": "ray validity radius",
    }
    for i, name in enumerate(("C0", "C1", "rho", "sigma", "mu", "r0")):
        if defaults is None:
            parser.add_argument(f"--{name}", type=float, required=True, help=helps[name])
        else:
            parser.add_argument(f"--{name}", type=float, default=defaults[i], help=helps[name])


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on first use and kept: parse_args returns a fresh
    Namespace and every type= callable is stateless, so calls share nothing."""
    parser = _Parser(prog="zeroratio", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # constants ---------------------------------------------------------------
    pc = sub.add_parser("constants", help="derived constants for one parameter set")
    _add_class_flags(pc)
    pc.add_argument("--delta", type=_parse_delta, required=True, help="disk shrink exponent")
    pc.add_argument("--eps", type=_parse_positive, default=1.0, help="target accuracy")
    pc.add_argument("--a", type=_parse_positive, default=None, help="disk scale (default p+1)")
    pc.add_argument("--p-override", dest="p_override", type=_parse_genus, default=None,
                    help="force the genus instead of deriving it")
    pc.add_argument("--out", default=None, help="write JSON here instead of stdout")
    pc.set_defaults(handler=_cmd_constants)

    # shared input-selection flags for zeros/jensen ---------------------------
    def add_selection(p):
        p.add_argument("--kernel", default=None, help="kernel JSON file")
        p.add_argument("--pair", default=None, help="pair JSON file")
        p.add_argument("--component", type=int, choices=(1, 2), default=None,
                       help="which function of the pair (default 1)")
        p.add_argument("--R", type=_parse_positive, default=None, help="pair coincidence radius")
        p.add_argument("--delta", type=_parse_delta, default=None, help="pair shrink exponent")
        p.add_argument("--preset", choices=("engineered", "custom"), default=None,
                       help="default engineered")
        p.add_argument("--seed", type=_parse_seed, default=None, help="default 0")
        p.add_argument("--boost", action="store_true",
                       help="apply the decay-boost transform to a kernel function")
        p.add_argument("--out", default=None)

    pz = sub.add_parser("zeros", help="locate zeros, emitting a re,im,mult CSV")
    add_selection(pz)
    pz.add_argument("--radius", type=_parse_positive, required=True)
    pz.add_argument("--center", type=_parse_complex, default=0j, metavar="RE,IM")
    pz.set_defaults(handler=_cmd_zeros)

    pj = sub.add_parser("jensen", help="circle-average identity at one radius")
    add_selection(pj)
    pj.add_argument("--radius", type=_parse_positive, required=True)
    pj.set_defaults(handler=_cmd_jensen)

    # jost --------------------------------------------------------------------
    pk = sub.add_parser("jost", help="evaluate or fit a kernel transform")
    pk.add_argument("--kernel", required=True, help="kernel JSON file")
    pk.add_argument("--eval", type=_parse_complex, default=None, metavar="RE,IM")
    pk.add_argument("--ray-fit", dest="ray_fit", action="store_true")
    pk.add_argument("--growth-fit", dest="growth_fit", action="store_true")
    pk.add_argument("--boost", action="store_true",
                    help="apply the decay-boost transform first")
    pk.add_argument("--angle", type=_parse_finite, default=float(np.pi / 2))
    pk.add_argument("--rmin", type=_parse_positive, default=2.0)
    pk.add_argument("--rmax", type=_parse_positive, default=400.0)
    pk.add_argument("--out", default=None)
    pk.set_defaults(handler=_cmd_jost)

    # verify ------------------------------------------------------------------
    pair = argparse.ArgumentParser(add_help=False)  # every check but lemma 3
    pair.add_argument("--R", type=_parse_positive, default=None)
    pair.add_argument("--delta", type=_parse_delta, default=None)
    pair.add_argument("--eps", type=_parse_positive, default=None,
                      help="target accuracy of theorem and remark5 (default 1)")
    pair.add_argument("--pair", default=None, help="pair JSON file")
    pair.add_argument("--preset", choices=("engineered", "custom"), default=None,
                      help="default engineered, without --pair")
    pair.add_argument("--seed", type=_parse_seed, default=None, help="default 0")
    pair.add_argument("--poly-scale", dest="poly_scale", type=_parse_non_negative, default=None,
                      help="inject polynomial exponents g into the preset pair, with "
                           "|g(z)|*|z|^mu at most this on the ray measurement window "
                           "(default 0)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=_parse_grid, default=None, metavar="NRxNT",
                        help="rings x boundary samples of the disk grid")
    common.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored; evaluation is single-threaded")
    common.add_argument("--out", default=None)
    common.add_argument("--plot-data", dest="plot_data", default=None,
                        help="write check,r,bound,observed CSV here")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    pv = sub.add_parser("verify", help="run inequality checks")
    vsub = pv.add_subparsers(dest="which", required=True)

    v2 = vsub.add_parser("lemma2", parents=[pair, common],
                         help="tail-product smallness on the wide disk")
    v2.add_argument("--zeros", default=None, help="standalone outer zero CSV")
    _add_class_flags(v2, defaults=(0.5, 0.5, 1.0, 0.03, 1.0, 1.0))
    v2.add_argument("--a", type=_parse_positive, default=None, help="disk scale (default p+1)")
    v2.add_argument("--p-override", dest="p_override", type=_parse_genus, default=None)
    v2.set_defaults(handler=_cmd_verify)

    v3 = vsub.add_parser("lemma3", parents=[common],
                         help="segment-to-disk amplification for one polynomial")
    v3.add_argument("--coeffs", type=_parse_coeffs, default=None,
                    help="comma-separated complex coefficients, constant first")
    v3.add_argument("--poly-seed", dest="poly_seed", type=_parse_seed, default=None,
                    help="draw an admissible polynomial from this seed")
    v3.add_argument("--p", type=_parse_genus, default=None, help="degree for --poly-seed")
    v3.add_argument("--r", type=_parse_positive, default=2.0, help="segment base radius")
    v3.add_argument("--mu", type=_parse_positive, default=1.0, help="segment decay exponent")
    v3.set_defaults(handler=_cmd_verify)

    for name, blurb in (
        ("decomposition", "exact identity between the two ratio representations"),
        ("step5", "the five chained intermediate bounds"),
        ("theorem", "final ratio bound, constant and accuracy forms"),
        ("remark5", "difference bound on the real segment"),
    ):
        vp = vsub.add_parser(name, parents=[pair, common], help=blurb)
        vp.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help paths
        code = exc.code
        return int(code) if code else 0
    try:
        return args.handler(args)
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
