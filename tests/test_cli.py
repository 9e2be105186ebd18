"""End-to-end tests of the command line: exit codes, formats, determinism."""

import json
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from zeroratio import cli
from zeroratio.factors import ZeroSet
from zeroratio.jost import Kernel, save_kernel
from zeroratio.models import save_pair_file
from zeroratio.report import VerificationReport, format_float

from helpers import outside_class_pair, random_pair


def run(argv):
    return cli.main(argv)


def kernel_file(tmp_path, kernel=None):
    path = tmp_path / "kernel.json"
    save_kernel(kernel or Kernel.constant(1.0, 1.0), str(path))
    return str(path)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_golden_values(tmp_path):
    out = tmp_path / "c.json"
    rc = run([
        "constants", "--C0", "2", "--C1", "1", "--rho", "1", "--sigma", "1",
        "--mu", "1", "--r0", "1", "--delta", "0.6667", "--eps", "0.1",
        "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["p"] == "2"
    assert data["c"] == "2"
    assert data["r1"] == "2"
    assert data["exponent"].startswith("0.3333")


_OVERFLOW_BASE = ["constants", "--C0", "2", "--C1", "1", "--rho", "1", "--sigma", "1",
                  "--mu", "1", "--r0", "1", "--delta", "0.5"]


@pytest.mark.parametrize("change", [
    ["--mu", "0.001"],
    ["--a", "1e100"],
    ["--C1", "1e300", "--sigma", "1e-300", "--mu", "1e-3"],
    ["--C0", "1e300", "--rho", "0.01", "--sigma", "1e-300"],
])
def test_constants_beyond_double_range_print_inf_with_warnings(change, capsys):
    argv = list(_OVERFLOW_BASE)
    for flag, value in zip(change[::2], change[1::2]):
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    data = json.loads(captured.out)
    warned = set()
    for warning in data["warnings"]:
        name, _, message = warning.partition(": ")
        assert message == "threshold exceeds representable range"
        warned.add(name.replace("-", "_"))
    fields = dict(data, **data["inner_stage"])
    infinite = {key for key, value in fields.items() if value == "inf"}
    # Rprime, R0 and the inner max_radius are maxima of the named thresholds
    maxima = {"Rprime", "R0", "max_radius"}
    assert infinite - maxima, "expected an infinite threshold"
    assert infinite - maxima <= warned


def test_constants_missing_class_flag_exits_64(tmp_path):
    rc = run(["constants", "--C1", "1", "--rho", "1", "--sigma", "1",
              "--mu", "1", "--r0", "1", "--delta", "0.6667"])
    assert rc == 64


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", ["16x", "0x0", "1x3", "8x0"])
def test_bad_grid_shape_exits_64(shape, capsys):
    rc = run(["verify", "decomposition", "--grid", shape])
    assert rc == 64
    assert "argument --grid" in capsys.readouterr().err


def test_missing_pair_file_exits_66(tmp_path):
    rc = run(["verify", "theorem", "--pair", str(tmp_path / "absent.json"),
              "--R", "60", "--delta", "0.6667"])
    assert rc == 66


_CLASS = ["--C1", "1", "--rho", "1", "--mu", "1", "--r0", "1", "--delta", "0.6667"]


@pytest.mark.parametrize("argv, flag", [
    (["constants", "--C0", "-1", "--sigma", "1"] + _CLASS, "C0"),
    (["constants", "--C0", "2", "--sigma", "0"] + _CLASS, "sigma"),
    (["verify", "theorem", "--pair", "{pair}", "--R", "400", "--delta", "1.5"], "delta"),
    (["zeros", "--preset", "custom", "--radius", "10"], "argument --preset: invalid choice: 'custom'"),
    (["verify", "theorem", "--pair", "{pair}", "--R", "-5", "--delta", "0.6"], "argument --R"),
    (["constants", "--C0", "2", "--sigma", "1", "--eps", "-1"] + _CLASS, "argument --eps"),
    (["verify", "theorem", "--eps", "-1"], "argument --eps"),
    (["zeros", "--radius", "-1"], "argument --radius"),
    (["jensen", "--radius", "0"], "argument --radius"),
    (["verify", "lemma3", "--coeffs", "1,2", "--r", "-2"], "argument --r"),
    (["verify", "theorem", "--poly-scale", "-1"], "argument --poly-scale"),
    (["jost", "--kernel", "{kernel}", "--ray-fit", "--rmin", "-1"], "argument --rmin"),
    (["jost", "--kernel", "{kernel}", "--ray-fit", "--rmax", "0"], "argument --rmax"),
    (["jost", "--kernel", "{kernel}", "--ray-fit", "--angle", "nan"], "argument --angle"),
    (["jost", "--kernel", "{kernel}", "--ray-fit", "--rmin", "5", "--rmax", "2"], "--rmin"),
    (["constants", "--C0", "2", "--sigma", "1", "--a", "nan"] + _CLASS, "argument --a"),
    (["constants", "--C0", "2", "--sigma", "1", "--a", "0"] + _CLASS, "argument --a"),
    (["constants", "--C0", "2", "--sigma", "1", "--a", "-2"] + _CLASS, "argument --a"),
    (["constants", "--C0", "2", "--sigma", "1", "--a", "inf"] + _CLASS, "argument --a"),
    (["verify", "lemma2", "--zeros", "{pair}", "--R", "10", "--a", "nan"], "argument --a"),
    (["verify", "lemma3", "--poly-seed", "0", "--mu", "nan"], "argument --mu"),
    (["verify", "lemma3", "--poly-seed", "0", "--mu", "0"], "argument --mu"),
    (["constants", "--C0", "2", "--sigma", "1", "--p-override", "0"] + _CLASS, "argument --p-override"),
    (["constants", "--C0", "2", "--sigma", "1", "--p-override", "25"] + _CLASS, "argument --p-override"),
    (["verify", "lemma3", "--poly-seed", "0", "--p", "25"], "argument --p"),
    (["verify", "lemma3", "--poly-seed", "0", "--p", "0"], "argument --p"),
    (["zeros", "--radius", "10", "--center", "nan,0"], "argument --center"),
    (["jost", "--kernel", "{kernel}", "--eval", "1,inf"], "argument --eval"),
    (["zeros", "--radius", "3", "--center", "1,2,3"], "invalid complex value"),
    (["verify", "lemma3", "--coeffs", ","], "invalid complex list value"),
    (["verify", "theorem", "--grid", "abc"], "argument --grid: grid shape must look like '32x96'"),
    (["verify", "theorem", "--grid", "0x0"], "argument --grid: need at least 1 ring and 4 spokes"),
    (["verify", "lemma3", "--coeffs", "nan,1"], "argument --coeffs"),
    (["verify", "theorem", "--seed", "0", "--R", "2e8", "--delta", "0.5"], "--R needs --pair FILE"),
    (["zeros", "--radius", "10", "--delta", "0.5"], "--delta needs --pair FILE"),
    (["verify", "lemma3", "--poly-seed", "0", "--R", "7", "--delta", "0.2"],
     "unrecognized arguments: --R 7 --delta 0.2"),
    (["verify", "lemma3", "--poly-seed", "0", "--pair", "no_such_file"], "unrecognized arguments: --pair"),
    (["verify", "lemma3", "--poly-seed", "0", "--eps", "1"], "unrecognized arguments: --eps"),
    (["zeros", "--kernel", "{kernel}", "--radius", "4", "--R", "5", "--delta", "0.3"],
     "--R does not apply to --kernel"),
    (["zeros", "--kernel", "{kernel}", "--radius", "4", "--pair", "{pair}"], "--pair does not apply to --kernel"),
    (["jensen", "--kernel", "{kernel}", "--radius", "4", "--seed", "0"], "--seed does not apply to --kernel"),
    (["jensen", "--kernel", "{kernel}", "--radius", "4", "--preset", "engineered"],
     "--preset does not apply to --kernel"),
    (["zeros", "--kernel", "{kernel}", "--radius", "4", "--component", "1"],
     "--component does not apply to --kernel"),
    (["zeros", "--radius", "4", "--boost"], "--boost needs --kernel"),
    (["verify", "step5", "--eps", "7"], "--eps does not apply to verify step5"),
    (["verify", "decomposition", "--eps", "7"], "--eps does not apply to verify decomposition"),
    (["verify", "lemma2", "--eps", "7"], "--eps does not apply to verify lemma2"),
    (["verify", "lemma2", "--zeros", "{pair}", "--R", "10", "--eps", "7"],
     "--eps does not apply to verify lemma2"),
    (["verify", "theorem", "--pair", "{pair}", "--R", "400", "--delta", "0.6", "--seed", "7"],
     "--seed does not apply to --pair FILE"),
    (["verify", "theorem", "--pair", "{pair}", "--R", "400", "--delta", "0.6", "--poly-scale", "1e-3"],
     "--poly-scale does not apply to --pair FILE"),
    (["verify", "theorem", "--pair", "{pair}", "--R", "400", "--delta", "0.6", "--preset", "engineered"],
     "--preset does not apply to --pair FILE"),
    (["zeros", "--pair", "{pair}", "--R", "400", "--delta", "0.6", "--radius", "4", "--seed", "0"],
     "--seed does not apply to --pair FILE"),
    (["verify", "lemma2", "--zeros", "{pair}", "--R", "10", "--pair", "{pair}"],
     "--pair does not apply to --zeros FILE"),
    (["verify", "lemma2", "--preset", "engineered", "--seed", "0", "--C0", "7"],
     "--C0 does not apply to the engineered preset"),
    (["verify", "lemma2", "--preset", "engineered", "--seed", "0", "--p-override", "5"],
     "--p-override does not apply to the engineered preset"),
    (["verify", "lemma2", "--preset", "engineered", "--seed", "0", "--sigma", "9", "--rho", "3"],
     "--sigma does not apply to the engineered preset"),
    (["verify", "remark5", "--grid", "4x16"], "--grid does not apply to verify remark5"),
    (["verify", "lemma3", "--coeffs", "1e-4,2e-5", "--p", "5"], "--p does not apply to --coeffs LIST"),
    (["verify", "lemma3", "--coeffs", "1e-4,2e-5", "--poly-seed", "3"],
     "--poly-seed does not apply to --coeffs LIST"),
    (["jost", "--kernel", "{kernel}", "--eval", "1,1", "--angle", "2", "--rmin", "3"],
     "--angle does not apply to --eval RE,IM"),
    (["jost", "--kernel", "{kernel}", "--eval", "1,1", "--growth-fit"],
     "--growth-fit does not apply to --eval RE,IM"),
    (["jost", "--kernel", "{kernel}", "--growth-fit", "--rmax", "9"], "--rmax does not apply to --growth-fit"),
    (["verify", "theorem", "--preset", "engineered", "--seed", "0", "--plot-data", "p.csv"],
     "unrecognized arguments: --plot-data"),
])
def test_bad_flag_value_exits_64(argv, flag, tmp_path, capsys):
    pair = tmp_path / "pair.json"
    save_pair_file(random_pair(3), str(pair))
    files = {"{pair}": str(pair), "{kernel}": kernel_file(tmp_path)}
    rc = run([files.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert rc == 64
    assert flag in err
    assert "Traceback" not in err
    assert "_parse" not in err  # argparse names the kind of value, not a private parser
    assert "parse_disk_grid" not in err


_VALID = [
    ["constants", "--C0", "2", "--C1", "1", "--rho", "1", "--sigma", "1", "--mu", "1",
     "--r0", "1", "--delta", "0.5"],
    ["verify", "lemma3", "--poly-seed", "3", "--p", "2", "--grid", "4x16"],
]
_INVALID = [
    ["verify", "lemma3", "--coeffs", ","],
    ["constants", "--C1", "1", "--delta", "0.5"],
    ["verify", "theorem", "--grid", "0x0"],
    ["zeros", "--radius", "3", "--bogus"],
]


@pytest.mark.parametrize("valid", _VALID)
def test_usage_error_leaves_later_calls_unchanged(valid, capsys):
    assert run(valid) == 0
    alone = capsys.readouterr()
    for bad in _INVALID:
        assert run(bad) == 64
        assert capsys.readouterr().out == ""
        assert run(valid) == 0
        after = capsys.readouterr()
        assert (after.out, after.err) == (alone.out, alone.err)


@pytest.mark.parametrize("content", ["re,im,mult\n1.0,0.0,1\n", '{"shared_zeros": "s.csv"}\n'])
def test_malformed_pair_file_exits_2(content, tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(content)
    rc = run(["verify", "theorem", "--pair", str(pair), "--R", "400", "--delta", "0.67"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"evaluation error: malformed pair file {pair}" in err
    assert "Traceback" not in err


def test_zero_inside_cutoff_exits_2(tmp_path):
    zpath = tmp_path / "zeros.csv"
    ZeroSet.from_points([30.0 + 0j]).to_csv(str(zpath))
    rc = run(["verify", "lemma2", "--zeros", str(zpath), "--R", "60",
              "--grid", "12x32"])
    assert rc == 2


def test_lemma2_disk_past_the_guard_exits_2(tmp_path, capsys):
    """a*R^(1-delta) = 9*10^(1/3) reaches 1.6 times the nearest zero, past
    the genus-1 guard radius 1/2 of the tail bound."""
    zpath = tmp_path / "zeros.csv"
    ZeroSet.from_points([12.0 + 0j, 15.0j]).to_csv(str(zpath))
    rc = run(["verify", "lemma2", "--zeros", str(zpath), "--R", "10", "--a", "9",
              "--p-override", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "outside the genus-1 guard radius 0.5" in err
    assert "Traceback" not in err


def test_unwritable_output_exits_73(tmp_path):
    rc = run(["constants", "--C0", "2", "--C1", "1", "--rho", "1",
              "--sigma", "1", "--mu", "1", "--r0", "1", "--delta", "0.6667",
              "--out", str(tmp_path / "no_such_dir" / "c.json")])
    assert rc == 73


def test_failing_verdict_exits_1(tmp_path, monkeypatch):
    # fabricate a bound violation to confirm the exit-code contract; honest
    # runs of the shipped checks do not produce one
    def fake(coeffs, r, mu, grid=None, segment_samples=2048):
        return VerificationReport(
            check="segment-to-disk-amplification",
            bound=1.0, observed=2.0, samples=8,
        )

    monkeypatch.setattr(cli, "check_lemma3", fake)
    rc = run(["verify", "lemma3", "--coeffs", "0,1e-6",
              "--out", str(tmp_path / "r.json")])
    assert rc == 1
    data = json.loads((tmp_path / "r.json").read_text())
    assert data[0]["verdict"] == "fail"


def test_pair_outside_its_class_names_the_broken_hypothesis(tmp_path, capsys):
    """Past R0, a pair whose psi2 breaks the ray hypothesis exceeds every form
    of the bound.  No report is a `fail` with every precondition met: each
    names psi2's envelope as unmet, and both runs exit 0."""
    pair = tmp_path / "pair.json"
    save_pair_file(outside_class_pair(), str(pair))
    checks = {"theorem": ["ratio-bound-constant-form", "ratio-bound-accuracy-form"],
              "remark5": ["difference-on-real-segment"]}
    for name, expected in checks.items():
        assert run(["verify", name, "--pair", str(pair), "--R", "1e9", "--delta", "0.9"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [report["check"] for report in reports] == expected
        for report in reports:
            assert report["verdict"] == "pass-with-unmet-preconditions"
            assert float(report["observed"]) > float(report["bound"])
            unmet = [(pre["name"], float(pre["actual"])) for pre in report["preconditions"]
                     if not pre["satisfied"]]
            assert [name for name, _ in unmet] == ["measured ray envelope psi2 <= C1"]
            assert unmet[0][1] > 1e4


def assert_evaluation_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert "evaluation error:" in err
    assert "Traceback" not in err
    return err


def test_genus_below_growth_order_exits_2(capsys):
    rc = run(["constants", "--C0", "2", "--C1", "1", "--rho", "3", "--sigma", "1",
              "--mu", "1", "--r0", "1", "--delta", "0.6667", "--p-override", "1"])
    assert_evaluation_error(rc, capsys)


def test_overflow_in_a_check_exits_2(capsys):
    rc = run(["verify", "lemma3", "--poly-seed", "1", "--p", "3", "--r", "1e-300",
              "--grid", "4x16"])
    err = assert_evaluation_error(rc, capsys)
    assert "--r" in err and "--p" in err and "r^-p" in err


def test_jensen_with_zero_at_origin_exits_2(tmp_path, capsys):
    kpath = kernel_file(tmp_path, Kernel.piecewise([0.0, 1.0], [[-1.0]]))
    rc = run(["jensen", "--kernel", kpath, "--radius", "2"])
    assert_evaluation_error(rc, capsys)


@pytest.mark.parametrize("coeffs", ["1e300,1e300"])
def test_non_finite_report_exits_2(coeffs, capsys):
    """Finite coefficients whose report overflows exit 2, not 0 or 1."""
    with np.errstate(all="ignore"):
        rc = run(["verify", "lemma3", "--coeffs", coeffs, "--grid", "12x32"])
    assert_evaluation_error(rc, capsys)


def test_overflowing_exponent_is_named_without_numpy_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["verify", "lemma3", "--coeffs", "1e300,1e300", "--grid", "12x32"])
    err = assert_evaluation_error(rc, capsys)
    assert "e^g overflows" in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_non_finite_transform_value_exits_2(tmp_path, capsys):
    with np.errstate(all="ignore"):
        rc = run(["jost", "--kernel", kernel_file(tmp_path), "--eval", "1e6,-1e6"])
    assert_evaluation_error(rc, capsys)


# ---------------------------------------------------------------------------
# verify output formats
# ---------------------------------------------------------------------------


def test_threads_flag_is_ignored(capsys):
    outputs = []
    for extra in (["--threads", "1"], ["--threads", "2"], []):
        assert run(["verify", "theorem", "--seed", "0"] + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].startswith("[")


def test_readme_theorem_example_is_current(capsys):
    """The README's verify theorem example shows what the command prints."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command, shown = re.search(
        r"```sh\nzeroratio (verify theorem [^\n]*)\n```\n\n```json\n(.*?)```", readme, re.S
    ).groups()
    assert run(command.split()) == 0
    out = capsys.readouterr().out
    for key in ("bound", "observed", "samples"):
        line = re.search(rf'"{key}": "[^"]*"', shown).group(0)
        assert line in out


def test_verify_decomposition_deterministic_bytes(tmp_path):
    args = ["verify", "decomposition", "--grid", "16x48", "--seed", "3"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data[0]["check"] == "decomposition-identity"
    assert data[0]["verdict"] == "pass"


def test_verify_lemma3_json_and_csv(tmp_path):
    base = ["verify", "lemma3", "--coeffs", "0,1e-6+2e-6j", "--r", "5",
            "--mu", "1", "--grid", "12x32"]
    jout = tmp_path / "r.json"
    assert run(base + ["--out", str(jout)]) == 0
    report = json.loads(jout.read_text())[0]
    assert report["verdict"] == "pass"
    assert all(p["satisfied"] for p in report["preconditions"])

    cout = tmp_path / "r.csv"
    assert run(base + ["--format", "csv", "--out", str(cout)]) == 0
    lines = cout.read_text().splitlines()
    assert lines[0] == "check,verdict,bound,observed,margin,samples,unmet_preconditions"
    assert lines[1].startswith("segment-to-disk-amplification,pass,")


def test_verify_lemma3_poly_seed(tmp_path):
    out = tmp_path / "r.json"
    rc = run(["verify", "lemma3", "--poly-seed", "11", "--p", "3", "--r", "2",
              "--mu", "2", "--grid", "12x32", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())[0]
    assert report["verdict"] == "pass"
    assert all(p["satisfied"] for p in report["preconditions"])


@pytest.mark.parametrize("argv", [
    ["verify", "theorem", "--preset", "engineered", "--seed", "1", "--poly-scale", "1.5e-05"],
    ["verify", "step5", "--preset", "engineered", "--seed", "1", "--poly-scale", "1.5e-05"],
    ["verify", "lemma2", "--preset", "engineered", "--seed", "2"],
    ["verify", "lemma3", "--poly-seed", "5"],
], ids=lambda argv: argv[1])
def test_disk_sups_read_only_the_spokes(argv, capsys):
    """A disk sup samples only the boundary circle, so the ring count of
    --grid changes no byte of the output."""
    outputs = []
    for grid in ("1x64", "8x64"):
        assert run(argv + ["--grid", grid]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert '"samples"' in outputs[0]


# ---------------------------------------------------------------------------
# zeros, jensen, jost
# ---------------------------------------------------------------------------


def test_zeros_subcommand_writes_csv(tmp_path):
    kpath = kernel_file(tmp_path)
    out = tmp_path / "zeros.csv"
    rc = run(["zeros", "--kernel", kpath, "--radius", "12", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,mult"
    assert len(lines) == 5  # four transcendental roots inside radius 12
    found = ZeroSet.from_csv(str(out))
    assert all(m == 1 for _loc, m in found)


def test_zeros_rows_keep_their_order_when_a_mirror_zero_moves_one_ulp(monkeypatch, capsys):
    """Rows go by modulus to 12 digits, then real part: moving one of two
    mirror-image zeros by one ulp reorders the ZeroSet, not the output."""
    left, right = -2.4520960066385 - 2.0187j, 2.4520960066385 - 2.0187j
    nudged = complex(np.nextafter(right.real, 0.0), right.imag)
    assert abs(nudged) < abs(left) == abs(right)
    outputs = []
    for zeros in ((left, right), (left, nudged)):
        zs = ZeroSet.from_points(zeros)
        monkeypatch.setattr(cli, "locate_zeros", lambda fn, center, radius, zs=zs: zs)
        assert run(["zeros", "--radius", "4"]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert ZeroSet.from_points((left, nudged)).entries[0][0] == nudged
    for lines in outputs:
        assert [line.split(",")[0][0] for line in lines[1:]] == ["-", "2"]
    assert outputs[0][1] == outputs[1][1]


def test_jensen_subcommand_identity(tmp_path):
    kpath = kernel_file(tmp_path)
    out = tmp_path / "j.json"
    rc = run(["jensen", "--kernel", kpath, "--radius", "8", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert abs(float(data["lhs"]) - float(data["rhs"])) <= 1e-8 * (1 + abs(float(data["lhs"])))


def test_jost_eval_at_origin(tmp_path):
    kpath = kernel_file(tmp_path)
    out = tmp_path / "v.json"
    rc = run(["jost", "--kernel", kpath, "--eval", "0,0", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    value = complex(float(data["value"][0]), float(data["value"][1]))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_jost_needs_a_mode_flag(tmp_path):
    rc = run(["jost", "--kernel", kernel_file(tmp_path)])
    assert rc == 64


def test_jost_growth_fit_unit_kernel(tmp_path):
    out = tmp_path / "g.json"
    rc = run(["jost", "--kernel", kernel_file(tmp_path), "--growth-fit",
              "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert float(data["rho"]) == pytest.approx(1.0, abs=0.05)
    assert float(data["sigma"]) == pytest.approx(1.0, abs=0.05)
    assert not data["degenerate"]
    assert data["stopped"] == {"reason": "radii", "radius": None}


def test_jost_growth_fit_reports_where_it_stopped(tmp_path):
    """The integrand of psi(-ir) for exp(-t^2/4) peaks near exp(r^2): past
    r = 23.4 of the default radii it leaves double-precision range."""
    out = tmp_path / "g.json"
    rc = run(["jost", "--kernel", kernel_file(tmp_path, Kernel.superexp(1.0, 2.0)),
              "--growth-fit", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["radii"]) == 6
    assert float(data["rho"]) == 2.0
    assert data["stopped"] == {"reason": "overflow", "radius": format_float(np.geomspace(8.0, 200.0, 16)[6])}


def test_jost_growth_fit_overflow_at_the_first_radius_exits_2(tmp_path, capsys):
    """For exp(-(t/2)^1.5), log max|psi| at the first default radius r = 8 is
    about 609 > 600: an evaluation error, not a flat function."""
    rc = run(["jost", "--kernel", kernel_file(tmp_path, Kernel.superexp(1.0, 1.5)), "--growth-fit"])
    err = assert_evaluation_error(rc, capsys)
    assert "r = 8 exceeds exp(600)" in err


# ---------------------------------------------------------------------------
# fuzz: the exit-code contract over random flags and input files
# ---------------------------------------------------------------------------

_BAD_VALUES = ["0", "-1", "-5", "nan", "inf", "-inf", "abc", "", "1e400", "3x", "0x0"]
_CLASS_VALUES = {"--C0": ["2", "0.5"], "--C1": ["1"], "--rho": ["1", "1.5"],
                 "--sigma": ["1", "0.03"], "--mu": ["1", "2"], "--r0": ["1"]}


def _fuzz_inputs(tmp_path):
    """Good pair, kernel and zero files, and a list of broken or absent ones."""
    good = {"pair": tmp_path / "pair.json", "kernel": tmp_path / "kernel.json",
            "zeros": tmp_path / "zeros.csv"}
    save_pair_file(random_pair(3), str(good["pair"]))
    save_kernel(Kernel.constant(1.0, 1.0), str(good["kernel"]))
    ZeroSet.from_points([500.0 + 0j, -700j]).to_csv(str(good["zeros"]))
    broken = {
        "csv.json": "re,im,mult\n1.0,0.0,1\n", "nokeys.json": '{"shared_zeros": "s.csv"}',
        "list.json": "[1, 2]", "str.json": '"x"', "empty.txt": "", "kind.json": '{"kind": "nope"}',
        "knots.json": '{"kind": "piecewise"}', "field.csv": "re,im,mult\nx,1,1\n",
        "short.csv": "re,im,mult\n1,2\n", "mult.csv": "re,im,mult\n1,2,1.5\n",
    }
    bad = [tmp_path / "absent.json", tmp_path, tmp_path / "bytes.bin"]
    bad[2].write_bytes(b"\xff\xfe\x00\x01")
    for name, text in broken.items():
        (tmp_path / name).write_text(text)
        bad.append(tmp_path / name)
    return {k: str(v) for k, v in good.items()}, [str(p) for p in bad]


# flags that lemma 3, lemma 3 with --coeffs, zeros/jensen with --kernel, a
# pair file, lemma 2's zero file and lemma 2 on a pair read nowhere
_LEMMA3_STRAY = ("--pair", "--preset", "--seed", "--poly-scale", "--R", "--delta", "--eps")
_COEFFS_STRAY = ("--p", "--poly-seed")
_KERNEL_STRAY = ("--pair", "--R", "--delta", "--seed", "--preset", "--component")
_PAIR_STRAY = ("--preset", "--seed", "--poly-scale")
_ZEROS_STRAY = ("--pair",) + _PAIR_STRAY
_LEMMA2_PAIR_STRAY = ("--C0", "--C1", "--rho", "--sigma", "--mu", "--r0", "--p-override")
# the flags each jost mode reads nowhere; --eval wins over --ray-fit, which wins over --growth-fit
_JOST_STRAY = {"--eval": ("--angle", "--rmin", "--rmax", "--ray-fit", "--growth-fit"),
               "--ray-fit": ("--growth-fit",),
               "--growth-fit": ("--angle", "--rmin", "--rmax")}
# the verify checks that read no --eps
_NO_EPS = ("lemma2", "step5", "decomposition")
_STRAY_VALUES = {"--R": "5", "--delta": "0.3", "--seed": "0", "--preset": "engineered",
                 "--component": "1", "--poly-scale": "0", "--eps": "1", "--p": "5",
                 "--poly-seed": "3", "--C0": "7", "--C1": "1", "--rho": "3", "--sigma": "9",
                 "--mu": "1", "--r0": "1", "--p-override": "5", "--grid": "4x16",
                 "--angle": "2", "--rmin": "3", "--rmax": "9", "--ray-fit": None,
                 "--growth-fit": None}


def _stray(rng, flags, good):
    flag = rng.choice(flags)
    value = good["pair"] if flag == "--pair" else _STRAY_VALUES[flag]
    return [flag] if value is None else [flag, value]


def _stray_flag(argv):
    """The first flag of argv that the run it selects reads nowhere, or None."""
    if argv[:2] == ["verify", "lemma3"]:
        flags = _LEMMA3_STRAY + (_COEFFS_STRAY if "--coeffs" in argv else ())
    elif argv[0] in ("zeros", "jensen") and "--kernel" in argv:
        flags = _KERNEL_STRAY
    elif argv[0] == "jost":
        flags = next((_JOST_STRAY[mode] for mode in _JOST_STRAY if mode in argv), ())
    elif "--zeros" in argv:
        flags = _ZEROS_STRAY
    elif "--pair" in argv:
        flags = _PAIR_STRAY
    else:
        flags = ()
    if argv[:2] == ["verify", "lemma2"] and "--zeros" not in argv:
        flags += _LEMMA2_PAIR_STRAY
    if argv[0] == "verify" and argv[1] in _NO_EPS:
        flags += ("--eps",)
    if argv[:2] == ["verify", "remark5"]:
        flags += ("--grid",)
    return next((a for a in argv if a in flags), None)


def _fuzz_argv(rng, good, bad, out_dir):
    def val(*valid):
        return rng.choice(valid) if rng.random() < 0.75 else rng.choice(_BAD_VALUES)

    def path(kind):
        return good[kind] if rng.random() < 0.6 else rng.choice(bad)

    cmd = rng.choice(["constants", "zeros", "jensen", "jost", "verify"])
    if cmd == "constants":
        argv = ["constants", "--delta", val("0.6667", "0.5")]
        for flag, values in _CLASS_VALUES.items():
            if rng.random() < 0.95:
                argv += [flag, val(*values)]
        if rng.random() < 0.5:
            argv += ["--eps", val("1", "0.1")]
        if rng.random() < 0.3:
            argv += ["--p-override", val("1", "2", "3")]
    elif cmd in ("zeros", "jensen"):
        source = rng.choice(["kernel", "pair", "preset", "custom"])
        if source == "kernel":
            argv = [cmd, "--kernel", path("kernel"), "--radius", val("5", "12")]
            if rng.random() < 0.3:
                argv += _stray(rng, _KERNEL_STRAY, good)
        else:
            argv = [cmd, "--radius", val("50", "300")]
        if source == "pair":
            argv += ["--pair", path("pair"), "--R", val("400"), "--delta", val("0.6667")]
            if rng.random() < 0.2:
                argv += _stray(rng, _PAIR_STRAY[:2], good)
        elif source == "preset":
            argv += ["--seed", val("0", "3", "7"), "--component", val("1", "2")]
            if rng.random() < 0.2:
                argv += [rng.choice(["--R", "--delta"]), val("300", "0.9")]
        elif source == "custom":
            argv += ["--preset", "custom"]
        if cmd == "zeros" and rng.random() < 0.2:
            argv += ["--center", val("1,1", "0")]
    elif cmd == "jost":
        argv = ["jost", "--kernel", path("kernel")]
        mode = rng.choice(["--eval", "--ray-fit", "--growth-fit", None])
        if mode == "--eval":
            argv += ["--eval", val("1,0", "2,3")]
        elif mode == "--ray-fit":
            argv += ["--ray-fit", "--angle", val("1.5", "2"), "--rmin", val("2"), "--rmax", val("40")]
        elif mode:
            argv.append(mode)
        if mode and rng.random() < 0.3:
            argv += _stray(rng, _JOST_STRAY[mode], good)
        if rng.random() < 0.3:
            argv.append("--boost")
    else:
        which = rng.choice(["lemma2", "lemma3", "decomposition", "step5", "theorem", "remark5"])
        argv = ["verify", which, "--grid", val("8x32", "6x16")]
        if which == "remark5" and rng.random() < 0.8:
            argv = argv[:2]  # remark 5 reads no grid
        if which == "lemma3":
            if rng.random() < 0.5:
                argv += ["--coeffs", val("0,1e-6", "1e-4,-2e-5,(1e-6+2e-7j)")]
                if rng.random() < 0.2:
                    argv += _stray(rng, _COEFFS_STRAY, good)
            else:
                argv += ["--poly-seed", val("1", "11"), "--p", val("2", "3")]
            argv += ["--r", val("2", "5"), "--mu", val("1", "2")]
            if rng.random() < 0.3:
                argv += _stray(rng, _LEMMA3_STRAY, good)
        elif which == "lemma2" and rng.random() < 0.4:
            argv += ["--zeros", path("zeros"), "--R", val("60", "120")]
            if rng.random() < 0.2:
                argv += _stray(rng, _ZEROS_STRAY, good)
        elif rng.random() < 0.5:
            argv += ["--pair", path("pair"), "--R", val("400", "300"), "--delta", val("0.6667", "0.5")]
            if rng.random() < 0.2:
                argv += _stray(rng, _PAIR_STRAY, good)
        else:
            argv += ["--seed", val("0", "3", "12"), "--poly-scale", val("1.5e-05", "0")]
            if rng.random() < 0.2:
                argv += [rng.choice(["--R", "--delta"]), val("300", "0.9")]
        if which == "lemma2" and "--zeros" not in argv and rng.random() < 0.2:
            argv += _stray(rng, _LEMMA2_PAIR_STRAY, good)
        if which != "lemma3" and rng.random() < 0.3:
            argv += ["--eps", val("1", "0.5")]
        if rng.random() < 0.2:
            argv += ["--format", rng.choice(["json", "csv"])]
    if rng.random() < 0.1:
        argv += ["--out", str(out_dir / "no_such_dir" / "out.txt")]
    return argv


def test_reused_parser_carries_no_state_between_calls(tmp_path, capsys):
    theorem = ["verify", "theorem", "--preset", "engineered", "--seed", "3", "--grid", "4x64"]
    sequence = [
        ["zeros", "--radius", "3", "--bogus"],
        ["verify", "theorem", "--help"],
        ["constants", "--C0", "2", "--C1", "1", "--rho", "1", "--sigma", "1", "--mu", "1",
         "--r0", "1", "--delta", "0.5", "--out", str(tmp_path / "no_such_dir" / "c.json")],
        theorem + ["--poly-scale", "1.5e-05"],
        theorem,
    ]
    assert cli.build_parser() is cli.build_parser()
    results = []
    for fresh in (False, True):
        results.append([])
        for argv in sequence:
            if fresh:
                cli.build_parser.cache_clear()
            rc = run(argv)
            captured = capsys.readouterr()
            results[-1].append((rc, captured.out, captured.err))
    assert [r[0] for r in results[0]] == [64, 0, 73, 0, 0]
    assert results[0] == results[1]
    # the same subcommand without --poly-scale gets its default back
    assert results[0][3][1] != results[0][4][1]


def test_fuzzed_invocations_keep_the_exit_code_contract(tmp_path, capsys):
    good, bad = _fuzz_inputs(tmp_path)
    rng = random.Random(2024)
    seen = set()
    for _ in range(1000):
        argv = _fuzz_argv(rng, good, bad, tmp_path)
        try:
            with np.errstate(all="ignore"):
                rc = run(argv)
        except Exception as exc:  # a traceback on the command line
            pytest.fail(f"{argv} raised {exc!r}")
        captured = capsys.readouterr()
        seen.add(rc)
        assert rc in (0, 1, 2, 64, 66, 73), argv
        if "--seed" in argv and {"--R", "--delta"} & set(argv):
            assert rc == 64, argv  # the preset sets its own R and delta
        if _stray_flag(argv):
            assert rc == 64, argv  # a flag read nowhere is a usage error
        assert "Traceback" not in captured.err, argv
        if rc == 1:
            if "csv" in argv:
                verdicts = [line.split(",")[1] for line in captured.out.splitlines()[1:]]
            else:
                verdicts = [r["verdict"] for r in json.loads(captured.out)]
            assert "fail" in verdicts, argv
    assert seen >= {0, 2, 64, 66, 73}
