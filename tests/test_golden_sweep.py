"""The same-output sweep against its golden file (see golden_sweep.py)."""

import json

import golden_sweep

# bounds and observed values may move in their last bits with libm and SIMD paths
REL_TOL = 1e-10


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _differences(got: dict, want: dict) -> list[str]:
    where = " ".join(want["argv"])
    if got["exit"] != want["exit"]:
        return [f"{where}: exit {got['exit']}, golden {want['exit']}"]
    if [r["check"] for r in got["reports"]] != [r["check"] for r in want["reports"]]:
        return [f"{where}: checks {[r['check'] for r in got['reports']]}"]
    out = []
    for g, w in zip(got["reports"], want["reports"]):
        exact = [k for k in ("verdict", "samples", "preconditions", "unmet") if k in w]
        out += [f"{where} {w['check']}: {k} {g.get(k)!r}, golden {w[k]!r}"
                for k in exact if g.get(k) != w[k]]
        out += [f"{where} {w['check']}: {k} {g.get(k)}, golden {w[k]}"
                for k in ("bound", "observed") if k in w and not _close(g.get(k, "nan"), w[k])]
    return out


def test_sweep_reproduces_the_golden_file(tmp_path):
    with open(golden_sweep.GOLDEN) as fh:
        golden = json.load(fh)
    runs = golden_sweep.record(str(tmp_path))
    assert [r["argv"] for r in runs] == [r["argv"] for r in golden]
    assert sum(len(r["reports"]) for r in golden) > len(golden)
    problems = [line for got, want in zip(runs, golden) for line in _differences(got, want)]
    assert not problems, "\n".join(problems[:20])
