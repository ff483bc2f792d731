"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(run.SRC))
SMALL = {
    "verify": ["verify", "--suite", "all", "--g-max", "6", "--ab-max", "3", "--format", "json"],
    "graded": ["graded", "--theorem", "thm1.3", "--g", "8", "--n", "3", "--deg-max", "8"],
}
# Sites that bind a wrapped name through `from ... import` or an alias.
ALIAS_SITES = (
    "chowforge.grideal.snf",
    "chowforge.grideal.solve_in_row_lattice",
    "chowforge.catalog.contains",
    "chowforge.catalog.torsor_quotient",
    "chowforge.catalog.adjoin_generator",
    "chowforge.chowops.eliminate_linear",
    "chowforge.cli.contains",
    "chowforge.cli.ideal_equal",
    "chowforge.cli.quotient_graded_invariants",
    "chowforge.intpoly.Polynomial.__rmul__",
    "chowforge.intpoly.Polynomial.__radd__",
)


def _traced(tmp_path: Path, tag: str, argv: list[str]):
    prefix = str(tmp_path / tag)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "--out", prefix, "--run-id", tag, "cli"] + argv,
        env=ENV, capture_output=True, timeout=120,
    )
    doc, arrays = tracer.read_spans(prefix)
    return proc, doc, tracer.summarize(doc, arrays)


def _counts(summary: dict) -> dict:
    return {
        (name, key): st[key]
        for name, st in summary.items()
        for key in run.COUNT_STATS
        if key in st
    }


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_counts_repeat_and_stdout_is_untouched(tmp_path, kind):
    argv = SMALL[kind]
    plain = subprocess.run([sys.executable, "-c", run.CLI] + argv, env=ENV, capture_output=True, timeout=120)
    a, doc, first = _traced(tmp_path, "a", argv)
    b, _, second = _traced(tmp_path, "b", argv)
    assert a.stdout == plain.stdout == b.stdout
    assert a.returncode == plain.returncode == b.returncode
    assert _counts(first) == _counts(second)
    assert first["cli.main"]["calls"] == 1
    if kind == "verify":
        assert first["grideal.Certificate"]["calls"] == first["grideal.contains"]["members"] > 0
        assert first["zlinalg.hnf"]["cells"] > 0 and first["zlinalg.hnf"]["u_max_bits"] > 0
    else:
        assert first["zlinalg.snf"]["calls"] == 9
    assert set(ALIAS_SITES) <= set(doc["sites"])


def test_self_time_subtracts_children():
    doc = {"names": ["outer", "inner"], "counts": {}}
    # outer [0, 100) holds inner [10, 30) and inner [50, 60)
    arrays = ([0, 1, 1], [-1, 0, 0], [0, 10, 50], [100, 30, 60])
    s = tracer.summarize(doc, arrays)
    assert s["outer"] == {"calls": 1, "total_s": 100e-9, "self_s": 70e-9}
    assert s["inner"]["calls"] == 2 and s["inner"]["self_s"] == 30e-9


def test_verify_reference_rule():
    expected = reference.verify_expected("all", 6, 2)
    assert reference.verify_exit_code(expected) == 1
    lines = []
    for (check, (g, n, a, b)), verdict in sorted(expected.items(), key=str):
        witness = reference.REDUNDANT_WITNESS if verdict == "fail" else None
        lines.append(json.dumps({"check_id": check, "params": {"g": g, "n": n, "a": a, "b": b},
                                 "verdict": verdict, "witness": witness, "elapsed_ms": 0}))
    good = "\n".join(lines).encode()
    assert reference.check_verify(good, expected) == 0
    # the red check stays red: passing it, or failing with another witness, is wrong
    flipped = good.replace(b'"fail", "witness": "M2*(1) unexpectedly redundant"',
                           b'"pass", "witness": null', 1)
    assert flipped != good and reference.check_verify(flipped, expected) == 1
    crashed = good.replace(b'"M2*(1) unexpectedly redundant"', b'"error: boom"', 1)
    assert reference.check_verify(crashed, expected) == 1
    skipped = b"\n".join(l for l in good.splitlines() if b"remark37-nonredundant" not in l)
    assert reference.check_verify(skipped, expected) == 4


def test_graded_reference_dimensions():
    assert reference.rank_mod([{0: 2}, {1: 3}], 2) == 1
    assert reference.rank_mod([{0: 2}, {1: 3}], 3) == 1
    assert reference.rank_mod([{0: 2}, {1: 3}], reference.BIG_PRIME) == 2
    assert reference.parse_invariants("Z^2 + (Z/2)^3 + Z/48") == (2, [2, 2, 2, 48])
    # Z[t] / (2t): degree 0 is Z, degree d >= 1 is Z/2
    doc = json.dumps({"ring": [["t", 1]], "relations": ["2*t"]})
    ref = reference.graded_reference(doc, 2)
    assert reference.check_graded(b"degree 0: Z\ndegree 1: Z/2\ndegree 2: Z/2\n", ref) == 0
    assert reference.check_graded(b"degree 0: Z\ndegree 1: Z/3\ndegree 2: Z/2\n", ref) == 1
    assert reference.check_graded(b"degree 0: Z\ndegree 1: Z/2\n", ref) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graded-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ref_seconds_scales_cpu_time_by_the_loop_rate():
    def loop(units_per_s):  # one sample every 10 ms, units_per_s units per CPU second
        return [k * 0.01 for k in range(100)], [round(k * 1e9 / units_per_s) for k in range(100)]

    samples = {0: loop(6000.0), 1: loop(3000.0)}
    fast = {"cpus": [0], "t0": 0.205, "t1": 0.795, "cpu_s": 1.5}
    assert run.ref_seconds(fast, samples) == pytest.approx(1.5 * 6000.0 / run.REF_UNITS_PER_S)
    both = {"cpus": [0, 1], "t0": 0.205, "t1": 0.795, "cpu_s": 1.5}
    assert run.ref_seconds(both, samples) == pytest.approx(1.5 * 4000.0 / run.REF_UNITS_PER_S)
    with pytest.raises(RuntimeError):
        run.ref_seconds({"cpus": [0], "t0": 0.205, "t1": 0.255, "cpu_s": 0.1}, samples)
