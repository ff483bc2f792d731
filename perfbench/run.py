"""chowforge benchmark: end-to-end CLI runs and a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload
    python3 perfbench/run.py --curves                                 # scaling curves

Every timed run is a fresh ``chowforge`` process started from ``src/`` of
this checkout: ``catalog._monic_hyperplane_membership`` and
``grideal._monomial_basis_cached`` are process-wide caches, so a warm
in-process loop would time cache hits that users do not get.  A round runs,
for each workload in turn, three set-up probes (a fresh interpreter through
``import chowforge.cli``) and one run of the workload; rounds repeat until
``--seconds`` have passed.  Each run's output is checked against the
independent reference in ``reference.py``.

Each timed process runs pinned to one core, the next core each round (all
cores for ``--jobs 2``), beside ``calib.py``, a fixed reference loop at
nice 10 on the same core.  The cores of a shared 2-vCPU VM change speed by
up to 2x within seconds, each on its own, so raw times spread by a third
from run to run.  A process's CPU time times the loop's units per CPU
second on the same cores over the same interval, divided by
``REF_UNITS_PER_S``, is its cost in reference seconds, which the core's
speed does not change.

``--trace 0`` reports the end-to-end metrics (medians over the rounds):

- ``cpu_ref_s``: user plus system time of one ``chowforge`` process and its
  workers, in reference seconds;
- ``setup_s``: user plus system time of a fresh interpreter importing
  ``chowforge.cli``, in reference seconds, three per round;
- ``peak_rss_mb``: the largest resident set of any process in the run.

Raw ``wall_s`` and ``cpu_s`` are printed and recorded too, but not gated:
they measure the host as much as chowforge.

``attempted`` and ``failed`` count items (checks, or graded degrees); every
item of a run that crashes, times out, exits with the wrong code or changes
stdout counts as failed, so ``failed / attempted`` is the failed share.

``--trace 1`` spends half the time on untraced runs, then runs the command
twice under ``tracer.py`` and reports per-layer metrics
``<module>.<function>.<stat>``.  It checks that traced stdout is
byte-identical to untraced stdout, that the counts repeat exactly over the
two traced runs, that each wrapper the workload depends on recorded a call,
and that certificates were built exactly once per successful membership.
``polyparse`` is not traced (see ``tracer.py``).

Results, spans and curves go to ``perfbench/out/``.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEADLINE_S = 170.0  # the whole run, including set-up and reporting
REP_TIMEOUT_S = 60.0  # one chowforge process
MIN_ROUNDS = 3
SETUP_PROBES = 3  # per round
# Reference-loop units per CPU second that count as one reference second:
# about what a 2.0 GHz Xeon vCPU does outside its fast spells.
REF_UNITS_PER_S = 3000.0
MIN_UNITS = 10  # fewer reference units in a run leave its speed unmeasured

CLI = "import sys; from chowforge.cli import main; sys.exit(main())"
# verify workloads: (suite, --g-max, --ab-max, extra flags); None keeps the default
VERIFY = {
    "verify-grid": ("all", 20, 8, []),
    "lemma34-deep": ("lemma34", None, 10, []),
    "verify-grid-jobs2": ("all", 20, 8, ["--jobs", "2"]),
}
GRADED_DEG_MAX = 20
# graded-deep draws G for the thm1.3 pair (G, 1), G even in 8..40.  These
# pairs give the same matrix shapes and cost the same within about 10%.
# Over all N the cost of a pair swings 5x with no pattern (0.8 s to 4.6 s
# to degree 16), so a drawn N would make the seed, not the code, set the
# figures.
GRADED_PAIRS = [(g, 1) for g in range(8, 41, 2)]

WORKLOADS = ("verify-grid", "lemma34-deep", "graded-deep", "verify-grid-jobs2")
# Cores: round k pins single-process runs and set-up probes to core k mod
# nproc, so that a run samples every core (each core has its own slow and
# fast spells); --jobs 2 gets them all.
ALL_CPUS = tuple(sorted(os.sched_getaffinity(0)))


def round_cpus(k: int) -> tuple[int, ...]:
    return (ALL_CPUS[k % len(ALL_CPUS)],)

# The wrappers each workload must exercise: a name bound at a site the
# tracer missed would otherwise report 0 s instead of failing.
REQUIRED_SPANS = {
    "verify-grid": (
        "cli.main",
        "zlinalg.hnf",
        "zlinalg.snf",
        "zlinalg.solve_in_row_lattice",
        "grideal.contains",
        "grideal.ideal_equal",
        "grideal.ideal_degree_matrix",
        "grideal.quotient_graded_invariants",
        "grideal.eliminate_linear",
        "grideal.Certificate",
        "intpoly.Polynomial.__init__",
        "intpoly.Polynomial.__mul__",
        "intpoly.Polynomial.__add__",
        "intpoly.Polynomial.substitute",
        "chowops.torsor_quotient",
        "chowops.adjoin_generator",
        "catalog.derive_thm_1_3",
        "catalog.derive_thm_1_9",
        "catalog.lemma_3_4_check",
    ),
    "lemma34-deep": (
        "cli.main",
        "zlinalg.hnf",
        "zlinalg.solve_in_row_lattice",
        "grideal.contains",
        "grideal.Certificate",
        "catalog.lemma_3_4_check",
    ),
    "graded-deep": (
        "cli.main",
        "zlinalg.snf",
        "grideal.ideal_degree_matrix",
        "grideal.quotient_graded_invariants",
    ),
    # --jobs 2 runs every check in workers; only the parent is traced
    "verify-grid-jobs2": ("cli.main",),
}

# Counts that must repeat exactly over two traced runs.
COUNT_STATS = ("calls", "cells", "max_rows", "max_cols", "u_max_bits", "distinct_pieces", "members")

# Per-layer metrics reported with --trace 1: (span name, stat).
PER_LAYER = [
    ("zlinalg.hnf", ("calls", "self_s", "cells", "max_rows", "u_max_bits")),
    ("zlinalg.solve_in_row_lattice", ("calls", "self_s")),
    ("zlinalg.snf", ("calls", "self_s", "cells", "max_rows")),
    ("grideal.contains", ("calls", "self_s", "distinct_pieces", "distinct_ratio")),
    ("grideal.ideal_equal", ("calls", "total_s")),
    ("grideal.ideal_degree_matrix", ("self_s",)),
    ("grideal.quotient_graded_invariants", ("self_s",)),
    ("grideal.eliminate_linear", ("self_s",)),
    ("grideal.Certificate", ("calls", "total_s")),
    ("intpoly.Polynomial.__init__", ("calls", "self_s")),
    ("intpoly.Polynomial.__mul__", ("calls", "self_s")),
    ("intpoly.Polynomial.__add__", ("calls", "self_s")),
    ("intpoly.Polynomial.substitute", ("calls", "self_s")),
    ("chowops.torsor_quotient", ("total_s",)),
    ("chowops.adjoin_generator", ("total_s",)),
    ("catalog.derive_thm_1_3", ("total_s",)),
    ("catalog.derive_thm_1_9", ("total_s",)),
    ("catalog.lemma_3_4_check", ("total_s",)),
    ("cli.main", ("self_s",)),
    ("trace", ("overhead_ratio", "wall_s", "spans")),
]
UNITS = {
    "calls": "count", "cells": "count", "max_rows": "count", "distinct_pieces": "count",
    "spans": "count", "u_max_bits": "bit", "distinct_ratio": "ratio",
    "overhead_ratio": "ratio", "self_s": "s", "total_s": "s", "wall_s": "s",
}
END_TO_END = (("cpu_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RAW = (("wall_s", "s"), ("cpu_s", "s"))  # printed and recorded, not gated

# Curves: each point is a fresh traced process; a point that times out ends its curve.
CURVES = {
    "lemma34": ("zlinalg.hnf", range(4, 21, 2)),  # membership in degree 2j+1
    "graded": ("zlinalg.snf", range(10, 41, 5)),  # thm1.3 at (8, 3), one degree
}
POINT_TIMEOUT_S = 60.0


@dataclass
class Plan:
    """One workload as run: its command, reference and bookkeeping."""

    name: str
    argv: list[str]
    parallel: bool  # runs on every core, not one per round
    params: dict
    items: int
    exit_code: int
    check: object  # stdout bytes -> number of failed items
    stdout: bytes | None = None
    attempted: int = 0
    failed: int = 0
    runs: list[dict] = field(default_factory=list)


class Runner:
    """Starts chowforge processes and measures each one from exec to exit,
    beside a reference loop on each core in `cpus`."""

    def __init__(self, deadline: float, cpus: tuple[int, ...] = ()):
        self.deadline = deadline
        # chowforge as a user runs it: bytecode cached, stdout buffered, one job
        drop = ("CHOWFORGE_JOBS", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")
        self.env = {k: v for k, v in os.environ.items() if k not in drop}
        self.env["PYTHONPATH"] = str(SRC)
        self.tmp = OUT / ("tmp-%d" % os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.calib = {
            cpu: subprocess.Popen([sys.executable, str(BENCH / "calib.py"), str(cpu),
                                   str(self.tmp / ("calib-%d.json" % cpu))], cwd=ROOT)
            for cpu in cpus
        }

    def run(self, cmd: list[str], cpus: tuple[int, ...] = (), timeout: float = REP_TIMEOUT_S) -> dict:
        """Runs `cmd` pinned to `cpus` (anywhere if empty), with the reference
        loops on those cores running beside it."""
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            raise TimeoutError("out of time before starting %s" % cmd[:3])
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        loops = [self.calib[c] for c in cpus]
        allowed = os.sched_getaffinity(0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            load_before, steal_before = os.getloadavg(), _steal_s()
            for loop in loops:
                loop.send_signal(signal.SIGCONT)
            if cpus:  # the child inherits this thread's affinity
                os.sched_setaffinity(0, cpus)
            t0, mono0 = time.perf_counter(), time.monotonic()
            try:
                # its own process group, for the kill on timeout, but the same
                # session, so that nice 10 ranks the loop below it
                proc = subprocess.Popen(
                    cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT, process_group=0
                )
            finally:
                os.sched_setaffinity(0, allowed)
            killed = threading.Event()
            killer = threading.Timer(timeout, _kill_group, (proc.pid, killed))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                mono1 = time.monotonic()
                for loop in loops:
                    loop.send_signal(signal.SIGSTOP)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "cpus": list(cpus),
            "t0": mono0,
            "t1": mono1,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode,
            "timed_out": killed.is_set(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "steal_s": _steal_s() - steal_before,
            "stdout": out_path.read_bytes(),
            "stderr_tail": err_path.read_bytes()[-400:].decode("utf-8", "replace"),
        }

    def setup_probe(self, cpus: tuple[int, ...] = ()) -> dict:
        r = self.run([sys.executable, "-c", "import chowforge.cli"], cpus)
        if r["exit_code"] != 0:
            raise RuntimeError("importing chowforge.cli failed: %s" % r["stderr_tail"])
        del r["stdout"]
        return r

    def stop_calibration(self) -> dict[int, tuple[list, list]]:
        """Stops the reference loops; returns each core's (times, CPU ns)."""
        samples = {}
        for cpu, loop in self.calib.items():
            loop.send_signal(signal.SIGCONT)
            loop.terminate()
            if loop.wait(timeout=30) != 0:
                raise RuntimeError("reference loop on cpu %d exited %d" % (cpu, loop.returncode))
            with open(self.tmp / ("calib-%d.json" % cpu), encoding="ascii") as fh:
                doc = json.load(fh)
            samples[cpu] = (doc["t"], doc["cpu_ns"])
        return samples

    def close(self) -> None:
        for loop in self.calib.values():
            if loop.poll() is None:
                loop.kill()
                loop.wait()
        for p in self.tmp.iterdir():
            p.unlink()
        self.tmp.rmdir()


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over our CPUs:
    the noisy-neighbour signal that the load average cannot show."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def ref_seconds(run: dict, samples: dict[int, tuple[list, list]]) -> float:
    """The run's CPU time in reference seconds: its CPU time times the
    reference loops' units per CPU second over the run, pooled over its cores."""
    units, cpu_ns = 0, 0
    for cpu in run["cpus"]:
        ts, ns = samples[cpu]
        i = max(bisect.bisect_right(ts, run["t0"]) - 1, 0)
        j = min(bisect.bisect_left(ts, run["t1"]), len(ts) - 1)
        units += j - i
        cpu_ns += ns[j] - ns[i]
    if units < MIN_UNITS:
        raise RuntimeError("the reference loop ran %d units beside a run; its speed is unmeasured" % units)
    run["ref_units"] = units
    run["ref_units_per_s"] = units / (cpu_ns / 1e9)
    return run["cpu_s"] * run["ref_units_per_s"] / REF_UNITS_PER_S


def _kill_group(pid: int, killed: threading.Event) -> None:
    killed.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def make_plan(name: str, seed: int, runner: Runner) -> Plan:
    """The command and reference for one workload; the seed only applies to
    graded-deep, the other workloads are fixed grids."""
    if name in VERIFY:
        suite, g_max, ab_max, extra = VERIFY[name]
        argv = ["verify", "--suite", suite] + (["--g-max", str(g_max)] if g_max else [])
        argv += ["--ab-max", str(ab_max), "--format", "json"] + extra
        expected = reference.verify_expected(suite, g_max or 20, ab_max)
        return Plan(
            name, argv, "--jobs" in extra, {"seed_applies": False},
            len(expected), reference.verify_exit_code(expected),
            lambda out: reference.check_verify(out, expected),
        )
    if name == "graded-deep":
        g, n = random.Random(seed).choice(GRADED_PAIRS)
        present = runner.run(_cli(["present", "--theorem", "thm1.3", "--g", str(g), "--n", str(n), "--format", "json"]))
        if present["exit_code"] != 0:
            raise RuntimeError("present failed: %s" % present["stderr_tail"])
        ref = reference.graded_reference(present["stdout"].decode(), GRADED_DEG_MAX)
        argv = ["graded", "--theorem", "thm1.3", "--g", str(g), "--n", str(n), "--deg-max", str(GRADED_DEG_MAX)]
        return Plan(
            name, argv, False, {"seed_applies": True, "g": g, "n": n, "deg_max": GRADED_DEG_MAX},
            len(ref), 0, lambda out: reference.check_graded(out, ref),
        )
    raise ValueError("unknown workload %r" % name)


def plan_cpus(plan: Plan, k: int) -> tuple[int, ...]:
    return ALL_CPUS if plan.parallel else round_cpus(k)


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI] + argv


def judge(plan: Plan, run: dict) -> int:
    """Failed items of one run; the first good run fixes the expected stdout."""
    out = run.pop("stdout")
    if run["timed_out"] or run["exit_code"] != plan.exit_code:
        failed = plan.items
    elif plan.stdout is not None and out != plan.stdout:
        failed = plan.items
    else:
        failed = plan.check(out)
        if plan.stdout is None and not failed:
            plan.stdout = out
    run["failed_items"] = failed
    plan.attempted += plan.items
    plan.failed += failed
    return failed


def measure(plans: list[Plan], runner: Runner, seconds: float, setup: list[dict],
            min_rounds: int) -> None:
    """Interleaved rounds of set-up probes and workload runs, as many as
    fit in `seconds` (at least `min_rounds`)."""
    start = time.monotonic()
    rounds = 0
    while True:
        for plan in plans:
            setup.extend(runner.setup_probe(round_cpus(rounds)) for _ in range(SETUP_PROBES))
            run = runner.run(_cli(plan.argv), plan_cpus(plan, rounds))
            judge(plan, run)
            plan.runs.append(run)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return


def stats(values: list[float]) -> dict:
    vs = sorted(values)
    q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
    return {"n": len(vs), "median": statistics.median(vs), "q1": q1, "q3": q3, "min": vs[0], "max": vs[-1]}


def end_to_end(plan: Plan, setup: list[dict], samples: dict) -> dict[str, dict]:
    for r in plan.runs:
        r["cpu_ref_s"] = ref_seconds(r, samples)
    for r in setup:
        r["setup_s"] = ref_seconds(r, samples)
    out = {m: stats([r[m] for r in plan.runs]) for m, _ in END_TO_END + RAW if m != "setup_s"}
    out["setup_s"] = stats([r["setup_s"] for r in setup])
    return out


def trace(plan: Plan, runner: Runner, run_id: str) -> tuple[dict, list[str]]:
    """Two traced runs after the untraced ones; returns the per-span
    summary (counts, and times as medians over the runs) and the problems
    found."""
    problems = []
    summaries, walls = [], []
    for k in range(2):  # two, so that the counts can be compared
        prefix = OUT / "spans" / ("%s-%d" % (plan.name, k))
        prefix.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(BENCH / "tracer.py"), "--out", str(prefix),
               "--run-id", "%s-t%d" % (run_id, k), "cli"] + plan.argv
        run = runner.run(cmd, plan_cpus(plan, k))
        out = run["stdout"]
        failed = judge(plan, run)
        if out != plan.stdout:
            problems.append("traced stdout differs from the untraced stdout")
        if failed:
            problems.append("traced run %d failed %d items: %s" % (k, failed, run["stderr_tail"]))
            return {}, problems
        doc, arrays = tracer.read_spans(str(prefix))
        summary = tracer.summarize(doc, arrays)
        summary["trace"] = {"spans": doc["spans"], "wall_s": run["wall_s"], "sites": doc["sites"]}
        summaries.append(summary)
        walls.append(run["wall_s"])
        plan.runs.append(dict(run, traced=True))
    first, second = summaries
    for name, st in first.items():
        other = second.get(name, {})
        for key in COUNT_STATS:
            if key in st and other.get(key) != st[key]:
                problems.append("%s.%s differs over two traced runs: %s vs %s"
                                % (name, key, st[key], other.get(key)))
        for key in ("self_s", "total_s"):  # times: the median of the traced runs
            if key in st:
                st[key] = statistics.median([st[key], other.get(key, 0.0)])
    for name in REQUIRED_SPANS[plan.name]:
        if first.get(name, {}).get("calls", 0) < 1:
            problems.append("wrapper %s recorded no call: a binding site was missed" % name)
    members = first.get("grideal.contains", {}).get("members", 0)
    if first.get("grideal.Certificate", {}).get("calls", 0) != members:
        problems.append("certificates built %d times for %d memberships"
                        % (first.get("grideal.Certificate", {}).get("calls", 0), members))
    first["trace"]["wall_s"] = statistics.median(walls)
    first["trace"]["untraced_wall_s"] = statistics.median(r["wall_s"] for r in plan.runs if not r.get("traced"))
    return first, problems


def trace_overhead(plan: Plan, samples: dict) -> float:
    """Traced over untraced cost, both as medians in reference seconds."""
    def median_ref(traced: bool) -> float:
        return statistics.median(ref_seconds(r, samples) for r in plan.runs if bool(r.get("traced")) == traced)
    return median_ref(True) / median_ref(False)


def per_layer(summary: dict) -> dict[str, dict]:
    out = {}
    for span, keys in PER_LAYER:
        st = summary.get(span, {})
        for key in keys:
            if key == "distinct_ratio":
                calls = st.get("calls", 0)
                value = st.get("distinct_pieces", 0) / calls if calls else 0.0
            else:
                value = st.get(key, 0)
            out["%s.%s" % (span, key)] = {"value": value, "unit": UNITS[key]}
    return out


def machine_record() -> dict:
    digest = hashlib.sha256()
    for p in sorted((SRC / "chowforge").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:  # not an enclosing repository's
        commit = out[1]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def fmt_stats(name: str, unit: str, st: dict) -> str:
    return "%-20s %-12s median %.4f %s (n=%d, q1 %.4f, q3 %.4f, min %.4f, max %.4f)" % (
        name.split(".")[0], name.split(".")[-1], st["median"], unit, st["n"],
        st["q1"], st["q3"], st["min"], st["max"],
    )


def bench(args) -> int:
    started = time.monotonic()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run_id = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    runner = Runner(started + DEADLINE_S, ALL_CPUS)
    record = {"run_id": run_id, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    try:
        t0 = time.perf_counter()
        plans = [make_plan(n, args.seed, runner) for n in names]
        record["reference_s"] = time.perf_counter() - t0
        runner.setup_probe(ALL_CPUS)  # compiles bytecode once and starts the loops, untimed
        setup: list[dict] = []
        if args.trace:  # half the time untraced, for the stdout and overhead baselines
            measure(plans, runner, args.seconds / 2, setup, 2)
        else:
            measure(plans, runner, args.seconds, setup, MIN_ROUNDS)
        metrics, problems, layers = {}, [], {}
        traces = {plan.name: trace(plan, runner, run_id) for plan in plans} if args.trace else {}
        samples = runner.stop_calibration()
        for plan in plans:
            prefix = "" if len(plans) == 1 else plan.name + "."
            if args.trace:
                summary, found = traces[plan.name]
                if summary:
                    summary["trace"]["overhead_ratio"] = trace_overhead(plan, samples)
                problems += ["%s: %s" % (plan.name, p) for p in found]
                layers[plan.name] = summary
                for k, v in per_layer(summary).items():
                    metrics[prefix + k] = v
                    print("%-20s %-50s %.6g %s" % (plan.name, k, v["value"], v["unit"]))
            else:
                e2e = end_to_end(plan, setup, samples)
                record.setdefault("end_to_end", {})[plan.name] = e2e
                for m, unit in END_TO_END:
                    metrics[prefix + m] = {"value": e2e[m]["median"], "unit": unit}
                for m, unit in END_TO_END + RAW:
                    print(fmt_stats(plan.name + "." + m, unit, e2e[m]))
            share = plan.failed / plan.attempted if plan.attempted else 1.0
            print("%-20s failed_share %.4f (%d of %d items)" % (plan.name, share, plan.failed, plan.attempted))
    finally:
        runner.close()
    attempted = sum(p.attempted for p in plans)
    failed = sum(p.failed for p in plans)
    for p in problems:
        print("PROBLEM: %s" % p, file=sys.stderr)
    record["workloads"] = {
        p.name: {"argv": ["chowforge"] + p.argv, "params": p.params, "items": p.items,
                 "attempted": p.attempted, "failed": p.failed, "runs": p.runs}
        for p in plans
    }
    record["setup_s"] = setup
    record["layers"] = layers
    record["problems"] = problems
    record["total_s"] = time.monotonic() - started
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s.json" % run_id), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def curves() -> int:
    """Ungated scaling curves, one fresh traced process per point."""
    runner = Runner(time.monotonic() + 3600)
    doc = {"machine": machine_record(), "point_timeout_s": POINT_TIMEOUT_S, "curves": {}}
    try:
        for kind, (kernel, xs) in CURVES.items():
            points = []
            for x in xs:
                prefix = OUT / "spans" / ("curve-%s-%d" % (kind, x))
                prefix.parent.mkdir(parents=True, exist_ok=True)
                run = runner.run([sys.executable, str(BENCH / "tracer.py"), "--out", str(prefix),
                                  "--run-id", "curve-%s-%d" % (kind, x), "curve", kind, str(x)],
                                 timeout=POINT_TIMEOUT_S)
                point = {"x": x, "wall_s": run["wall_s"], "timed_out": run["timed_out"],
                         "exit_code": run["exit_code"], "result": run["stdout"].decode().strip(),
                         "loadavg_before": run["loadavg_before"]}
                if run["exit_code"] == 0:
                    doc_, arrays = tracer.read_spans(str(prefix))
                    st = tracer.summarize(doc_, arrays).get(kernel, {})
                    point.update({"kernel": kernel, "kernel_self_s": st.get("self_s"),
                                  "max_rows": st.get("max_rows"), "max_cols": st.get("max_cols"),
                                  "u_max_bits": st.get("u_max_bits")})
                points.append(point)
                print("%-8s x=%-3d wall %7.2f s  %s %sx%s  %s" % (
                    kind, x, run["wall_s"], kernel, point.get("max_rows"), point.get("max_cols"),
                    "TIMEOUT" if run["timed_out"] else point["result"]))
                if run["exit_code"] != 0:
                    break
            doc["curves"][kind] = points
    finally:
        runner.close()
    with open(OUT / "curves.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--curves", action="store_true", help="record the scaling curves instead")
    args = ap.parse_args(argv)
    if not (SRC / "chowforge" / "cli.py").is_file():
        print("error: no chowforge sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.curves:
        return curves()
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
