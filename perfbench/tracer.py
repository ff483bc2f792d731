"""Span tracer for one chowforge process.

`install()` wraps the public functions of the engine's modules (and a few
hot methods) and rebinds every name in the ``chowforge`` package that refers
to an original, including ``from ... import`` copies such as ``grideal.snf``
or ``cli.contains`` and class aliases such as ``Polynomial.__rmul__``.  Each
wrapped call records one span (name, start_ns, end_ns, parent span) in
compact in-memory arrays; `Tracer.write` dumps them once the run is over.
Some wrappers also keep counts: matrix cells, row counts and the bit size of
U for the normal forms, and the distinct (presentation, degree) pieces that
membership asks about.

``polyparse`` is not wrapped: only ``present``, ``ideal-eq`` and
``verify --external`` reach it, and they take milliseconds.

Run as a script, it executes one traced command in this process and writes
``<prefix>.spans`` plus ``<prefix>.json``::

    python3 perfbench/tracer.py --out PREFIX --run-id ID cli verify --suite lemma34
    python3 perfbench/tracer.py --out PREFIX --run-id ID curve lemma34 12

Stdout is the command's own stdout, untouched; the exit code is its exit
code.  Worker processes forked by ``--jobs`` stop recording, so only the
parent's spans are kept.
"""

from __future__ import annotations

import argparse
import array
import functools
import importlib
import json
import os
import sys
import time
import types

MODULES = ("intpoly", "zlinalg", "grideal", "chowops", "catalog", "cli")

# (module, class, method) -> span name
METHODS = {
    ("intpoly", "Polynomial", "__init__"): "intpoly.Polynomial.__init__",
    ("intpoly", "Polynomial", "__mul__"): "intpoly.Polynomial.__mul__",
    ("intpoly", "Polynomial", "__add__"): "intpoly.Polynomial.__add__",
    ("intpoly", "Polynomial", "substitute"): "intpoly.Polynomial.substitute",
    ("grideal", "Certificate", "__init__"): "grideal.Certificate",
}

# Field order of the binary span file; every field is a signed 64-bit int.
SPAN_FIELDS = ("name", "parent", "start_ns", "end_ns")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_arr = array.array("q")
        self.parent_arr = array.array("q")
        self.start_arr = array.array("q")
        self.end_arr = array.array("q")
        self.stack: list[int] = []
        self.enabled = True
        self.sites: list[str] = []
        self.counts: dict[str, dict[str, int]] = {}
        self._pieces: set = set()

    def disable(self) -> None:
        self.enabled = False

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = (
            self.name_arr, self.parent_arr, self.start_arr, self.end_arr
        )
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counters kept at the layer boundaries ------------------------

    def _bump(self, name: str, key: str, value: int, how=int.__add__) -> None:
        stats = self.counts.setdefault(name, {})
        stats[key] = how(stats[key], value) if key in stats else value

    def _on_hnf(self, args, result) -> None:
        A = args[0]
        _, U = result
        bits = max((max(map(abs, row)) for row in U.entries), default=0).bit_length()
        self._bump("zlinalg.hnf", "cells", A.rows * A.cols)
        self._bump("zlinalg.hnf", "max_rows", A.rows, max)
        self._bump("zlinalg.hnf", "max_cols", A.cols, max)
        self._bump("zlinalg.hnf", "u_max_bits", bits, max)

    def _on_snf(self, args, result) -> None:
        A = args[0]
        self._bump("zlinalg.snf", "cells", A.rows * A.cols)
        self._bump("zlinalg.snf", "max_rows", A.rows, max)
        self._bump("zlinalg.snf", "max_cols", A.cols, max)

    def _on_contains(self, args, result) -> None:
        P, f = args[0], args[1]
        key = (P, f.weighted_degree() if f.terms else None)
        if key not in self._pieces:
            self._pieces.add(key)
            self._bump("grideal.contains", "distinct_pieces", 1)
        self._bump("grideal.contains", "members", int(result is not None))

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each name that refers to one."""
        hooks = {
            "zlinalg.hnf": self._on_hnf,
            "zlinalg.snf": self._on_snf,
            "grideal.contains": self._on_contains,
        }
        targets: dict[int, tuple[object, object]] = {}

        def add(name, fn):
            targets[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))

        for mod in MODULES:
            m = importlib.import_module("chowforge." + mod)
            for attr in getattr(m, "__all__", ()):
                obj = getattr(m, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == m.__name__:
                    add("%s.%s" % (mod, attr), obj)
        for (mod, cls, meth), name in METHODS.items():
            klass = getattr(importlib.import_module("chowforge." + mod), cls)
            add(name, klass.__dict__[meth])

        seen_classes = set()
        for modname, m in sorted(sys.modules.items()):
            if modname != "chowforge" and not modname.startswith("chowforge."):
                continue
            for attr, obj in list(vars(m).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(m, attr, targets[id(obj)][1])
                    self.sites.append("%s.%s" % (modname, attr))
                elif isinstance(obj, type) and id(obj) not in seen_classes:
                    seen_classes.add(id(obj))
                    for cattr, cobj in list(vars(obj).items()):
                        if id(cobj) in targets and targets[id(cobj)][0] is cobj:
                            setattr(obj, cattr, targets[id(cobj)][1])
                            self.sites.append(
                                "%s.%s.%s" % (obj.__module__, obj.__qualname__, cattr)
                            )
        os.register_at_fork(after_in_child=self.disable)

    # -- output -------------------------------------------------------

    def write(self, prefix: str, extra: dict) -> None:
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.name_arr, self.parent_arr, self.start_arr, self.end_arr):
                arr.tofile(fh)
        doc = {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "span_fields": list(SPAN_FIELDS),
            "spans": len(self.name_arr),
            "names": self.names,
            "sites": self.sites,
            "counts": self.counts,
        }
        doc.update(extra)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def read_spans(prefix: str):
    """Load a span dump: (metadata, [name ids, parents, starts, ends])."""
    with open(prefix + ".json", encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["spans"]
    arrays = []
    with open(prefix + ".spans", "rb") as fh:
        for _ in SPAN_FIELDS:
            arr = array.array("q")
            arr.fromfile(fh, n)
            arrays.append(arr)
    return doc, arrays


def summarize(doc: dict, arrays) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (summed durations) and self_s (each
    duration minus the time its direct children cover), plus the counts."""
    names, parents, starts, ends = arrays
    durations = [e - s for s, e in zip(starts, ends)]
    covered = [0] * len(durations)
    for d, p in zip(durations, parents):
        if p >= 0:
            covered[p] += d
    k = len(doc["names"])
    calls, total, self_ns = [0] * k, [0] * k, [0] * k
    for nid, d, c in zip(names, durations, covered):
        calls[nid] += 1
        total[nid] += d
        self_ns[nid] += d - c
    out = {}
    for nid, name in enumerate(doc["names"]):
        out[name] = {
            "calls": calls[nid],
            "total_s": total[nid] / 1e9,
            "self_s": self_ns[nid] / 1e9,
        }
    for name, stats in doc["counts"].items():
        out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).update(stats)
    return out


def _curve_call(kind: str, x: int) -> str:
    """One scaling-curve point, through the public API."""
    from chowforge import catalog, grideal

    if kind == "lemma34":
        return "ok" if catalog.lemma_3_4_check(x, x).ok else "no certificate"
    if kind == "graded":
        P = catalog.thm_1_3_presentation(8, 3)
        return str(grideal.quotient_graded_invariants(P, x))
    raise ValueError("unknown curve %r" % kind)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one traced chowforge command")
    ap.add_argument("--out", required=True, help="prefix of the span dump")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("mode", choices=["cli", "curve"])
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    tracer = Tracer(args.run_id)
    tracer.install()
    from chowforge import cli

    t0 = time.perf_counter_ns()
    rc = 1
    try:
        if args.mode == "cli":
            rc = cli.main(args.rest)
        else:
            print(_curve_call(args.rest[0], int(args.rest[1])))
            rc = 0
    finally:
        sys.stdout.flush()
        traced_ns = time.perf_counter_ns() - t0
        tracer.write(args.out, {"command_ns": traced_ns, "exit_code": rc})
    return rc


if __name__ == "__main__":
    sys.exit(main())
