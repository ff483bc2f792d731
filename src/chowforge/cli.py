"""Command-line surface.

Subcommands: ``present`` (construct a catalog presentation), ``derive``
(run a torsor pipeline, optionally emitting every intermediate ring),
``verify`` (run identity and derivation checks over parameter grids, or
validate a user-supplied ideal file with ``--external``), ``graded``
(graded abelian invariants of a quotient), and ``ideal-eq`` (compare two
user-supplied ideal files).

Exit codes: 0 = all checks pass / equality holds, 1 = a check failed or
the ideals differ, 2 = usage or parse error, 3 = an unexpected error (the
traceback goes to stderr) or running out of memory.  Identical invocations
produce byte-identical output; ``--jobs`` changes wall time only.
``verify --jobs N`` cuts the grid points into at most N contiguous shares,
runs the first itself and forks one child for each other share, which
sends its reports back through a pipe.  There is no process pool: the
children are forked with ``os.fork`` because multiprocessing's default
start method on Linux becomes forkserver in Python 3.14, whose workers
would each import chowforge again.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import BinaryIO, NamedTuple

from . import catalog
from .catalog import ParamError, Params
from .grideal import Presentation, contains, ideal_equal, quotient_graded_invariants
from .intpoly import Polynomial
from .polyparse import ParseError, format_ideal_file, parse_ideal_file

__all__ = ["main"]


def _print_presentation(P: Presentation) -> None:
    sys.stdout.write(format_ideal_file(P.ring, P.relations))


def _presentation_json(P: Presentation) -> dict:
    return {
        "ring": [[n, w] for n, w in zip(P.ring.names, P.ring.weights)],
        "relations": [p.canonical() for p in P.relations],
    }


# The tables name catalog functions instead of binding them, so that each
# call looks the function up on the module; a wrapper installed there after
# import (the span tracer in perfbench/) then sees every call.

# theorem -> (catalog constructor, the flags it takes)
_THEOREMS = {
    "thm1.2": ("thm_1_2_presentation", ("a", "b")),
    "thm1.3": ("thm_1_3_presentation", ("g", "n")),
    "thm1.9": ("thm_1_9_presentation", ("g", "n")),
    "cor1.10": ("cor_1_10_presentation", ("g", "n")),
}

# pipeline -> (direct presentation, torsor derivation, valid (g, n) pairs)
_PIPELINES = {
    "rh-even": ("thm_1_3_presentation", "derive_thm_1_3", "valid_rh_even_pairs"),
    "wrh-odd": ("thm_1_9_presentation", "derive_thm_1_9", "valid_wrh_odd_pairs"),
}


def _build_presentation(theorem: str, args) -> tuple[Presentation, Params]:
    constructor, flags = _THEOREMS[theorem]
    values = [getattr(args, f) for f in flags]
    if None in values:
        raise ParamError(
            "%s requires %s" % (theorem, " and ".join("--" + f for f in flags))
        )
    extra = [f for f in Params._fields if f not in flags and getattr(args, f) is not None]
    if extra:
        raise ParamError("%s does not take %s" % (theorem, " or ".join("--" + f for f in extra)))
    params = Params(**dict(zip(flags, values)))
    return getattr(catalog, constructor)(*values), params


def _cmd_present(args) -> int:
    P, params = _build_presentation(args.theorem, args)
    if args.format == "json":
        doc = {"theorem": args.theorem, "params": params._asdict()}
        doc.update(_presentation_json(P))
        print(json.dumps(doc, separators=(",", ":")))
    else:
        _print_presentation(P)
    return 0


def _cmd_derive(args) -> int:
    result = getattr(catalog, _PIPELINES[args.pipeline][1])(args.g, args.n)
    if args.emit_steps:
        for i, (label, P) in enumerate(result.steps, start=1):
            print("# step %d: %s" % (i, label))
            _print_presentation(P)
            print()
        print("# result")
    _print_presentation(result.presentation)
    return 0


def _cmd_graded(args) -> int:
    if args.deg_max < 0:
        raise ParamError("--deg-max must be >= 0")
    P, _ = _build_presentation(args.theorem, args)
    for d in range(args.deg_max + 1):
        print("degree %d: %s" % (d, quotient_graded_invariants(P, d)))
    return 0


def _read_text(path: str) -> str:
    """The UTF-8 text of a file; an unreadable or undecodable file is a
    usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParamError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ParamError("%s: %s" % (path, exc)) from None


def _parse_file(path: str):
    """The (ring, relations) of an ideal file; a file that does not parse
    is a usage error naming the file."""
    try:
        return parse_ideal_file(_read_text(path))
    except ParseError as exc:
        raise ParamError("%s: %s" % (path, exc)) from None


def _cmd_ideal_eq(args) -> int:
    ring_a, rel_a = _parse_file(args.file_a)
    ring_b, rel_b = _parse_file(args.file_b)
    if ring_a != ring_b:
        print("error: ring headers differ", file=sys.stderr)
        return 2
    result = ideal_equal(Presentation(ring_a, rel_a), Presentation(ring_b, rel_b))
    print(result.describe())
    return 0 if result.equal else 1


# ---------------------------------------------------------------------------
# verify: a registry of named checks over parameter grids
# ---------------------------------------------------------------------------


class CheckReport(NamedTuple):
    check_id: str
    params: Params
    verdict: str  # pass / fail / error
    witness: str | None
    elapsed_ms: int = 0

    def json_line(self) -> str:
        # the keys in field order, with the parameters as an object
        doc = dict(self._asdict(), params=self.params._asdict())
        return json.dumps(doc, separators=(",", ":"))

    def text_line(self) -> str:
        head = "%s %s" % (self.verdict.upper(), self.check_id)
        if str(self.params):
            head += " [%s]" % (self.params,)
        if self.verdict != "pass" and self.witness:
            head += ": %s" % self.witness
        return head


def _check_derive(pipeline: str, p: Params):
    direct, derive, _ = _PIPELINES[pipeline]
    got = getattr(catalog, derive)(p.g, p.n).presentation
    want = getattr(catalog, direct)(p.g, p.n)
    res = ideal_equal(got, want)
    return res.equal, None if res.equal else res.describe()


def _check_graded(pipeline: str, p: Params):
    """The direct and the derived quotient agree in degrees 0..4."""
    direct, derive, _ = _PIPELINES[pipeline]
    want = getattr(catalog, direct)(p.g, p.n)
    got = getattr(catalog, derive)(p.g, p.n).presentation
    for d in range(5):
        a = quotient_graded_invariants(want, d)
        b = quotient_graded_invariants(got, d)
        if a != b:
            return False, "degree %d: %s vs %s" % (d, a, b)
    return True, None


def _check_lemma34(p: Params):
    res = catalog.lemma_3_4_check(p.a, p.b)
    return res.ok, None if res.ok else "no certificate for one side"


def _check_remark37_reduction(p: Params):
    cert = catalog.remark_37_reduction(p.a, p.b)
    if cert is None:
        return False, "reduction difference not in the six-generator ideal"
    return True, None


def _check_remark37_nonredundant(p: Params):
    ok = catalog.remark_37_nonredundancy(p.a, p.b)
    return ok, None if ok else "M2*(1) unexpectedly redundant"


def _check_coeff_identity(p: Params):
    rows = catalog.thm_1_2_presentation(p.a, p.b).relations
    _, f2, _, g2 = catalog.classes_FG(p.a, p.b)
    ok = rows[1] == f2 and rows[3] == g2
    return ok, None if ok else "rows 2/4 differ from the pushforward classes"


def _check_thm12_candidate(p: Params):
    res = ideal_equal(
        catalog.thm_1_2_presentation(p.a, p.b), catalog.j1_presentation(p.a, p.b)
    )
    return res.equal, None if res.equal else res.describe()


def _check_tau_pullback(p: Params):
    from .chowops import pullback_gl2_from_pgl2

    dico = pullback_gl2_from_pgl2(1, 1)
    tau_img = dico.images["tau"]
    c2_img = dico.images["c2"]
    R = dico.target_ring
    xi1 = Polynomial.var(R, "xi1")
    c1 = Polynomial.var(R, "c1")
    c2 = Polynomial.var(R, "c2")
    relation = Presentation(R, [xi1 ** 2 - c1 * xi1 + c2])
    cert = contains(relation, tau_img ** 2 + c2_img)
    if cert is None:
        return False, "tau^2 + c2 pullback not in the bundle relation"
    expected = Polynomial.const(R, 4)
    ok = cert.cofactors[0] == expected
    return ok, None if ok else "certificate cofactor is %s" % cert.cofactors[0]


def _check_chern_twist(p: Params):
    data = catalog.twist_chern_data()
    R = data.c1.ring
    t = Polynomial.var(R, "t")
    c1 = Polynomial.var(R, "c1")
    if data.c1 != -c1 - 2 * t:
        return False, "first Chern class is %s" % data.c1.canonical()
    if not data.conditional_equality_holds():
        return False, "second Chern class fails the t -> -t identity"
    return True, None


# check id -> (suite, grid, check); the grid is a pipeline's (g, n) pairs,
# "ab" for a, b in 1..ab-max, or None for a single run without parameters
_CHECKS = {
    "derive-rh-even": ("derivations", "rh-even", partial(_check_derive, "rh-even")),
    "derive-wrh-odd": ("derivations", "wrh-odd", partial(_check_derive, "wrh-odd")),
    "graded-agree-rh-even": ("derivations", "rh-even", partial(_check_graded, "rh-even")),
    "graded-agree-wrh-odd": ("derivations", "wrh-odd", partial(_check_graded, "wrh-odd")),
    "lemma34-superfluous": ("lemma34", "ab", _check_lemma34),
    "remark37-reduction": ("remark37", "ab", _check_remark37_reduction),
    "remark37-nonredundant": ("remark37", "ab", _check_remark37_nonredundant),
    "coeff-identity-fg": ("identities", "ab", _check_coeff_identity),
    "thm12-equals-candidate": ("identities", "ab", _check_thm12_candidate),
    "tau-pullback-square": ("identities", None, _check_tau_pullback),
    "chern-twist-conditional": ("identities", None, _check_chern_twist),
}


def _grid_batches(suite: str, g_max: int, ab_max: int) -> list[list[tuple[str, Params]]]:
    """The (check id, params) tasks of a suite, one batch per grid point.
    The checks of a batch run back to back in one process, so that they
    share its derivation and its degree pieces; under ``--jobs`` each
    worker runs one contiguous share of the batches, so that what it keeps
    serves neighbouring grid points."""
    grids = {
        None: [Params()],
        "ab": [Params(a=a, b=b) for a in range(1, ab_max + 1) for b in range(1, ab_max + 1)],
    }
    for name, (_, _, pairs) in _PIPELINES.items():
        grids[name] = [Params(g=g, n=n) for g, n in getattr(catalog, pairs)(g_max)]
    batches: dict[Params, list[tuple[str, Params]]] = {}
    for check_id, (check_suite, grid, _) in _CHECKS.items():
        if suite in ("all", check_suite):
            for p in grids[grid]:
                batches.setdefault(p, []).append((check_id, p))
    return list(batches.values())


def _run_task(task: tuple[str, Params]) -> CheckReport:
    check_id, params = task
    try:
        ok, witness = _CHECKS[check_id][2](params)
    except Exception as exc:  # a crash is not a mathematical verdict
        return CheckReport(check_id, params, "error", "error: %s" % exc)
    return CheckReport(check_id, params, "pass" if ok else "fail", witness)


def _run_batch(batch: list[tuple[str, Params]]) -> list[CheckReport]:
    return [_run_task(t) for t in batch]


def _fork(share: list[list[tuple[str, Params]]]) -> tuple[int, BinaryIO]:
    """Forks a child that runs the batches of `share` and writes the pickled
    list of their report lists to a pipe; returns the child's pid and the
    read end of the pipe."""
    import pickle  # loaded only where a share is forked, before the fork

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child leaves through os._exit whatever happens, so it never
        # returns into main and never flushes the parent's stdio
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                pickle.dump([_run_batch(b) for b in share], fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _run_shares(shares: list[list[list[tuple[str, Params]]]]) -> list[list[CheckReport]]:
    """The report lists of every batch, in share order.  One child is forked
    for each share after the first before any check runs; this process runs
    the first share, then reads each child's pipe to EOF and reaps it.  A
    child that exits nonzero or dies of a signal raises; on the way out
    every child not yet reaped is killed and reaped, so none outlives the
    call."""
    children = []  # (pid, pipe) of each share after the first, not yet reaped
    try:
        for share in shares[1:]:
            children.append(_fork(share))
        done = [_run_batch(b) for b in shares[0]]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status < 0:
                raise ChildProcessError("verify worker %d died of signal %d" % (pid, -status))
            if status:
                raise ChildProcessError("verify worker %d exited with status %d" % (pid, status))
            import pickle  # loaded by _fork

            done += pickle.loads(data)
        return done
    finally:
        for pid, pipe in children:
            import signal

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _external_reports(path: str) -> list[CheckReport]:
    """Checks for a user-supplied ideal file: serialization round trip and
    properness of the presented ideal (no unit relation)."""
    ring, relations = _parse_file(path)
    P = Presentation(ring, relations)
    text = format_ideal_file(P.ring, P.relations)
    ring2, rel2 = parse_ideal_file(text)
    ok = ring2 == P.ring and tuple(rel2) == P.relations
    reports = [
        CheckReport(
            "external-roundtrip",
            Params(),
            "pass" if ok else "fail",
            None if ok else "re-parsed file differs",
        )
    ]
    zero_piece = quotient_graded_invariants(P, 0)
    proper = zero_piece.free_rank == 1 and not zero_piece.torsion
    reports.append(
        CheckReport(
            "external-proper",
            Params(),
            "pass" if proper else "fail",
            None if proper else "degree-0 piece is %s, not Z" % (zero_piece,),
        )
    )
    return reports


def _cmd_verify(args) -> int:
    if args.g_max < 2 or args.ab_max < 1:
        raise ParamError("--g-max must be >= 2 and --ab-max >= 1")
    if args.jobs < 1:
        raise ParamError("--jobs must be >= 1")
    if args.external is not None:
        return _emit_reports(_external_reports(args.external), args.format)
    batches = _grid_batches(args.suite, args.g_max, args.ab_max)
    # one contiguous share of grid points per worker, the first run by this
    # process and the others by children forked up front (os.fork, not a
    # pool whose start method becomes forkserver in Python 3.14); without
    # os.fork the whole grid is one share
    workers = min(args.jobs, len(batches)) if hasattr(os, "fork") else 1
    size = -(-len(batches) // workers)
    done = _run_shares([batches[i:i + size] for i in range(0, len(batches), size)])
    reports = sorted(
        (r for batch in done for r in batch),
        key=lambda r: (r.check_id, r.params.sort_key()),
    )
    return _emit_reports(reports, args.format)


def _emit_reports(reports: list[CheckReport], fmt: str) -> int:
    failures = [r for r in reports if r.verdict != "pass"]
    if fmt == "json":
        for r in reports:
            print(r.json_line())
        if failures:
            print(
                "first failure: %s" % failures[0].text_line(), file=sys.stderr
            )
    else:
        for r in reports:
            print(r.text_line())
        print(
            "%d checks, %d failed" % (len(reports), len(failures))
        )
        if failures:
            print("first failure: %s" % failures[0].text_line())
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chowforge",
        description="Exact integer Chow-ring presentations and verification harness",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_theorem_flags(p):
        p.add_argument(
            "--theorem",
            required=True,
            choices=list(_THEOREMS),
        )
        p.add_argument("--g", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--a", type=int)
        p.add_argument("--b", type=int)

    p = sub.add_parser("present", help="print a catalog presentation")
    add_theorem_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("derive", help="run a torsor derivation pipeline")
    p.add_argument("--pipeline", required=True, choices=list(_PIPELINES))
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit-steps", action="store_true")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("verify", help="run checks over parameter grids")
    p.add_argument(
        "--suite",
        default="all",
        choices=["all", *dict.fromkeys(suite for suite, _, _ in _CHECKS.values())],
    )
    p.add_argument("--g-max", type=int, default=20)
    p.add_argument("--ab-max", type=int, default=8)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--external",
        metavar="FILE",
        default=None,
        help="validate a user-supplied ideal file instead of running grid suites",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("graded", help="graded invariants of a quotient")
    add_theorem_flags(p)
    p.add_argument("--deg-max", type=int, required=True)
    p.set_defaults(func=_cmd_graded)

    p = sub.add_parser("ideal-eq", help="compare two ideal files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_ideal_eq)

    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParamError, ParseError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        # formatting a traceback here could raise a second MemoryError and
        # leave with exit 1, the code of a verdict; one write allocates nothing
        os.write(2, b"error: out of memory\n")
        return 3
    except Exception:
        # a crash is no verdict: exit 1 means a failed check or unequal ideals
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
