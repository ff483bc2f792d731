"""Independent references for the outputs the benchmark checks.

Nothing here calls the engine.  `verify` output is judged by the verdict
rule the README states: every check passes except
``remark37-nonredundant``, which fails on every (a, b) with the witness
``M2*(1) unexpectedly redundant`` (the seventh relation is redundant), so a
grid that includes it exits 1.  The expected set of (check, params) records
comes from the parameter guards of the presentations, so a skipped or
filtered check shows as missing.  `graded` output is judged against ranks
of the degree matrix over finite fields, computed here by our own
elimination: dim (coker tensor F_p) = free_rank + #{d_i : p | d_i}.
"""

from __future__ import annotations

import json
import re

REDUNDANT_WITNESS = "M2*(1) unexpectedly redundant"
RECORD_KEYS = {"check_id", "params", "verdict", "witness", "elapsed_ms"}
# 2^31 - 1: rank over F_p for this prime gives the rank over Q unless p
# divides an elementary divisor, which no presentation here comes near.
BIG_PRIME = 2147483647
RANK_PRIMES = (2, 3, BIG_PRIME)


# -- verify --------------------------------------------------------------


def _params(g=None, n=None, a=None, b=None) -> tuple:
    return (g, n, a, b)


def verify_expected(suite: str, g_max: int, ab_max: int) -> dict[tuple, str]:
    """(check_id, (g, n, a, b)) -> expected verdict, for a `verify` grid."""
    even = [_params(g, n) for g in range(2, g_max + 1, 2) for n in range(1, g // 2 + 1)]
    odd = [
        _params(g, n)
        for g in range(3, g_max + 1, 2)
        for n in range(1, (g - 1) // 2 + 1, 2)
    ]
    ab = [_params(a=a, b=b) for a in range(1, ab_max + 1) for b in range(1, ab_max + 1)]
    grid: dict[str, list[tuple]] = {}
    if suite in ("all", "derivations"):
        grid["derive-rh-even"] = even
        grid["graded-agree-rh-even"] = even
        grid["derive-wrh-odd"] = odd
        grid["graded-agree-wrh-odd"] = odd
    if suite in ("all", "lemma34"):
        grid["lemma34-superfluous"] = ab
    if suite in ("all", "remark37"):
        grid["remark37-reduction"] = ab
        grid["remark37-nonredundant"] = ab
    if suite in ("all", "identities"):
        grid["coeff-identity-fg"] = ab
        grid["thm12-equals-candidate"] = ab
        grid["tau-pullback-square"] = [_params()]
        grid["chern-twist-conditional"] = [_params()]
    return {
        (check, p): "fail" if check == "remark37-nonredundant" else "pass"
        for check, ps in grid.items()
        for p in ps
    }


def verify_exit_code(expected: dict[tuple, str]) -> int:
    return 1 if "fail" in expected.values() else 0


def check_verify(stdout: bytes, expected: dict[tuple, str]) -> int:
    """Number of expected items the NDJSON output gets wrong or leaves out
    (an unexpected or duplicated record counts as one more)."""
    seen: set[tuple] = set()
    failed = 0
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            rec = json.loads(line)
            p = rec["params"]
            key = (rec["check_id"], _params(p["g"], p["n"], p["a"], p["b"]))
            ok = set(rec) == RECORD_KEYS and isinstance(rec["elapsed_ms"], int)
        except (ValueError, KeyError, TypeError):
            failed += 1
            continue
        want = expected.get(key)
        if want is None or key in seen:
            failed += 1
            continue
        seen.add(key)
        witness = rec["witness"]
        if want == "pass":
            ok = ok and rec["verdict"] == "pass" and witness is None
        else:
            ok = ok and rec["verdict"] == "fail" and witness == REDUNDANT_WITNESS
        if isinstance(witness, str) and witness.startswith("error:"):
            ok = False
        failed += not ok
    return failed + len(set(expected) - seen)


# -- graded --------------------------------------------------------------

_TERM_RE = re.compile(r"(?:(\d+)\*)?(.*)")


def parse_canonical(text: str, names: list[str]) -> dict[tuple, int]:
    """Terms of a polynomial in the engine's canonical text form."""
    index = {n: i for i, n in enumerate(names)}
    terms: dict[tuple, int] = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = -1 if chunk.startswith("-") else 1
        chunk = chunk.lstrip("-")
        if chunk.isdigit():
            coeff, mono = int(chunk), ""
        else:
            m = _TERM_RE.fullmatch(chunk)
            coeff, mono = int(m.group(1) or 1), m.group(2)
        exps = [0] * len(names)
        for factor in filter(None, mono.split("*")):
            var, _, power = factor.partition("^")
            exps[index[var]] += int(power or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return terms


def _monomials(weights: list[int], d: int) -> list[tuple]:
    if not weights:
        return [()] if d == 0 else []
    out = []
    for e in range(d // weights[0] + 1):
        out += [(e,) + rest for rest in _monomials(weights[1:], d - e * weights[0])]
    return out


def degree_rows(weights: list[int], relations: list[dict], d: int):
    """Rows of all degree-d multiples m * g of the relations, over the
    degree-d monomials (column order is irrelevant to rank)."""
    cols = _monomials(weights, d)
    index = {m: i for i, m in enumerate(cols)}
    rows = []
    for g in relations:
        e = sum(w * x for w, x in zip(weights, next(iter(g))))
        if e > d:
            continue
        for m in _monomials(weights, d - e):
            row = {}
            for exps, c in g.items():
                row[index[tuple(a + b for a, b in zip(m, exps))]] = c
            rows.append(row)
    return len(cols), rows


def rank_mod(rows: list[dict], p: int) -> int:
    """Rank over F_p of sparse integer rows, by reduction against pivots."""
    pivots: dict[int, dict] = {}
    for row in rows:
        v = {c: x % p for c, x in row.items() if x % p}
        while v:
            c = min(v)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(v[c], -1, p)
                pivots[c] = {k: x * inv % p for k, x in v.items()}
                break
            f = v[c]
            for k, x in piv.items():
                y = (v.get(k, 0) - f * x) % p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return len(pivots)


def graded_reference(presentation_json: str, deg_max: int) -> list[dict[int, int]]:
    """For each degree d <= deg_max: {p: dim over F_p of the degree-d
    quotient}, from a `present --format json` document (the input)."""
    doc = json.loads(presentation_json)
    names = [n for n, _ in doc["ring"]]
    weights = [w for _, w in doc["ring"]]
    relations = [parse_canonical(r, names) for r in doc["relations"]]
    out = []
    for d in range(deg_max + 1):
        ncols, rows = degree_rows(weights, relations, d)
        out.append({p: ncols - rank_mod(rows, p) for p in RANK_PRIMES})
    return out


_INV_RE = re.compile(r"Z(?:\^(\d+))?|Z/(\d+)|\(Z/(\d+)\)\^(\d+)")


def parse_invariants(text: str) -> tuple[int, list[int]]:
    """(free rank, elementary divisors) from the engine's printed group."""
    if text == "0":
        return 0, []
    free, torsion = 0, []
    for part in text.split(" + "):
        m = _INV_RE.fullmatch(part)
        if m is None:
            raise ValueError("unreadable group %r" % text)
        if m.group(2):
            torsion.append(int(m.group(2)))
        elif m.group(3):
            torsion += [int(m.group(3))] * int(m.group(4))
        else:
            free += int(m.group(1) or 1)
    return free, torsion


def check_graded(stdout: bytes, reference: list[dict[int, int]]) -> int:
    """Number of degrees whose printed invariants disagree with the
    finite-field dimensions (a missing or extra line counts too)."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    failed = abs(len(lines) - len(reference))
    for d, (line, dims) in enumerate(zip(lines, reference)):
        head = "degree %d: " % d
        try:
            if not line.startswith(head):
                raise ValueError(line)
            free, torsion = parse_invariants(line[len(head):])
        except ValueError:
            failed += 1
            continue
        ok = free == dims[BIG_PRIME] and all(
            free + sum(1 for t in torsion if t % p == 0) == dims[p] for p in (2, 3)
        )
        failed += not ok
    return failed
