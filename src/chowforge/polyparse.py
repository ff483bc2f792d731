"""Parser and printer for the polynomial DSL used by CLI inputs and golden files.

Grammar (tightest binding last):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' INT)?
    atom   := INT | IDENT | '(' expr ')'

Identifiers are ASCII ``[a-z][a-z0-9_]*``; subscripted math symbols map
as xi_{2a} -> ``xi2a``, t_1 -> ``t1``, tau -> ``tau`` and so on (the full
table is in the README).  Implicit multiplication is rejected: ``2t`` is
an error, write ``2*t``.

Ideal files consist of a header line ``ring: name:weight, ...`` followed
by one relation per line.  ``#`` starts a comment; blank lines are
ignored.  Every relation must be homogeneous under the declared weights.
"""

from __future__ import annotations

import sys
from math import comb

from .intpoly import NotHomogeneousError, Polynomial, RingSpec, ring_make

__all__ = [
    "ParseError",
    "parse_poly",
    "parse_ideal_file",
    "format_ideal_file",
    "format_ring_header",
]


class ParseError(ValueError):
    """Syntax or validation error, carrying the byte offset of the first
    offending token (and a 1-based line number for file input)."""

    def __init__(self, message: str, pos: int, line: int | None = None):
        self.pos = pos
        self.line = line
        where = "line %d, " % line if line is not None else ""
        super().__init__("%soffset %d: %s" % (where, pos, message))


_OPS = "+-*^()"

# A power of a base of m terms to the n has up to C(n + m - 1, m - 1)
# terms; a power predicted to have more is refused before it is expanded.
# The bound still admits powers that cost seconds: (t + c1)^1999, 2000
# terms with coefficients of up to 1994 bits, took 2.0-3.1 s of CPU over
# three runs on a 2-vCPU Xeon with Python 3.11.
_MAX_POWER_TERMS = 2000


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if "a" <= ch <= "z":
            j = i
            while j < n and ("0" <= src[j] <= "9" or src[j] == "_" or "a" <= src[j] <= "z"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str, ring: RingSpec):
        self.tokens = _tokenize(src)
        self.ring = ring
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def integer(self) -> int:
        _, value, pos = self.advance()
        try:
            return int(value)
        except ValueError:  # more digits than Python's int() takes from a string
            raise ParseError("integer literal of %d digits is too long" % len(value), pos) from None

    def error(self, message: str):
        kind, value, pos = self.peek()
        shown = "end of input" if kind == "end" else repr(value)
        raise ParseError("%s (got %s)" % (message, shown), pos)

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek()[0] != "end":
            self.error("trailing input")
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        if self.peek()[0] == "-":
            self.advance()
            return -self.factor()
        return self.power()

    def power(self) -> Polynomial:
        start = self.peek()[2]
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            kind, _, pos = self.peek()
            if kind != "int":
                raise ParseError("non-integer exponent", pos)
            n, m = self.integer(), len(base.terms)
            # for m > 1 the count is at least n + 1, so a large n needs no comb
            if m > 1 and (n > _MAX_POWER_TERMS or comb(n + m - 1, n) > _MAX_POWER_TERMS):
                raise ParseError(
                    "power of a %d-term base would have more than %d terms" % (m, _MAX_POWER_TERMS),
                    start,
                )
            if m:
                # the lex-largest and lex-smallest terms of the base, under
                # each rotation of the variable order, are vertices of its
                # Newton polytope, so base^n has the coefficient c^n for
                # each one's coefficient c, at least 2^(n * (bits of c - 1));
                # refuse it before it is expanded when that passes
                # 10^limit, the least int Python will not print
                c = max(
                    abs(base.terms[pick(base.terms, key=lambda e: e[r:] + e[:r])])
                    for r in range(len(self.ring) or 1)
                    for pick in (max, min)
                )
                bits = n * (c.bit_length() - 1)
                limit = sys.get_int_max_str_digits()
                if bits and limit and bits >= (10 ** limit).bit_length():
                    raise ParseError(
                        "power would have a coefficient of more than %d digits" % limit, start
                    )
            return base ** n
        return base

    def atom(self) -> Polynomial:
        kind, value, pos = self.peek()
        if kind == "int":
            return Polynomial.const(self.ring, self.integer())
        if kind == "ident":
            if value not in self.ring:
                raise ParseError("undeclared identifier %r" % value, pos)
            self.advance()
            return Polynomial.var(self.ring, value)
        if kind == "(":
            self.advance()
            p = self.expr()
            if self.peek()[0] != ")":
                self.error("expected ')'")
            self.advance()
            return p
        self.error("expected integer, identifier or '('")


def parse_poly(src: str, ring: RingSpec) -> Polynomial:
    """Parse one polynomial expression into canonical internal form."""
    return _Parser(src, ring).parse()


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_ring_header(body: str, lineno: int, offset: int) -> RingSpec:
    vars = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty declaration in ring header", offset, lineno)
        name, sep, weight = chunk.partition(":")
        name = name.strip()
        weight = weight.strip()
        digits = weight.lstrip("-")
        if not sep or not (digits.isascii() and digits.isdigit()):
            raise ParseError(
                "ring header entries must be name:weight, got %r" % chunk,
                offset,
                lineno,
            )
        try:
            vars.append((name, int(weight)))
        except ValueError:
            raise ParseError("bad ring declaration %r" % chunk, offset, lineno)
    try:
        return ring_make(vars)
    except ValueError as exc:
        raise ParseError(str(exc), offset, lineno) from None


def parse_ideal_file(src: str) -> tuple[RingSpec, list[Polynomial]]:
    """Parse an ideal file: ring header, then one homogeneous relation per
    line, each with coefficients that Python can print."""
    limit = sys.get_int_max_str_digits()
    too_long = 10 ** limit  # the least int of more than limit digits
    ring: RingSpec | None = None
    relations: list[Polynomial] = []
    offset = 0
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if line:
            if ring is None:
                if not line.startswith("ring:"):
                    raise ParseError("ring header missing", offset, lineno)
                ring = _parse_ring_header(line[len("ring:"):], lineno, offset)
            else:
                try:
                    p = parse_poly(line, ring)
                except ParseError as exc:
                    raise ParseError(
                        str(exc).split(": ", 1)[-1], offset + exc.pos, lineno
                    ) from None
                if p.terms and not p.is_homogeneous():
                    try:
                        p.weighted_degree()
                    except NotHomogeneousError as exc:
                        raise ParseError(
                            "inhomogeneous relation (degrees %d and %d)"
                            % (exc.witness_a[1], exc.witness_b[1]),
                            offset,
                            lineno,
                        ) from None
                if limit and any(abs(c) >= too_long for c in p.terms.values()):
                    raise ParseError(
                        "coefficient of more than %d digits" % limit, offset, lineno
                    )
                relations.append(p)
        offset += len(raw) + 1
    if ring is None:
        raise ParseError("ring header missing", 0, 1)
    return ring, relations


def format_ring_header(ring: RingSpec) -> str:
    return "ring: " + ", ".join(
        "%s:%d" % nv for nv in zip(ring.names, ring.weights)
    )


def format_ideal_file(ring: RingSpec, relations) -> str:
    """Serialize a ring and relation list in the ideal-file format.

    The output parses back to the same data, which is the round-trip
    contract the golden files rely on.
    """
    lines = [format_ring_header(ring)]
    lines.extend(p.canonical() for p in relations)
    return "\n".join(lines) + "\n"
