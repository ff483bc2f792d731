"""Sparse multivariate polynomials over Z with a weighted grading.

Every ring is an ordered registry of variables with positive integer
weights.  The registry order is fixed at construction and induces the
canonical monomial order used everywhere for serialization: graded
lexicographic by total weighted degree, ties broken lexicographically
by registry position (earlier variables take precedence), largest
monomial first.

Coefficients are plain Python ints, so no arithmetic ever overflows.
All values are immutable after construction and safe to share between
threads or worker processes.
"""

from __future__ import annotations

import operator
import re
from operator import add, mul
from typing import Iterable, Mapping, Sequence

__all__ = [
    "RingSpec",
    "Polynomial",
    "NotHomogeneousError",
    "ring_make",
]

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# Canonical registry order for the rings this package constructs: t and u
# first, then the Chern classes, then the hyperplane classes by ascending
# subscript, then the torus characters and tau.  Names outside the
# convention sort after everything else, alphabetically.
_XI_RE = re.compile(r"xi([0-9]*)([a-z_0-9]*)\Z")


def registry_sort_key(name: str) -> tuple:
    if name == "t":
        return (0,)
    if name == "u":
        return (1,)
    if name in ("c1", "c2", "c3"):
        return (2, int(name[1]))
    m = _XI_RE.match(name)
    if m and name != "xi":
        num = int(m.group(1)) if m.group(1) else 0
        return (3, num, m.group(2))
    if name in ("t1", "t2"):
        return (4, int(name[1]))
    if name == "tau":
        return (5,)
    return (6, name)


class NotHomogeneousError(ValueError):
    """A polynomial expected to be homogeneous has terms of two degrees.

    Carries two witness terms as (exponent_tuple, degree) pairs.
    """

    def __init__(self, ring: "RingSpec", witness_a, witness_b):
        self.witness_a = witness_a
        self.witness_b = witness_b
        mono_a = _monomial_string(ring, witness_a[0]) or "1"
        mono_b = _monomial_string(ring, witness_b[0]) or "1"
        super().__init__(
            "not homogeneous: term %s has degree %d, term %s has degree %d"
            % (mono_a, witness_a[1], mono_b, witness_b[1])
        )


class RingSpec:
    """Ordered registry of (name, weight) pairs defining a graded ring."""

    __slots__ = ("names", "weights", "_index", "_hash")

    def __init__(self, vars: Iterable[tuple[str, int]]):
        names = []
        weights = []
        for name, weight in vars:
            if not isinstance(name, str) or not _IDENT_RE.match(name):
                raise ValueError("invalid identifier: %r" % (name,))
            if not isinstance(weight, int) or weight < 1:
                raise ValueError("non-positive weight for %s: %r" % (name, weight))
            if name in names:
                raise ValueError("duplicate name: %s" % name)
            names.append(name)
            weights.append(weight)
        self.names: tuple[str, ...] = tuple(names)
        self.weights: tuple[int, ...] = tuple(weights)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._hash = hash((self.names, self.weights))

    def __len__(self) -> int:
        return len(self.names)

    # shared rings compare by identity; the default __ne__ would call __eq__
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, RingSpec):
            return NotImplemented
        return self.names == other.names and self.weights == other.weights

    def __ne__(self, other) -> bool:
        if self is other:
            return False
        if not isinstance(other, RingSpec):
            return NotImplemented
        return self.names != other.names or self.weights != other.weights

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "RingSpec(%s)" % ", ".join(
            "%s:%d" % nv for nv in zip(self.names, self.weights)
        )

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("variable %r not in ring %r" % (name, self)) from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def weight_of(self, name: str) -> int:
        return self.weights[self.index(name)]

    def exponent_degree(self, exps: tuple[int, ...]) -> int:
        return sum(map(mul, exps, self.weights))

    def with_var(self, name: str, weight: int) -> "RingSpec":
        """Ring extended by a fresh variable, inserted at its canonical
        registry position."""
        if name in self._index:
            raise ValueError("name collision: %s" % name)
        vars = list(zip(self.names, self.weights))
        key = registry_sort_key(name)
        pos = len(vars)
        for i, (n, _) in enumerate(vars):
            if registry_sort_key(n) > key:
                pos = i
                break
        vars.insert(pos, (name, weight))
        return RingSpec(vars)

    def without(self, name: str) -> "RingSpec":
        i = self.index(name)
        vars = [nv for j, nv in enumerate(zip(self.names, self.weights)) if j != i]
        return RingSpec(vars)


def ring_make(vars: Iterable[tuple[str, int]]) -> RingSpec:
    return RingSpec(vars)


def _term_sort_key(ring: RingSpec, exps: tuple[int, ...]):
    return (ring.exponent_degree(exps), exps)


def _monomial_string(ring: RingSpec, exps: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(ring.names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def _add_product(acc: dict, a: Mapping, b: Mapping) -> None:
    """Add the product of the term maps a and b into acc, which may be
    left holding zero coefficients."""
    get = acc.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2


def _nonzero(acc: dict) -> dict:
    return {e: c for e, c in acc.items() if c}


def _product(a: Mapping, b: Mapping) -> dict:
    acc: dict = {}
    _add_product(acc, a, b)
    return _nonzero(acc)


class Polynomial:
    """Immutable sparse polynomial over a RingSpec.

    Terms map exponent tuples (one entry per registry variable) to
    nonzero integer coefficients.  Two polynomials are equal iff they
    have equal rings and identical term maps.

    The constructor validates its input: every coefficient must be an
    integer (a bool becomes an int, anything else raises TypeError) and
    every exponent vector must fit the ring.  Variables and results of
    arithmetic are built by `_trusted` and are not checked again.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple[int, ...], int]):
        nvars = len(ring)
        clean = {}
        for exps, coeff in terms.items():
            coeff = operator.index(coeff)
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector %r for %r" % (exps, ring))
            clean[exps] = coeff
        self.ring = ring
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, ring: RingSpec, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        """A polynomial that takes ownership of `terms` without checking it.

        Only for a term map just built by arithmetic on validated
        polynomials of `ring`: fresh, free of zero coefficients, with
        exponent tuples of the ring's length.  Never for a dict that
        anything else holds or may change.
        """
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        p._hash = None
        return p

    @staticmethod
    def zero(ring: RingSpec) -> "Polynomial":
        return Polynomial._trusted(ring, {})

    @staticmethod
    def const(ring: RingSpec, c: int) -> "Polynomial":
        c = operator.index(c)
        return Polynomial._trusted(ring, {(0,) * len(ring): c} if c else {})

    @staticmethod
    def sum_of_products(
        ring: RingSpec, pairs: Iterable[tuple["Polynomial", "Polynomial"]]
    ) -> "Polynomial":
        """The sum of p*q over the pairs (p, q), accumulated in one term
        map.  Every factor must live in `ring`."""
        acc: dict[tuple[int, ...], int] = {}
        for p, q in pairs:
            for f in (p, q):
                if f.ring is not ring and f.ring != ring:
                    raise ValueError("ring mismatch: %r vs %r" % (f.ring, ring))
            if p.terms and q.terms:
                _add_product(acc, p.terms, q.terms)
        return Polynomial._trusted(ring, _nonzero(acc))

    @staticmethod
    def var(ring: RingSpec, name: str) -> "Polynomial":
        exps = [0] * len(ring)
        exps[ring.index(name)] = 1
        return Polynomial._trusted(ring, {tuple(exps): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exps), 0)

    def support_names(self) -> set[str]:
        names = set()
        for exps in self.terms:
            for name, e in zip(self.ring.names, exps):
                if e:
                    names.add(name)
        return names

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        key = lambda item: _term_sort_key(self.ring, item[0])
        return sorted(self.terms.items(), key=key, reverse=True)

    def is_homogeneous(self) -> bool:
        degs = {self.ring.exponent_degree(e) for e in self.terms}
        return len(degs) <= 1

    def weighted_degree(self) -> int:
        """Common weighted degree of all terms.

        Raises ValueError on the zero polynomial (callers treat 0 as
        homogeneous of every degree) and NotHomogeneousError, with two
        witness terms, on mixed degrees.
        """
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        degrees = set(map(self.ring.exponent_degree, self.terms))
        if len(degrees) == 1:
            return degrees.pop()
        # mixed degrees: the witnesses are the largest term and the first
        # term of another degree, in canonical order
        it = iter(self.sorted_terms())
        exps0, _ = next(it)
        d0 = self.ring.exponent_degree(exps0)
        for exps, _ in it:
            d = self.ring.exponent_degree(exps)
            if d != d0:
                raise NotHomogeneousError(self.ring, (exps0, d0), (exps, d))
        return d0

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("ring mismatch: %r vs %r" % (self.ring, other.ring))
            return other
        if isinstance(other, int):
            return Polynomial.const(self.ring, other)
        return NotImplemented

    def _add(self, other, sign: int) -> "Polynomial":
        """self + sign*other, for sign 1 or -1, in one pass."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        get = terms.get
        for exps, coeff in other.terms.items():
            c = get(exps, 0) + sign * coeff
            if c:
                terms[exps] = c
            else:
                del terms[exps]
        return Polynomial._trusted(self.ring, terms)

    def __add__(self, other) -> "Polynomial":
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self._add(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        # an integer scales the coefficients and cannot cancel a term
        if isinstance(other, int):
            k = operator.index(other)
            terms = {e: c * k for e, c in self.terms.items()} if k else {}
            return Polynomial._trusted(self.ring, terms)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._trusted(self.ring, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.const(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- serialization ---------------------------------------------------

    def canonical(self) -> str:
        """Canonical string: terms largest-first, signed decimal coefficients,
        `name^k` factors joined by `*`, `^1` and unit coefficients elided."""
        if not self.terms:
            return "0"
        pieces = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            mono = _monomial_string(self.ring, exps)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%d*%s" % (mag, mono)
            if i == 0:
                pieces.append("-" + body if coeff < 0 else body)
            else:
                pieces.append((" - " if coeff < 0 else " + ") + body)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.canonical()

    def __repr__(self) -> str:
        return "Polynomial(%s)" % self.canonical()

    def substitute(
        self,
        images: Mapping[str, "Polynomial"],
        target: RingSpec | None = None,
    ) -> "Polynomial":
        """Apply a graded ring homomorphism given by variable images.

        The map is checked on every call, before anything is expanded:
        each image must name a variable of this polynomial's ring, live
        in the target ring and be homogeneous of its variable's weight
        (the zero polynomial counts as homogeneous of every degree), and
        every variable occurring in the polynomial needs an image.  The
        result is homogeneous of the same degree whenever the input is.
        """
        if target is None:
            for img in images.values():
                target = img.ring
                break
            else:
                target = self.ring
        _check_map(self.ring, images, target, self.support_names())
        return _expander(images, target)(self)


def _check_map(
    source: RingSpec,
    images: Mapping[str, Polynomial],
    target: RingSpec,
    needed: Iterable[str],
) -> None:
    """Raise ValueError unless `images` is a graded map from `source` into
    `target` that gives each name in `needed` an image."""
    for name, img in images.items():
        if name not in source:
            raise ValueError(
                "image given for %s, which is not a variable of the source ring" % name
            )
        if img.ring != target:
            raise ValueError("image of %s lives in the wrong ring" % name)
        if img.terms:
            d = img.weighted_degree()
            if d != source.weight_of(name):
                raise ValueError(
                    "image of %s has degree %d, expected %d"
                    % (name, d, source.weight_of(name))
                )
    missing = set(needed).difference(images)
    if missing:
        raise ValueError("missing image for: %s" % ", ".join(sorted(missing)))


def _expander(images: Mapping[str, Polynomial], target: RingSpec):
    """The expansion of a checked map: a function sending a polynomial of
    the source ring to its image.  The powers of the images it builds are
    kept for every polynomial it is applied to."""
    # a single-term image c*m sends x^e to c^e * m^e, by exponent
    # arithmetic; the other images are expanded through their powers,
    # built as needed, and each term of the result is accumulated into
    # one dict
    single: dict[str, tuple[list[tuple[int, int]], int]] = {}
    for name, img in images.items():
        if len(img.terms) == 1:
            ((m, c),) = img.terms.items()
            single[name] = ([(j, k) for j, k in enumerate(m) if k], c)
    unit = (0,) * len(target)
    powers: dict[str, list[dict]] = {}

    def image_power(name: str, k: int) -> dict:
        cache = powers.setdefault(name, [{unit: 1}])
        while len(cache) <= k:
            cache.append(_product(cache[-1], images[name].terms))
        return cache[k]

    def expand(p: Polynomial) -> Polynomial:
        acc: dict[tuple[int, ...], int] = {}
        names = p.ring.names
        for exps, coeff in p.terms.items():
            mono = list(unit)
            factors = []
            for name, e in zip(names, exps):
                if not e:
                    continue
                s = single.get(name)
                if s is None:
                    factors.append(image_power(name, e))
                    continue
                m, c = s
                for j, k in m:
                    mono[j] += e * k
                if c != 1:
                    coeff *= c ** e
            if not factors:
                mono = tuple(mono)
                acc[mono] = acc.get(mono, 0) + coeff
                continue
            term = {tuple(mono): coeff}
            for f in factors[:-1]:
                term = _product(term, f)
            _add_product(acc, term, factors[-1])
        return Polynomial._trusted(target, _nonzero(acc))

    return expand


def _substitute_all(
    polys: Sequence[Polynomial],
    images: Mapping[str, Polynomial],
    target: RingSpec,
) -> list[Polynomial]:
    """`[p.substitute(images, target) for p in polys]` for polynomials of
    one ring, with the map checked once instead of once per polynomial.
    The check is against every variable of that ring, so it also refuses
    a map that leaves a variable no polynomial uses without an image."""
    if not polys:
        return []
    source = polys[0].ring
    for p in polys:
        if p.ring != source:
            raise ValueError("ring mismatch: %r vs %r" % (p.ring, source))
    _check_map(source, images, target, source.names)
    return list(map(_expander(images, target), polys))
