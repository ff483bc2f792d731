"""Frozen membership certificates on both routes of `grideal.contains`.

`tests/data/certificates.txt` holds one `str(Certificate)` per line, in
the order of `certificate_lines()`.  A change to the lattice builder, the
elimination kernel or the cofactor reassembly that alters any cofactor
shows here, even where the verdicts stay the same.  Regenerate the file
only for a change that is meant to alter certificates:

    PYTHONPATH=src python tests/test_certificates.py > tests/data/certificates.txt
"""

from pathlib import Path

from chowforge import grideal
from chowforge.catalog import (
    derive_thm_1_3,
    derive_thm_1_9,
    lemma_3_4_check,
    remark_37_reduction,
    thm_1_3_presentation,
    thm_1_9_presentation,
    valid_rh_even_pairs,
    valid_wrh_odd_pairs,
)
from chowforge.grideal import Presentation, contains
from chowforge.intpoly import Polynomial
from test_intpoly import _assert_well_formed

GOLDEN = Path(__file__).parent / "data" / "certificates.txt"

LEMMA34 = range(1, 9)
REMARK37 = [(a, b) for a in range(1, 5) for b in range(1, 5)]
THM19 = valid_wrh_odd_pairs(15)
THM13 = valid_rh_even_pairs(10)


def _derived_memberships(direct, derive, pairs):
    """Each relation of the derived presentation in the direct one."""
    return [
        contains(direct(g, n), r)
        for g, n in pairs
        for r in derive(g, n).presentation.relations
    ]


def _presentation(cert):
    """The presentation a certificate was verified against."""
    return Presentation(cert.member.ring, cert.relations)


def certificate_groups():
    """(group name, certificates) in file order."""
    yield "lemma34", [cert for j in LEMMA34 for _, cert in lemma_3_4_check(j, j).certificates]
    yield "remark37", [remark_37_reduction(a, b) for a, b in REMARK37]
    yield "thm1.9", _derived_memberships(thm_1_9_presentation, derive_thm_1_9, THM19)
    yield "thm1.3", _derived_memberships(thm_1_3_presentation, derive_thm_1_3, THM13)


def certificate_lines():
    return [str(cert) for _, certs in certificate_groups() for cert in certs]


# the route each group takes: over the base ring of a monic relation, or
# on the full Macaulay matrix (the trivial bundle, which has no g)
ROUTES = {"lemma34": "bundle", "remark37": "bundle", "thm1.9": "macaulay", "thm1.3": "bundle"}


def test_route_of_each_group():
    for group, certs in certificate_groups():
        assert certs and all(cert is not None for cert in certs), group
        routes = {
            "macaulay" if grideal._bundle(_presentation(cert)).gi is None else "bundle"
            for cert in certs
        }
        assert routes == {ROUTES[group]}, group


def test_cofactors_are_well_formed():
    # contains builds the cofactors without re-validation
    for _, certs in certificate_groups():
        for cert in certs:
            for h in cert.cofactors:
                _assert_well_formed(h, cert.member.ring)


def test_unit_members_have_unit_certificates():
    # a derived relation that is +-1 times a direct one is answered by
    # that relation alone, with no piece
    units = 0
    for group, certs in certificate_groups():
        if group not in ("thm1.3", "thm1.9"):
            continue
        for cert in certs:
            P, f = _presentation(cert), cert.member
            if not any(f == g or f == -g for g in P.relations):
                continue
            units += 1
            [(h, g)] = cert.nonzero_parts()
            assert h == Polynomial.const(P.ring, 1 if f == g else -1)
    # 132 of the 210 derived relations: 55 were answered this way by the
    # piece route too, 77 got a longer certificate there
    assert units == 132


def test_certificates_are_frozen():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    lines = certificate_lines()
    assert len(lines) == len(golden)
    for i, (got, want) in enumerate(zip(lines, golden)):
        assert got == want, "certificate %d differs" % i


if __name__ == "__main__":
    print("\n".join(certificate_lines()))
