"""Derived topologies, compactness, sobriety, and quasi-uniformities,
cross-checked against brute-force oracles."""

import pytest
from hypothesis import given, strategies as st

from ordertop import topoderive as td
from ordertop.finstruct import (
    OrderedSpace,
    Qoset,
    Topology,
    ValidationError,
    bits,
    generate_topology,
    is_directed,
    mask_of,
)
from ordertop.labcli import qosets, topologies

SIER = Topology(2, (0, 2, 3))
CHAIN2 = Qoset(2, (0b11, 0b10))
CHAIN3 = Qoset(3, (0b111, 0b110, 0b100))
ANTI3 = Qoset(3, (1, 2, 4))

ALL_QOSETS_3 = [Qoset(3, rows) for rows in qosets(3)]
ALL_TOPS_3 = [Topology(3, opens) for opens in topologies(3)]


# ---------------------------------------------------------------- order side

def test_specialization_of_sierpinski():
    assert td.specialization(SIER).leq == (0b11, 0b10)


def test_specialization_oracle_every_open_containing_x():
    for s in ALL_TOPS_3:
        q = td.specialization(s)
        for x in range(3):
            for y in range(3):
                expected = all(u >> y & 1 for u in s.opens if u >> x & 1)
                assert bool(q.leq[x] >> y & 1) == expected


def test_directed_and_filtered_subsets_on_antichain():
    assert td.directed_subsets(ANTI3) == [1, 2, 4]
    assert td.filtered_subsets(ANTI3) == [1, 2, 4]


def test_directed_and_filtered_subsets_match_subset_scan():
    for n in range(1, 5):
        for q in (Qoset(n, rows) for rows in qosets(n)):
            subsets = range(1, 1 << n)
            assert td.directed_subsets(q) == [d for d in subsets if is_directed(q.leq, d)]
            assert td.filtered_subsets(q) == [d for d in subsets if is_directed(q.geq, d)]


def test_least_upper_bounds():
    assert td.least_upper_bounds(CHAIN3, 0b011) == 0b010
    assert td.least_upper_bounds(ANTI3, 0b011) == 0
    # in a two-element cycle both points are least upper bounds
    cyc = Qoset(2, (0b11, 0b11))
    assert td.least_upper_bounds(cyc, 0b01) == 0b11


# ---------------------------------------------------------------- topologies

def test_alexandroff_and_weak_on_chain():
    assert td.alexandroff(CHAIN3).opens == (0, 0b100, 0b110, 0b111)
    assert td.weak_upper(CHAIN3).opens == (0, 0b100, 0b110, 0b111)


def _scott_scan(q):
    """Scott topology from its definition: the upper sets meeting every
    directed set with a least upper bound inside them."""
    lubs = [(d, td.least_upper_bounds(q, d)) for d in td.directed_subsets(q)]
    return Topology(q.n, tuple(
        u for u in q.upper_sets() if all(d & u for d, lub in lubs if lub & u)
    ))


def test_scott_equals_alexandroff_on_finite_qosets():
    for n in range(1, 5):
        for q in (Qoset(n, rows) for rows in qosets(n)):
            assert td.scott_topology(q) == _scott_scan(q) == td.alexandroff(q)
    for q in ALL_QOSETS_3:
        assert td.weak_upper(q) == td.alexandroff(q)


def test_lawson_of_chain_is_discrete():
    assert len(td.lawson_topology(CHAIN2).opens) == 4
    assert len(td.lawson_topology(CHAIN3).opens) == 8


def test_upset_topology_dispatch():
    for which, derive in (
        ("alpha", td.alexandroff),
        ("upsilon", td.weak_upper),
        ("sigma", td.scott_topology),
        ("lawson", td.lawson_topology),
    ):
        assert td.upset_topology(CHAIN3, which) == derive(CHAIN3)
    for which in ("zeta", "alpha-dual", "upsilon-dual"):
        with pytest.raises(ValidationError) as err:
            td.upset_topology(CHAIN3, which)
        assert err.value.code == "UnknownSelection"


# ---------------------------------------------------------------- operators

def test_interior_closure_saturation():
    assert td.interior(SIER, 0b10) == 0b10
    assert td.interior(SIER, 0b01) == 0
    assert td.closure(SIER, 0b10) == 0b11
    assert td.closure(SIER, 0b01) == 0b01
    assert td.saturation(SIER, 0b01) == 0b11


@given(st.integers(min_value=0, max_value=7))
def test_closure_is_complement_of_interior_of_complement(mask):
    for s in ALL_TOPS_3[:10]:
        assert td.closure(s, mask) == s.full ^ td.interior(s, s.full ^ mask)


# ---------------------------------------------------------------- patches

def test_patch_of_sierpinski_is_discrete():
    p = td.patch(SIER, "upsilon")
    assert len(p.topology.opens) == 4
    assert p.qoset.leq == (0b11, 0b10)


def test_upper_space_recovers_patched_topology():
    for s in ALL_TOPS_3:
        for zeta in td.COSELECTIONS:
            assert td.upper_space(td.patch(s, zeta)) == s


def test_lower_space_of_discrete_chain():
    t = OrderedSpace(CHAIN2, Topology(2, (0, 1, 2, 3)))
    assert td.lower_space(t).opens == (0, 0b01, 0b11)


# ---------------------------------------------------------------- compactness

def _supercompact_oracle(t, c):
    """Every open cover of c has a single member containing c, checked over
    all subfamilies."""
    if c == 0:
        return False  # covered by the empty family, which has no member
    opens = t.opens
    for sel in range(1 << len(opens)):
        union = 0
        for i in bits(sel):
            union |= opens[i]
        if c & ~union == 0:
            if not any(c & ~opens[i] == 0 for i in bits(sel)):
                return False
    return True


def _hypercompact_oracle(t, c):
    """The saturation is an up-closure of a finite set, checked over all
    candidate finite sets."""
    sat = td.saturation(t, c)
    q = td.specialization(t)
    return any(q.up(f) == sat for f in range(t.full + 1))


def test_compactness_against_oracles():
    for s in ALL_TOPS_3:
        for c in range(s.full + 1):
            assert td.compactness(s, c, "compact")
            assert td.compactness(s, c, "supercompact") == _supercompact_oracle(s, c)
            assert td.compactness(s, c, "hypercompact") == _hypercompact_oracle(s, c)


def test_compactness_unknown_kind():
    with pytest.raises(ValidationError):
        td.compactness(SIER, 1, "megacompact")


# ---------------------------------------------------------------- sobriety

def test_sober_examples():
    assert td.is_sober(SIER)
    assert not td.is_sober(Topology(2, (0, 3)))  # not T0
    # two incomparable points with only trivial opens plus each singleton:
    # discrete is sober
    assert td.is_sober(Topology(2, (0, 1, 2, 3)))


def test_finite_t0_spaces_are_sober_and_dspaces():
    for s in ALL_TOPS_3:
        if s.is_t0():
            assert td.is_sober(s)
            assert td.is_dspace(s)


def _point_closures(t):
    return {td.closure(t, 1 << x) for x in range(t.n)}


def _sober_scan(t):
    """T0, and every irreducible closed set (nonempty, and inside one of
    any two closed sets that cover it) is a point closure."""
    closeds = t.closeds()
    pts = _point_closures(t)
    return t.is_t0() and all(
        a in pts
        for a in closeds
        if a and all(
            a & ~(b | c) or a & ~b == 0 or a & ~c == 0
            for b in closeds for c in closeds
        )
    )


def _dspace_scan(t):
    """T0, and the closure of every directed set is a point closure."""
    pts = _point_closures(t)
    q = td.specialization(t)
    return t.is_t0() and all(
        td.closure(t, d) in pts for d in td.directed_subsets(q)
    )


def test_sober_and_dspace_match_closed_set_scans():
    tops = [Topology(n, opens) for n in range(1, 5) for opens in topologies(n)]
    assert len(tops) == 389
    for s in tops:
        assert td.is_sober(s) == _sober_scan(s)
        assert td.is_dspace(s) == _dspace_scan(s)


def test_cocompact_of_sierpinski():
    assert td.cocompact(SIER).opens == (0, 1, 3)


def test_cocompact_is_weak_lower_topology():
    for s in ALL_TOPS_3:
        q = td.specialization(s)
        assert td.cocompact(s) == td.weak_upper(q.dual())


# ---------------------------------------------------------------- entourages

def test_quasi_uniformity_of_sierpinski_matches_hand_computation():
    e = td.quasi_uniformity(SIER)
    assert [r.rel for r in e.base] == [(3, 2), (3, 3)]


def test_entourage_base_validation():
    from ordertop.finstruct import BinaryRelation
    with pytest.raises(ValidationError) as err:
        td.EntourageBase(2, ())
    assert err.value.code == "EmptyBase"
    with pytest.raises(ValidationError) as err:
        td.EntourageBase(2, (BinaryRelation(2, (2, 2)),))
    assert err.value.code == "NotReflexive"


def test_induced_topologies_of_sierpinski_uniformity():
    e = td.quasi_uniformity(SIER)
    assert td.tau(e) == SIER
    assert td.tau_inverse(e).opens == (0, 1, 3)
    assert len(td.tau_star(e).opens) == 4


def test_quasi_uniformity_recovers_topology_everywhere():
    for s in ALL_TOPS_3:
        assert td.tau(td.quasi_uniformity(s)) == s


# ---------------------------------------------------------------- M oracles

def _interior_scan(t, mask):
    m = 0
    for u in t.opens:
        if u & ~mask == 0:
            m |= u
    return m


def _saturation_scan(t, mask):
    m = t.full
    for u in t.opens:
        if mask & ~u == 0:
            m &= u
    return m


def test_interior_and_saturation_match_open_scans():
    for n in range(1, 5):
        for opens in topologies(n):
            t = Topology(n, opens)
            for m in range(t.full + 1):
                assert td.interior(t, m) == _interior_scan(t, m)
                assert td.saturation(t, m) == _saturation_scan(t, m)


def test_alexandroff_is_the_family_of_upper_sets():
    for n in range(1, 5):
        for rows in qosets(n):
            q = Qoset(n, rows)
            assert list(td.alexandroff(q).opens) == q.upper_sets()
