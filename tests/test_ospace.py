"""Ordered-space properties: separation, convexity, stability, webs,
semilattice continuity, and the sides of the equivalence theorems.

The production predicates shortcut through minimal neighborhoods; here they
are replayed against direct full-quantifier scans on small carriers.  The
predicate profiles, which no suite reads, live here as worked-example
oracles."""

from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from ordertop import ospace, topoderive as td
from ordertop.finstruct import (
    OrderedSpace,
    Qoset,
    Topology,
    ValidationError,
    bits,
    generate_topology,
    is_directed,
    subsets_of,
    transpose,
)
from ordertop.labcli import qosets, topologies

CHAIN2 = Qoset(2, (0b11, 0b10))
CHAIN3 = Qoset(3, (0b111, 0b110, 0b100))
ANTI3 = Qoset(3, (1, 2, 4))
DIAMOND4 = Qoset(4, (0b1111, 0b1010, 0b1100, 0b1000))

CHAIN2_DISCRETE = OrderedSpace(CHAIN2, Topology(2, (0, 1, 2, 3)))
CHAIN2_INDISCRETE = OrderedSpace(CHAIN2, Topology(2, (0, 3)))
CHAIN3_TOP = OrderedSpace(CHAIN3, Topology(3, (0, 0b100, 0b111)))
ANTI3_PAIR = OrderedSpace(ANTI3, Topology(3, (0, 0b011, 0b111)))

ALL_PAIRS_3 = [
    OrderedSpace(Qoset(3, rows), Topology(3, opens))
    for rows in qosets(3)
    for opens in topologies(3)
]
ALL_PAIRS_TO_3 = [
    OrderedSpace(Qoset(n, rows), Topology(n, opens))
    for n in range(1, 4)
    for rows in qosets(n)
    for opens in topologies(n)
]


def _tables(space):
    return ospace.Tables(space)


# ---------------------------------------------------------------- separation

@dataclass(frozen=True)
class SeparationProfile:
    lower_semi_qospace: bool
    upper_semi_qospace: bool
    semi_qospace: bool
    qospace: bool
    pospace: bool
    t1_ordered: bool
    t2_ordered: bool
    upper_regular: bool
    lower_regular: bool
    upper_t3_ordered: bool


def separation_profile(s):
    tb = _tables(s)
    antisym = tb.q.is_antisymmetric()
    semi = ospace.is_semi_qospace(tb)
    qos = ospace.is_qospace(tb)
    upreg = ospace.is_upper_regular(tb)
    return SeparationProfile(
        lower_semi_qospace=ospace.is_lower_semi_qospace(tb),
        upper_semi_qospace=ospace.is_upper_semi_qospace(tb),
        semi_qospace=semi,
        qospace=qos,
        pospace=qos and antisym,
        t1_ordered=semi and antisym,
        t2_ordered=ospace.is_t2_ordered(tb),
        upper_regular=upreg,
        lower_regular=ospace.is_lower_regular(tb),
        upper_t3_ordered=upreg and semi and antisym,
    )


def test_separation_profile_of_discrete_chain_is_all_true():
    prof = separation_profile(CHAIN2_DISCRETE)
    assert all(getattr(prof, f) for f in prof.__dataclass_fields__)


def test_separation_profile_of_indiscrete_chain():
    prof = separation_profile(CHAIN2_INDISCRETE)
    assert not prof.lower_semi_qospace
    assert not prof.upper_semi_qospace
    assert not prof.qospace
    assert prof.upper_regular and prof.lower_regular


def _qospace_oracle(s):
    q, t = s.qoset, s.topology
    for x in range(s.n):
        for y in range(s.n):
            if q.leq[x] >> y & 1:
                continue
            if not any(
                u >> x & 1 and v >> y & 1 and not (q.up(u) & q.down(v))
                for u in t.opens for v in t.opens
            ):
                return False
    return True


def _t2_ordered_oracle(s, tb):
    if not s.qoset.is_antisymmetric():
        return False
    q = s.qoset
    for x in range(s.n):
        for y in range(s.n):
            if q.leq[x] >> y & 1:
                continue
            if not any(
                u >> x & 1 and v >> y & 1 and not (u & v)
                for u in tb.upper_space.opens for v in tb.lower_opens
            ):
                return False
    return True


def _upper_regular_oracle(s, tb):
    closed_uppers = [
        s.topology.full ^ o for o in s.topology.opens
        if s.qoset.up(s.topology.full ^ o) == s.topology.full ^ o
    ]
    for o in tb.upper_space.opens:
        for x in bits(o):
            if not any(
                v >> x & 1 and v & ~a == 0 and a & ~o == 0
                for v in tb.upper_space.opens for a in closed_uppers
            ):
                return False
    return True


def test_separation_predicates_match_direct_scans():
    for s in ALL_PAIRS_3:
        tb = _tables(s)
        assert ospace.is_qospace(tb) == _qospace_oracle(s)
        assert ospace.is_t2_ordered(tb) == _t2_ordered_oracle(s, tb)
        assert ospace.is_upper_regular(tb) == _upper_regular_oracle(s, tb)


# ---------------------------------------------------------------- convexity

@dataclass(frozen=True)
class ConvexityProfile:
    locally_convex: bool
    strongly_convex: bool
    hyperconvex: bool
    sigma_convex: bool
    alpha_convex: bool


def zeta_convex(tb, zeta):
    """The topology is generated by the open upper sets together with the
    zeta topology of the dual of the upper-space specialization."""
    if zeta == "upsilon":
        return ospace.is_hyperconvex(tb)
    return ospace._cotopology_convex(tb, td.upset_topology(tb.q2.dual(), zeta))


def convexity_profile(s):
    tb = _tables(s)
    return ConvexityProfile(
        locally_convex=ospace.is_locally_convex(tb),
        strongly_convex=ospace.is_strongly_convex(tb),
        hyperconvex=ospace.is_hyperconvex(tb),
        sigma_convex=zeta_convex(tb, "sigma"),
        alpha_convex=zeta_convex(tb, "alpha"),
    )


def test_convexity_worked_examples():
    assert convexity_profile(CHAIN2_DISCRETE) == ConvexityProfile(
        True, True, True, True, True
    )
    # opens {top} only: strongly convex but the finitely-generated lower
    # cotopology is not contained in the topology
    prof = convexity_profile(CHAIN3_TOP)
    assert prof.strongly_convex and not prof.hyperconvex
    prof = convexity_profile(ANTI3_PAIR)
    assert prof.strongly_convex and not prof.hyperconvex


def _strongly_convex_oracle(s, tb):
    return generate_topology(
        s.n, list(tb.upper_space.opens) + list(tb.lower_opens)
    ) == s.topology


def _hyperconvex_oracle(s, tb):
    cotop = td.alexandroff(tb.q2.dual())
    if any(v not in set(s.topology.opens) for v in cotop.opens):
        return False
    return generate_topology(
        s.n, list(tb.upper_space.opens) + list(cotop.opens)
    ) == s.topology


def _hyperconvex_fan_base_oracle(tb):
    """The sets U minus an up-closed complement piece (U open upper, F
    finite) form a base of the topology."""
    q2 = tb.q2
    cols = q2.geq
    hx = [tb.Mup[x] & ~q2.up(tb.full ^ cols[x]) for x in range(tb.n)]
    sub_ok = all(
        tb.full ^ q2.up(1 << y) in tb.opens_set for y in range(tb.n)
    )
    return sub_ok and all(
        all(hx[x] & ~o == 0 for x in bits(o)) for o in tb.t.opens
    )


def test_convexity_predicates_match_generation_oracles():
    for s in ALL_PAIRS_3:
        tb = _tables(s)
        assert ospace.is_strongly_convex(tb) == _strongly_convex_oracle(s, tb)
        assert ospace.is_hyperconvex(tb) == _hyperconvex_oracle(s, tb)
        assert ospace.is_hyperconvex(tb) == _hyperconvex_fan_base_oracle(tb)


# ---------------------------------------------------------------- stability

@dataclass(frozen=True)
class StabilityProfile:
    up_stable: bool
    d_stable: bool
    core_stable: bool
    vee_stable: bool
    wedge_stable: bool
    diamond_stable: bool


def stability_profile(s):
    tb = _tables(s)
    return StabilityProfile(
        up_stable=ospace.is_up_stable(tb),
        d_stable=ospace.is_d_stable(tb),
        core_stable=ospace.is_core_stable(tb),
        vee_stable=ospace.is_vee_stable(tb),
        wedge_stable=ospace.is_wedge_stable(tb),
        diamond_stable=ospace.is_diamond_stable(tb),
    )


def test_stability_worked_examples():
    assert all(
        getattr(stability_profile(CHAIN3_TOP), f)
        for f in StabilityProfile.__dataclass_fields__
    )
    prof = stability_profile(ANTI3_PAIR)
    assert prof.up_stable and not prof.core_stable
    assert not prof.vee_stable and not prof.diamond_stable


def test_stability_families_on_diamond():
    # on 2x2 the principal-filter unions and intersections generate all
    # upper sets; the lattice generated by both coincides with the unions
    vee = ospace.vee_family(DIAMOND4)
    wedge = ospace.wedge_family(DIAMOND4)
    diamond = ospace.diamond_family(DIAMOND4)
    assert set(wedge) <= set(diamond)
    assert set(vee) <= set(diamond)
    assert all(DIAMOND4.up(m) == m for m in diamond)


# ---------------------------------------------------------------- webs

def _base_oracle(tb, pred):
    """Full quantifier scan: for every point and every open around it, some
    pred-subset of the open is a neighborhood of the point."""
    for x in range(tb.n):
        for o in tb.t.opens:
            if not o >> x & 1:
                continue
            if not any(
                tb.int_of[w] >> x & 1 and pred(w, x) for w in subsets_of(o)
            ):
                return False
    return True


def test_neighborhood_bases_match_full_scans():
    for s in ALL_PAIRS_3:
        tb = _tables(s)
        for pred in (
            lambda w, x, tb=tb: ospace._is_web_around(tb, w, x),
            lambda w, x, tb=tb: ospace._is_filtered_set(tb, w),
            lambda w, x, tb=tb: ospace._is_sector(tb, w),
            lambda w, x, tb=tb: ospace._is_fan(tb, w),
        ):
            assert ospace._neighborhood_base(tb, pred) == _base_oracle(tb, pred)


def test_space_neighborhood_bases_match_full_scans():
    # the predicates of the locally-supercompact profile, on spaces ordered
    # by their specialization
    for n in range(1, 5):
        for opens in topologies(n):
            s = Topology(n, opens)
            tb = ospace.space_tables(s)
            for pred in (
                lambda w, x: td.compactness(s, w, "supercompact"),
                lambda w, x: td.compactness(s, w, "hypercompact"),
                lambda w, x: td.compactness(s, w, "compact"),
                lambda w, x, tb=tb: ospace._is_filtered_set(tb, w),
            ):
                assert ospace._neighborhood_base(tb, pred) == _base_oracle(tb, pred)


@dataclass(frozen=True)
class WebProfile:
    web_ordered: bool
    locally_filtered: bool
    sector_space: bool
    upsilon_sector_space: bool
    fan_space: bool
    mc_ordered: bool
    upper_m_determined: bool


def _is_upsilon_sector(tb, w):
    return w != 0 and any(
        w == tb.q.leq[u] & v
        for u in range(tb.n)
        for v in tb.upsilon_dual.opens
    )


def is_upsilon_sector_space(tb):
    return (
        ospace.is_up_stable(tb)
        and ospace.is_semi_qospace(tb)
        and ospace._neighborhood_base(tb, lambda w, x: _is_upsilon_sector(tb, w))
    )


def web_profile(s):
    tb = _tables(s)
    return WebProfile(
        web_ordered=ospace.is_web_ordered(tb),
        locally_filtered=ospace.is_locally_filtered(tb),
        sector_space=ospace.is_sector_space(tb),
        upsilon_sector_space=is_upsilon_sector_space(tb),
        fan_space=ospace.is_fan_space(tb),
        mc_ordered=ospace.is_mc_ordered(tb),
        upper_m_determined=ospace.is_upper_m_determined(tb),
    )


def test_web_profile_worked_examples():
    prof = web_profile(CHAIN3_TOP)
    assert prof.web_ordered and prof.locally_filtered
    assert not prof.sector_space and not prof.fan_space
    assert prof.mc_ordered and prof.upper_m_determined
    prof = web_profile(ANTI3_PAIR)
    assert not prof.web_ordered and not prof.locally_filtered


def test_sector_implies_upsilon_sector_implies_fan():
    for s in ALL_PAIRS_3:
        tb = _tables(s)
        sec = ospace.is_sector_space(tb)
        usec = is_upsilon_sector_space(tb)
        fan = ospace.is_fan_space(tb)
        assert (not sec or usec) and (not usec or fan)


# ---------------------------------------------------------------- domains

def _way_below_scan(q):
    """x wb y iff every directed set with a least upper bound dominating y
    meets the filter of x, scanned over the directed subsets."""
    rows = [(1 << q.n) - 1] * q.n
    for d in td.directed_subsets(q):
        lubm = td.least_upper_bounds(q, d)
        if not lubm:
            continue
        dominated = q.down(lubm)
        for x in range(q.n):
            if not q.leq[x] & d:
                rows[x] &= ~dominated
    return tuple(rows)


def _domain_scan(q):
    """Antisymmetric, and every directed subset has a least upper bound."""
    return q.is_antisymmetric() and all(
        td.least_upper_bounds(q, d) for d in td.directed_subsets(q)
    )


def _continuous_domain_scan(q):
    """Domain in which each way-below set is directed with join the point."""
    cols = transpose(q.n, _way_below_scan(q))
    return _domain_scan(q) and all(
        is_directed(q.leq, d) and td.least_upper_bounds(q, d) >> y & 1
        for y, d in enumerate(cols)
    )


def _meet_continuous_domain_scan(q):
    """Domain whose Scott space is a web space."""
    return _domain_scan(q) and ospace.is_web_space(td.scott_topology(q))


ALL_QOSETS_TO_4 = [Qoset(n, rows) for n in range(1, 5) for rows in qosets(n)]


def test_way_below_matches_directed_scan():
    assert len(ALL_QOSETS_TO_4) == 389
    for q in ALL_QOSETS_TO_4:
        assert td.way_below_qoset(q) == _way_below_scan(q)


def is_domain(q):
    """Antisymmetric, and every directed subset has a least upper bound.  A
    finite directed set has a greatest element, which is its least upper
    bound, so a finite domain is a finite poset.  Every element of a finite
    poset is compact, so each is continuous and meet-continuous too."""
    return q.is_antisymmetric()


def test_domain_predicates():
    assert is_domain(CHAIN3)
    assert is_domain(DIAMOND4)
    assert not is_domain(Qoset(2, (0b11, 0b11)))  # not antisymmetric
    # in finite posets the way-below sets are the principal ideals, so
    # every finite domain is continuous and meet-continuous
    for q in ALL_QOSETS_TO_4:
        domain = is_domain(q)
        assert domain == _domain_scan(q)
        assert domain == _continuous_domain_scan(q)
        assert domain == _meet_continuous_domain_scan(q)


def test_t2_space():
    assert ospace.is_t2_space(Topology(2, (0, 1, 2, 3)))
    assert not ospace.is_t2_space(Topology(2, (0, 2, 3)))


# ---------------------------------------------------------------- semilattices

def test_meet_table_examples():
    meet = ospace.meet_table(CHAIN3)
    assert meet == ((0, 0, 0), (0, 1, 1), (0, 1, 2))
    assert ospace.meet_table(ANTI3) is None
    assert ospace.meet_table(Qoset(2, (0b11, 0b11))) is None
    dia = ospace.meet_table(DIAMOND4)
    assert dia[1][2] == 0 and dia[1][3] == 1


def _topological_oracle(s, meet):
    """Continuity of the meet map w.r.t. the genuine product topology,
    realised on a carrier of point pairs."""
    n = s.n
    subbase = [
        sum(1 << (a * n + b) for a in bits(u) for b in range(n))
        for u in s.topology.opens
    ] + [
        sum(1 << (a * n + b) for a in range(n) for b in bits(u))
        for u in s.topology.opens
    ]
    product = generate_topology(n * n, subbase)
    prod_opens = set(product.opens)
    for o in s.topology.opens:
        pre = sum(
            1 << (a * n + b)
            for a in range(n) for b in range(n)
            if o >> meet[a][b] & 1
        )
        if pre not in prod_opens:
            return False
    return True


def test_topological_matches_product_topology_oracle():
    for s in ALL_PAIRS_3:
        meet = ospace.meet_table(s.qoset)
        if meet is None:
            continue
        tb = _tables(s)
        assert ospace.is_topological(tb, meet) == _topological_oracle(s, meet)


@dataclass(frozen=True)
class SemilatticeProfile:
    compatible: bool
    semitopological: bool
    topological: bool
    small_semilattices: bool
    small_convex_semilattices: bool


def is_compatible(tb):
    """The topology lies between the weak and the Alexandroff topology of
    the order."""
    ups = td.weak_upper(tb.q)
    return (
        all(u in tb.opens_set for u in ups.opens)
        and all(tb.q.up(o) == o for o in tb.t.opens)
    )


def semilattice_profile(s):
    tb = _tables(s)
    meet = ospace.meet_table(tb.q)
    if meet is None:
        raise ValidationError("NotASemilattice", ())
    topo = ospace.is_topological(tb, meet)
    small = ospace._neighborhood_base(
        tb, lambda w, x: ospace._is_subsemilattice(tb, meet, w)
    )
    small_convex = ospace._neighborhood_base(
        tb,
        lambda w, x: ospace._is_subsemilattice(tb, meet, w)
        and tb.q.up(w) & tb.q.down(w) == w,
    )
    return SemilatticeProfile(
        compatible=is_compatible(tb),
        semitopological=ospace.is_semitopological(tb, meet),
        topological=topo,
        small_semilattices=topo and small,
        small_convex_semilattices=topo and small_convex,
    )


def test_semilattice_profile_of_lawson_diamond():
    law = OrderedSpace(DIAMOND4, td.lawson_topology(DIAMOND4))
    prof = semilattice_profile(law)
    # the order has open lower sets in its own topology, so it is not
    # between the weak upper and the Alexandroff topology of itself
    assert not prof.compatible
    assert prof.semitopological and prof.topological
    assert prof.small_semilattices and prof.small_convex_semilattices


def test_semilattice_profile_rejects_non_semilattice():
    with pytest.raises(ValidationError) as err:
        semilattice_profile(ANTI3_PAIR)
    assert err.value.code == "NotASemilattice"


# ---------------------------------------------------------------- theorem sides

def test_bundle_agreement_on_all_small_ordered_spaces():
    for s in ALL_PAIRS_3:
        tb = _tables(s)
        assert len(set(ospace.thm_4_6_sides(tb))) == 1
        assert len(set(ospace.thm_5_3_sides(tb))) == 1


def test_bundles_all_true_on_lawson_spaces_of_small_posets():
    for rows in qosets(4):
        q = Qoset(4, rows)
        if not q.is_antisymmetric():
            continue
        s = OrderedSpace(q, td.lawson_topology(q))
        assert all(ospace.thm_6_2_sides(_tables(s)))


def test_thm_7_2_and_prop_7_4_on_lawson_diamond():
    tb = _tables(OrderedSpace(DIAMOND4, td.lawson_topology(DIAMOND4)))
    assert all(ospace.thm_7_2_sides(tb, ospace.meet_table(DIAMOND4)))
    assert all(ospace.prop_7_4_sides(tb))
    assert ospace.meet_table(ANTI3) is None


# ---------------------------------------------------------------- M oracles
#
# The production predicates read everything off the minimal neighborhoods
# M[x]; the per-open scans they replaced are kept here as oracles.

def _min_scan(n, opens):
    out = []
    for x in range(n):
        m = (1 << n) - 1
        for u in opens:
            if u >> x & 1:
                m &= u
        out.append(m)
    return out


def _locally_convex_scan(tb):
    q = tb.q
    convex_opens = [c for c in tb.t.opens if q.up(c) & q.down(c) == c]
    return all(
        any(c >> x & 1 and c & ~o == 0 for c in convex_opens)
        for o in tb.t.opens for x in bits(o)
    )


def _strongly_convex_scan(tb):
    mup = _min_scan(tb.n, tb.upper_space.opens)
    mdown = _min_scan(tb.n, tb.lower_opens)
    return all(
        mup[x] & mdown[x] & ~o == 0 for o in tb.t.opens for x in bits(o)
    )


def _cotopology_convex_scan(tb, cotop):
    if any(v not in tb.opens_set for v in cotop.opens):
        return False
    mup = _min_scan(tb.n, tb.upper_space.opens)
    minv = _min_scan(tb.n, cotop.opens)
    return all(
        mup[x] & minv[x] & ~o == 0 for o in tb.t.opens for x in bits(o)
    )


def _regular_scan(tb, opens, closeds):
    """Every open o of the family around x contains the least closed set of
    the family around the least open of the family around x."""
    mins = _min_scan(tb.n, opens)
    hull = []
    for x in range(tb.n):
        m = tb.full
        for b in closeds:
            if mins[x] & ~b == 0:
                m &= b
        hull.append(m)
    return all(hull[x] & ~o == 0 for o in opens for x in bits(o))


def _weak_patch_scan(tb):
    mup = _min_scan(tb.n, tb.upper_space.opens)
    if tuple(tb.q.leq) != tuple(mup):
        return False
    patched = generate_topology(
        tb.n, list(tb.upper_space.opens) + list(tb.upsilon_dual.opens)
    )
    return patched == tb.t


def _mc_ordered_scan(tb):
    q = tb.q
    for d in tb.directed:
        if not any(
            all(
                not o >> lub & 1
                or any(q.leq[e] & d & ~o == 0 for e in bits(d))
                for o in tb.t.opens
            )
            for lub in bits(td.least_upper_bounds(q, d))
        ):
            return False
    return True


def _topological_scan(tb, meet):
    n = tb.n
    for o in tb.t.opens:
        for u in range(n):
            for v in range(n):
                if o >> meet[u][v] & 1:
                    img = 0
                    for a in bits(tb.M[u]):
                        for b in bits(tb.M[v]):
                            img |= 1 << meet[a][b]
                    if img & ~o:
                        return False
    return True


def _check_against_scans(s):
    tb = _tables(s)
    assert ospace.is_mc_ordered(tb) == _mc_ordered_scan(tb)
    meet = ospace.meet_table(tb.q)
    if meet is not None:
        assert ospace.is_topological(tb, meet) == _topological_scan(tb, meet)
    assert ospace.is_locally_convex(tb) == _locally_convex_scan(tb)
    assert ospace.is_strongly_convex(tb) == _strongly_convex_scan(tb)
    for zeta in ("upsilon", "sigma", "alpha"):
        cotop = td.upset_topology(tb.q2.dual(), zeta)
        assert zeta_convex(tb, zeta) == _cotopology_convex_scan(tb, cotop)
    closeds = [tb.full ^ o for o in tb.t.opens]
    assert ospace.is_upper_regular(tb) == _regular_scan(
        tb, tb.upper_space.opens, [c for c in closeds if tb.q.up(c) == c]
    )
    assert ospace.is_lower_regular(tb) == _regular_scan(
        tb, tb.lower_opens, [c for c in closeds if tb.q.down(c) == c]
    )
    assert ospace._is_weak_patch_of(tb, lambda _tb: True) == _weak_patch_scan(tb)
    for pred in (
        lambda w, x, tb=tb: ospace._is_web_around(tb, w, x),
        lambda w, x, tb=tb: ospace._is_sector(tb, w),
        lambda w, x, tb=tb: ospace._is_fan(tb, w),
    ):
        assert ospace._neighborhood_base(tb, pred) == _base_oracle(tb, pred)


def test_minimal_neighborhood_predicates_match_scans_on_every_small_space():
    for s in ALL_PAIRS_TO_3:
        _check_against_scans(s)


@st.composite
def random_ordered_space(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    full = (1 << n) - 1
    rows = [
        draw(st.integers(min_value=0, max_value=full)) | 1 << x for x in range(n)
    ]
    changed = True
    while changed:  # transitive closure
        changed = False
        for x in range(n):
            grown = rows[x]
            for y in bits(rows[x]):
                grown |= rows[y]
            if grown != rows[x]:
                rows[x], changed = grown, True
    subbase = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=8))
    return OrderedSpace(Qoset(n, tuple(rows)), generate_topology(n, subbase))


@given(random_ordered_space())
def test_minimal_neighborhood_predicates_match_scans(s):
    _check_against_scans(s)


def test_interior_table_matches_open_scan():
    for n in range(1, 5):
        for opens in topologies(n):
            t = Topology(n, opens)
            table = ospace.interior_table_of(t)
            for m in range(t.full + 1):
                want = 0
                for u in opens:
                    if u & ~m == 0:
                        want |= u
                assert table[m] == want
