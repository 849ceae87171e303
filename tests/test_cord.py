"""Idempotent relations, interior relations, rounded ideal completions, the
nine-way locally-supercompact profile, core bases and cardinal invariants.

The core-base test and web spaces are replayed against their full-scan and
open-lattice definitions, and each invariant witness against the subset
scan it replaces."""

from itertools import combinations

import pytest

from ordertop import cord, latid, ospace
from ordertop import topoderive as td
from ordertop.finstruct import (
    OrderedSpace,
    Qoset,
    Topology,
    ValidationError,
    bits,
    mask_of,
)
from ordertop.labcli import posets, topologies

SIER = Topology(2, (0, 2, 3))
ALL_TOPS_3 = [Topology(3, opens) for opens in topologies(3)]
ALL_TOPS_TO_4 = [Topology(n, opens) for n in range(1, 5) for opens in topologies(n)]


# ---------------------------------------------------------------- validation

def test_validator_accepts_sierpinski_relation():
    c = cord.validate_cquasiorder(2, (3, 2))
    assert c.lower_qoset().leq == (3, 2)


def test_validator_reports_empty_preimage_before_idempotency():
    # the relation {(0,1)} is neither idempotent nor does 0 have a
    # nonempty preimage; the preimage check wins
    with pytest.raises(ValidationError) as err:
        cord.validate_cquasiorder(2, (0b10, 0))
    assert err.value.code == "EmptyPointPreimage"
    assert err.value.witness == (0,)


def test_validator_rejects_non_idempotent():
    # 0 R 1 and 1 R 2 but not 0 R 2, with reflexivity elsewhere
    with pytest.raises(ValidationError) as err:
        cord.validate_cquasiorder(3, (0b011, 0b110, 0b100))
    assert err.value.code == "NotIdempotent"


def test_validator_rejects_non_ideal_preimages():
    # preimage of 2 is {0,1} with no common bound inside it
    with pytest.raises(ValidationError) as err:
        cord.validate_cquasiorder(3, (0b101, 0b110, 0))
    assert err.value.code in ("EmptyPointPreimage", "NotDownClosed", "NotDirected")


def test_finite_cquasiorders_are_qosets():
    # on a finite carrier, idempotent + reflexive-by-ideals forces a qoset
    for s in ALL_TOPS_3:
        rel = cord.interior_relation(s)
        c = cord.validate_cquasiorder(3, rel.rel)
        assert c.rel == td.specialization(s).leq


# ---------------------------------------------------------------- topology of

def test_topology_of_roundtrip_on_all_small_spaces():
    for s in ALL_TOPS_3:
        rel = cord.interior_relation(s)
        c = cord.CQuasiOrder(s.n, rel.rel)
        assert cord.topology_of(c) == s


def test_rounded_sets_of_sierpinski():
    c = cord.validate_cquasiorder(2, (3, 2))
    # rounded sets sit below themselves pointwise; for the two-point
    # relation these are the lower sets of the induced order
    assert cord.rounded_sets(c) == [0, 0b01, 0b11]


# ---------------------------------------------------------------- completion

def test_completion_of_sierpinski_relation():
    c = cord.validate_cquasiorder(2, (3, 2))
    comp = cord.rounded_ideal_completion(c)
    assert comp.domain.leq == (0b11, 0b10)
    assert comp.basis.value == (0, 1)


def test_completion_verifies_relation_as_way_below():
    for s in ALL_TOPS_3:
        c = cord.CQuasiOrder(3, cord.interior_relation(s).rel)
        comp = cord.rounded_ideal_completion(c)
        wb = td.way_below_qoset(comp.domain)
        for x in range(3):
            for y in range(3):
                assert bool(c.rel[x] >> y & 1) == bool(
                    wb[comp.basis(x)] >> comp.basis(y) & 1
                )


# ---------------------------------------------------------------- profiles

def test_profile_all_true_and_agreeing_on_examples():
    for s in (SIER, Topology(2, (0, 3)), Topology(3, tuple(range(8)))):
        prof = cord.core_space_profile(s)
        assert prof.agreement and all(prof.flags)


def _interior_union_oracle(s, q):
    """Direct scan: the interior of the up-closure of every subset is the
    union of the interiors of the cores of its points."""
    for a in range(s.full + 1):
        z = q.up(a)
        want = 0
        for y in bits(z):
            want |= td.interior(s, q.leq[y])
        if td.interior(s, z) != want:
            return False
    return True


def _closure_intersection_oracle(s, q):
    """Direct scan: the closure of the down-closure of every subset is the
    intersection of the closures of the core complements of outside points."""
    for a in range(s.full + 1):
        z = q.down(a)
        want = s.full
        for y in range(s.n):
            if not z >> y & 1:
                want &= td.closure(s, s.full ^ q.leq[y])
        if td.closure(s, z) != want:
            return False
    return True


def test_operator_conditions_match_direct_scans():
    for s in ALL_TOPS_3:
        q = td.specialization(s)
        prof = cord.core_space_profile(s)
        assert prof.interior_preserves_upper_unions == _interior_union_oracle(s, q)
        assert prof.closure_preserves_lower_intersections == \
            _closure_intersection_oracle(s, q)


def test_open_lattice_distributivity_flags_match_latid():
    for s in ALL_TOPS_3:
        prof = cord.core_space_profile(s)
        assert prof.open_lattice_supercontinuous == \
            latid.check_law(latid.open_lattice(s), "completely-distributive")[0]


def test_is_core_space_matches_profile():
    for s in ALL_TOPS_3:
        assert cord.is_core_space(s) == cord.core_space_profile(s).core_base


def _coframe_web_space_oracle(s):
    """Web space as the coframe law of the open lattice; on a finite lattice
    the subset-quantified dual law folds to binary distributivity, which is
    the cheaper scan on the larger lattices."""
    lat = latid.open_lattice(s)
    if lat.n <= 10:
        return latid.check_law(lat, "coframe")[0]
    return latid.check_law(lat.dual(), "distributive")[0]


def test_web_space_matches_coframe_oracle():
    assert len(ALL_TOPS_TO_4) == 389
    for s in ALL_TOPS_TO_4:
        assert ospace.is_web_space(s) == _coframe_web_space_oracle(s)


# ---------------------------------------------------------------- core bases

def _core_basis_oracle(s, bmask):
    """Full scan: every open u around every point y contains the core of
    some b in B that has y in its interior."""
    q = td.specialization(s)
    return all(
        any(
            td.interior(s, q.leq[b]) >> y & 1 and q.leq[b] & ~u == 0
            for b in bits(bmask & u)
        )
        for u in s.opens for y in bits(u)
    )


def test_core_basis_check_matches_full_scan():
    for s in ALL_TOPS_3:
        for b in range(s.full + 1):
            assert cord.core_basis_check(s, b) == _core_basis_oracle(s, b)


def test_upper_space_core_check_matches_full_scan():
    for rows in posets(3):
        for s in ALL_TOPS_3:
            tb = ospace.Tables(OrderedSpace(Qoset(3, rows), s))
            assert ospace._upper_is_core(tb) == \
                _core_basis_oracle(tb.upper_space, tb.full)


def test_core_basis_examples():
    # the open point must witness its own smallest neighborhood and the
    # bottom must witness the whole space, so both points are required
    assert cord.core_basis_check(SIER, 0b11)
    assert not cord.core_basis_check(SIER, 0b01)
    assert not cord.core_basis_check(SIER, 0b10)
    assert cord.minimal_core_basis(SIER) == 0b11


def test_r_dense_and_cofinal_coincide_for_interior_relations():
    for s in ALL_TOPS_3:
        rel = cord.interior_relation(s)
        for b in range(s.full + 1):
            assert cord.r_dense(rel, b) == cord.r_cofinal(rel, b)


def _least_point_set(n, pred):
    """Least size of a point set satisfying pred, with the lexicographically
    least witness of that size, by a scan over the subsets of each size."""
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            b = mask_of(combo)
            if pred(b):
                return size, b
    raise AssertionError("no point set qualifies")


def _cofinality_scan(r):
    return _least_point_set(r.n, lambda b: cord.r_cofinal(r, b))


def test_cofinality_of_sierpinski():
    size, mask = _cofinality_scan(cord.interior_relation(SIER))
    assert size == 2 and mask == 0b11


# ---------------------------------------------------------------- skula

def test_skula_of_sierpinski_is_discrete():
    assert len(cord.skula(SIER).opens) == 4


def test_skula_contains_opens_and_closeds():
    for s in ALL_TOPS_3:
        sk = set(cord.skula(s).opens)
        assert set(s.opens) <= sk
        assert set(s.closeds()) <= sk


# ---------------------------------------------------------------- invariants

def test_prop_9_1_conditions_agree_for_every_subset():
    for s in ALL_TOPS_3:
        for b in range(s.full + 1):
            conds = cord.prop_9_1_conditions(s, b)
            assert len(set(conds)) == 1


def _sixteen_point_spaces():
    """The Alexandroff spaces of the 16-point chain and antichain (the
    latter is the discrete space), and the indiscrete space."""
    n = 16
    full = (1 << n) - 1
    chain = Qoset(n, tuple(full & ~((1 << x) - 1) for x in range(n)))
    antichain = Qoset(n, tuple(1 << x for x in range(n)))
    discrete = td.alexandroff(antichain)
    assert discrete == Topology(n, tuple(range(full + 1)))
    return [td.alexandroff(chain), discrete, Topology(n, (0, full))]


def test_least_core_basis_meets_the_five_weight_conditions():
    # the witness `cardinal_invariants` reports for c attains all five
    # conditions of Prop. 9.1
    for s in ALL_TOPS_TO_4 + _sixteen_point_spaces():
        assert cord.prop_9_1_conditions(s, cord.minimal_core_basis(s)) == (True,) * 5


def test_cardinal_invariants_examples():
    assert cord.cardinal_invariants(SIER).values == (2, 2, 2, 2, 2)
    assert cord.cardinal_invariants(Topology(2, (0, 3))).values == (1, 1, 1, 1, 1)
    disc3 = Topology(3, tuple(range(8)))
    assert cord.cardinal_invariants(disc3).values == (3, 3, 3, 3, 3)


def _minimal_base_scan(t):
    """Smallest subfamily of opens of which every open is a union, the
    lexicographically least of that size."""
    opens = list(t.opens)
    for size in range(len(opens) + 1):
        for chosen in combinations(opens, size):
            if all(
                cord._union_of(b for b in chosen if b & ~u == 0) == u
                for u in opens
            ):
                return chosen
    raise AssertionError("the full family is a base")


def test_invariant_witnesses_match_subset_scans():
    for s in ALL_TOPS_TO_4:
        inv = cord.cardinal_invariants(s)
        c, c_witness = _cofinality_scan(cord.interior_relation(s))
        assert (inv.c, inv.c_witness) == (c, c_witness)
        assert (c, cord.minimal_core_basis(s)) == _least_point_set(
            s.n, lambda b: cord.core_basis_check(s, b)
        )
        assert inv.w_open_witness == _minimal_base_scan(s)
        closeds = sorted(s.closeds())
        weight = latid.min_join_dense(latid.closed_lattice(s))
        assert inv.w_closed == weight.weight
        assert inv.w_closed_witness == tuple(closeds[i] for i in weight.witness)
        patch = td.patch(s, "upsilon").topology
        assert inv.w_patch_witness == _minimal_base_scan(patch)
        assert (inv.d_patch, inv.d_patch_witness) == _least_point_set(
            s.n, lambda d: all(d & u for u in patch.opens if u)
        )


def test_profile_and_invariants_past_the_old_scan_caps():
    # the 6-point chain has 7 opens; the operator scans run over them
    chain6 = td.alexandroff(
        Qoset(6, tuple(0b111111 & ~((1 << x) - 1) for x in range(6)))
    )
    assert len(chain6.opens) == 7
    prof = cord.core_space_profile(chain6)
    assert prof.agreement and all(prof.flags)
    assert cord.cardinal_invariants(chain6).values == (6,) * 5


def test_cardinal_invariants_equal_specialization_class_count():
    for s in ALL_TOPS_3:
        classes = len(set(td.specialization(s).leq))
        assert all(v == classes for v in cord.cardinal_invariants(s).values)


# ---------------------------------------------------------------- M oracle

def _interior_relation_scan(s):
    """x R y iff y lies in the union of the opens inside the core of x."""
    q = td.specialization(s)
    rows = []
    for x in range(s.n):
        m = 0
        for u in s.opens:
            if u & ~q.leq[x] == 0:
                m |= u
        rows.append(m)
    return tuple(rows)


def test_interior_relation_matches_interior_of_core_scan():
    for s in ALL_TOPS_TO_4:
        assert cord.interior_relation(s).rel == _interior_relation_scan(s)
