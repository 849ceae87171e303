"""Morphism profiles, adjoints, and conversion between the six equivalent
presentations of relationally based structures."""

from dataclasses import replace
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from ordertop import cord, morphcat as mc, topoderive as td
from ordertop.finstruct import (
    OrderedSpace,
    Qoset,
    SpaceMap,
    Topology,
    ValidationError,
    bits,
    generate_topology,
    mask_of,
    validate_lattice,
)
from ordertop.labcli import qosets, topologies

CHAIN2 = Qoset(2, (0b11, 0b10))
CHAIN3 = Qoset(3, (0b111, 0b110, 0b100))
DIAMOND = Qoset(4, (0b1111, 0b1010, 0b1100, 0b1000))
DIAMOND_LAT = validate_lattice(4, (0b1111, 0b1010, 0b1100, 0b1000))
SIER = Topology(2, (0, 2, 3))
SIER_C = cord.CQuasiOrder(2, (3, 2))

POSETS_3 = [Qoset(3, r) for r in qosets(3) if Qoset(3, r).is_antisymmetric()]
POSETS_2 = [Qoset(2, r) for r in qosets(2) if Qoset(2, r).is_antisymmetric()]
TOPS_2 = [Topology(2, o) for o in topologies(2)]


# ---------------------------------------------------------------- profiles

def test_qoset_context_only_sets_order_flags():
    f = SpaceMap(3, 2, (0, 0, 1))
    p = mc.map_profile(f, CHAIN3, CHAIN2)
    assert p.isotone and p.residuated and p.residual
    assert p.continuous is None and p.zeta_proper is None
    assert p.interpolating is None


def test_identity_on_ordered_space_is_everything():
    s = OrderedSpace(CHAIN2, SIER)
    p = mc.map_profile(SpaceMap(2, 2, (0, 1)), s, s)
    assert p.continuous and p.isotone and p.lower_semicontinuous
    assert p.core_continuous and p.quasiopen and p.residual and p.residuated
    assert all(v for _, v in p.zeta_proper)


def test_constant_to_bottom_is_not_an_adjoint_candidate():
    f = SpaceMap(3, 2, (0, 0, 0))
    p = mc.map_profile(f, CHAIN3, CHAIN2)
    assert p.isotone
    # the preimage of the top's filter is empty, so it is vacuously a
    # filter-preimage but there is no adjoint
    assert p.residual
    assert mc.lower_adjoint(f, CHAIN3, CHAIN2) is None


def test_interpolating_on_relation_context():
    p = mc.map_profile(SpaceMap(2, 2, (0, 1)), SIER_C, SIER_C)
    assert p.interpolating
    # reflexivity of the source makes x = y an interpolant for every map,
    # so on these carriers the flag is identically true
    for vals in product(range(2), repeat=2):
        p = mc.map_profile(SpaceMap(2, 2, vals), SIER_C, SIER_C)
        assert p.interpolating


def test_context_mismatch():
    with pytest.raises(ValidationError) as err:
        mc.map_profile(SpaceMap(2, 2, (0, 1)), SIER, CHAIN2)
    assert err.value.code == "ContextMismatch"
    with pytest.raises(ValidationError) as err:
        mc.map_profile(SpaceMap(3, 2, (0, 0, 1)), CHAIN2, CHAIN2)
    assert err.value.code == "ContextMismatch"


def test_core_continuity_implies_every_zeta_properness():
    for s in TOPS_2:
        for s2 in TOPS_2:
            for vals in product(range(2), repeat=2):
                p = mc.map_profile(SpaceMap(2, 2, vals), s, s2)
                if p.core_continuous:
                    assert all(v for _, v in p.zeta_proper)


# ---------------------------------------------------------------- adjoints

def test_lower_adjoint_of_collapse():
    g = mc.lower_adjoint(SpaceMap(3, 2, (0, 0, 1)), CHAIN3, CHAIN2)
    assert g.value == (0, 2)


def test_lower_adjoint_requires_isotone():
    with pytest.raises(ValidationError) as err:
        mc.lower_adjoint(SpaceMap(2, 2, (1, 0)), CHAIN2, CHAIN2)
    assert err.value.code == "NotIsotone"


def test_adjoint_existence_versus_residual_flag():
    """An adjoint forces the residual flag; conversely the flag plus
    nonempty filter preimages forces an adjoint."""
    for q in POSETS_3:
        for q2 in POSETS_2 + POSETS_3:
            for vals in product(range(q2.n), repeat=q.n):
                f = SpaceMap(q.n, q2.n, vals)
                if not mc._is_isotone(f, q, q2):
                    continue
                residual = mc._is_residual(f, q, q2)
                adjoint = mc.lower_adjoint(f, q, q2)
                if adjoint is not None:
                    assert residual
                    # the adjunction inequality on every pair
                    for y in range(q2.n):
                        for x in range(q.n):
                            assert bool(q.leq[adjoint(y)] >> x & 1) == bool(
                                q2.leq[y] >> f(x) & 1
                            )
                elif residual:
                    assert any(
                        f.preimage(q2.leq[y]) == 0 for y in range(q2.n)
                    )


# ---------------------------------------------------------------- validation

def test_validate_based_domain():
    assert mc.validate_representation(
        mc.Representation("based-domain", CHAIN2, 0b11)
    )
    # atoms without the bottom: no basis element approximates the bottom
    with pytest.raises(ValidationError) as err:
        mc.validate_representation(
            mc.Representation("based-domain", DIAMOND, 0b0110)
        )
    assert err.value.code == "BasisNotDirected" and err.value.witness == (0,)
    with pytest.raises(ValidationError) as err:
        mc.validate_representation(
            mc.Representation("based-domain", CHAIN2, 0b01)
        )
    assert err.value.code == "BasisJoinMismatch" and err.value.witness == (1,)


def test_finite_based_domain_needs_the_whole_carrier():
    # approximation collapses to the order on finite carriers, so only the
    # full basis can reproduce every point as a directed join
    for q in POSETS_3:
        full = (1 << q.n) - 1
        for b in range(full):
            with pytest.raises(ValidationError):
                mc.validate_representation(
                    mc.Representation("based-domain", q, b)
                )
        mc.validate_representation(mc.Representation("based-domain", q, full))


def test_validate_based_lattice():
    assert mc.validate_representation(
        mc.Representation("based-supercontinuous-lattice", DIAMOND_LAT, 0b0110)
    )
    with pytest.raises(ValidationError) as err:
        mc.validate_representation(
            mc.Representation(
                "based-supercontinuous-lattice", DIAMOND_LAT, 0b1110
            )
        )
    assert err.value.code == "NotCoprime" and err.value.witness == (3,)
    with pytest.raises(ValidationError) as err:
        mc.validate_representation(
            mc.Representation(
                "based-supercontinuous-lattice", DIAMOND_LAT, 0b0010
            )
        )
    assert err.value.code == "NotJoinDense"


def test_validate_space_kinds():
    mc.validate_representation(mc.Representation("t0-core-space", SIER))
    with pytest.raises(ValidationError) as err:
        mc.validate_representation(
            mc.Representation("t0-core-space", Topology(2, (0, 3)))
        )
    assert err.value.code == "NotT0"
    mc.validate_representation(
        mc.Representation("core-based-sober-space", SIER, 0b11)
    )
    with pytest.raises(ValidationError) as err:
        mc.validate_representation(
            mc.Representation("core-based-sober-space", SIER, 0b01)
        )
    assert err.value.code == "NotCoreBasis"


def test_validate_unknown_kind():
    with pytest.raises(ValidationError) as err:
        mc.validate_representation(mc.Representation("poset", CHAIN2))
    assert err.value.code == "UnknownKind"


# ---------------------------------------------------------------- conversion

def test_hub_extraction_of_sierpinski():
    r = mc.Representation("t0-core-space", SIER)
    assert mc._to_c(r).rel == (3, 2)


def test_from_hub_examples():
    r = mc._from_c(SIER_C, "based-domain")
    assert r.payload.leq == (0b11, 0b10) and r.basis == 0b11
    r = mc._from_c(SIER_C, "based-supercontinuous-lattice")
    assert r.payload.leq == (0b111, 0b110, 0b100) and r.basis == 0b110


def test_all_kind_pair_roundtrips_on_sierpinski():
    for k1 in mc.KINDS:
        r1 = mc._from_c(SIER_C, k1)
        assert mc.validate_representation(r1)
        for k2 in mc.KINDS:
            r2 = mc.convert(r1, k2)
            assert mc.validate_representation(r2)
            back = mc.convert(r2, k1)
            assert mc.are_equivalent(r1, back)


def test_roundtrips_on_three_point_spaces():
    for s in (Topology(3, o) for o in topologies(3)):
        if not s.is_t0() or not cord.is_core_space(s):
            continue
        c = cord.CQuasiOrder(3, cord.interior_relation(s).rel)
        direct = mc.Representation("t0-core-space", s)
        for k in mc.KINDS:
            r = mc._from_c(c, k)
            back = mc.convert(r, "t0-core-space")
            # the completion-backed routes relabel the carrier, so the
            # recovered space is the original only up to isomorphism
            assert mc.are_equivalent(back, direct)


def test_convert_rejects_invalid_source():
    bad = mc.Representation("t0-core-space", Topology(2, (0, 3)))
    with pytest.raises(ValidationError) as err:
        mc.convert(bad, "c-ordered-set")
    assert err.value.code == "InvalidSource"
    assert err.value.witness == ("t0-core-space", "NotT0")
    with pytest.raises(ValidationError):
        mc.convert(mc.Representation("t0-core-space", SIER), "powerset")


# ---------------------------------------------------------------- equivalence

def test_equivalence_is_basis_sensitive():
    r1 = mc.Representation("based-domain", DIAMOND, 0b1111)
    # the same domain with bottom and one middle point relabeled
    r2 = mc.Representation(
        "based-domain", Qoset(4, (0b0101, 0b1111, 0b0100, 0b1100)), 0b1111
    )
    assert mc.are_equivalent(r1, r2)
    assert not mc.are_equivalent(
        r1, mc.Representation("based-domain", DIAMOND, 0b0111)
    )
    assert not mc.are_equivalent(
        r1, mc.Representation("c-ordered-set", SIER_C)
    )


# ---------------------------------------------------------------- equivalence oracle
#
# Equivalence is one call to the isomorphism search of finstruct, with the
# basis as one more relation; the permutation scan it replaced is the oracle.

def _payload_iso_scan(kind, a, b, perm) -> bool:
    if kind in ("c-ordered-set",):
        return all(
            a.rel[x] >> y & 1 == b.rel[perm[x]] >> perm[y] & 1
            for x in range(a.n) for y in range(a.n)
        )
    if kind in ("t0-core-space", "core-based-sober-space"):
        mapped = {mask_of(perm[x] for x in bits(u)) for u in a.opens}
        return mapped == set(b.opens)
    if kind == "fan-ordered-space":
        mapped = {mask_of(perm[x] for x in bits(u)) for u in a.topology.opens}
        return mapped == set(b.topology.opens) and all(
            a.qoset.leq[x] >> y & 1 == b.qoset.leq[perm[x]] >> perm[y] & 1
            for x in range(a.n) for y in range(a.n)
        )
    # orders and lattices: the order determines meets and joins
    return all(
        a.leq[x] >> y & 1 == b.leq[perm[x]] >> perm[y] & 1
        for x in range(a.n) for y in range(a.n)
    )


def _equivalent_scan(r1, r2) -> bool:
    if r1.kind != r2.kind:
        return False
    n1 = r1.payload.n
    if n1 != r2.payload.n:
        return False
    b1 = r1.basis
    for perm in permutations(range(n1)):
        if b1 is not None:
            if mask_of(perm[x] for x in bits(b1)) != r2.basis:
                continue
        if _payload_iso_scan(r1.kind, r1.payload, r2.payload, perm):
            return True
    return False


def _small_representations():
    """_from_c of every T0 space on at most three points (all are core
    spaces), in every kind."""
    reps = []
    for n in range(1, 4):
        for s in (Topology(n, o) for o in topologies(n)):
            if s.is_t0():
                c = cord.CQuasiOrder(n, cord.interior_relation(s).rel)
                reps += [mc._from_c(c, k) for k in mc.KINDS]
    return reps


def test_equivalence_matches_scan_on_every_small_representation():
    reps = _small_representations()
    equivalent = 0
    for r1 in reps:
        for r2 in reps:
            want = _equivalent_scan(r1, r2)
            assert mc.are_equivalent(r1, r2) == want
            equivalent += want
    # every basis of each based payload on at most six points: the scan
    # over the 8! relabellings of the one 8-point open lattice is too slow
    rebased = 0
    for r in reps:
        if r.basis is not None and r.payload.n <= 6:
            for b in range(1 << r.payload.n):
                other = replace(r, basis=b)
                want = _equivalent_scan(r, other)
                assert mc.are_equivalent(r, other) == want
                assert mc.are_equivalent(other, r) == want
                rebased += want
    assert equivalent > len(reps) and rebased > 0


def _relabel_rows(rows, perm):
    out = [0] * len(rows)
    for x, r in enumerate(rows):
        out[perm[x]] = mask_of(perm[y] for y in bits(r))
    return tuple(out)


def _closure(rows):
    rows = list(rows)
    for k in range(len(rows)):
        for x in range(len(rows)):
            if rows[x] >> k & 1:
                rows[x] |= rows[k]
    return tuple(rows)


@st.composite
def relabeled_representations(draw, max_n=6):
    """A payload of a random kind with a random basis, and its relabelling,
    perturbed half of the time by a flipped relation or basis bit or an
    extra open."""
    kind, flip = draw(st.sampled_from([(k, f) for k in mc.KINDS for f in (False, True)]))
    n = draw(st.integers(min_value=1, max_value=max_n))
    full = (1 << n) - 1
    masks = st.integers(min_value=0, max_value=full)
    perm = draw(st.permutations(range(n)))
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows = tuple(draw(masks) & draw(masks) | 1 << z for z in range(n))
    subbase = draw(st.lists(masks, max_size=5))
    extra = draw(masks)

    def topology(subbase, perm):
        return generate_topology(n, [mask_of(perm[z] for z in bits(u)) for u in subbase])

    def payloads(perm, flip):
        rel = _relabel_rows(rows, perm)
        if flip:
            rel = rel[:x] + (rel[x] ^ 1 << y,) + rel[x + 1:]
        sub = [*subbase, extra] if flip else subbase
        if kind == "c-ordered-set":
            return cord.CQuasiOrder(n, rel)
        if kind in ("t0-core-space", "core-based-sober-space"):
            return topology(sub, perm)
        if kind == "fan-ordered-space":
            return OrderedSpace(Qoset(n, _closure(rel)), topology(sub, perm))
        q = Qoset(n, _closure(rel))
        if kind == "based-supercontinuous-lattice":
            try:
                return validate_lattice(n, q.leq)
            except ValidationError:
                return q  # both sides compare the order rows only
        return q

    basis = draw(masks) if kind in mc.BASED_KINDS else None
    r1 = mc.Representation(kind, payloads(tuple(range(n)), False), basis)
    moved = None if basis is None else mask_of(perm[z] for z in bits(basis))
    if flip and moved is not None and draw(st.booleans()):
        moved ^= 1 << y
    r2 = mc.Representation(kind, payloads(perm, flip), moved)
    return r1, r2


# more examples than the profile's 100, so that every kind draws both verdicts
@settings(max_examples=300)
@given(relabeled_representations())
def test_equivalence_matches_scan_on_relabeled_representations(pair):
    r1, r2 = pair
    assert mc.are_equivalent(r1, r2) == _equivalent_scan(r1, r2)
