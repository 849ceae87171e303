"""Core data structures: validation, generation, isomorphism, codec."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ordertop.finstruct import (
    BinaryRelation,
    Lattice,
    OrderedSpace,
    ParseError,
    Qoset,
    SchemaError,
    SpaceMap,
    Topology,
    ValidationError,
    bits,
    decode,
    encode,
    generate_topology,
    isomorphism,
    mask_of,
    mask_to_list,
    relations_of,
    subsets_of,
    transpose,
    validate_lattice,
    validate_qoset,
    validate_topology,
)
from ordertop.labcli import enumerate_instances, lattices

SIER = Topology(2, (0, 2, 3))
CHAIN3 = Qoset(3, (0b111, 0b110, 0b100))


# ---------------------------------------------------------------- helpers

def test_mask_roundtrip():
    assert mask_of([0, 2, 3]) == 0b1101
    assert mask_to_list(0b1101) == [0, 2, 3]


def test_subsets_of_enumerates_all_submasks():
    subs = list(subsets_of(0b101))
    assert sorted(subs) == [0, 0b001, 0b100, 0b101]


# ---------------------------------------------------------------- validators

def test_validate_topology_accepts_powerset():
    t = validate_topology(2, [0, 1, 2, 3])
    assert t.opens == (0, 1, 2, 3)


@pytest.mark.parametrize(
    "n,family,code",
    [
        (2, [0b11], "MissingEmpty"),
        (2, [0], "MissingFull"),
        (2, [0, 0b01, 0b11, 0b01], "Duplicate"),
        (3, [0, 0b011, 0b110, 0b111], "NotIntersectionClosed"),
    ],
)
def test_validate_topology_errors(n, family, code):
    with pytest.raises(ValidationError) as err:
        validate_topology(n, family)
    assert err.value.code == code


def test_validate_topology_union_closure_error():
    with pytest.raises(ValidationError) as err:
        validate_topology(2, [0, 0b01, 0b10])
    # {0} and {1} are present but {0,1} is not
    assert err.value.code in ("NotUnionClosed", "MissingFull")


def test_validate_qoset_matrix_and_rows_agree():
    m = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    assert validate_qoset(3, m).leq == CHAIN3.leq
    assert validate_qoset(3, (0b111, 0b110, 0b100)).leq == CHAIN3.leq


def test_validate_qoset_errors():
    with pytest.raises(ValidationError) as err:
        validate_qoset(2, [[0, 0], [0, 1]])
    assert err.value.code == "NotReflexive"
    with pytest.raises(ValidationError) as err:
        validate_qoset(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert err.value.code == "NotTransitive"
    assert err.value.witness == (0, 1, 2)


def test_validate_lattice_m3():
    m3 = validate_lattice(5, (0b11111, 0b10010, 0b10100, 0b11000, 0b10000))
    assert m3.bottom == 0 and m3.dual().bottom == 4
    assert m3.meet[1][2] == 0 and m3.join[1][2] == 4


def test_validate_lattice_errors():
    # two maximal elements: no join
    with pytest.raises(ValidationError) as err:
        validate_lattice(3, (0b111, 0b010, 0b100))
    assert err.value.code == "NoJoin"
    with pytest.raises(ValidationError) as err:
        validate_lattice(2, (0b11, 0b11))
    assert err.value.code == "NotAntisymmetric"


# ---------------------------------------------------------------- generation

def test_generate_topology_from_subbase():
    t = generate_topology(3, [0b011, 0b110])
    assert t.opens == (0, 0b010, 0b011, 0b110, 0b111)


def test_generate_topology_empty_subbase_is_indiscrete():
    assert generate_topology(2, []).opens == (0, 3)


# ---------------------------------------------------------------- structures

def test_qoset_up_down_dual():
    assert CHAIN3.up(0b001) == 0b111
    assert CHAIN3.down(0b100) == 0b111
    assert CHAIN3.dual().leq == (0b001, 0b011, 0b111)
    assert CHAIN3.is_antisymmetric()
    assert not Qoset(2, (0b11, 0b11)).is_antisymmetric()


def test_qoset_upper_lower_sets():
    assert set(CHAIN3.upper_sets()) == {0, 0b100, 0b110, 0b111}
    assert set(CHAIN3.lower_sets()) == {0, 0b001, 0b011, 0b111}


def test_topology_accessors():
    assert SIER.full == 3
    assert SIER.is_t0()
    assert tuple(SIER.closeds()) == (0, 1, 3)
    assert SIER.M == (3, 2)
    assert not Topology(2, (0, 3)).is_t0()


def test_lattice_fold_operations():
    m3 = validate_lattice(5, (0b11111, 0b10010, 0b10100, 0b11000, 0b10000))
    assert m3.join_of(0b01110) == 4
    assert m3.join_of(0) == m3.bottom
    assert m3.dual().bottom == 4


def test_lattice_dual_is_one_object_whose_dual_is_the_lattice():
    rows = (0b11111, 0b10010, 0b10100, 0b11000, 0b10000)
    m3 = validate_lattice(5, rows)
    dual = m3.dual()
    assert m3.dual() is dual
    assert dual.dual() is m3
    # the memo changes neither field equality nor hashing
    fresh = Lattice(5, transpose(5, rows), m3.join, m3.meet)
    assert dual == fresh and hash(dual) == hash(fresh)
    assert m3 == validate_lattice(5, rows)
    assert hash(m3) == hash(validate_lattice(5, rows))


def test_ordered_space_carrier_mismatch():
    with pytest.raises(ValidationError) as err:
        OrderedSpace(CHAIN3, SIER)
    assert err.value.code == "CarrierMismatch"


def test_space_map_images():
    f = SpaceMap(3, 2, (0, 0, 1))
    assert f(2) == 1
    assert f.image(0b111) == 0b11
    assert f.preimage(0b10) == 0b100


# ---------------------------------------------------------------- isomorphism

def _isomorphism(a, b):
    return isomorphism(a.n, relations_of(a), relations_of(b))


def test_isomorphic_relabeled_topology():
    assert _isomorphism(Topology(2, (0, 2, 3)), Topology(2, (0, 1, 3))) == (1, 0)


def test_isomorphism_witness_is_lexicographically_least():
    a = Topology(2, (0, 1, 2, 3))
    assert _isomorphism(a, a) == (0, 1)


def test_non_isomorphic_detected():
    assert _isomorphism(Topology(2, (0, 2, 3)), Topology(2, (0, 3))) is None


# ---------------------------------------------------------------- codec

@pytest.mark.parametrize(
    "obj",
    [
        SIER,
        CHAIN3,
        OrderedSpace(Qoset(2, (3, 2)), SIER),
        validate_lattice(5, (0b11111, 0b10010, 0b10100, 0b11000, 0b10000)),
        BinaryRelation(2, (3, 2)),
        SpaceMap(3, 2, (0, 0, 1)),
    ],
)
def test_codec_roundtrip(obj):
    assert decode(encode(obj)) == obj


def test_decode_rejects_malformed():
    with pytest.raises(ParseError):
        decode("{not json")
    with pytest.raises(SchemaError):
        decode('{"kind": "nope"}')
    with pytest.raises(SchemaError):
        decode('{"kind": "topology", "n": 2}')


def test_decode_validates_payload():
    with pytest.raises(ValidationError):
        decode('{"kind": "topology", "n": 2, "opens": [[0]]}')


# ---------------------------------------------------------------- properties

@st.composite
def random_topology(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=4))
    full = (1 << n) - 1
    subbase = [draw(st.integers(min_value=0, max_value=full)) for _ in range(k)]
    return generate_topology(n, subbase)


@given(random_topology())
def test_generated_families_are_topologies(t):
    assert validate_topology(t.n, t.opens) == t


@given(random_topology())
def test_codec_roundtrip_random(t):
    assert decode(encode(t)) == t


# ---------------------------------------------------------------- oracles
#
# Generation and validation read a finite topology off its minimal
# neighborhoods; the closure scans they replaced are kept here as oracles.

def _generate_topology_oracle(n, subbase):
    """Finite intersections of subbase members form a base (the carrier is
    the empty intersection); the opens are all unions of base members."""
    full = (1 << n) - 1
    base = {full}
    for m in dict.fromkeys(subbase):
        base |= {m & b for b in base}
    opens = {0}
    for b in base:
        opens |= {o | b for o in opens}
    return Topology(n, tuple(sorted(opens)))


def _validate_topology_oracle(n, family):
    """Pairwise scan: the error code of the first failing clause (pairs in
    lexicographic order), or None when the family is a topology."""
    full = (1 << n) - 1
    fam = list(family)
    if len(set(fam)) != len(fam):
        return "Duplicate"
    if 0 not in fam:
        return "MissingEmpty"
    if full not in fam:
        return "MissingFull"
    ordered = sorted(fam)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a | b not in fam:
                return "NotUnionClosed"
            if a & b not in fam:
                return "NotIntersectionClosed"
    return None


def _validation_code(n, family):
    try:
        validate_topology(n, family)
    except ValidationError as err:
        return err.code
    return None


def _all_families(n):
    full = (1 << n) - 1
    for sel in range(1 << (full + 1)):
        yield [m for m in range(full + 1) if sel >> m & 1]


def test_generation_matches_closure_oracle_on_every_small_family():
    for n in range(1, 4):
        for family in _all_families(n):
            assert generate_topology(n, family) == _generate_topology_oracle(n, family)


def test_validation_matches_pair_scan_on_every_small_family():
    accepted = 0
    for n in range(1, 4):
        for family in _all_families(n):
            want = _validate_topology_oracle(n, family)
            got = _validation_code(n, family)
            # a family breaking both closure laws may report either one
            assert (got is None) == (want is None)
            assert (got in ("NotUnionClosed", "NotIntersectionClosed")) == \
                (want in ("NotUnionClosed", "NotIntersectionClosed"))
            accepted += got is None
    assert accepted == 1 + 4 + 29


@st.composite
def random_subbase(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    full = (1 << n) - 1
    k = draw(st.integers(min_value=0, max_value=8))
    return n, [draw(st.integers(min_value=0, max_value=full)) for _ in range(k)]


@given(random_subbase())
def test_generation_matches_closure_oracle(case):
    n, subbase = case
    assert generate_topology(n, subbase) == _generate_topology_oracle(n, subbase)


@st.composite
def random_family(draw, max_n=6):
    """A generated topology, perturbed by dropping and adding a few masks, so
    that both topologies and near misses are drawn."""
    n, subbase = draw(random_subbase(max_n))
    full = (1 << n) - 1
    fam = set(generate_topology(n, subbase).opens)
    for m in draw(st.lists(st.integers(min_value=0, max_value=full), max_size=3)):
        fam.discard(m)
    for m in draw(st.lists(st.integers(min_value=0, max_value=full), max_size=3)):
        fam.add(m)
    return n, sorted(fam)


@given(random_family())
def test_validation_matches_pair_scan(case):
    n, family = case
    want = _validate_topology_oracle(n, family)
    got = _validation_code(n, family)
    assert (got is None) == (want is None)
    if want in ("MissingEmpty", "MissingFull"):
        assert got == want


def _check_witness(n, family):
    """The validation code of the family, after checking that a closure
    witness is a pair of members whose meet or join is missing."""
    try:
        validate_topology(n, family)
    except ValidationError as err:
        members = set(family)
        if err.code in ("NotIntersectionClosed", "NotUnionClosed"):
            a, b = err.witness
            joined = a & b if err.code == "NotIntersectionClosed" else a | b
            assert a in members and b in members and joined not in members
        else:
            assert err.code in ("MissingEmpty", "MissingFull")
        return err.code
    return None


def test_validation_witnesses_on_every_small_family():
    codes = {_check_witness(n, f) for n in range(1, 4) for f in _all_families(n)}
    assert {"NotIntersectionClosed", "NotUnionClosed"} <= codes


@given(random_family())
def test_validation_witness_is_a_pair_of_members_with_missing_meet_or_join(case):
    _check_witness(*case)


def test_minimal_neighborhoods_and_t0_match_open_scans():
    for n in range(1, 4):
        for family in _all_families(n):
            if _validate_topology_oracle(n, family) is not None:
                continue
            t = Topology(n, tuple(family))
            for x in range(n):
                m = t.full
                for u in t.opens:
                    if u >> x & 1:
                        m &= u
                assert t.M[x] == m
            assert t.is_t0() == all(
                any((u >> x & 1) != (u >> y & 1) for u in t.opens)
                for x in range(n) for y in range(x + 1, n)
            )


# ---------------------------------------------------------------- isomorphism oracle
#
# The search assigns points in order and prunes by degrees and by the earlier
# assignments; the scan over all n! permutations it replaced is the oracle.

def _relation_invariant(n, rows, x):
    cols = transpose(n, rows)
    return (rows[x].bit_count(), cols[x].bit_count())


def _isomorphic_scan(a, b):
    """The least witness or None, by testing every permutation in
    lexicographic order; opens are compared as sets, relations pair by
    pair."""
    if a.n != b.n:
        return None
    n = a.n

    def same_rows(rows_a, rows_b, perm):
        return all(
            (rows_a[x] >> y & 1) == (rows_b[perm[x]] >> perm[y] & 1)
            for x in range(n) for y in range(n)
        )

    def same_opens(sa, sb, perm):
        return {mask_of(perm[x] for x in bits(u)) for u in sa} == sb

    if isinstance(a, Topology):
        sa, sb = set(a.opens), set(b.opens)
        if len(sa) != len(sb):
            return None
        inv_a = [sum(1 for u in sa if u >> x & 1) for x in range(n)]
        inv_b = [sum(1 for u in sb if u >> x & 1) for x in range(n)]

        def ok(perm):
            return same_opens(sa, sb, perm)
    elif isinstance(a, OrderedSpace):
        rows_a, rows_b = a.qoset.leq, b.qoset.leq
        sa, sb = set(a.topology.opens), set(b.topology.opens)
        if len(sa) != len(sb):
            return None
        inv_a = [_relation_invariant(n, rows_a, x) + (sum(1 for u in sa if u >> x & 1),)
                 for x in range(n)]
        inv_b = [_relation_invariant(n, rows_b, x) + (sum(1 for u in sb if u >> x & 1),)
                 for x in range(n)]

        def ok(perm):
            return same_rows(rows_a, rows_b, perm) and same_opens(sa, sb, perm)
    else:
        rows_a = a.rel if isinstance(a, BinaryRelation) else a.leq
        rows_b = b.rel if isinstance(b, BinaryRelation) else b.leq
        inv_a = [_relation_invariant(n, rows_a, x) for x in range(n)]
        inv_b = [_relation_invariant(n, rows_b, x) for x in range(n)]

        def ok(perm):
            return same_rows(rows_a, rows_b, perm)

    if sorted(inv_a) != sorted(inv_b):
        return None
    for perm in permutations(range(n)):
        if all(inv_a[x] == inv_b[perm[x]] for x in range(n)) and ok(perm):
            return perm
    return None


@pytest.mark.parametrize("kind", ["qoset", "topology", "ordered-space", "lattice"])
def test_isomorphism_matches_scan_on_every_small_pair(kind):
    isomorphic = 0
    for n in range(1, 4):
        objs = list(enumerate_instances(kind, n))
        for a in objs:
            for b in objs:
                want = _isomorphic_scan(a, b)
                assert _isomorphism(a, b) == want
                isomorphic += want is not None
    assert isomorphic > 0


def _relabel_rows(rows, perm):
    out = [0] * len(rows)
    for x, r in enumerate(rows):
        out[perm[x]] = mask_of(perm[y] for y in bits(r))
    return tuple(out)


def _relabel(obj, perm):
    if isinstance(obj, Topology):
        return Topology(obj.n, tuple(sorted(mask_of(perm[x] for x in bits(u))
                                            for u in obj.opens)))
    if isinstance(obj, OrderedSpace):
        return OrderedSpace(_relabel(obj.qoset, perm), _relabel(obj.topology, perm))
    if isinstance(obj, Lattice):
        return validate_lattice(obj.n, _relabel_rows(obj.leq, perm))
    if isinstance(obj, Qoset):
        return Qoset(obj.n, _relabel_rows(obj.leq, perm))
    return BinaryRelation(obj.n, _relabel_rows(obj.rel, perm))


def _transitive_closure(rows):
    rows = list(rows)
    for k in range(len(rows)):
        for x in range(len(rows)):
            if rows[x] >> k & 1:
                rows[x] |= rows[k]
    return tuple(rows)


LATTICES = {k: lattices(k) for k in range(1, 6)}


@st.composite
def relabeled_pair(draw, max_n=6):
    """A structure and a relabelling of it, perturbed half of the time (a
    flipped relation bit, an added subbase member, or another lattice of the
    same size), so that isomorphic and near-miss pairs are both drawn."""
    kind, perturb = draw(st.sampled_from([
        (k, p) for k in ("relation", "qoset", "topology", "ordered-space", "lattice")
        for p in (False, True)
    ]))
    # lattices share the qoset rows; enumerating the 6-point ones costs seconds
    n = draw(st.integers(min_value=1, max_value=5 if kind == "lattice" else max_n))
    full = (1 << n) - 1
    masks = st.integers(min_value=0, max_value=full)

    def structure():
        if kind == "lattice":
            return draw(st.sampled_from(LATTICES[n]))
        if kind == "topology":
            return generate_topology(n, draw(st.lists(masks, max_size=5)))
        # quarter-density rows, so that closures are not all total
        rows = tuple(draw(masks) & draw(masks) | 1 << x for x in range(n))
        if kind == "relation":
            return BinaryRelation(n, rows)
        q = Qoset(n, _transitive_closure(rows))
        if kind == "qoset":
            return q
        return OrderedSpace(q, generate_topology(n, draw(st.lists(masks, max_size=5))))

    a = structure()
    b = _relabel(a, draw(st.permutations(range(n))))
    if perturb:
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "relation":
            b = BinaryRelation(n, tuple(r ^ (x == z) << y for z, r in enumerate(b.rel)))
        elif kind == "qoset":
            b = Qoset(n, _transitive_closure(b.leq[:x] + (b.leq[x] | 1 << y,) + b.leq[x + 1:]))
        elif kind == "topology":
            b = generate_topology(n, [*b.opens, draw(masks)])
        elif kind == "ordered-space":
            b = OrderedSpace(b.qoset, generate_topology(n, [*b.topology.opens, draw(masks)]))
        else:
            b = structure()
    return a, b


# more examples than the profile's 100, so that every kind draws both verdicts
@settings(max_examples=300)
@given(relabeled_pair())
def test_isomorphism_matches_scan_on_relabeled_pairs(pair):
    a, b = pair
    assert _isomorphism(a, b) == _isomorphic_scan(a, b)


def test_isomorphism_on_sixteen_points():
    # n! permutations are out of reach here: 16! is about 2 * 10^13
    n = 16
    full = (1 << n) - 1
    perm = (3, 14, 0, 9, 1, 15, 6, 12, 2, 11, 5, 8, 13, 4, 10, 7)
    chain = Qoset(n, tuple(full & ~((1 << x) - 1) for x in range(n)))
    # a chain has one isomorphism onto another
    assert _isomorphism(chain, _relabel(chain, perm)) == perm
    boolean = Qoset(n, tuple(mask_of(y for y in range(n) if x & ~y == 0) for x in range(n)))
    relabeled = _relabel(boolean, perm)
    witness = _isomorphism(boolean, relabeled)
    assert witness is not None and _relabel(boolean, witness) == relabeled
    broken = Qoset(n, relabeled.leq[:-1] + (relabeled.leq[-1] | 1 << perm[0],))
    assert _isomorphism(boolean, broken) is None
