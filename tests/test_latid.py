"""Lattice identities, way-below/superway relations, coprimes and weight.

Production shortcuts (the binary frame law per x, meet-continuity per top,
principal ideals, pairwise folds, the superway join criterion, the
join-irreducibles as the least join-dense set) are cross-checked against the
direct scans they replace on small lattices."""

from itertools import combinations

import pytest

from ordertop import latid
from ordertop import topoderive as td
from ordertop.finstruct import (
    BinaryRelation,
    Topology,
    ValidationError,
    bits,
    is_directed,
    mask_of,
    mask_to_list,
    validate_lattice,
)
from ordertop.labcli import lattices

M3 = validate_lattice(5, (0b11111, 0b10010, 0b10100, 0b11000, 0b10000))
N5 = validate_lattice(5, (0b11111, 0b11010, 0b10100, 0b11000, 0b10000))
CHAIN3 = validate_lattice(3, (0b111, 0b110, 0b100))
DIAMOND = validate_lattice(4, (0b1111, 0b1010, 0b1100, 0b1000))
SIER = Topology(2, (0, 2, 3))

ALL_LATTICES_4 = lattices(4)
ALL_LATTICES_5 = lattices(5)
# every lattice with at most five elements
UP_TO_5 = [lat for k in range(1, 6) for lat in lattices(k)]

DISTRIBUTIVITY_LAWS = (
    "frame", "coframe", "wide-frame", "wide-coframe",
    "completely-distributive", "distributive",
)


# ---------------------------------------------------------------- set lattices

def test_open_and_closed_lattice_of_sierpinski_are_chains():
    for lat in (latid.open_lattice(SIER), latid.closed_lattice(SIER)):
        assert lat.n == 3
        assert lat.leq == CHAIN3.leq


def test_lower_sets_match_direct_scan():
    for lat in ALL_LATTICES_4:
        q = lat.poset()
        direct = sorted(
            m for m in range(1 << lat.n) if all(
                q.down(1 << x) & ~m == 0 for x in range(lat.n) if m >> x & 1
            )
        )
        assert q.lower_sets() == direct
        assert latid.lower_set_masks(lat) == direct


def _finitely_generated_lower_sets(lat):
    """Down-closures of all finite subsets, from the generating-set
    definition."""
    q = lat.poset()
    return sorted({q.down(f) for f in range(1 << lat.n)})


def _ideal_scan(lat):
    """Directed lower sets, ascending, by scanning every lower set."""
    q = lat.poset()
    return [d for d in q.lower_sets() if is_directed(q.leq, d)]


def test_lower_set_families_match_their_definitions():
    assert len(UP_TO_5) == 425
    for lat in UP_TO_5:
        assert latid.lower_set_masks(lat) == _finitely_generated_lower_sets(lat)
        assert latid.ideal_masks(lat) == _ideal_scan(lat)


def test_ideal_masks_on_diamond():
    # nonempty directed lower sets of 2x2: four principal ideals
    assert latid.ideal_masks(DIAMOND) == [0b0001, 0b0011, 0b0101, 0b1111]


# ---------------------------------------------------------------- law verdicts

@pytest.mark.parametrize("law", DISTRIBUTIVITY_LAWS)
@pytest.mark.parametrize("lat", [M3, N5], ids=["m3", "n5"])
def test_m3_n5_fail_every_distributivity_law(lat, law):
    ok, witness = latid.check_law(lat, law)
    assert not ok and witness is not None


def test_m3_frame_witness_is_atom_against_other_atoms():
    ok, witness = latid.check_law(M3, "frame")
    assert not ok and witness == (1, (2, 3))


def test_n5_distributive_witness():
    # 3 meet (1 join 2) = 3, but (3 meet 1) join (3 meet 2) = 1
    ok, witness = latid.check_law(N5, "distributive")
    assert not ok and witness == (3, 1, 2)


def test_chains_satisfy_all_laws():
    for law in latid.LAWS:
        ok, witness = latid.check_law(CHAIN3, law)
        assert ok and witness is None


def test_meet_continuous_and_continuous_hold_on_all_small_lattices():
    for lat in ALL_LATTICES_5:
        assert latid.check_law(lat, "meet-continuous")[0]
        assert latid.check_law(lat, "continuous-lattice")[0]


def _meet_join_law_over(lat, ymasks):
    """x meet join(Y) = join{x meet y : y in Y} over the given sets Y, with
    the least failing (x, Y) as witness."""
    for x in range(lat.n):
        for ymask in ymasks:
            lhs = lat.meet[x][lat.join_of(ymask)]
            rhs = lat.join_of(mask_of(lat.meet[x][y] for y in bits(ymask)))
            if lhs != rhs:
                return False, (x, tuple(mask_to_list(ymask)))
    return True, None


def test_frame_fold_matches_subset_scan():
    failing = 0
    for lat in UP_TO_5:
        for law, target in (("frame", lat), ("coframe", lat.dual())):
            got = latid.check_law(lat, law)
            assert got == _meet_join_law_over(target, range(1 << lat.n))
        failing += not latid.check_law(lat, "distributive")[0]
    # the witnesses were compared on every non-distributive lattice
    assert failing == 140


def _distributive_scan(lat):
    """The binary distributive law over all triples, least failing first."""
    for x in range(lat.n):
        for y in range(lat.n):
            for z in range(lat.n):
                lhs = lat.meet[x][lat.join[y][z]]
                rhs = lat.join[lat.meet[x][y]][lat.meet[x][z]]
                if lhs != rhs:
                    return False, (x, y, z)
    return True, None


def test_distributive_fold_matches_triple_scan():
    for lat in UP_TO_5:
        for target in (lat, lat.dual()):
            assert latid.check_law(target, "distributive") == _distributive_scan(target)


def test_meet_continuity_fold_matches_directed_scan():
    for lat in UP_TO_5:
        q = lat.poset()
        directed = [d for d in range(1, 1 << lat.n) if is_directed(q.leq, d)]
        assert latid.check_law(lat, "meet-continuous") == _meet_join_law_over(lat, directed)


def _collection_law(lat, family):
    """meet{join Y} = join(intersection YY) over all subcollections YY of the
    given family of lower sets (empty meet = top, empty intersection = all),
    with the witness collection on failure."""
    fam = list(family)
    full = (1 << lat.n) - 1
    joins = [lat.join_of(y) for y in fam]
    for sel in range(1 << len(fam)):
        lhs = lat.dual().bottom
        inter = full
        for i in bits(sel):
            lhs = lat.meet[lhs][joins[i]]
            inter &= fam[i]
        if lhs != lat.join_of(inter):
            return False, tuple(tuple(mask_to_list(fam[i])) for i in bits(sel))
    return True, None


def _collection_law_oracle(lat, law):
    if law == "continuous-lattice":
        return _collection_law(lat, latid.ideal_masks(lat))
    if law == "completely-distributive":
        return _collection_law(lat, latid.lower_set_masks(lat))
    if law == "wide-coframe":
        return _collection_law(lat, _finitely_generated_lower_sets(lat))
    dual = lat.dual()  # wide-frame
    return _collection_law(dual, _finitely_generated_lower_sets(dual))


def test_production_folds_agree_with_direct_scans():
    for lat in ALL_LATTICES_4:
        for law in ("continuous-lattice", "completely-distributive",
                    "wide-coframe", "wide-frame"):
            assert (
                latid.check_law(lat, law)[0]
                == _collection_law_oracle(lat, law)[0]
            )


def test_unknown_law():
    with pytest.raises(ValidationError) as err:
        latid.check_law(M3, "supermodular")
    assert err.value.code == "UnknownLaw"


# ---------------------------------------------------------------- relations

def _way_below_scan(lat):
    """x << y iff every directed set whose join dominates y meets the
    principal filter of x, scanned over all subsets."""
    n = lat.n
    q = lat.poset()
    rows = [(1 << n) - 1] * n
    for d in range(1, 1 << n):
        if not is_directed(q.leq, d):
            continue
        dominated = q.geq[lat.join_of(d)]
        for x in range(n):
            if not q.leq[x] & d:
                rows[x] &= ~dominated
    return tuple(rows)


def test_way_below_equals_order_on_finite_lattices():
    up_to_6 = UP_TO_5 + lattices(6)
    assert len(up_to_6) == 6815
    for lat in up_to_6:
        assert td.way_below_qoset(lat.poset()) == lat.leq
        assert _way_below_scan(lat) == lat.leq


def _superway_oracle(lat):
    """x sw y iff x lies in the down-closure of every subset whose join
    dominates y, scanned over all subsets."""
    n = lat.n
    q = lat.poset()
    rows = [(1 << n) - 1] * n
    for a in range(1 << n):
        dominated = q.geq[lat.join_of(a)]
        below = q.down(a)
        for x in range(n):
            if not below >> x & 1:
                rows[x] &= ~dominated
    return BinaryRelation(n, tuple(rows))


def test_superway_shortcut_agrees_with_direct_scan():
    for lat in ALL_LATTICES_5:
        assert latid.superway_relation(lat) == _superway_oracle(lat)


def test_superway_on_chain_and_m3():
    # 3-chain: bottom below everything above it, midpoint below itself and top
    assert latid.superway_relation(CHAIN3).rel == (0b110, 0b110, 0b100)
    # M3: the bottom is superway-below everything else; nothing else is
    # superway-below anything (an atom is below the join of the other two)
    assert latid.superway_relation(M3).rel == (0b11110, 0, 0, 0, 0)


# ---------------------------------------------------------------- coprimes

def test_coprimes_examples():
    # chain: every element except the bottom
    assert latid.coprimes(CHAIN3) == 0b110
    # 2x2: exactly the atoms
    assert latid.coprimes(DIAMOND) == 0b0110
    # M3: an atom sits below the join of the other two without being below
    # either, so no element above the bottom is coprime
    assert latid.coprimes(M3) == 0


# ---------------------------------------------------------------- weight

def test_min_join_dense_on_diamond():
    res = latid.min_join_dense(DIAMOND)
    assert res.weight == 2 and res.witness == (1, 2)


def test_weight_selfdual_for_distributive_small_lattices():
    for lat in ALL_LATTICES_5:
        if latid.check_law(lat, "distributive")[0]:
            assert (
                latid.min_join_dense(lat).weight
                == latid.min_join_dense(lat.dual()).weight
            )


def test_join_irreducibles_vs_join_density():
    for lat in ALL_LATTICES_4:
        ji = latid.join_irreducibles(lat)
        assert latid.is_join_dense(lat, ji)
        # the irreducibles are the least join-dense subset
        assert ji == mask_of(latid.min_join_dense(lat).witness)


def _min_join_dense_scan(lat):
    """Smallest join-dense subset, lexicographically least at its size, by
    scanning subsets in order of size."""
    for size in range(lat.n + 1):
        for combo in combinations(range(lat.n), size):
            if latid.is_join_dense(lat, mask_of(combo)):
                return latid.WeightResult(size, combo)
    raise AssertionError("the whole carrier is join-dense")


def test_min_join_dense_matches_subset_scan():
    for lat in UP_TO_5:
        assert latid.min_join_dense(lat) == _min_join_dense_scan(lat)
        assert latid.min_join_dense(lat.dual()) == _min_join_dense_scan(lat.dual())
