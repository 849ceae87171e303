"""Lattice identity checkers, the way-below and superway relations, coprimes,
join-dense sets and lattice weight.

Laws are each implemented from their own defining identity; the distributivity
identity over set collections is written as

    meet{ join(Y) : Y in YY } = join( intersection(YY) )

over collections YY of lower sets (all / finitely generated / ideals, per law).
It is decided by its two-member fold on the intersection-closed families, and
for all lower sets by the superway join criterion; the tests replay both
against the scan over every subcollection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .finstruct import (
    BinaryRelation,
    Lattice,
    Topology,
    ValidationError,
    bits,
    is_directed,
    mask_of,
    mask_to_list,
    transpose,
    validate_lattice,
)
from .topoderive import directed_subsets

LAWS = (
    "frame",
    "coframe",
    "wide-frame",
    "wide-coframe",
    "completely-distributive",
    "meet-continuous",
    "continuous-lattice",
    "distributive",
)


@dataclass(frozen=True)
class WeightResult:
    weight: int
    witness: tuple  # minimal join-dense subset, sorted


# ------------------------------------------------------------ set lattices

def open_lattice(t: Topology) -> Lattice:
    """Lattice of open sets by inclusion; element i is sorted(opens)[i]."""
    return _inclusion_lattice(t.opens)


def closed_lattice(t: Topology) -> Lattice:
    """Lattice of closed sets by inclusion; element i is sorted(closeds)[i]."""
    return _inclusion_lattice(t.closeds())


def _inclusion_lattice(members) -> Lattice:
    ordered = sorted(members)
    k = len(ordered)
    rows = tuple(
        mask_of(j for j in range(k) if ordered[i] & ~ordered[j] == 0)
        for i in range(k)
    )
    return validate_lattice(k, rows)


# ------------------------------------------------------------ set families

def lower_set_masks(lat: Lattice):
    """All lower sets of the lattice order, ascending as masks."""
    return lat.poset().lower_sets()


def finitely_generated_lower_sets(lat: Lattice):
    """Down-closures of finite subsets (on a finite carrier: all lower sets,
    but constructed from the generating-set definition)."""
    q = lat.poset()
    return sorted({q.down(f) for f in range(1 << lat.n)})


def ideal_masks(lat: Lattice):
    """Directed lower sets, ascending."""
    q = lat.poset()
    return [d for d in q.lower_sets() if is_directed(q.leq, d)]


# ------------------------------------------------------------ law checking

def check_law(lat: Lattice, law: str):
    """Verdict for a lattice law, plus the lexicographically least
    counterexample witness on failure (None on success)."""
    if law == "frame":
        return _binary_meet_join_law(lat)
    if law == "coframe":
        return _binary_meet_join_law(lat.dual())
    if law == "distributive":
        return _distributive(lat)
    if law == "meet-continuous":
        return _meet_join_law_over(lat, directed_subsets(lat.poset()))
    if law == "continuous-lattice":
        return _pairwise_collection_law(lat, ideal_masks(lat))
    if law == "completely-distributive":
        return _superway_join_test(lat)
    if law == "wide-coframe":
        return _pairwise_collection_law(lat, finitely_generated_lower_sets(lat))
    if law == "wide-frame":
        dual = lat.dual()
        return _pairwise_collection_law(dual, finitely_generated_lower_sets(dual))
    raise ValidationError("UnknownLaw", (law,))


def _binary_meet_join_law(lat: Lattice):
    """x meet join(Y) = join{x meet y : y in Y} over all subsets Y."""
    for x in range(lat.n):
        for ymask in range(1 << lat.n):
            lhs = lat.meet[x][lat.join_of(ymask)]
            rhs = lat.join_of(mask_of(lat.meet[x][y] for y in bits(ymask)))
            if lhs != rhs:
                return False, (x, tuple(mask_to_list(ymask)))
    return True, None


def _meet_join_law_over(lat: Lattice, ymasks):
    for x in range(lat.n):
        for ymask in ymasks:
            lhs = lat.meet[x][lat.join_of(ymask)]
            rhs = lat.join_of(mask_of(lat.meet[x][y] for y in bits(ymask)))
            if lhs != rhs:
                return False, (x, tuple(mask_to_list(ymask)))
    return True, None


def _distributive(lat: Lattice):
    for x in range(lat.n):
        for y in range(lat.n):
            for z in range(lat.n):
                lhs = lat.meet[x][lat.join[y][z]]
                rhs = lat.join[lat.meet[x][y]][lat.meet[x][z]]
                if lhs != rhs:
                    return False, (x, y, z)
    return True, None


def _pairwise_collection_law(lat: Lattice, family):
    """The collection identity restricted to two-member collections; the
    family is intersection-closed, so the finite identity folds to pairs."""
    fam = list(family)
    joins = [lat.join_of(y) for y in fam]
    for i, y1 in enumerate(fam):
        for j in range(i, len(fam)):
            y2 = fam[j]
            if lat.meet[joins[i]][joins[j]] != lat.join_of(y1 & y2):
                return False, (tuple(mask_to_list(y1)), tuple(mask_to_list(y2)))
    return True, None


def _superway_join_test(lat: Lattice):
    """Every element is the join of the elements superway-below it."""
    cols = transpose(lat.n, below_relation(lat, "superway").rel)
    for y in range(lat.n):
        if lat.join_of(cols[y]) != y:
            return False, (y,)
    return True, None


# ------------------------------------------------------------ below relations

def below_relation(lat: Lattice, kind: str) -> BinaryRelation:
    """way-below: x << y iff every directed set whose join dominates y meets
    the principal filter of x.  superway: x sw y iff x lies in the down-closure
    of every subset whose join dominates y."""
    n = lat.n
    q = lat.poset()
    if kind == "way-below":
        rows = [(1 << n) - 1] * n
        for d in directed_subsets(q):
            join = lat.join_of(d)
            if not _is_join_of(lat, q, d, join):
                continue
            dominated = q.geq[join]
            for x in range(n):
                if not q.leq[x] & d:
                    rows[x] &= ~dominated
        return BinaryRelation(n, tuple(rows))
    if kind == "superway":
        # x sw y iff y is not below the join of the complement of the
        # principal filter of x (the complement is the critical subset)
        full = (1 << n) - 1
        rows = []
        for x in range(n):
            j = lat.join_of(full ^ q.leq[x])
            rows.append(full ^ q.geq[j])
        return BinaryRelation(n, tuple(rows))
    raise ValidationError("UnknownKind", (kind,))


def _is_join_of(lat: Lattice, q, d, join) -> bool:
    ub = (1 << lat.n) - 1
    for x in bits(d):
        ub &= q.leq[x]
    return q.leq[join] == ub and ub >> join & 1


# ------------------------------------------------------------ coprimes

def coprimes(lat: Lattice) -> int:
    """Elements whose principal-filter complement is an ideal, as a mask."""
    q = lat.poset()
    full = (1 << lat.n) - 1
    out = 0
    for x in range(lat.n):
        c = full ^ q.leq[x]
        if q.down(c) == c and is_directed(q.leq, c):
            out |= 1 << x
    return out


# ------------------------------------------------------------ weight

def is_join_dense(lat: Lattice, bmask) -> bool:
    return all(lat.join_of(lat.down_mask(y) & bmask) == y for y in range(lat.n))


def min_join_dense(lat: Lattice) -> WeightResult:
    """Smallest join-dense subset (lexicographically least at minimal size)."""
    for size in range(lat.n + 1):
        for combo in combinations(range(lat.n), size):
            if is_join_dense(lat, mask_of(combo)):
                return WeightResult(size, combo)
    raise AssertionError("the whole carrier is join-dense")


def join_irreducibles(lat: Lattice) -> int:
    """Elements that are not the join of the strictly smaller elements."""
    return mask_of(
        y for y in range(lat.n)
        if lat.join_of(lat.down_mask(y) & ~(1 << y)) != y
    )
