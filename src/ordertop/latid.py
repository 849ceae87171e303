"""Lattice identity checkers, the superway relation, coprimes, join-dense
sets and lattice weight.

Each law is decided by the identity it folds to on a finite lattice
(Birkhoff, *Lattice Theory*, 1967; Davey & Priestley, *Introduction to
Lattices and Order*, 2002):

- frame, coframe: x meet join(Y) = join{x meet y : y in Y} over all subsets
  Y holds at a fixed x iff it holds for every two-member Y (induction on
  |Y|), so only the least x that fails the binary law is scanned over all Y,
  which keeps the lexicographically least witness;
- distributive: the binary law over all triples;
- meet-continuous: the same law over directed sets.  A finite directed set D
  has a top d, and both sides are x meet d, so it is checked once per
  (x, d), on the down-set of d;
- continuous-lattice, wide-frame, wide-coframe: the collection identity

      meet{ join(Y) : Y in YY } = join( intersection(YY) )

  over collections YY of ideals (the principal ideals) or of finitely
  generated lower sets (all lower sets).  Both families are
  intersection-closed, so the identity folds to two-member collections;
- completely-distributive: every element is the join of the elements
  superway-below it.

The tests replay every fold against the scan it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def ideal_masks(lat: Lattice):
    """Directed lower sets, ascending.  A finite directed set has a top, so
    these are the principal ideals."""
    return sorted(lat.poset().geq)


# ------------------------------------------------------------ law checking

def check_law(lat: Lattice, law: str):
    """Verdict for a lattice law, plus the lexicographically least
    counterexample witness on failure (None on success).

    Each law is decided by its finite identity (see the module docstring):
    frame and coframe by the binary law per x, meet-continuity per (x, top),
    the ideal and lower-set collection laws on two-member collections, and
    complete distributivity by the superway join criterion."""
    if law == "frame":
        return _frame_law(lat)
    if law == "coframe":
        return _frame_law(lat.dual())
    if law == "distributive":
        return _distributive(lat)
    if law == "meet-continuous":
        return _meet_continuous(lat)
    if law == "continuous-lattice":
        return _pairwise_collection_law(lat, ideal_masks(lat))
    if law == "completely-distributive":
        return _superway_join_test(lat)
    if law == "wide-coframe":
        return _pairwise_collection_law(lat, lower_set_masks(lat))
    if law == "wide-frame":
        dual = lat.dual()
        return _pairwise_collection_law(dual, lower_set_masks(dual))
    raise ValidationError("UnknownLaw", (law,))


def _meets_distribute(lat: Lattice, x, ymask) -> bool:
    """x meet join(Y) = join{x meet y : y in Y}."""
    rhs = lat.join_of(mask_of(lat.meet[x][y] for y in bits(ymask)))
    return lat.meet[x][lat.join_of(ymask)] == rhs


def _frame_law(lat: Lattice):
    """The frame law over all subsets Y, decided per x by its binary case;
    the least failing x is scanned over all Y for the least witness."""
    for x in range(lat.n):
        if _binary_failure(lat, x) is None:
            continue
        for ymask in range(1 << lat.n):
            if not _meets_distribute(lat, x, ymask):
                return False, (x, tuple(mask_to_list(ymask)))
    return True, None


def _meet_continuous(lat: Lattice):
    """The frame law over directed sets: checked once per (x, d) on the
    down-set of d, since a directed set with top d gives x meet d on both
    sides."""
    geq = lat.poset().geq
    for x in range(lat.n):
        for d in range(lat.n):
            if not _meets_distribute(lat, x, geq[d]):
                return False, (x, tuple(mask_to_list(geq[d])))
    return True, None


def _distributive(lat: Lattice):
    """The binary law over all triples.  It holds when y = z and is
    symmetric in y and z, so the least failing triple has y < z."""
    for x in range(lat.n):
        pair = _binary_failure(lat, x)
        if pair is not None:
            return False, (x, *pair)
    return True, None


def _binary_failure(lat: Lattice, x):
    """The least pair y < z with x meet (y join z) != (x meet y) join
    (x meet z), or None."""
    n = lat.n
    join, mx = lat.join, lat.meet[x]
    for y in range(n):
        for z in range(y + 1, n):
            if mx[join[y][z]] != join[mx[y]][mx[z]]:
                return y, z
    return None


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
    cols = transpose(lat.n, superway_relation(lat).rel)
    for y in range(lat.n):
        if lat.join_of(cols[y]) != y:
            return False, (y,)
    return True, None


# ------------------------------------------------------------ superway

def superway_relation(lat: Lattice) -> BinaryRelation:
    """x sw y iff x lies in the down-closure of every subset whose join
    dominates y; that is, iff y is not below the join of the complement of
    the principal filter of x (the complement is the critical subset)."""
    n = lat.n
    q = lat.poset()
    full = (1 << n) - 1
    rows = []
    for x in range(n):
        j = lat.join_of(full ^ q.leq[x])
        rows.append(full ^ q.geq[j])
    return BinaryRelation(n, tuple(rows))


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
    """Smallest join-dense subset (lexicographically least at minimal size).
    In a finite lattice the join-irreducibles are join-dense and lie in every
    join-dense subset, so they are the unique minimum."""
    ji = join_irreducibles(lat)
    return WeightResult(ji.bit_count(), tuple(mask_to_list(ji)))


def join_irreducibles(lat: Lattice) -> int:
    """Elements that are not the join of the strictly smaller elements."""
    return mask_of(
        y for y in range(lat.n)
        if lat.join_of(lat.down_mask(y) & ~(1 << y)) != y
    )
