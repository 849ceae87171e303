"""Idempotent ideal relations and the locally-supercompact correspondence:
interior relations, the induced topology O_R, rounded sets and the rounded
ideal completion, the nine-way profile of local supercompactness, core bases,
R-density and cardinal invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import latid, ospace
from . import topoderive as td
from .finstruct import (
    BinaryRelation,
    Qoset,
    SpaceMap,
    Topology,
    ValidationError,
    bits,
    generate_topology,
    is_directed,
    mask_of,
    transpose,
    unbounded_pair,
    unions_of,
    validate_topology,
)

# ------------------------------------------------------------ C-quasi-orders

@dataclass(frozen=True)
class CQuasiOrder:
    """Idempotent relation whose point preimages Ry = {x : x R y} are ideals
    with respect to the lower quasi-order (x below y iff Rx subset of Ry)."""

    n: int
    rel: tuple  # row masks: rel[x] = {y : x R y}

    @property
    def preimages(self):
        """cols[y] = mask of Ry = {x : x R y}."""
        return transpose(self.n, self.rel)

    def lower_qoset(self) -> Qoset:
        cols = self.preimages
        rows = tuple(
            mask_of(y for y in range(self.n) if cols[x] & ~cols[y] == 0)
            for x in range(self.n)
        )
        return Qoset(self.n, rows)

    def relation(self) -> BinaryRelation:
        return BinaryRelation(self.n, self.rel)


def interior_relation(s: Topology) -> BinaryRelation:
    """x R y iff y lies in the interior of the core (saturation) of x; the
    core of x is its minimal neighborhood, which is open."""
    return BinaryRelation(s.n, s.M)


def validate_cquasiorder(n, relation) -> CQuasiOrder:
    rows = relation.rel if isinstance(relation, BinaryRelation) else tuple(relation)
    c = CQuasiOrder(n, rows)
    cols = c.preimages
    for y in range(n):
        if not cols[y]:
            raise ValidationError("EmptyPointPreimage", (y,))
    comp = tuple(_compose_row(rows, x) for x in range(n))
    for x in range(n):
        if comp[x] != rows[x]:
            z = next(bits(comp[x] ^ rows[x]))
            raise ValidationError("NotIdempotent", (x, z))
    leq = c.lower_qoset().leq
    for y in range(n):
        for a in bits(cols[y]):
            for b in range(n):
                if leq[b] >> a & 1 and not cols[y] >> b & 1:
                    raise ValidationError("NotDownClosed", (y, a, b))
        pair = unbounded_pair(leq, cols[y])
        if pair:
            raise ValidationError("NotDirected", (y,) + pair)
    return c


def _compose_row(rows, x):
    m = 0
    for y in bits(rows[x]):
        m |= rows[y]
    return m


def relation_preimage(rows, n, ymask) -> int:
    """RY = {x : exists y in Y with x R y}."""
    return mask_of(x for x in range(n) if rows[x] & ymask)


def topology_of(r: CQuasiOrder) -> Topology:
    """O_R: all sets YR, i.e. all unions of the point images xR."""
    return validate_topology(r.n, unions_of(r.rel))


def rounded_sets(r: CQuasiOrder):
    """All fixed points of Y -> RY, ascending as masks."""
    n = r.n
    return [
        y for y in range(1 << n) if relation_preimage(r.rel, n, y) == y
    ]


@dataclass(frozen=True)
class Completion:
    """Rounded ideals by inclusion, with the basis map x -> Rx."""

    domain: Qoset
    ideals: tuple  # masks, ascending; domain element i is ideals[i]
    basis: SpaceMap


def rounded_ideals(r: CQuasiOrder):
    """Rounded sets that are ideals (directed lower sets) of the lower
    quasi-order."""
    q = r.lower_qoset()
    return [y for y in rounded_sets(r) if q.down(y) == y and is_directed(q.leq, y)]


def rounded_ideal_completion(r: CQuasiOrder) -> Completion:
    ideals = rounded_ideals(r)
    k = len(ideals)
    rows = tuple(
        mask_of(j for j in range(k) if ideals[i] & ~ideals[j] == 0)
        for i in range(k)
    )
    domain = Qoset(k, rows)
    cols = r.preimages
    basis = SpaceMap(r.n, k, tuple(ideals.index(cols[x]) for x in range(r.n)))
    wb = td.way_below_qoset(domain)
    for x in range(r.n):
        for y in range(r.n):
            if bool(r.rel[x] >> y & 1) != bool(wb[basis(x)] >> basis(y) & 1):
                raise ValidationError("CompletionMismatch", (x, y))
    return Completion(domain, tuple(ideals), basis)


# ------------------------------------------------------ nine-way profile

@dataclass(frozen=True)
class CoreProfile:
    core_base: bool
    locally_supercompact: bool
    open_lattice_supercontinuous: bool
    closed_lattice_supercontinuous: bool
    closed_lattice_continuous: bool
    interior_preserves_upper_unions: bool
    closure_preserves_lower_intersections: bool
    locally_hypercompact_web: bool
    locally_compact_wide_web: bool

    @property
    def flags(self):
        return (
            self.core_base,
            self.locally_supercompact,
            self.open_lattice_supercontinuous,
            self.closed_lattice_supercontinuous,
            self.closed_lattice_continuous,
            self.interior_preserves_upper_unions,
            self.closure_preserves_lower_intersections,
            self.locally_hypercompact_web,
            self.locally_compact_wide_web,
        )

    @property
    def agreement(self) -> bool:
        return len(set(self.flags)) == 1


def is_core_space(s: Topology) -> bool:
    """Every point has a neighborhood base of cores."""
    return core_basis_check(s, s.full)


def core_space_profile(s: Topology) -> CoreProfile:
    tb = ospace.space_tables(s)
    q = tb.q

    def local_base(pred):
        return ospace._neighborhood_base(tb, lambda c, _x: pred(c))

    open_lat = latid.open_lattice(s)
    closed_lat = latid.closed_lattice(s)
    return CoreProfile(
        core_base=is_core_space(s),
        locally_supercompact=local_base(
            lambda c: td.compactness(s, c, "supercompact")
        ),
        open_lattice_supercontinuous=latid.check_law(
            open_lat, "completely-distributive"
        )[0],
        closed_lattice_supercontinuous=latid.check_law(
            closed_lat, "completely-distributive"
        )[0],
        closed_lattice_continuous=latid.check_law(
            closed_lat, "continuous-lattice"
        )[0],
        interior_preserves_upper_unions=_interior_preserves_upper_unions(s, q),
        closure_preserves_lower_intersections=_closure_preserves_lower_intersections(s, q),
        locally_hypercompact_web=local_base(
            lambda c: td.compactness(s, c, "hypercompact")
        ) and ospace._web_base(tb),
        locally_compact_wide_web=local_base(
            lambda c: td.compactness(s, c, "compact")
        ) and local_base(lambda c: ospace._is_filtered_set(tb, c)),
    )


def _interior_preserves_upper_unions(s: Topology, q: Qoset) -> bool:
    """int(union of upper sets) = union of interiors; since every upper set
    is the union of the cores of its points, the family identity holds iff
    int(Z) = union{int(core(y)) : y in Z} for every upper set Z.  The upper
    sets of the specialization are the opens."""
    ints = [td.interior(s, q.leq[y]) for y in range(s.n)]
    for z in s.opens:
        m = 0
        for y in bits(z):
            m |= ints[y]
        if td.interior(s, z) != m:
            return False
    return True


def _closure_preserves_lower_intersections(s: Topology, q: Qoset) -> bool:
    """cl(intersection of lower sets) = intersection of closures; every lower
    set is the intersection of the filter-complements X minus core(y) over
    the points y outside it, which folds the family identity per lower set.
    The lower sets of the specialization are the closeds."""
    full = s.full
    cls = [td.closure(s, full ^ q.leq[y]) for y in range(s.n)]
    for z in s.closeds():
        m = full
        for y in bits(full ^ z):
            m &= cls[y]
        if td.closure(s, z) != m:
            return False
    return True


# ------------------------------------------------------------ core bases

def core_basis_check(s: Topology, bmask) -> bool:
    """Cores of members of B form neighborhood bases everywhere."""
    return ospace.is_core_base(ospace.space_tables(s), bmask)


def minimal_core_basis(s: Topology) -> int:
    """The lexicographically least core basis of least size.  At x a core
    basis needs some b in M[x] with x in the interior of the core M[b], that
    is b equivalent to x; so it meets every specialization class (the points
    with one M row), and the least point of each class is the answer."""
    least = {}
    for x, row in enumerate(s.M):
        least.setdefault(row, x)
    return mask_of(least.values())


# ------------------------------------------------------------ density

def r_dense(r: BinaryRelation, bmask) -> bool:
    """x R y implies x R b R y for some b in B."""
    return all(
        not r.rel[x] >> y & 1
        or any(r.rel[x] >> b & 1 and r.rel[b] >> y & 1 for b in bits(bmask))
        for x in range(r.n)
        for y in range(r.n)
    )


def r_cofinal(r: BinaryRelation, bmask) -> bool:
    """x R y implies x below-R b and b R y for some b in B."""
    cols = transpose(r.n, r.rel)
    return all(
        not r.rel[x] >> y & 1
        or any(
            cols[x] & ~cols[b] == 0 and r.rel[b] >> y & 1 for b in bits(bmask)
        )
        for x in range(r.n)
        for y in range(r.n)
    )


# ------------------------------------------------------------ invariants

def skula(s: Topology) -> Topology:
    """Topology generated by the opens together with the closeds (coincides
    with the strong patch topology)."""
    return generate_topology(s.n, list(s.opens) + s.closeds())


def prop_9_1_conditions(s: Topology, bmask):
    """The five characterizations of a weight-attaining subset B: R-dense,
    R-cofinal, core basis, dense in the strong patch topology, and point
    closures of B join-dense among closed sets."""
    r = interior_relation(s)
    sk = skula(s)
    dense_skula = td.closure(sk, bmask) == s.full
    cls = [td.closure(s, 1 << b) for b in range(s.n)]
    closeds = s.closeds()
    join_dense = all(
        a == _union_of(cl for b, cl in enumerate(cls)
                       if bmask >> b & 1 and cl & ~a == 0)
        for a in closeds
    )
    return (
        r_dense(r, bmask),
        r_cofinal(r, bmask),
        core_basis_check(s, bmask),
        dense_skula,
        join_dense,
    )


def _union_of(masks) -> int:
    m = 0
    for x in masks:
        m |= x
    return m


def minimal_topology_base(t: Topology):
    """Smallest subfamily of opens from which every open is a union: every
    base contains each minimal neighborhood M[x], and those form a base."""
    return tuple(sorted(set(t.M)))


@dataclass(frozen=True)
class InvariantBundle:
    c: int
    w_open: int
    w_closed: int
    w_patch: int
    d_patch: int
    c_witness: int  # point mask
    w_open_witness: tuple  # open masks
    w_closed_witness: tuple  # closed masks
    w_patch_witness: tuple  # patch-open masks
    d_patch_witness: int  # point mask

    @property
    def values(self):
        return (self.c, self.w_open, self.w_closed, self.w_patch, self.d_patch)


def cardinal_invariants(s: Topology) -> InvariantBundle:
    """Each invariant with its least witness, read off the minimal
    neighborhoods: c by the least core basis, which is also least R-cofinal;
    w_closed by the distinct point closures, the join-irreducible closeds."""
    c_witness = minimal_core_basis(s)
    w_open_witness = minimal_topology_base(s)
    w_closed_witness = tuple(sorted(set(td.specialization(s).geq)))
    patch_topology = td.patch(s, "upsilon").topology
    w_patch_witness = minimal_topology_base(patch_topology)
    d_patch, d_patch_witness = _minimal_dense(patch_topology)
    return InvariantBundle(
        c=c_witness.bit_count(),
        w_open=len(w_open_witness),
        w_closed=len(w_closed_witness),
        w_patch=len(w_patch_witness),
        d_patch=d_patch,
        c_witness=c_witness,
        w_open_witness=w_open_witness,
        w_closed_witness=w_closed_witness,
        w_patch_witness=w_patch_witness,
        d_patch_witness=d_patch_witness,
    )


def _minimal_dense(t: Topology):
    """Minimal subset meeting every nonempty open.  The minimal nonempty
    opens are the inclusion-minimal M rows and are pairwise disjoint, so
    the least point (lowest bit) of each is the least such subset."""
    rows = set(t.M)
    minimal = [r for r in rows if not any(o != r and o & ~r == 0 for o in rows)]
    return len(minimal), _union_of(r & -r for r in minimal)
