"""Ordered-space predicates: separation, convexity, stability, web / sector /
fan structure, mc-orderedness, semilattice continuity, and the sides of the
paper's equivalence theorems.

Every finite space is Alexandroff: each point x has a least open
neighborhood M[x] (`Topology.M`), and the only neighborhood of x inside M[x]
is M[x] itself.  So a neighborhood base of P-sets exists at x iff M[x] is a
P-set.

A finite topology is the family of unions of its M rows, so two topologies on
one carrier are equal iff their M rows agree.  The topology generated by a
subbase has as M[x] the meet of the members around x, so a generation
identity ("the topology is generated by ...") holds iff those meets are the M
rows of the ambient topology.
"""

from __future__ import annotations

from . import topoderive as td
from .finstruct import (
    OrderedSpace,
    Qoset,
    Topology,
    bits,
    is_directed,
    memo_property,
    subsets_of,
    unions_of,
)


# ---------------------------------------------------------------- tables

class Tables:
    """Per-space caches shared by the predicate evaluations."""

    def __init__(self, space: OrderedSpace):
        self.space = space
        self.q = space.qoset
        self.t = space.topology
        self.n = space.n
        self.full = self.t.full
        self.opens_set = set(self.t.opens)
        self.M = self.t.M  # shared by every ordering of one topology

    @memo_property
    def int_of(self):
        return interior_table_of(self.t)

    @memo_property
    def upper_space(self) -> Topology:
        return td.upper_space(self.space)

    @memo_property
    def lower_space(self) -> Topology:
        return td.lower_space(self.space)

    @memo_property
    def lower_opens(self):
        return self.lower_space.opens

    @memo_property
    def Mup(self):
        """Minimal open upper neighborhood per point (the specialization row
        of the upper space)."""
        return self.upper_space.M

    @memo_property
    def Mdown(self):
        return self.lower_space.M

    @memo_property
    def q2(self) -> Qoset:
        """Specialization qoset of the upper space."""
        return Qoset(self.n, self.Mup)

    @memo_property
    def int_up(self):
        """Interior (ambient topology) of each principal filter; computed
        directly, so a core check on a large space builds no interior
        table."""
        return tuple(td.interior(self.t, row) for row in self.q.leq)

    @memo_property
    def int_upper_of(self):
        return interior_table_of(self.upper_space)

    @memo_property
    def int_lower_of(self):
        return interior_table_of(self.lower_space)

    @memo_property
    def int_up_upper(self):
        """Interior w.r.t. the upper topology of each principal filter."""
        return tuple(self.int_upper_of[self.q.leq[u]] for u in range(self.n))

    @memo_property
    def upper_tables(self) -> "Tables":
        """Tables of the upper space, ordered by its specialization q2."""
        return Tables(OrderedSpace(self.q2, self.upper_space))

    @memo_property
    def upsilon_dual(self) -> Topology:
        """Weak topology of the dual of the upper-space specialization."""
        return td.weak_upper(self.q2.dual())

    @memo_property
    def directed(self):
        return td.directed_subsets(self.q)

    @memo_property
    def filtered(self):
        return td.filtered_subsets(self.q)

    @memo_property
    def upper_sets(self):
        return self.q.upper_sets()


def space_tables(s: Topology) -> Tables:
    """Tables of a topological space, ordered by its specialization."""
    return Tables(OrderedSpace(td.specialization(s), s))


def interior_table_of(t: Topology):
    """Interior of every point-set mask, as a list indexed by mask: the union
    of the minimal neighborhoods inside it."""
    full = t.full
    table = [0] * (full + 1)
    for row in set(t.M):
        for rest in subsets_of(full ^ row):
            table[rest | row] |= row
    return table


def _closure(tb: Tables, mask) -> int:
    return tb.full ^ tb.int_of[tb.full ^ mask]


# ---------------------------------------------------------------- separation

def is_lower_semi_qospace(tb: Tables) -> bool:
    """All principal ideals are closed."""
    return all(
        tb.full ^ tb.q.geq[x] in tb.opens_set for x in range(tb.n)
    )


def is_upper_semi_qospace(tb: Tables) -> bool:
    """All principal filters are closed."""
    return all(tb.full ^ tb.q.leq[x] in tb.opens_set for x in range(tb.n))


def is_semi_qospace(tb: Tables) -> bool:
    return is_lower_semi_qospace(tb) and is_upper_semi_qospace(tb)


def is_qospace(tb: Tables) -> bool:
    """For x not below y there are opens U around x and V around y whose
    up- and down-closures are disjoint; the minimal neighborhoods are the
    optimal witnesses."""
    q = tb.q
    for x in range(tb.n):
        for y in range(tb.n):
            if not q.leq[x] >> y & 1:
                if q.up(tb.M[x]) & q.down(tb.M[y]):
                    return False
    return True


def is_t2_ordered(tb: Tables) -> bool:
    """For x not below y: disjoint open upper set around x and open lower set
    around y (ordered spaces only); the minimal such neighborhoods are the
    optimal witnesses."""
    if not tb.q.is_antisymmetric():
        return False
    q = tb.q
    return all(
        q.leq[x] >> y & 1 or not (tb.Mup[x] & tb.Mdown[y])
        for x in range(tb.n) for y in range(tb.n)
    )


def is_upper_regular(tb: Tables) -> bool:
    """Every open upper set around a point contains a closed upper set that
    in turn contains an open upper neighborhood.  The least open upper set
    Mup[x] is the one to test, and every open upper neighborhood of x
    contains Mup[x], so the closed upper set between them is Mup[x] itself:
    the test is that every Mup[x], an upper set, is closed."""
    return all(tb.full ^ m in tb.opens_set for m in tb.Mup)


def is_lower_regular(tb: Tables) -> bool:
    """Dually: every Mdown[x] is closed."""
    return all(tb.full ^ m in tb.opens_set for m in tb.Mdown)


# ---------------------------------------------------------------- convexity

def is_locally_convex(tb: Tables) -> bool:
    """The convex open sets form a base: every M[x] is convex."""
    q = tb.q
    return all(q.up(m) & q.down(m) == m for m in tb.M)


def is_strongly_convex(tb: Tables) -> bool:
    """The topology is generated by the open upper and open lower sets."""
    return all(u & d == m for u, d, m in zip(tb.Mup, tb.Mdown, tb.M))


def _cotopology_convex(tb: Tables, cotop: Topology) -> bool:
    """The topology is generated by the open upper sets together with the
    cotopology (which is then contained in it)."""
    return all(u & c == m for u, c, m in zip(tb.Mup, cotop.M, tb.M))


def is_hyperconvex(tb: Tables) -> bool:
    return _cotopology_convex(tb, tb.upsilon_dual)


# ---------------------------------------------------------------- stability

def is_up_stable(tb: Tables) -> bool:
    return all(tb.q.up(o) in tb.opens_set for o in tb.t.opens)


def is_core_stable(tb: Tables) -> bool:
    """Up-closure of every open is the union of the interiors of the
    principal filters of its elements."""
    for o in tb.t.opens:
        m = 0
        for u in bits(o):
            m |= tb.int_up[u]
        if tb.q.up(o) != m:
            return False
    return True


def is_d_stable(tb: Tables) -> bool:
    """For every filtered set D: the interior of D is covered by interiors of
    principal filters of points in the lower-space closure of D."""
    for d in tb.filtered:
        cl = tb.full ^ tb.int_lower_of[tb.full ^ d]
        m = 0
        for u in bits(cl):
            m |= tb.int_up[u]
        if tb.int_of[d] & ~m:
            return False
    return True


def _family_stable(tb: Tables, family) -> bool:
    """Interior (upper topology) of each family member is the union of the
    upper-topology interiors of the principal filters of its points."""
    for y in family:
        m = 0
        for u in bits(y):
            m |= tb.int_up_upper[u]
        if tb.int_upper_of[y] != m:
            return False
    return True


def vee_family(q: Qoset):
    """Finite unions of principal filters (including the empty union): the
    upper sets."""
    return q.upper_sets()


def wedge_family(q: Qoset):
    """Finite intersections of principal filters (including the whole set)."""
    out = set()
    full = (1 << q.n) - 1
    for f in range(1 << q.n):
        m = full
        for x in bits(f):
            m &= q.leq[x]
        out.add(m)
    return sorted(out)


def diamond_family(q: Qoset):
    """Sublattice of upper sets generated by the principal filters together
    with the empty set and the whole set: unions of finite intersections."""
    return unions_of(wedge_family(q))


def is_vee_stable(tb: Tables) -> bool:
    return _family_stable(tb, vee_family(tb.q))


def is_wedge_stable(tb: Tables) -> bool:
    return _family_stable(tb, wedge_family(tb.q))


def is_diamond_stable(tb: Tables) -> bool:
    return _family_stable(tb, diamond_family(tb.q))


# ---------------------------------------------------------------- webs etc.

def _neighborhood_base(tb: Tables, pred) -> bool:
    """Every point x has a neighborhood base of sets w with pred(w, x); the
    only neighborhood of x inside M[x] is M[x], so it decides."""
    return all(pred(m, x) for x, m in enumerate(tb.M))


def _is_web_around(tb: Tables, w, x) -> bool:
    geq = tb.q.geq
    return w >> x & 1 and all(
        geq[x] & geq[y] & w for y in bits(w)
    )


def _is_filtered_set(tb: Tables, w) -> bool:
    return is_directed(tb.q.geq, w)


def _web_base(tb: Tables) -> bool:
    """Every point has a neighborhood base of webs around it w.r.t. tb.q."""
    return _neighborhood_base(tb, lambda w, x: _is_web_around(tb, w, x))


def is_web_space(s: Topology) -> bool:
    """Every point has a neighborhood base of webs around it with respect to
    the specialization order."""
    return _web_base(space_tables(s))


def is_core_base(tb: Tables, bmask) -> bool:
    """The cores of the members of B form neighborhood bases everywhere; the
    core of b is its principal filter in tb.q, the specialization of tb.t.
    At x it suffices that some b in B inside M[x] has x in the interior of
    its core, since that core lies inside M[x]."""
    return all(
        any(tb.int_up[b] >> x & 1 for b in bits(bmask & tb.M[x]))
        for x in range(tb.n)
    )


def _is_sector(tb: Tables, w) -> bool:
    return w != 0 and any(
        w == tb.q.leq[u] & v for u in range(tb.n) for v in tb.lower_opens
    )


def _is_fan(tb: Tables, w) -> bool:
    return w != 0 and any(
        w == tb.q.leq[u] & ~g
        for u in range(tb.n)
        for g in tb.upper_sets
    )


def is_web_ordered(tb: Tables) -> bool:
    return is_up_stable(tb) and _web_base(tb)


def is_locally_filtered(tb: Tables) -> bool:
    return _neighborhood_base(tb, lambda w, x: _is_filtered_set(tb, w))


def is_sector_space(tb: Tables) -> bool:
    return (
        is_up_stable(tb)
        and is_semi_qospace(tb)
        and _neighborhood_base(tb, lambda w, x: _is_sector(tb, w))
    )


def is_fan_space(tb: Tables) -> bool:
    return (
        is_up_stable(tb)
        and is_semi_qospace(tb)
        and _neighborhood_base(tb, lambda w, x: _is_fan(tb, w))
    )


def is_mc_ordered(tb: Tables) -> bool:
    """Every directed subset has a supremum to which it converges as a net:
    the net is eventually inside M[lub], hence inside every open around lub."""
    q = tb.q
    for d in tb.directed:
        lubm = td.least_upper_bounds(q, d)
        if not any(
            q.leq[e] & d & ~tb.M[lub] == 0 for lub in bits(lubm) for e in bits(d)
        ):
            return False
    return True


def is_upper_m_determined(tb: Tables) -> bool:
    """Every upper set meeting all directed sets whose closure meets it is
    open."""
    for u in tb.upper_sets:
        if u in tb.opens_set:
            continue
        if all(d & u for d in tb.directed if _closure(tb, d) & u):
            return False
    return True


def is_t2_space(t: Topology) -> bool:
    mins = t.M
    return all(
        not (mins[x] & mins[y])
        for x in range(t.n) for y in range(t.n) if x != y
    )


# ---------------------------------------------------------------- theorem sides

def thm_4_6_sides(tb: Tables):
    side1 = is_sector_space(tb)
    side2 = (
        is_semi_qospace(tb) and is_strongly_convex(tb) and is_core_stable(tb)
    )
    side3 = (
        is_qospace(tb)
        and is_strongly_convex(tb)
        and is_upper_regular(tb)
        and is_locally_filtered(tb)
        and is_up_stable(tb)
        and is_d_stable(tb)
    )
    return side1, side2, side3


def thm_5_3_sides(tb: Tables):
    side1 = is_fan_space(tb)
    side2 = (
        is_semi_qospace(tb) and is_hyperconvex(tb) and is_core_stable(tb)
    )
    side3 = _is_weak_patch_of(tb, _upper_is_core)
    return side1, side2, side3


def thm_6_2_sides(tb: Tables):
    q = tb.q
    poset = q.is_antisymmetric()
    lawson = td.lawson_topology(q) if poset else None
    side1 = poset and tb.t == lawson
    side2 = is_fan_space(tb) and td.is_sober(tb.upper_space)
    side3 = (
        poset
        and tb.t == lawson
        and is_wedge_stable(tb)
        and is_t2_space(tb.t)
    )
    side4 = (
        poset
        and is_semi_qospace(tb)
        and is_hyperconvex(tb)
        and is_mc_ordered(tb)
        and is_core_stable(tb)
    )
    side5 = (
        is_hyperconvex(tb)
        and is_mc_ordered(tb)
        and is_up_stable(tb)
        and is_diamond_stable(tb)
        and is_t2_space(tb.t)
    )
    return side1, side2, side3, side4, side5


def thm_7_2_sides(tb: Tables, meet):
    w11 = _is_weak_patch_of(tb, _upper_is_web)
    w12 = is_web_ordered(tb)
    w13 = is_semitopological(tb, meet)
    w21 = _is_weak_patch_of(tb, _upper_is_wide_web)
    w22 = is_locally_filtered(tb) and is_up_stable(tb)
    w23 = is_s_topological(tb, meet)
    w31 = _is_weak_patch_of(tb, _upper_is_core)
    w32 = is_core_stable(tb) and is_qospace(tb) and tb.q.is_antisymmetric()
    w33 = is_s_topological(tb, meet) and _upper_locally_compact(tb)
    return w11, w12, w13, w21, w22, w23, w31, w32, w33


def _is_weak_patch_of(tb: Tables, upper_pred) -> bool:
    """The space equals the weak patch of its upper space, and that upper
    space satisfies upper_pred.  The weak patch is ordered by the upper
    space's specialization and generated by its opens and the upsilon-dual
    cotopology, i.e. the space is hyperconvex."""
    return tb.q.leq == tb.Mup and is_hyperconvex(tb) and upper_pred(tb)


def _upper_is_core(tb: Tables) -> bool:
    return is_core_base(tb.upper_tables, tb.full)


def _upper_is_web(tb: Tables) -> bool:
    return _web_base(tb.upper_tables)


def _upper_is_wide_web(tb: Tables) -> bool:
    up_tb = tb.upper_tables
    return _neighborhood_base(up_tb, lambda w, x: _is_filtered_set(up_tb, w))


def _upper_locally_compact(tb: Tables) -> bool:
    s = tb.upper_space
    return _neighborhood_base(
        tb.upper_tables, lambda w, x: td.compactness(s, w, "compact")
    )


def prop_7_4_sides(tb: Tables):
    q = tb.q
    poset = q.is_antisymmetric()
    side1 = (
        poset
        and tb.t == td.lawson_topology(q)
        and td.compactness(tb.t, tb.full, "compact")
    )
    side2 = (
        is_locally_filtered(tb)
        and is_up_stable(tb)
        and td.compactness(tb.t, tb.full, "compact")
        and is_qospace(tb)
        and poset
    )
    return side1, side2


# ---------------------------------------------------------------- semilattices

def meet_table(q: Qoset):
    """Binary meet table of a meet-semilattice poset, or None."""
    if not q.is_antisymmetric():
        return None
    geq = q.geq
    rows = []
    for x in range(q.n):
        row = []
        for y in range(q.n):
            lower = geq[x] & geq[y]
            glbs = [
                z for z in bits(lower)
                if all(q.leq[w] >> z & 1 for w in bits(lower))
            ]
            if not glbs:
                return None
            row.append(glbs[0])
        rows.append(tuple(row))
    return tuple(rows)


def is_semitopological(tb: Tables, meet) -> bool:
    """All unary meet operations are continuous."""
    n = tb.n
    for x in range(n):
        for o in tb.t.opens:
            pre = sum(1 << y for y in range(n) if o >> meet[x][y] & 1)
            if pre not in tb.opens_set:
                return False
    return True


def is_topological(tb: Tables, meet) -> bool:
    """The binary meet operation is continuous w.r.t. the product topology:
    every pair has an open rectangle around it whose meet-image stays inside
    M[u meet v]; the rectangle M[u] x M[v] is the optimal witness."""
    n = tb.n
    for u in range(n):
        for v in range(n):
            img = 0
            for a in bits(tb.M[u]):
                for b in bits(tb.M[v]):
                    img |= 1 << meet[a][b]
            if img & ~tb.M[meet[u][v]]:
                return False
    return True


def is_s_topological(tb: Tables, meet) -> bool:
    """Topological semilattice with small semilattices: the binary meet is
    continuous and every point has a neighborhood base of subsemilattices."""
    return is_topological(tb, meet) and _neighborhood_base(
        tb, lambda w, x: _is_subsemilattice(tb, meet, w)
    )


def _is_subsemilattice(tb: Tables, meet, w) -> bool:
    return w != 0 and all(
        w >> meet[a][b] & 1 for a in bits(w) for b in bits(w)
    )
