"""Derived topologies and space-level constructions.

Specialization, the Alexandroff / weak / Scott / Lawson topologies, patch and
upper/lower space functors, hull and kernel operators, compactness notions,
sobriety, the cocompact topology, and the coarsest quasi-uniformity of a
locally supercompact space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finstruct import (
    BinaryRelation,
    OrderedSpace,
    Qoset,
    Topology,
    ValidationError,
    bits,
    generate_topology,
    mask_of,
    subsets_of,
    transpose,
)

COSELECTIONS = ("upsilon", "sigma", "alpha")

# ----------------------------------------------------------- specialization

def specialization(t: Topology) -> Qoset:
    """x <= y iff every open containing x contains y: the rows are M."""
    return Qoset(t.n, t.M)


def directed_subsets(q: Qoset):
    """Nonempty subsets in which every pair has an upper bound inside,
    ascending.  A finite directed set has a greatest element d up to
    equivalence, so the directed sets are the sets {d} | sub with sub a
    subset of the down-set of d."""
    return _topped(q.geq)


def filtered_subsets(q: Qoset):
    """Nonempty subsets in which every pair has a lower bound inside,
    ascending: the sets {d} | sub with sub a subset of the up-set of d."""
    return _topped(q.leq)


def _topped(rows):
    out = set()
    for d, row in enumerate(rows):
        top = 1 << d
        out.update(sub | top for sub in subsets_of(row & ~top))
    return sorted(out)


def upper_bounds(q: Qoset, mask) -> int:
    m = (1 << q.n) - 1
    for x in bits(mask):
        m &= q.leq[x]
    return m


def least_upper_bounds(q: Qoset, mask) -> int:
    """{y : for all z, (mask subset of down z) iff y <= z}, as a mask."""
    ub = upper_bounds(q, mask)
    return mask_of(y for y in range(q.n) if q.leq[y] == ub)


def way_below_qoset(q: Qoset):
    """Way-below row masks: x wb y iff every directed set with a least upper
    bound dominating y meets the filter of x.  A finite directed set has a
    greatest element up to equivalence, which is one of its least upper
    bounds, so x wb y iff x <= y: the rows are the order."""
    return q.leq


# ----------------------------------------------------------- upset topologies

def alexandroff(q: Qoset) -> Topology:
    return Topology(q.n, tuple(q.upper_sets()))


def weak_upper(q: Qoset) -> Topology:
    full = (1 << q.n) - 1
    return generate_topology(q.n, [full ^ q.down(1 << x) for x in range(q.n)])


def scott_topology(q: Qoset) -> Topology:
    """Upper sets meeting every directed set with a least upper bound inside
    them.  A finite directed set contains a greatest element up to
    equivalence, which is one of its least upper bounds, so every upper set
    qualifies: the Scott topology is the Alexandroff topology."""
    return alexandroff(q)


def lawson_topology(q: Qoset) -> Topology:
    sigma = scott_topology(q)
    upsdual = weak_upper(q.dual())
    return generate_topology(q.n, list(sigma.opens) + list(upsdual.opens))


def upset_topology(q: Qoset, which: str) -> Topology:
    if which == "alpha":
        return alexandroff(q)
    if which == "upsilon":
        return weak_upper(q)
    if which == "sigma":
        return scott_topology(q)
    if which == "lawson":
        return lawson_topology(q)
    raise ValidationError("UnknownSelection", (which,))


# ----------------------------------------------------------- hulls & kernels

def interior(t: Topology, mask) -> int:
    """Union of the minimal neighborhoods inside the mask."""
    rows = t.M
    m = 0
    for x in bits(mask):
        if rows[x] & ~mask == 0:
            m |= rows[x]
    return m


def closure(t: Topology, mask) -> int:
    return t.full ^ interior(t, t.full ^ mask)


def saturation(t: Topology, mask) -> int:
    """Intersection of all open neighborhoods: the union of the minimal
    neighborhoods of the points."""
    m = 0
    for x in bits(mask):
        m |= t.M[x]
    return m


# ----------------------------------------------------------- patch functors

def coselection_subbase(s: Topology, zeta: str) -> Topology:
    """zeta(S): the chosen cotopology subbase, built on the dual of the
    specialization qoset of S."""
    if zeta not in COSELECTIONS:
        raise ValidationError("UnknownSelection", (zeta,))
    return upset_topology(specialization(s).dual(), zeta)


def patch(s: Topology, zeta: str) -> OrderedSpace:
    q = specialization(s)
    cot = coselection_subbase(s, zeta)
    topo = generate_topology(s.n, list(s.opens) + list(cot.opens))
    return OrderedSpace(q, topo)


def upper_space(t: OrderedSpace) -> Topology:
    opens = [u for u in t.topology.opens if t.qoset.up(u) == u]
    return Topology(t.n, tuple(opens))


def lower_space(t: OrderedSpace) -> Topology:
    opens = [u for u in t.topology.opens if t.qoset.down(u) == u]
    return Topology(t.n, tuple(opens))


# ----------------------------------------------------------- compactness

def compactness(t: Topology, c, kind: str) -> bool:
    if kind == "compact":
        # every subfamily of a finite topology is finite, so any open cover
        # of c is its own finite subcover
        return True
    if kind == "supercompact":
        # every open cover of c has a member containing c iff some point of
        # c has all of c in its minimal neighborhood; the empty set is
        # covered by the empty family, so it is never supercompact
        return any(c & ~t.M[x] == 0 for x in bits(c))
    if kind == "hypercompact":
        sat = saturation(t, c)
        q = specialization(t)
        minimal = mask_of(
            x for x in bits(sat) if not any(
                y != x and q.leq[y] >> x & 1 and not q.leq[x] >> y & 1
                for y in bits(sat)
            )
        )
        return q.up(minimal) == sat
    raise ValidationError("UnknownKind", (kind,))


# ----------------------------------------------------------- sobriety et al.

def is_sober(t: Topology) -> bool:
    """T0, and every irreducible closed set is a point closure.  A finite
    closed set is the union of the closures of its points, so an irreducible
    one is a point closure: a finite space is sober iff it is T0."""
    return t.is_t0()


def is_dspace(t: Topology) -> bool:
    """T0, and the closure of every directed set is a point closure.  A
    finite directed set has a greatest element up to equivalence, whose
    closure is that of the set, so a finite space is a d-space iff it is T0."""
    return t.is_t0()


def cocompact(t: Topology) -> Topology:
    """Generated by complements of compact saturated sets."""
    full = t.full
    compl = [
        full ^ c
        for c in range(full + 1)
        if saturation(t, c) == c and compactness(t, c, "compact")
    ]
    return generate_topology(t.n, compl)


# ----------------------------------------------------------- quasi-uniformity

@dataclass(frozen=True)
class EntourageBase:
    """Finite filter base of reflexive relations, intersection-closed."""

    n: int
    base: tuple

    def __post_init__(self):
        if not self.base:
            raise ValidationError("EmptyBase")
        for r in self.base:
            for x in range(self.n):
                if not r.rel[x] >> x & 1:
                    raise ValidationError("NotReflexive", (x,))


def quasi_uniformity(s: Topology) -> EntourageBase:
    """Coarsest quasi-uniformity inducing s, generated by the entourages
    x'R -> y'R over pairs with y' R x' (R the interior relation)."""
    n = s.n
    full = (1 << n) - 1
    rrows = s.M  # the interior relation: the core of x is open
    gens = set()
    for xp in range(n):
        for yp in range(n):
            if rrows[yp] >> xp & 1:
                xr, yr = rrows[xp], rrows[yp]
                rows = tuple(yr if xr >> x & 1 else full for x in range(n))
                gens.add(rows)
    closed = set(gens)
    frontier = gens
    while frontier:
        frontier = {
            tuple(ra & rb for ra, rb in zip(a, b)) for a in frontier for b in closed
        } - closed
        closed |= frontier
    base = tuple(BinaryRelation(n, rows) for rows in sorted(closed))
    return EntourageBase(n, base)


def _tau_from(n, relations) -> Topology:
    opens = []
    for o in range(1 << n):
        if all(any(r.rel[x] & ~o == 0 for r in relations) for x in bits(o)):
            opens.append(o)
    return Topology(n, tuple(opens))


def tau(e: EntourageBase) -> Topology:
    return _tau_from(e.n, e.base)


def tau_inverse(e: EntourageBase) -> Topology:
    return _tau_from(e.n, [r.transpose() for r in e.base])


def tau_star(e: EntourageBase) -> Topology:
    sym = [
        BinaryRelation(e.n, tuple(a & b for a, b in zip(r.rel, transpose(e.n, r.rel))))
        for r in e.base
    ]
    return _tau_from(e.n, sym)
