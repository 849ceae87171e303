"""Exact finite structures: quasi-orders, topologies, lattices, relations, maps.

Every structure lives on a carrier 0..n-1 with n <= 16, so point sets are
single machine words (bitmasks).  All values are immutable after validation
and all operations are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

MAX_POINTS = 16


class ValidationError(Exception):
    """Structure validation failure.  `code` names the violated clause and
    `witness` is the offending tuple (points or sets, per the clause)."""

    def __init__(self, code, witness=()):
        self.code = code
        self.witness = tuple(witness)
        super().__init__(f"{code}{self.witness if self.witness else ''}")


class ParseError(Exception):
    pass


class SchemaError(Exception):
    def __init__(self, field, message=""):
        self.field = field
        super().__init__(f"field {field!r}: {message}" if message else f"field {field!r}")


# ---------------------------------------------------------------- bit helpers

def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def bits(mask):
    """Iterate the set bits of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_list(mask):
    return list(bits(mask))


def subsets_of(mask):
    """All submasks of `mask`, ascending as integers, starting with 0."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def unions_of(rows):
    """All unions of the given masks, ascending, the empty union included.
    A row that is already a union adds nothing, so it is skipped."""
    out = {0}
    for r in rows:
        if r not in out:
            out |= {o | r for o in out}
    return sorted(out)


def min_neighborhoods(n, family) -> tuple:
    """Per point x, the intersection of the members of `family` that contain
    x (the carrier if none does)."""
    full = (1 << n) - 1
    rows = []
    for x in range(n):
        m = full
        for u in family:
            if u >> x & 1:
                m &= u
        rows.append(m)
    return tuple(rows)


def unbounded_pair(rows, mask):
    """The first pair (a, b) of points of `mask`, in lexicographic order, with
    no `rows`-bound inside `mask` (no c in mask with c in rows[a] & rows[b]),
    or None.  A pair fails iff its transpose does, so b starts at a."""
    rest = mask
    for a in bits(mask):
        ra = rows[a] & mask
        for b in bits(rest):
            if not ra & rows[b]:
                return a, b
        rest ^= 1 << a
    return None


def is_directed(rows, mask) -> bool:
    """Nonempty, and every pair of points has a `rows`-bound inside: directed
    for `leq` rows, filtered for `geq` rows."""
    return bool(mask) and unbounded_pair(rows, mask) is None


def check_carrier(n):
    if not 1 <= n <= MAX_POINTS:
        raise ValidationError("BadCarrier", (n,))


def memo_property(fn):
    """A plain `property` whose value is computed once per object and kept in
    the object's `__dict__` (a frozen dataclass allows that).  It stays a
    property, so it can be wrapped as one, and it takes no lock on first
    access as `functools.cached_property` does on Python 3.11."""
    key = fn.__name__

    def get(self):
        memo = self.__dict__
        if key in memo:
            return memo[key]
        value = memo[key] = fn(self)
        return value

    return property(get, doc=fn.__doc__)


# ---------------------------------------------------------------- structures

@dataclass(frozen=True)
class Qoset:
    """Reflexive transitive relation; leq[x] is the bitmask of {y : x <= y}."""

    n: int
    leq: tuple

    @memo_property
    def geq(self):
        """Row masks of the dual order: geq[x] = {y : y <= x}."""
        return transpose(self.n, self.leq)

    def dual(self) -> "Qoset":
        return Qoset(self.n, transpose(self.n, self.leq))

    def up(self, mask) -> int:
        m = 0
        for x in bits(mask):
            m |= self.leq[x]
        return m

    def down(self, mask) -> int:
        geq = self.geq
        m = 0
        for x in bits(mask):
            m |= geq[x]
        return m

    def is_antisymmetric(self) -> bool:
        return all(
            not (self.leq[x] >> y & 1 and self.leq[y] >> x & 1)
            for x in range(self.n) for y in range(self.n) if x != y
        )

    def upper_sets(self):
        """All upper sets as masks, ascending: the unions of the principal
        filters."""
        return unions_of(self.leq)

    def lower_sets(self):
        return unions_of(self.geq)

    def matrix(self):
        return [[self.leq[x] >> y & 1 for y in range(self.n)] for x in range(self.n)]


@dataclass(frozen=True)
class Topology:
    """Explicit open-set family; opens are masks sorted ascending.

    A finite topology is Alexandroff: M[x], the least open set around x, is
    its canonical form.  The opens are exactly the unions of M rows, and the
    specialization, interiors and saturations are all read off M."""

    n: int
    opens: tuple

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    # a cached_property, not a memo_property: inner loops re-read M, and
    # after the first access it is a plain instance attribute
    @cached_property
    def M(self) -> tuple:
        """Minimal open neighborhood per point."""
        return min_neighborhoods(self.n, self.opens)

    def is_t0(self) -> bool:
        return len(set(self.M)) == self.n

    def closeds(self):
        full = self.full
        return sorted(full ^ u for u in self.opens)


@dataclass(frozen=True)
class BinaryRelation:
    """Arbitrary relation; rel[x] is the bitmask of {y : x R y}."""

    n: int
    rel: tuple

    def transpose(self) -> "BinaryRelation":
        return BinaryRelation(self.n, transpose(self.n, self.rel))

    def matrix(self):
        return [[self.rel[x] >> y & 1 for y in range(self.n)] for x in range(self.n)]


@dataclass(frozen=True)
class Lattice:
    """Finite lattice: partial order plus total meet/join tables."""

    n: int
    leq: tuple
    meet: tuple
    join: tuple

    @memo_property
    def bottom(self) -> int:
        for x in range(self.n):
            if self.leq[x] == (1 << self.n) - 1:
                return x
        raise AssertionError("validated lattice has a bottom")

    def poset(self) -> Qoset:
        """The order as a qoset; one object per lattice, so its derived
        views are computed once."""
        return self._poset

    @memo_property
    def _poset(self) -> Qoset:
        return Qoset(self.n, self.leq)

    def dual(self) -> "Lattice":
        """The order-dual lattice; one object per lattice, whose own dual is
        this lattice."""
        return self._dual

    @memo_property
    def _dual(self) -> "Lattice":
        dual = Lattice(self.n, transpose(self.n, self.leq), self.join, self.meet)
        dual.__dict__["_dual"] = self
        return dual

    def join_of(self, mask) -> int:
        """Join of a subset mask (empty join = bottom)."""
        acc = self.bottom
        for x in bits(mask):
            acc = self.join[acc][x]
        return acc

    def down_mask(self, x) -> int:
        return self._poset.geq[x]


Lattice.matrix = Qoset.matrix  # identical row representation


@dataclass(frozen=True)
class OrderedSpace:
    qoset: Qoset
    topology: Topology

    def __post_init__(self):
        if self.qoset.n != self.topology.n:
            raise ValidationError("CarrierMismatch", (self.qoset.n, self.topology.n))

    @property
    def n(self) -> int:
        return self.qoset.n


@dataclass(frozen=True)
class SpaceMap:
    n_src: int
    n_dst: int
    value: tuple

    def __post_init__(self):
        if len(self.value) != self.n_src or any(
            not 0 <= v < self.n_dst for v in self.value
        ):
            raise ValidationError("NotTotal", self.value)

    def __call__(self, x):
        return self.value[x]

    def image(self, mask) -> int:
        return mask_of(self.value[x] for x in bits(mask))

    def preimage(self, mask) -> int:
        return mask_of(x for x in range(self.n_src) if mask >> self.value[x] & 1)


def transpose(n, rows):
    return tuple(
        mask_of(x for x in range(n) if rows[x] >> y & 1) for y in range(n)
    )


# ---------------------------------------------------------------- validators

def validate_topology(n, family) -> Topology:
    """Canonicalize a family of point-set masks into a Topology.

    The family must contain the empty set and the carrier and be closed under
    pairwise union and intersection (sufficient on a finite carrier).  Every
    member is the union of the meets M[x] of the members around its points,
    so the family is a topology iff each partial meet on the way to each M[x]
    is a member and so is every union of M rows: O(|family| * n) steps.  A
    witness is a pair of members whose meet or join is missing.
    """
    check_carrier(n)
    full = (1 << n) - 1
    fam = list(family)
    seen = set()
    for m in fam:
        if not 0 <= m <= full:
            raise ValidationError("NotASubset", (m,))
        if m in seen:
            raise ValidationError("Duplicate", (m,))
        seen.add(m)
    if 0 not in seen:
        raise ValidationError("MissingEmpty")
    if full not in seen:
        raise ValidationError("MissingFull")
    ordered = sorted(seen)
    rows = []
    for x in range(n):
        m = full
        for u in ordered:
            if u >> x & 1:
                if m & u not in seen:
                    raise ValidationError("NotIntersectionClosed", (m, u))
                m &= u
        rows.append(m)
    for u in unions_of(rows):
        if u not in seen:
            # u is the least missing union, so smaller unions are members.
            # Split u into a largest row a = M[x] and the rows of the points
            # outside a: none of those contains x (it would contain a and be
            # larger), so their join b is a smaller union.
            a = max((rows[x] for x in bits(u)), key=int.bit_count)
            b = 0
            for y in bits(u & ~a):
                b |= rows[y]
            raise ValidationError("NotUnionClosed", (min(a, b), max(a, b)))
    return Topology(n, tuple(ordered))


def validate_qoset(n, matrix) -> Qoset:
    """Validate an n x n 0/1 matrix (or row-mask tuple) as a quasi-order."""
    check_carrier(n)
    rows = _rows_from(n, matrix)
    for x in range(n):
        if not rows[x] >> x & 1:
            raise ValidationError("NotReflexive", (x,))
    for x in range(n):
        for y in bits(rows[x]):
            if rows[y] & ~rows[x]:
                z = next(bits(rows[y] & ~rows[x]))
                raise ValidationError("NotTransitive", (x, y, z))
    return Qoset(n, rows)


def validate_lattice(n, matrix) -> Lattice:
    """Validate a partial order and derive total meet/join tables."""
    q = validate_qoset(n, matrix)
    rows = q.leq
    for x in range(n):
        for y in range(x + 1, n):
            if rows[x] >> y & 1 and rows[y] >> x & 1:
                raise ValidationError("NotAntisymmetric", (x, y))
    geq = q.geq
    meet = []
    join = []
    for x in range(n):
        mrow = []
        jrow = []
        for y in range(n):
            # the common lower bounds form a lower set: their greatest
            # element is the one whose down-set is all of them (unique by
            # antisymmetry); dually for the common upper bounds
            mrow.append(_generator(geq, geq[x] & geq[y], "NoMeet", x, y))
            jrow.append(_generator(rows, rows[x] & rows[y], "NoJoin", x, y))
        meet.append(tuple(mrow))
        join.append(tuple(jrow))
    return Lattice(n, rows, tuple(meet), tuple(join))


def _generator(rows, mask, code, x, y):
    """The point z of `mask` with rows[z] == mask, else ValidationError."""
    for z in bits(mask):
        if rows[z] == mask:
            return z
    raise ValidationError(code, (x, y))


def _rows_from(n, matrix):
    if matrix and isinstance(matrix[0], int):
        rows = tuple(matrix)
    else:
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValidationError("BadMatrix", (n,))
        rows = tuple(mask_of(y for y in range(n) if matrix[x][y]) for x in range(n))
    if len(rows) != n:
        raise ValidationError("BadMatrix", (n,))
    return rows


def generate_topology(n, subbase) -> Topology:
    """Smallest topology containing the given subbase of masks: the unions of
    its minimal neighborhoods, each the meet of the members around a point."""
    check_carrier(n)
    full = (1 << n) - 1
    for m in subbase:
        if not 0 <= m <= full:
            raise ValidationError("NotASubset", (m,))
    return Topology(n, tuple(unions_of(min_neighborhoods(n, subbase))))


# ------------------------------------------------------------- isomorphism

def relations_of(obj) -> tuple:
    """The relation rows a structure isomorphism must preserve.  A bijection
    maps opens onto opens iff it maps M rows onto M rows, and a lattice's
    order determines its meets and joins; relations (including C-quasi-orders)
    are their own rows."""
    if isinstance(obj, Topology):
        return (obj.M,)
    if isinstance(obj, OrderedSpace):
        return (obj.qoset.leq, obj.topology.M)
    if isinstance(obj, (Qoset, Lattice)):
        return (obj.leq,)
    return (obj.rel,)


def diagonal(n, mask) -> tuple:
    """The identity relation on the points of `mask`: preserving it maps
    `mask` onto the other structure's mask."""
    return tuple(mask & 1 << x for x in range(n))


def isomorphism(n, rels_a, rels_b):
    """The lexicographically least bijection p of 0..n-1 with x R y iff
    p(x) R' p(y) for every pair (R, R') of `rels_a` and `rels_b`, or None.

    Backtracking assigns 0, 1, ... in order, each to the least unused target
    with the same degrees (row and column counts and loop, per relation) that
    agrees with the earlier assignments, so the first complete assignment is
    the least witness."""
    pairs_a = [(r, transpose(n, r)) for r in rels_a]
    pairs_b = [(r, transpose(n, r)) for r in rels_b]

    def degrees(pairs, x):
        return tuple((r[x].bit_count(), c[x].bit_count(), r[x] >> x & 1) for r, c in pairs)

    deg_a = [degrees(pairs_a, x) for x in range(n)]
    deg_b = [degrees(pairs_b, t) for t in range(n)]
    if sorted(deg_a) != sorted(deg_b):
        return None
    perm = []

    def image(mask):
        m = 0
        for y in bits(mask):
            m |= 1 << perm[y]
        return m

    def extend(x, used):
        if x == n:
            return tuple(perm)
        prefix = (1 << x) - 1
        want = [(image(r[x] & prefix), image(c[x] & prefix)) for r, c in pairs_a]
        for t in range(n):
            if used >> t & 1 or deg_b[t] != deg_a[x]:
                continue
            if all(r[t] & used == wr and c[t] & used == wc
                   for (r, c), (wr, wc) in zip(pairs_b, want)):
                perm.append(t)
                found = extend(x + 1, used | 1 << t)
                if found:
                    return found
                perm.pop()
        return None

    return extend(0, 0)


# ------------------------------------------------------------- serialization

def _sets_out(masks):
    return [mask_to_list(m) for m in masks]


def encode(obj) -> str:
    """Canonical one-line text record for any finstruct value."""
    if isinstance(obj, Topology):
        rec = {"kind": "topology", "n": obj.n, "opens": _sets_out(obj.opens)}
    elif isinstance(obj, Qoset):
        rec = {"kind": "qoset", "n": obj.n, "leq": obj.matrix()}
    elif isinstance(obj, OrderedSpace):
        rec = {
            "kind": "ordered_space",
            "n": obj.n,
            "leq": obj.qoset.matrix(),
            "opens": _sets_out(obj.topology.opens),
        }
    elif isinstance(obj, Lattice):
        rec = {"kind": "lattice", "n": obj.n, "leq": obj.matrix()}
    elif isinstance(obj, BinaryRelation):
        rec = {"kind": "relation", "n": obj.n, "rel": obj.matrix()}
    elif isinstance(obj, SpaceMap):
        rec = {
            "kind": "map",
            "n_src": obj.n_src,
            "n_dst": obj.n_dst,
            "value": list(obj.value),
        }
    else:
        raise ValidationError("UnknownKind", (type(obj).__name__,))
    return json.dumps(rec, separators=(",", ":"))


def _field(rec, name, typ):
    if name not in rec:
        raise SchemaError(name, "missing")
    v = rec[name]
    if typ is int and type(v) is not int:  # JSON true/false are bools
        raise SchemaError(name, "expected integer")
    if typ is list and not isinstance(v, list):
        raise SchemaError(name, "expected array")
    return v


def point_masks(sets, n, name):
    """Masks of a JSON array of arrays of points of the carrier 0..n-1."""
    if type(sets) is not list or any(type(s) is not list for s in sets):
        raise SchemaError(name, "expected an array of point arrays")
    pts = [p for s in sets for p in s]
    if {type(p) for p in pts} - {int} or pts and not 0 <= min(pts) <= max(pts) < n:
        raise SchemaError(name, f"points must be the integers 0..{n - 1}")
    return [mask_of(s) for s in sets]


def _matrix_field(rec, name, n):
    """An n x n matrix of the integers 0 and 1."""
    m = _field(rec, name, list)
    if len(m) != n or any(type(r) is not list or len(r) != n for r in m):
        raise ValidationError("BadMatrix", (n,))
    entries = [v for r in m for v in r]
    if {type(v) for v in entries} - {int} or set(entries) - {0, 1}:
        raise SchemaError(name, "entries must be the integers 0 and 1")
    return m


def _opens_field(rec, n):
    return point_masks(_field(rec, "opens", list), n, "opens")


def parse_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"position {e.pos}: {e.msg}") from e


def decode(text):
    """Inverse of encode; validation failures propagate as errors."""
    rec = parse_json(text)
    if not isinstance(rec, dict):
        raise SchemaError("kind", "record must be an object")
    kind = _field(rec, "kind", None)
    if kind == "map":
        value = _field(rec, "value", list)
        if any(type(v) is not int for v in value):
            raise SchemaError("value", "expected an array of integers")
        return SpaceMap(_field(rec, "n_src", int), _field(rec, "n_dst", int), tuple(value))
    if kind not in ("topology", "qoset", "ordered_space", "lattice", "relation"):
        raise SchemaError("kind", f"unknown kind {kind!r}")
    n = _field(rec, "n", int)
    check_carrier(n)
    if kind == "topology":
        return validate_topology(n, _opens_field(rec, n))
    if kind == "qoset":
        return validate_qoset(n, _matrix_field(rec, "leq", n))
    if kind == "ordered_space":
        q = validate_qoset(n, _matrix_field(rec, "leq", n))
        return OrderedSpace(q, validate_topology(n, _opens_field(rec, n)))
    if kind == "lattice":
        return validate_lattice(n, _matrix_field(rec, "leq", n))
    return BinaryRelation(n, _rows_from(n, _matrix_field(rec, "rel", n)))
