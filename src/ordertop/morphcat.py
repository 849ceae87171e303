"""Morphism predicates, lower adjoints, and converters between the six
equivalent presentations of relationally based spaces: idempotent-relation
sets, locally supercompact T0 spaces, fan-ordered spaces, based domains,
core-based sober spaces, and based completely distributive lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cord, latid, ospace
from . import topoderive as td
from .finstruct import (
    OrderedSpace,
    Qoset,
    SpaceMap,
    Topology,
    ValidationError,
    bits,
    diagonal,
    is_directed,
    isomorphism,
    mask_of,
    mask_to_list,
    relations_of,
)

KINDS = (
    "c-ordered-set",
    "t0-core-space",
    "fan-ordered-space",
    "based-domain",
    "core-based-sober-space",
    "based-supercontinuous-lattice",
)

BASED_KINDS = KINDS[3:]  # the kinds that carry a basis

# ---------------------------------------------------------------- profiles

@dataclass(frozen=True)
class MapProfile:
    """Flags are None when the supplied contexts do not carry the structure
    the flag refers to."""

    continuous: bool | None
    isotone: bool | None
    lower_semicontinuous: bool | None
    zeta_proper: tuple | None  # ((zeta, verdict), ...) over td.COSELECTIONS
    core_continuous: bool | None
    quasiopen: bool | None
    residuated: bool | None
    residual: bool | None
    interpolating: bool | None


def _contexts(src, dst):
    """Split contexts into (topology, qoset, relation) views; None where
    absent.  Mixed context categories raise ContextMismatch."""
    if type(src) is not type(dst):
        raise ValidationError("ContextMismatch", (type(src).__name__, type(dst).__name__))
    if isinstance(src, OrderedSpace):
        return (src.topology, dst.topology), (src.qoset, dst.qoset), None
    if isinstance(src, Topology):
        return (src, dst), (td.specialization(src), td.specialization(dst)), None
    if isinstance(src, Qoset):
        return None, (src, dst), None
    if isinstance(src, cord.CQuasiOrder):
        return None, (src.lower_qoset(), dst.lower_qoset()), (src, dst)
    raise ValidationError("ContextMismatch", (type(src).__name__,))


def _is_continuous(f: SpaceMap, s: Topology, s2: Topology) -> bool:
    return all(f.preimage(u) in set(s.opens) for u in s2.opens)


def _is_isotone(f: SpaceMap, q: Qoset, q2: Qoset) -> bool:
    return all(
        q2.leq[f(x)] >> f(y) & 1
        for x in range(q.n) for y in bits(q.leq[x])
    )


def _is_lower_semicontinuous(f, src: OrderedSpace, dst: OrderedSpace) -> bool:
    """Preimages of closed lower sets are closed."""
    closed_src = set(src.topology.closeds())
    for c in dst.topology.closeds():
        if dst.qoset.down(c) == c and f.preimage(c) not in closed_src:
            return False
    return True


def _is_zeta_proper(f, s: Topology, s2: Topology, zeta: str) -> bool:
    """Continuous, and preimages of closed sets of the zeta-cotopology of the
    target are closed in the zeta-patch topology of the source."""
    if not _is_continuous(f, s, s2):
        return False
    cot2 = td.coselection_subbase(s2, zeta)
    patch1 = td.patch(s, zeta).topology
    closed1 = set(patch1.closeds())
    return all(f.preimage(s2.full ^ v) in closed1 for v in cot2.opens)


def _is_core_continuous(f, s: Topology, s2: Topology) -> bool:
    """Continuous, and preimages of cores are cores."""
    if not _is_continuous(f, s, s2):
        return False
    cores = {td.saturation(s, 1 << x) for x in range(s.n)} | {0}
    return all(
        f.preimage(td.saturation(s2, 1 << y)) in cores for y in range(s2.n)
    )


def _is_quasiopen(f, s: Topology, s2: Topology) -> bool:
    opens2 = set(s2.opens)
    return all(td.saturation(s2, f.image(u)) in opens2 for u in s.opens)


def _is_residual(f, q: Qoset, q2: Qoset) -> bool:
    """Preimages of principal filters are principal filters."""
    filters = {q.leq[x] for x in range(q.n)} | {0}
    return all(f.preimage(q2.leq[y]) in filters for y in range(q2.n))


def _is_residuated(f, q: Qoset, q2: Qoset) -> bool:
    """Preimages of principal ideals are principal ideals."""
    ideals = {q.down(1 << x) for x in range(q.n)} | {0}
    return all(f.preimage(q2.down(1 << y)) in ideals for y in range(q2.n))


def _is_interpolating(f, r: cord.CQuasiOrder, r2: cord.CQuasiOrder) -> bool:
    """Whenever x' relates to f(y) in the target, some x with x related to y
    sits between: x' relates to f(x)."""
    for y in range(r.n):
        for xp in range(r2.n):
            if r2.rel[xp] >> f(y) & 1:
                if not any(
                    r2.rel[xp] >> f(x) & 1 and r.rel[x] >> y & 1
                    for x in range(r.n)
                ):
                    return False
    return True


def map_profile(f: SpaceMap, src, dst) -> MapProfile:
    tops, qos, rels = _contexts(src, dst)
    ordered = isinstance(src, OrderedSpace)
    cont = lsc = zp = cc = qo = None
    if tops:
        s, s2 = tops
        if f.n_src != s.n or f.n_dst != s2.n:
            raise ValidationError("ContextMismatch", (f.n_src, s.n, f.n_dst, s2.n))
        cont = _is_continuous(f, s, s2)
        zp = tuple((z, _is_zeta_proper(f, s, s2, z)) for z in td.COSELECTIONS)
        cc = _is_core_continuous(f, s, s2)
        qo = _is_quasiopen(f, s, s2)
    if ordered:
        lsc = _is_lower_semicontinuous(f, src, dst)
    q, q2 = qos
    if f.n_src != q.n or f.n_dst != q2.n:
        raise ValidationError("ContextMismatch", (f.n_src, q.n, f.n_dst, q2.n))
    return MapProfile(
        continuous=cont,
        isotone=_is_isotone(f, q, q2),
        lower_semicontinuous=lsc,
        zeta_proper=zp,
        core_continuous=cc,
        quasiopen=qo,
        residuated=_is_residuated(f, q, q2),
        residual=_is_residual(f, q, q2),
        interpolating=_is_interpolating(f, *rels) if rels else None,
    )


# ---------------------------------------------------------------- adjoints

def lower_adjoint(f: SpaceMap, src_q: Qoset, dst_q: Qoset):
    """g with g(y) <= x iff y <= f(x), if it exists; None otherwise."""
    if not _is_isotone(f, src_q, dst_q):
        raise ValidationError("NotIsotone", ())
    values = []
    for y in range(dst_q.n):
        want = mask_of(x for x in range(src_q.n) if dst_q.leq[y] >> f(x) & 1)
        g = [m for m in range(src_q.n) if src_q.leq[m] == want]
        if not g:
            return None
        values.append(g[0])
    return SpaceMap(dst_q.n, src_q.n, tuple(values))


# ---------------------------------------------------------------- records

@dataclass(frozen=True)
class Representation:
    """Tagged union: the payload is a finstruct object per kind, and basis is
    a point-set mask for the based kinds (None otherwise)."""

    kind: str
    payload: object
    basis: int | None = None


def validate_representation(r: Representation) -> bool:
    if r.kind in BASED_KINDS and r.basis is None:
        raise ValidationError("MissingBasis", (r.kind,))
    if r.kind == "c-ordered-set":
        rel = r.payload
        cord.validate_cquasiorder(rel.n, rel.rel)
        if not rel.lower_qoset().is_antisymmetric():
            raise ValidationError("NotAntisymmetric", ())
        return True
    if r.kind == "t0-core-space":
        s = r.payload
        if not s.is_t0():
            raise ValidationError("NotT0", ())
        if not cord.is_core_space(s):
            raise ValidationError("NotCoreSpace", ())
        return True
    if r.kind == "fan-ordered-space":
        t = r.payload
        if not t.qoset.is_antisymmetric():
            raise ValidationError("NotAntisymmetric", ())
        if not ospace.is_fan_space(ospace.Tables(t)):
            raise ValidationError("NotFanSpace", ())
        return True
    if r.kind == "based-domain":
        q = r.payload
        if not q.is_antisymmetric():
            raise ValidationError("NotAntisymmetric", ())
        wb = td.way_below_qoset(q)
        for y in range(q.n):
            d = mask_of(b for b in bits(r.basis) if wb[b] >> y & 1)
            if not is_directed(q.leq, d):
                raise ValidationError("BasisNotDirected", (y,))
            if not td.least_upper_bounds(q, d) >> y & 1:
                raise ValidationError("BasisJoinMismatch", (y,))
        return True
    if r.kind == "core-based-sober-space":
        s = r.payload
        if not td.is_sober(s):
            raise ValidationError("NotSober", ())
        if not cord.core_basis_check(s, r.basis):
            raise ValidationError("NotCoreBasis", (r.basis,))
        return True
    if r.kind == "based-supercontinuous-lattice":
        lat = r.payload
        ok, wit = latid.check_law(lat, "completely-distributive")
        if not ok:
            raise ValidationError("NotSupercontinuous", wit)
        cop = latid.coprimes(lat)
        if r.basis & ~cop:
            raise ValidationError("NotCoprime", (next(iter(bits(r.basis & ~cop))),))
        if not latid.is_join_dense(lat, r.basis):
            raise ValidationError("NotJoinDense", (r.basis,))
        return True
    raise ValidationError("UnknownKind", (r.kind,))


# ---------------------------------------------------------------- converters

def _to_c(r: Representation) -> cord.CQuasiOrder:
    """Hub direction: extract the idempotent-relation presentation."""
    if r.kind == "c-ordered-set":
        return r.payload
    if r.kind == "t0-core-space":
        rel = cord.interior_relation(r.payload)
        return cord.CQuasiOrder(rel.n, rel.rel)
    if r.kind == "fan-ordered-space":
        rel = cord.interior_relation(td.upper_space(r.payload))
        return cord.CQuasiOrder(rel.n, rel.rel)
    if r.kind == "based-domain":
        return _on_basis(td.way_below_qoset(r.payload), r.basis)
    if r.kind == "core-based-sober-space":
        return _on_basis(cord.interior_relation(r.payload).rel, r.basis)
    if r.kind == "based-supercontinuous-lattice":
        # the row of b holds the points superway below b
        superway = latid.superway_relation(r.payload).transpose()
        return _on_basis(superway.rel, r.basis)
    raise ValidationError("UnknownKind", (r.kind,))


def _on_basis(rel, basis) -> cord.CQuasiOrder:
    """The relation rows `rel` restricted to the points of `basis`, which are
    renumbered 0, 1, ... in ascending order."""
    base = mask_to_list(basis)
    return cord.CQuasiOrder(len(base), tuple(
        mask_of(j for j, b2 in enumerate(base) if rel[b] >> b2 & 1) for b in base
    ))


def _from_c(c: cord.CQuasiOrder, kind: str) -> Representation:
    if kind == "c-ordered-set":
        return Representation(kind, c)
    if kind == "t0-core-space":
        return Representation(kind, cord.topology_of(c))
    if kind == "fan-ordered-space":
        s = cord.topology_of(c)
        return Representation(kind, td.patch(s, "upsilon"))
    completion = cord.rounded_ideal_completion(c)
    bmask = mask_of(completion.basis(x) for x in range(c.n))
    if kind == "based-domain":
        return Representation(kind, completion.domain, bmask)
    if kind == "core-based-sober-space":
        return Representation(kind, td.scott_topology(completion.domain), bmask)
    if kind == "based-supercontinuous-lattice":
        s = cord.topology_of(c)
        ordered = sorted(s.opens)
        lat = latid.open_lattice(s)
        bmask = mask_of(ordered.index(c.rel[x]) for x in range(c.n))
        return Representation(kind, lat, bmask)
    raise ValidationError("UnknownKind", (kind,))


def convert(r: Representation, target: str) -> Representation:
    if target not in KINDS:
        raise ValidationError("UnknownKind", (target,))
    try:
        validate_representation(r)
    except ValidationError as exc:
        raise ValidationError("InvalidSource", (r.kind, exc.code)) from exc
    return _from_c(_to_c(r), target)


# ---------------------------------------------------------------- equivalence

def _relations(r: Representation) -> tuple:
    rels = relations_of(r.payload)
    return rels if r.basis is None else rels + (diagonal(r.payload.n, r.basis),)


def are_equivalent(r1: Representation, r2: Representation) -> bool:
    """Isomorphism of representations: a carrier bijection preserving the
    payload structure and mapping basis onto basis."""
    if r1.kind != r2.kind or r1.payload.n != r2.payload.n:
        return False
    return isomorphism(r1.payload.n, _relations(r1), _relations(r2)) is not None
