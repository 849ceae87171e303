"""Enumeration engines, verification suites, a counterexample hunter, and the
`ordertop` command-line interface.

Enumeration is labeled and lexicographic over canonical encodings, so "first
counterexample" is well defined.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial
from operator import itemgetter

from . import __version__, cord, latid, morphcat, ospace
from . import topoderive as td
from .finstruct import (
    BinaryRelation,
    Lattice,
    OrderedSpace,
    ParseError,
    Qoset,
    SchemaError,
    Topology,
    ValidationError,
    bits,
    check_carrier,
    decode,
    encode,
    generate_topology,
    isomorphism,
    mask_of,
    parse_json,
    point_masks,
    transpose,
    validate_lattice,
)

# The largest n `enumerate_instances` and `hunt` take for each kind.
BOUNDS = {
    "qoset": 5,
    "partial-order": 6,
    "topology": 5,
    "t0-topology": 5,
    "ordered-space": 4,
    "lattice": 6,
    "semilattice-ordered-space": 4,
}

# ---------------------------------------------------------------- enumeration

def posets(n):
    """All labeled partial orders on n points, ascending by row tuple.
    Element k is attached to the order on 0..k-1 by choosing its strict
    up-set and down-set among the earlier elements."""
    out = []

    def extend(k, rows):
        if k == n:
            out.append(tuple(rows))
            return
        for up in range(1 << k):
            # the strict up-set must be up-closed in the existing order
            if any(rows[u] & ~up & ~(1 << u) for u in bits(up)):
                continue
            for down in range(1 << k):
                if up & down:
                    continue
                # the strict down-set must be down-closed
                if any(
                    not down >> x & 1
                    for d in bits(down) for x in range(k)
                    if rows[x] >> d & 1 and x != d
                ):
                    continue
                # transitivity through k: everything below sits below
                # everything above
                if any(
                    not rows[d] >> u & 1
                    for d in bits(down) for u in bits(up)
                ):
                    continue
                new_rows = [
                    rows[x] | (1 << k) if down >> x & 1 else rows[x]
                    for x in range(k)
                ]
                new_rows.append(up | 1 << k)
                extend(k + 1, new_rows)

    extend(0, [])
    return sorted(out)


def set_partitions(n):
    """Restricted-growth strings, lexicographic."""
    out = []

    def grow(prefix, mx):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(mx + 2):
            grow(prefix + [v], max(mx, v))

    grow([0], 0) if n else out.append(())
    return out


def qosets(n):
    """All labeled qosets: a partition into equivalence blocks plus a partial
    order on the blocks."""
    out = []
    for part in set_partitions(n):
        k = max(part) + 1 if part else 0
        blocks = [mask_of(i for i in range(n) if part[i] == b) for b in range(k)]
        for rows in posets(k):
            leq = tuple(
                mask_of(
                    j for j in range(n) if rows[part[i]] >> part[j] & 1
                ) | blocks[part[i]]
                for i in range(n)
            )
            out.append(leq)
    return sorted(set(out))


def topologies(n):
    """All topologies on n labeled points by direct search over the lattice of
    point-set masks: masks are decided in ascending order, and adding one
    replaces the family by the topology it generates together with the mask
    (pruning on any decision conflict)."""
    if n == 0:
        return [(0,)]
    full = (1 << n) - 1
    results = []

    def search(m, family, forbidden):
        if m == full:
            results.append(tuple(sorted(family)))
            return
        search(m + 1, family, forbidden | {m} if m not in family else forbidden)
        if m not in family:
            fam = set(generate_topology(n, [*family, m]).opens)
            if not fam & forbidden:
                search(m + 1, fam, forbidden)

    search(1, {0, full} if n else {0}, set())
    return sorted(set(results))


def lattices(n):
    """All labeled lattices on n points, ascending by row tuple: the
    relabelled copies of every representative of `_lattice_classes`."""
    return sorted(
        (lat for _rep, copies in _lattice_classes(n) for lat in copies),
        key=lambda lat: lat.leq,
    )


def _lattice_classes(n):
    """The labeled lattices on n points as a list of (representative,
    copies).

    A lattice on n >= 2 points has a bottom b and a top t != b.  Deleting
    them and renumbering the other points in their order leaves a poset P
    on 0..n-3, so the lattice is, in exactly one way, the relabelling for
    (b, t) of the representative: P with the bottom n-2 and the top n-1
    added.  Each representative is validated once; its n(n-1) copies, one
    per (b, t), are its tables relabelled."""
    if n < 2:
        # one point is its own bottom and top; no lattice is empty
        one = validate_lattice(1, (1,))
        return [(one, [one])] if n == 1 else []
    top = 1 << n - 1
    bounds = ((1 << n) - 1, top)
    relabellings = [
        _relabelling(n, [x for x in range(n) if x != b and x != t] + [b, t])
        for b in range(n) for t in range(n) if b != t
    ]
    classes = []
    for rows in posets(n - 2):
        try:
            rep = validate_lattice(n, tuple(r | top for r in rows) + bounds)
        except ValidationError:
            continue
        classes.append((rep, [relabel(rep) for relabel in relabellings]))
    return classes


def _relabelling(n, perm):
    """The map that carries a lattice on n points along the bijection `perm`
    (old label -> new label).  A relabelled lattice is a lattice, so nothing
    is revalidated."""
    pick = itemgetter(*sorted(range(n), key=perm.__getitem__))  # new -> old
    image = [mask_of(perm[z] for z in bits(m)) for m in range(1 << n)]
    new = perm.__getitem__

    def relabel(lat):
        return Lattice(
            n,
            tuple(image[row] for row in pick(lat.leq)),
            tuple(tuple(map(new, pick(row))) for row in pick(lat.meet)),
            tuple(tuple(map(new, pick(row))) for row in pick(lat.join)),
        )

    return relabel


def _meet_posets(n):
    return [rows for rows in posets(n) if ospace.meet_table(Qoset(n, rows))]


def enumerate_instances(kind, n):
    """Deterministic lexicographic stream of canonical instances."""
    check_carrier(n)
    if kind not in BOUNDS:
        raise ValidationError("UnknownKind", (kind,))
    if n > BOUNDS[kind]:
        raise ValidationError("BoundTooLarge", (kind, n))
    if kind == "qoset":
        return [Qoset(n, rows) for rows in qosets(n)]
    if kind == "partial-order":
        return [Qoset(n, rows) for rows in posets(n)]
    if kind == "topology":
        return [Topology(n, opens) for opens in topologies(n)]
    if kind == "t0-topology":
        return [t for t in enumerate_instances("topology", n) if t.is_t0()]
    if kind == "lattice":
        return lattices(n)
    # the ordered spaces: every order with every topology, each built once
    orders = posets(n) if kind == "ordered-space" else _meet_posets(n)
    qs = [Qoset(n, rows) for rows in orders]
    tops = enumerate_instances("topology", n)
    return [OrderedSpace(q, t) for q in qs for t in tops]


# ---------------------------------------------------------------- registry

# Ordered-space predicates take the space's `ospace.Tables`, topology
# predicates the topology itself (see `_subject`).
PREDICATES = {
    # ordered-space predicates
    "semi-qospace": ("ordered-space", ospace.is_semi_qospace),
    "qospace": ("ordered-space", ospace.is_qospace),
    "pospace": ("ordered-space", lambda tb: ospace.is_qospace(tb) and tb.q.is_antisymmetric()),
    "t1-ordered": ("ordered-space", lambda tb: ospace.is_semi_qospace(tb) and tb.q.is_antisymmetric()),
    "t2-ordered": ("ordered-space", ospace.is_t2_ordered),
    "upper-regular": ("ordered-space", ospace.is_upper_regular),
    "lower-regular": ("ordered-space", ospace.is_lower_regular),
    "locally-convex": ("ordered-space", ospace.is_locally_convex),
    "strongly-convex": ("ordered-space", ospace.is_strongly_convex),
    "hyperconvex": ("ordered-space", ospace.is_hyperconvex),
    "up-stable": ("ordered-space", ospace.is_up_stable),
    "d-stable": ("ordered-space", ospace.is_d_stable),
    "core-stable": ("ordered-space", ospace.is_core_stable),
    "vee-stable": ("ordered-space", ospace.is_vee_stable),
    "wedge-stable": ("ordered-space", ospace.is_wedge_stable),
    "diamond-stable": ("ordered-space", ospace.is_diamond_stable),
    "web-ordered": ("ordered-space", ospace.is_web_ordered),
    "locally-filtered": ("ordered-space", ospace.is_locally_filtered),
    "sector-space": ("ordered-space", ospace.is_sector_space),
    "fan-space": ("ordered-space", ospace.is_fan_space),
    "mc-ordered": ("ordered-space", ospace.is_mc_ordered),
    "upper-m-determined": ("ordered-space", ospace.is_upper_m_determined),
    "compact": ("ordered-space", lambda tb: td.compactness(tb.t, tb.full, "compact")),
    # topology predicates
    "t0": ("topology", lambda s: s.is_t0()),
    "sober": ("topology", td.is_sober),
    "d-space": ("topology", td.is_dspace),
    "core-space": ("topology", cord.is_core_space),
    "web-space": ("topology", ospace.is_web_space),
}


def _subject(kind, inst):
    """What the predicates of `kind` take for `inst`."""
    return ospace.Tables(inst) if kind == "ordered-space" else inst


# ---------------------------------------------------------------- reports

@dataclass
class Report:
    suite: str
    n: int
    instances: int = 0
    passes: int = 0
    failures: int = 0
    counterexamples: list = field(default_factory=list)
    wall_time: float = 0.0
    version: str = __version__
    determinism_hash: str = ""

    def to_dict(self):
        return asdict(self)

    def seal(self):
        payload = self.to_dict()
        payload.pop("wall_time")
        payload.pop("determinism_hash")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self.determinism_hash = hashlib.sha256(blob.encode()).hexdigest()
        return self


@dataclass(frozen=True)
class SuiteSpec:
    suite: str
    n: int


# ---------------------------------------------------------------- suites

def _each(kind, decide, n):
    """The cases of a suite that decides each instance of `kind` on n points
    alone: `decide` gives (ok, detail), or None for an instance the suite is
    not about."""
    for s in enumerate_instances(kind, n):
        case = decide(s)
        if case is not None:
            yield s, *case


def _thm_3_3(s):
    c = cord.CQuasiOrder(s.n, cord.interior_relation(s).rel)
    return cord.topology_of(c) == s and td.alexandroff(td.specialization(s)) == s, None


def _thm_8_4(s):
    if not cord.is_core_space(s):
        return None
    base = morphcat.Representation("t0-core-space", s)
    ok = True
    detail = None
    for a in morphcat.KINDS:
        ra = morphcat.convert(base, a)
        for b in morphcat.KINDS:
            if a == b:
                continue
            back = morphcat.convert(morphcat.convert(ra, b), a)
            if not morphcat.are_equivalent(ra, back):
                ok = False
                detail = [a, b]
    return ok, detail


def _thm_9_3(s):
    inv = cord.cardinal_invariants(s)
    classes = len(set(td.specialization(s).leq))
    return all(v == classes for v in inv.values), list(inv.values)


def _prop_3_1(s):
    prof = cord.core_space_profile(s)
    return prof.agreement and all(prof.flags), list(prof.flags)


def _prop_5_5(s):
    e = td.quasi_uniformity(s)
    return (
        td.tau(e) == s
        and td.tau_inverse(e) == td.weak_upper(td.specialization(s).dual())
        and td.tau_star(e) == td.patch(s, "upsilon").topology
    ), None


def _classes(decide, n, meets=False, topology_major=False):
    """The cases of a suite over every order (with meets, if `meets`) with
    every topology on n points, topology-major or order-major, decided by
    `_class_verdicts`: `decide(tb)` gives (ok, sides), or None for a space
    the suite is not about."""
    tops = enumerate_instances("topology", n)
    orders = [Qoset(n, rows) for rows in (_meet_posets(n) if meets else posets(n))]
    verdict = _class_verdicts(tops, orders, decide)
    if topology_major:
        for ti, t in enumerate(tops):
            for qi, q in enumerate(orders):
                ok, vec = verdict(qi, ti)
                yield OrderedSpace(q, t), ok, list(vec)
    else:
        for qi, q in enumerate(orders):
            for ti, t in enumerate(tops):
                case = verdict(qi, ti)
                if case is not None:
                    yield OrderedSpace(q, t), case[0], list(case[1])


def _agree(vec):
    return len(set(vec)) == 1, vec


def _thm_4_6(tb):
    return _agree(ospace.thm_4_6_sides(tb))


def _thm_5_3(tb):
    return _agree(ospace.thm_5_3_sides(tb))


def _thm_6_2_sides_4_5(tb):
    return _agree(ospace.thm_6_2_sides(tb)[3:])


def _thm_7_2(tb):
    # thm-7.2 is about the hyperconvex semi-qospaces only
    if not (ospace.is_hyperconvex(tb) and ospace.is_semi_qospace(tb)):
        return None
    vec = ospace.thm_7_2_sides(tb, ospace.meet_table(tb.q))
    return all(len(set(vec[i:i + 3])) == 1 for i in (0, 3, 6)), vec


def _prop_7_4(tb):
    return _agree(ospace.prop_7_4_sides(tb))


def _unseparated(tb, vec, is_base):
    """The sides `vec` with side 1 decided by its sector or fan base alone,
    without the separation conjunct: the faults' broken decide."""
    side_1 = ospace.is_up_stable(tb) and ospace._neighborhood_base(
        tb, lambda w, _x: is_base(tb, w)
    )
    return _agree((side_1,) + vec[1:])


def _sector_no_separation(tb):
    return _unseparated(tb, ospace.thm_4_6_sides(tb), ospace._is_sector)


def _fan_no_separation(tb):
    return _unseparated(tb, ospace.thm_5_3_sides(tb), ospace._is_fan)


def _thm_6_2_cases(n):
    # the theorem's instances: each poset with its Lawson topology
    for rows in posets(n):
        q = Qoset(n, rows)
        sp = OrderedSpace(q, td.lawson_topology(q))
        vec = ospace.thm_6_2_sides(ospace.Tables(sp))
        yield sp, all(vec), list(vec)
    if n <= 3:
        # over all ordered spaces the cross-check compares sides 4 and 5
        yield from _classes(_thm_6_2_sides_4_5, n)


def _prop_9_1_cases(n):
    for s in enumerate_instances("topology", n):
        for b in range(s.full + 1):
            conds = cord.prop_9_1_conditions(s, b)
            yield {"space": s, "basis": b}, len(set(conds)) == 1, list(conds)


def _lattice_laws_cases(n):
    for k in range(1, n + 1):
        # each labeled lattice is the copy of exactly one representative
        # (see `_lattice_classes`) and every verdict is invariant under
        # relabelling: decide each class once, yield its copies in order
        classes = _lattice_classes(k)
        cases = [_lattice_law_case(rep) for rep, _copies in classes]
        copies = sorted(
            ((lat, i) for i, (_rep, lats) in enumerate(classes) for lat in lats),
            key=lambda pair: pair[0].leq,
        )
        for lat, i in copies:
            ok, verdicts = cases[i]
            yield lat, ok, dict(verdicts)


def _count_crosscheck_cases(n):
    for k in range(n + 1):
        a = len(topologies(k))
        b = len(qosets(k))
        yield {"n": k}, a == b, [a, b]


@dataclass(frozen=True)
class Suite:
    """A verification suite: the largest n it runs at; its cases at n, as
    (instance, ok, detail) in enumeration order, the instance a structure or
    a dict of structures and integers (`_record` gives the text a report
    keeps); and its faults by name, each its cases with a broken decide."""

    bound: int
    cases: Callable
    faults: dict = field(default_factory=dict)


# Each suite runs exhaustively at every n up to its bound, and `run_suite`
# refuses a larger n with `BoundTooLarge`.  Each bound keeps one `verify` run
# at it under 60 s on a 2-core VM (Python 3.11).  Carriers are capped
# separately, by `finstruct.MAX_POINTS`.
SUITES = {
    "thm-3.3-roundtrip": Suite(5, partial(_each, "topology", _thm_3_3)),
    "thm-4.6": Suite(4, partial(_classes, _thm_4_6, topology_major=True), {
        "sector-no-separation": partial(_classes, _sector_no_separation, topology_major=True),
    }),
    "thm-5.3": Suite(4, partial(_classes, _thm_5_3, topology_major=True), {
        "fan-no-separation": partial(_classes, _fan_no_separation, topology_major=True),
    }),
    "thm-6.2": Suite(5, _thm_6_2_cases),
    "thm-7.2": Suite(4, partial(_classes, _thm_7_2, meets=True)),
    "thm-8.4": Suite(4, partial(_each, "t0-topology", _thm_8_4)),
    "thm-9.3": Suite(5, partial(_each, "topology", _thm_9_3)),
    "prop-3.1": Suite(4, partial(_each, "topology", _prop_3_1)),
    "prop-5.5": Suite(5, partial(_each, "topology", _prop_5_5)),
    "prop-7.4": Suite(4, partial(_classes, _prop_7_4, meets=True)),
    "prop-9.1": Suite(5, _prop_9_1_cases),
    "lattice-laws": Suite(6, _lattice_laws_cases),
    "count-crosscheck": Suite(6, _count_crosscheck_cases),
}


def _suite_cases(spec: SuiteSpec, fault=None):
    """The cases of a suite, or of one of its faults, at n, for a suite, n
    and fault that `run_suite` has checked against `SUITES`."""
    suite = SUITES[spec.suite]
    return (suite.cases if fault is None else suite.faults[fault])(spec.n)


def _topology_classes(tops):
    """The isomorphism classes of labeled topologies on one carrier, as
    (reps, members): reps[c] is the first topology of class c in `tops`, and
    members[i] is (c, p) with p the `isomorphism` witness that carries
    reps[c].M onto tops[i].M."""
    n = tops[0].n
    reps, members, by_degrees = [], [], {}
    for t in tops:
        # isomorphic topologies have the same sorted (row, column) counts of
        # M, so only topologies that share them are tried
        key = tuple(sorted(zip(
            (m.bit_count() for m in t.M),
            (c.bit_count() for c in transpose(n, t.M)),
        )))
        for c in by_degrees.setdefault(key, []):
            p = isomorphism(n, (reps[c].M,), (t.M,))
            if p is not None:
                break
        else:
            c, p = len(reps), tuple(range(n))
            by_degrees[key].append(c)
            reps.append(t)
        members.append((c, p))
    return reps, members


def _class_verdicts(tops, orders, decide):
    """The lookup `verdict(qi, ti)` of `decide` on the `ospace.Tables` of
    the ordered space (orders[qi], tops[ti]), which decides each (topology
    class, order) once.

    The suites' predicates are invariant when order and topology are
    relabelled by one bijection.  With tops[ti] = p(rep), the ordered space
    (q, tops[ti]) is the image under p of (p^-1 q, rep), so its verdict is
    that of (p^-1 q, rep).  p^-1 q is again one of `orders`, since a
    relabelled poset is a poset, with meets if q has them.  Every (class,
    order) is looked up (the representative's own p is the identity), so
    the table is filled up front."""
    n = tops[0].n
    reps, members = _topology_classes(tops)
    index = {q.leq: j for j, q in enumerate(orders)}
    pullbacks = {}  # p -> the index of p^-1 q for each order q
    for _c, p in members:
        if p not in pullbacks:
            pullbacks[p] = [
                index[tuple(
                    mask_of(y for y in range(n) if q.leq[p[x]] >> p[y] & 1)
                    for x in range(n)
                )]
                for q in orders
            ]
    shared = {}  # one object per distinct verdict keeps the table small

    def row(rep):
        for q in orders:
            case = decide(ospace.Tables(OrderedSpace(q, rep)))
            yield shared.setdefault(case, case)

    table = [list(row(rep)) for rep in reps]

    def verdict(qi, ti):
        c, p = members[ti]
        return table[c][pullbacks[p][qi]]

    return verdict


def _lattice_law_case(lat):
    """(ok, verdicts) of one lattice: the six distributivity laws agree,
    meet-continuity and continuity hold, and a distributive lattice has the
    weight of its dual."""
    verdicts = {law: latid.check_law(lat, law)[0] for law in latid.LAWS}
    ok = (
        len({
            verdicts["frame"], verdicts["coframe"],
            verdicts["distributive"],
            verdicts["completely-distributive"],
            verdicts["wide-frame"], verdicts["wide-coframe"],
        }) == 1
        and verdicts["meet-continuous"]
        and verdicts["continuous-lattice"]
    )
    if ok and verdicts["distributive"]:
        ok = (
            latid.min_join_dense(lat).weight
            == latid.min_join_dense(lat.dual()).weight
        )
    return ok, verdicts


def _record(inst) -> str:
    """The text a report keeps for a suite instance: its encoding, or for a
    dict the JSON object with each structure value encoded."""
    if isinstance(inst, dict):
        return json.dumps({
            k: v if isinstance(v, int) else encode(v) for k, v in inst.items()
        })
    return encode(inst)


def run_suite(spec: SuiteSpec, workers: int = 1, fault: str | None = None) -> Report:
    """Evaluate a suite exhaustively, in enumeration order, in this process,
    after refusing a suite, an n or a fault that its `SUITES` record does
    not admit.  `workers` is ignored: it is accepted only because existing
    callers pass it.  Only counterexamples are encoded."""
    check_carrier(spec.n)
    suite = SUITES.get(spec.suite)
    if suite is None:
        raise ValidationError("UnknownSuite", (spec.suite,))
    if spec.n > suite.bound:
        raise ValidationError("BoundTooLarge", (spec.suite, spec.n))
    if fault is not None and fault not in suite.faults:
        raise ValidationError("UnknownFault", (fault, spec.suite))
    start = time.monotonic()
    report = Report(spec.suite, spec.n)
    for inst, ok, detail in _suite_cases(spec, fault):
        report.instances += 1
        if ok:
            report.passes += 1
        else:
            report.failures += 1
            report.counterexamples.append({"instance": _record(inst), "detail": detail})
    report.wall_time = time.monotonic() - start
    return report.seal()


# ---------------------------------------------------------------- hunting

@dataclass(frozen=True)
class HypothesisSpec:
    assume: tuple
    refute: str
    kind: str = "ordered-space"
    n: int = 3


def hunt(h: HypothesisSpec):
    """First (lexicographic) instance satisfying every assume tag while
    failing the refute tag, or an exhausted-certificate."""
    if h.kind not in {kind for kind, _fn in PREDICATES.values()}:
        raise ValidationError("KindHasNoTags", (h.kind,))
    for tag in tuple(h.assume) + (h.refute,):
        if tag not in PREDICATES:
            raise ValidationError("UnknownPredicateTag", (tag,))
        if PREDICATES[tag][0] != h.kind:
            raise ValidationError("UnknownPredicateTag", (tag, h.kind))
    count = 0
    for inst in enumerate_instances(h.kind, h.n):
        count += 1
        subject = _subject(h.kind, inst)
        if all(PREDICATES[tag][1](subject) for tag in h.assume):
            if not PREDICATES[h.refute][1](subject):
                return {"counterexample": encode(inst)}
    return {
        "exhausted": {"kind": h.kind, "n": h.n, "instances": count},
        "assume": list(h.assume),
        "refute": h.refute,
    }


# ---------------------------------------------------------------- CLI

RECORD_CLASSES = {
    "topology": Topology,
    "ordered-space": OrderedSpace,
    "qoset": Qoset,
    "lattice": Lattice,
    "relation": BinaryRelation,
}

# Record kinds the payload of each derive op, of `invariants` and of each
# convert source may have (the class tags carry theirs in PREDICATES).
ACCEPTS = {
    "derive scott": ("qoset", "ordered-space"),
    "derive lawson": ("qoset", "ordered-space"),
    "derive patch": ("topology",),
    "derive upper": ("ordered-space",),
    "derive lower": ("ordered-space",),
    "derive cocompact": ("topology",),
    "derive interior-relation": ("topology",),
    "derive completion": ("relation",),
    "derive quasi-uniformity": ("topology",),
    "invariants": ("topology",),
    "convert c-ordered-set": ("relation",),
    "convert t0-core-space": ("topology",),
    "convert fan-ordered-space": ("ordered-space",),
    "convert based-domain": ("qoset",),
    "convert core-based-sober-space": ("topology",),
    "convert based-supercontinuous-lattice": ("lattice",),
}


def _require(obj, kinds, what):
    if not isinstance(obj, tuple(RECORD_CLASSES[k] for k in kinds)):
        raise ValidationError("KindMismatch", (what, type(obj).__name__))
    return obj


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(path, kinds, what):
    return _require(decode(_read(path)), kinds, what)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_check(args):
    if args.cls not in PREDICATES:
        print(f"unknown class tag: {args.cls}", file=sys.stderr)
        return 2
    kind, fn = PREDICATES[args.cls]
    verdict = fn(_subject(kind, _load(args.infile, (kind,), f"check {args.cls}")))
    print(json.dumps({"class": args.cls, "verdict": verdict}))
    return 0 if verdict else 1


def _cmd_derive(args):
    op = args.op.replace("υ", "upsilon").replace("σ", "sigma") \
        .replace("α", "alpha")
    key = "derive " + ("patch" if op.startswith("patch:") else op)
    if key not in ACCEPTS:
        print(f"unknown derive op: {args.op}", file=sys.stderr)
        return 2
    obj = _load(args.infile, ACCEPTS[key], key)
    if op in ("scott", "lawson"):
        q = obj.qoset if isinstance(obj, OrderedSpace) else obj
        res = td.upset_topology(q, "sigma" if op == "scott" else "lawson")
    elif op.startswith("patch:"):
        res = td.patch(obj, op.split(":", 1)[1])
    elif op == "upper":
        res = td.upper_space(obj)
    elif op == "lower":
        res = td.lower_space(obj)
    elif op == "cocompact":
        res = td.cocompact(obj)
    elif op == "interior-relation":
        res = cord.interior_relation(obj)
    elif op == "completion":
        c = cord.validate_cquasiorder(obj.n, obj.rel)
        comp = cord.rounded_ideal_completion(c)
        _emit(json.dumps({
            "domain": json.loads(encode(comp.domain)),
            "ideals": [sorted(bits(i)) for i in comp.ideals],
            "basis": list(comp.basis.value),
        }, sort_keys=True), args.out)
        return 0
    else:  # quasi-uniformity
        e = td.quasi_uniformity(obj)
        _emit(json.dumps({
            "n": e.n,
            "base": [json.loads(encode(r)) for r in e.base],
        }, sort_keys=True), args.out)
        return 0
    _emit(encode(res), args.out)
    return 0


def _cmd_enumerate(args):
    for inst in enumerate_instances(args.kind, args.n):
        print(encode(inst))
    return 0


def _cmd_verify(args):
    report = run_suite(SuiteSpec(args.suite, args.n), fault=args.fault)
    if args.verbose:
        for rec in report.counterexamples:
            print(json.dumps(rec, sort_keys=True))
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 1 if report.failures else 0


def _cmd_hunt(args):
    assume = tuple(t for t in args.assume.split(",") if t) if args.assume else ()
    result = hunt(HypothesisSpec(assume, args.refute, args.kind, args.n))
    print(json.dumps(result, sort_keys=True))
    return 1 if "counterexample" in result else 0


def _cmd_invariants(args):
    inv = cord.cardinal_invariants(_load(args.infile, ACCEPTS["invariants"], "invariants"))
    print(json.dumps({
        "c": inv.c, "w_open": inv.w_open, "w_closed": inv.w_closed,
        "w_patch": inv.w_patch, "d_patch": inv.d_patch,
    }, sort_keys=True))
    return 0


def _rep_from_file(kind, path):
    key = "convert " + kind
    if key not in ACCEPTS:
        raise ValidationError("UnknownKind", (kind,))
    raw = parse_json(_read(path))
    if not isinstance(raw, dict) or "payload" not in raw:
        raise SchemaError("payload", "missing")
    payload = _require(decode(json.dumps(raw["payload"])), ACCEPTS[key], key)
    basis = point_masks([raw["basis"]], payload.n, "basis")[0] if "basis" in raw else None
    if kind == "c-ordered-set":
        payload = cord.CQuasiOrder(payload.n, payload.rel)
    return morphcat.Representation(kind, payload, basis)


def rep_to_json(r: morphcat.Representation) -> str:
    payload = r.payload
    if isinstance(payload, cord.CQuasiOrder):
        payload = payload.relation()
    doc = {"kind": r.kind, "payload": json.loads(encode(payload))}
    if r.basis is not None:
        doc["basis"] = sorted(bits(r.basis))
    return json.dumps(doc, sort_keys=True)


def _cmd_convert(args):
    r = _rep_from_file(args.src, args.infile)
    out = morphcat.convert(r, args.dst)
    print(rep_to_json(out))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ordertop",
        description="finite order-topology lab: checking, derivation, "
                    "enumeration, suite verification, and hunting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a class predicate on a record")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("derive", help="derive a topology/space/relation")
    p.add_argument("--op", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_derive)

    p = sub.add_parser("enumerate", help="stream canonical instances")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, help="one of " + ", ".join(
        f"{name} (n<={suite.bound})" for name, suite in SUITES.items()
    ))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--fault", help="a variant with a broken decide, one of " + ", ".join(
        f"{fault} ({name})" for name, suite in SUITES.items() for fault in suite.faults
    ))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hunt", help="search for a counterexample")
    p.add_argument("--assume", default="")
    p.add_argument("--refute", required=True)
    p.add_argument("--kind", default="ordered-space")
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(fn=_cmd_hunt)

    p = sub.add_parser("invariants", help="cardinal invariants of a space")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_convert)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, SchemaError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
