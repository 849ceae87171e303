"""Span recording for the traced benchmark run.

The benchmark wraps public functions of the library from the outside: each
wrapper records one span (name, start, end, parent span) per call, and a few
hot primitives are only counted.  Spans are kept in memory as parallel
integer arrays and written out when the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import time
from array import array

# Spans per layer, as (module, attribute).  The wrapper replaces the function
# object everywhere the package holds it, so `labcli.encode` (imported from
# finstruct) and `PREDICATES["core-space"]` (a captured reference to
# `cord.is_core_space`) are traced as well.
SPANNED = (
    ("finstruct", "encode"),
    ("finstruct", "decode"),
    ("finstruct", "validate_lattice"),
    ("finstruct", "generate_topology"),
    ("topoderive", "specialization"),
    ("topoderive", "weak_upper"),
    ("topoderive", "scott_topology"),
    ("topoderive", "lawson_topology"),
    ("topoderive", "patch"),
    ("ospace", "interior_table_of"),
    ("ospace", "thm_4_6_sides"),
    ("ospace", "thm_5_3_sides"),
    ("cord", "is_core_space"),
    ("cord", "interior_relation"),
    ("latid", "check_law"),
    ("latid", "min_join_dense"),
    ("morphcat", "convert"),
    ("labcli", "posets"),
    ("labcli", "lattices"),
    ("labcli", "topologies"),
    ("labcli", "run_suite"),
    ("labcli", "main"),
)

# Hot primitives: counted without spans, because a span per call would cost
# more than the call.  (module, class or None, attribute).
COUNTED = (
    ("finstruct", None, "transpose"),
    ("finstruct", "Qoset", "geq"),
    ("finstruct", "Lattice", "join_of"),
    ("finstruct", "Lattice", "bottom"),
    ("ospace", "Tables", "__init__"),
)


def counted_name(module, cls, attr):
    if attr == "__init__":
        return f"{module}.{cls}"
    return ".".join(p for p in (module, cls, attr) if p)


class Recorder:
    """In-memory span store: span i has name[i], parent[i] (-1 at the root),
    start[i] and end[i] in perf_counter nanoseconds."""

    def __init__(self):
        self.names = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters = {}

    def spanned(self, fn, name):
        self.names.append(name)
        nid = len(self.names) - 1
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name):
        counter = itertools.count()
        self.counters[name] = counter
        tick = counter.__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name):
        """Calls counted so far.  itertools.count has no read accessor, so
        this reads by ticking once: read each counter once, after the run."""
        return next(self.counters[name])

    def spans(self):
        """All spans as (name, parent, start_ns, end_ns) tuples."""
        return [
            (self.names[self.name[i]], self.parent[i], self.start[i], self.end[i])
            for i in range(len(self.start))
        ]

    def write(self, path):
        """Write the spans as gzipped tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans()):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")


def self_times(spans):
    """Self time per span: its duration minus the union of its children's
    intervals clipped to it.  `spans` is a list of (name, parent, start, end)
    with parent an index into the list or -1."""
    children = {}
    for i, (_name, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, _parent, start, end) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """{name: (calls, self_ns)} over all spans."""
    totals = {}
    for (name, _p, _s, _e), self_ns in zip(spans, self_times(spans)):
        calls, acc = totals.get(name, (0, 0))
        totals[name] = (calls + 1, acc + self_ns)
    return totals


# ------------------------------------------------------------ installation

def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "ordertop" or name.startswith("ordertop."))
    ]


def _rebind(modules, old, new, undo):
    """Replace `old` by `new` wherever a package module holds it: as a
    module attribute, as a dict value, or inside a tuple that is a dict
    value."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                undo.append((setattr, mod, attr, value))
                setattr(mod, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new
                    elif isinstance(item, tuple) and any(x is old for x in item):
                        value[key] = tuple(new if x is old else x for x in item)
                    else:
                        continue
                    undo.append((dict.__setitem__, value, key, item))


class Tracer:
    """Installs span and count wrappers on the imported `ordertop` package
    and removes them again on exit."""

    def __init__(self):
        self.recorder = Recorder()
        self._undo = []

    def __enter__(self):
        modules = _package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        rec = self.recorder
        for module, attr in SPANNED:
            mod = by_name[f"ordertop.{module}"]
            old = getattr(mod, attr)
            _rebind(modules, old, rec.spanned(old, f"{module}.{attr}"), self._undo)
        for module, cls_name, attr in COUNTED:
            mod = by_name[f"ordertop.{module}"]
            name = counted_name(module, cls_name, attr)
            if cls_name is None:
                old = getattr(mod, attr)
                _rebind(modules, old, rec.counted(old, name), self._undo)
                continue
            cls = getattr(mod, cls_name)
            old = cls.__dict__[attr]
            if isinstance(old, property):
                new = property(rec.counted(old.fget, name), doc=old.__doc__)
            else:
                new = rec.counted(old, name)
            self._undo.append((setattr, cls, attr, old))
            setattr(cls, attr, new)
        return rec

    def __exit__(self, *exc):
        while self._undo:
            fn, target, key, value = self._undo.pop()
            fn(target, key, value)
        return False
