"""Random records, valid and malformed, through every CLI subcommand that
reads one.  No exception escapes `main`: `check` gives a verdict (exit 0/1)
on a valid record of its tag's kind, and every other outcome is a verdict or
result (exit 0) or a usage error (exit 2, `error: ` on stderr)."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from ordertop import cord, morphcat
from ordertop.finstruct import (
    BinaryRelation,
    OrderedSpace,
    ParseError,
    Qoset,
    SchemaError,
    SpaceMap,
    Topology,
    ValidationError,
    decode,
    encode,
)
from ordertop.labcli import (
    PREDICATES,
    RECORD_CLASSES,
    lattices,
    main,
    posets,
    qosets,
    rep_to_json,
    topologies,
)

NS = range(1, 5)
TOPS = {n: [Topology(n, o) for o in topologies(n)] for n in NS}
QOSETS = {n: [Qoset(n, r) for r in qosets(n)] for n in NS}
POSETS = {n: [Qoset(n, r) for r in posets(n)] for n in NS}
LATTICES = {n: lattices(n) for n in NS}

DERIVE_OPS = (
    "scott", "lawson", "patch:upsilon", "patch:sigma", "patch:alpha", "upper",
    "lower", "cocompact", "interior-relation", "completion", "quasi-uniformity",
)

# valid representations of every kind, from the idempotent relations of the
# T0 spaces on up to three points
REPRESENTATIONS = {
    kind: [
        json.loads(rep_to_json(morphcat._from_c(
            cord.CQuasiOrder(s.n, cord.interior_relation(s).rel), kind
        )))
        for n in range(1, 4) for s in TOPS[n] if s.is_t0()
    ]
    for kind in morphcat.KINDS
}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 17) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def structures(draw):
    n = draw(st.sampled_from(NS))
    kind = draw(st.sampled_from(
        ("topology", "qoset", "ordered_space", "lattice", "relation", "map")
    ))
    if kind == "topology":
        return draw(st.sampled_from(TOPS[n]))
    if kind == "qoset":
        return draw(st.sampled_from(QOSETS[n]))
    if kind == "ordered_space":
        q = draw(st.sampled_from(POSETS[n] + QOSETS[n]))
        return OrderedSpace(q, draw(st.sampled_from(TOPS[n])))
    if kind == "lattice":
        return draw(st.sampled_from(LATTICES[n]))
    if kind == "relation":
        rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        return BinaryRelation(n, tuple(rows))
    return SpaceMap(n, n, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


def _replace(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _replace(value[head], rest, new)}
    return value[:head] + [_replace(value[head], rest, new)] + value[head + 1:]


@st.composite
def malformed(draw, doc):
    """`doc` as JSON text, possibly damaged: a value replaced anywhere, a
    field dropped or added, or the text cut short."""
    how = draw(st.sampled_from(("none", "replace", "drop", "add", "cut")))
    if how == "replace":
        doc = _replace(doc, draw(st.sampled_from(list(_paths(doc)))), draw(JSON))
    elif how == "drop" and isinstance(doc, dict) and doc:
        gone = draw(st.sampled_from(sorted(doc)))
        doc = {k: v for k, v in doc.items() if k != gone}
    elif how == "add" and isinstance(doc, dict):
        key = draw(st.sampled_from(("kind", "n", "leq", "opens", "rel", "payload", "basis")))
        doc = {**doc, key: draw(JSON)}
    text = json.dumps(doc)
    if how == "cut":
        text = text[:draw(st.integers(0, max(0, len(text) - 1)))]
    return text


def _run(argv, text, path):
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--in", str(path)])
    return code, out.getvalue(), err.getvalue()


def _assert_result_or_usage_error(code, out, err):
    assert code in (0, 2)
    if code == 0:
        assert out
    else:
        assert out == "" and err.startswith("error: ")


@pytest.fixture(scope="module")
def record_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "record.json"


@settings(max_examples=300)
@given(st.sampled_from(sorted(PREDICATES)), st.data())
def test_check_fuzz(record_path, tag, data):
    text = data.draw(malformed(json.loads(encode(data.draw(structures())))))
    code, out, err = _run(["check", "--class", tag], text, record_path)
    try:
        obj = decode(text)
    except (ParseError, SchemaError, ValidationError):
        obj = None
    if isinstance(obj, RECORD_CLASSES[PREDICATES[tag][0]]):
        assert code in (0, 1) and json.loads(out)["verdict"] == (code == 0)
    else:
        assert code == 2 and out == "" and err.startswith("error: ")


@settings(max_examples=300)
@given(st.sampled_from(DERIVE_OPS), st.data())
def test_derive_fuzz(record_path, op, data):
    text = data.draw(malformed(json.loads(encode(data.draw(structures())))))
    _assert_result_or_usage_error(*_run(["derive", "--op", op], text, record_path))


@settings(max_examples=100)
@given(st.data())
def test_invariants_fuzz(record_path, data):
    text = data.draw(malformed(json.loads(encode(data.draw(structures())))))
    _assert_result_or_usage_error(*_run(["invariants"], text, record_path))


@settings(max_examples=300)
@given(
    st.sampled_from(morphcat.KINDS), st.sampled_from(morphcat.KINDS), st.data()
)
def test_convert_fuzz(record_path, src, dst, data):
    if data.draw(st.booleans()):
        doc = data.draw(st.sampled_from(REPRESENTATIONS[src]))
    else:
        obj = data.draw(structures())
        doc = {"kind": src, "payload": json.loads(encode(obj))}
        if data.draw(st.booleans()):
            n = getattr(obj, "n", 1)
            doc["basis"] = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    text = data.draw(malformed(doc))
    argv = ["convert", "--from", src, "--to", dst]
    _assert_result_or_usage_error(*_run(argv, text, record_path))
