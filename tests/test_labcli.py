"""Enumeration counts, suite reports, determinism, hunting, and the
command-line surface."""

import hashlib
import json
import multiprocessing
import threading
import time
from types import SimpleNamespace

import pytest

from ordertop import labcli, latid, ospace
from ordertop.finstruct import (
    OrderedSpace,
    Qoset,
    Topology,
    ValidationError,
    bits,
    encode,
    generate_topology,
    mask_of,
    transpose,
    validate_lattice,
)
from ordertop.labcli import (
    HypothesisSpec,
    SuiteSpec,
    enumerate_instances,
    hunt,
    main,
    run_suite,
)

SIER = Topology(2, (0, 2, 3))


# ---------------------------------------------------------------- counts

def test_poset_counts():
    assert [len(labcli.posets(n)) for n in range(6)] == [1, 1, 3, 19, 219, 4231]


def test_qoset_and_topology_counts_agree():
    assert [len(labcli.qosets(n)) for n in range(5)] == [1, 1, 4, 29, 355]
    assert [len(labcli.topologies(n)) for n in range(5)] == [1, 1, 4, 29, 355]


def _close_oracle(family, m):
    """Frontier closure of a family plus one mask under pairwise union and
    intersection."""
    fam = set(family) | {m}
    frontier = [m]
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(fam):
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        nxt.append(c)
        frontier = nxt
    return fam


def test_topology_search_step_matches_frontier_closure():
    # the enumerator extends a topology by one mask through generate_topology
    for n in range(1, 5):
        for opens in labcli.topologies(n):
            for m in range(1 << n):
                assert set(generate_topology(n, [*opens, m]).opens) == \
                    _close_oracle(opens, m)


def test_t0_topology_count_equals_poset_count():
    for n in range(1, 5):
        assert len(enumerate_instances("t0-topology", n)) == len(labcli.posets(n))
    with pytest.raises(ValidationError) as err:
        enumerate_instances("t0-topology", 0)
    assert err.value.code == "BadCarrier"


def _bounded_poset_lattices(n):
    """The labeled lattices on n points by filtering every labeled poset:
    keep the bounded ones that validate as lattices.  The oracle for
    `labcli.lattices`."""
    full = (1 << n) - 1
    out = []
    for rows in labcli.posets(n):
        if full not in rows or full not in transpose(n, rows):
            continue
        try:
            out.append(validate_lattice(n, rows))
        except ValidationError:
            continue
    return out


def test_lattice_counts():
    assert [len(labcli.lattices(n)) for n in range(1, 6)] == [1, 2, 6, 36, 380]
    assert len(labcli.lattices(6)) == 6390


def test_lattices_equal_the_bounded_poset_filter():
    # order and meet/join tables included
    for n in range(7):
        assert labcli.lattices(n) == _bounded_poset_lattices(n), n


def test_lattice_classes_are_relabelled_representatives():
    for n in range(1, 7):
        for rep, copies in labcli._lattice_classes(n):
            assert rep in copies
            if n >= 2:
                assert (rep.bottom, rep.dual().bottom) == (n - 2, n - 1)
                # one copy per (bottom, top) pair
                assert len({
                    (lat.bottom, lat.dual().bottom) for lat in copies
                }) == n * (n - 1)
            for lat in copies:
                assert lat == validate_lattice(n, lat.leq)


def test_enumeration_bounds_and_kinds():
    with pytest.raises(ValidationError) as err:
        enumerate_instances("topology", 9)
    assert err.value.code == "BoundTooLarge"
    with pytest.raises(ValidationError) as err:
        enumerate_instances("graph", 2)
    assert err.value.code == "UnknownKind"


@pytest.mark.parametrize("kind", ["ordered-space", "semilattice-ordered-space"])
def test_ordered_space_kinds_refuse_five_points(kind, capsys):
    # 4,231 x 6,942 ordered spaces on 5 points would not fit in memory
    assert labcli.BOUNDS[kind] == 4
    with pytest.raises(ValidationError) as err:
        enumerate_instances(kind, 5)
    assert (err.value.code, err.value.witness) == ("BoundTooLarge", (kind, 5))
    calls = [["enumerate", "--kind", kind, "--n", "5"]]
    if kind == "ordered-space":
        calls.append(["hunt", "--refute", "up-stable", "--n", "5"])
    for argv in calls:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: BoundTooLarge")


def test_ordered_space_stream_is_product_of_posets_and_topologies():
    insts = enumerate_instances("ordered-space", 3)
    assert len(insts) == 19 * 29
    assert insts[0].qoset.leq == labcli.posets(3)[0]


# ---------------------------------------------------------------- suites

def test_roundtrip_suite_all_pass():
    report = run_suite(SuiteSpec("thm-3.3-roundtrip", 3))
    assert report.instances == 29
    assert report.failures == 0 and report.passes == 29


def test_count_crosscheck_suite():
    report = run_suite(SuiteSpec("count-crosscheck", 4))
    assert report.instances == 5 and report.failures == 0


def test_unknown_suite():
    with pytest.raises(ValidationError) as err:
        run_suite(SuiteSpec("thm-0.0", 2))
    assert err.value.code == "UnknownSuite"


def test_report_hash_is_stable_and_ignores_wall_time():
    a = run_suite(SuiteSpec("thm-3.3-roundtrip", 3))
    b = run_suite(SuiteSpec("thm-3.3-roundtrip", 3))
    assert a.determinism_hash == b.determinism_hash
    assert a.wall_time != b.wall_time or a.wall_time >= 0  # excluded from hash


def _lattice_law_oracle(lat):
    """(ok, verdicts) of the lattice-laws suite, decided on the labeled
    lattice itself."""
    verdicts = {law: latid.check_law(lat, law)[0] for law in latid.LAWS}
    always = ("meet-continuous", "continuous-lattice")
    ok = (
        len({verdicts[law] for law in latid.LAWS if law not in always}) == 1
        and all(verdicts[law] for law in always)
    )
    if ok and verdicts["distributive"]:
        ok = (
            latid.min_join_dense(lat).weight
            == latid.min_join_dense(lat.dual()).weight
        )
    return ok, verdicts


def test_lattice_laws_class_verdicts_equal_labeled_verdicts():
    expected = [
        (lat, *_lattice_law_oracle(lat))
        for k in range(1, 6) for lat in _bounded_poset_lattices(k)
    ]
    assert len(expected) == 425
    assert list(labcli._suite_cases(SuiteSpec("lattice-laws", 5))) == expected


def test_lattice_laws_refuses_n_beyond_the_lattice_bound(capsys):
    n = labcli.SUITES["lattice-laws"].bound + 1
    with pytest.raises(ValidationError) as err:
        run_suite(SuiteSpec("lattice-laws", n))
    assert (err.value.code, err.value.witness) == ("BoundTooLarge", ("lattice-laws", n))
    assert main(["verify", "--suite", "lattice-laws", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: BoundTooLarge")


@pytest.mark.parametrize("suite", labcli.SUITES)
def test_every_suite_refuses_n_above_its_bound_before_enumerating(suite, monkeypatch):
    def enumerated(*args):
        raise AssertionError("enumerated before the bound check")

    for name in ("posets", "qosets", "topologies", "_lattice_classes", "enumerate_instances"):
        monkeypatch.setattr(labcli, name, enumerated)
    for n in range(labcli.SUITES[suite].bound + 1, 17):
        start = time.monotonic()
        with pytest.raises(ValidationError) as err:
            run_suite(SuiteSpec(suite, n))
        assert time.monotonic() - start < 0.1
        assert (err.value.code, err.value.witness) == ("BoundTooLarge", (suite, n))
    with pytest.raises(ValidationError) as err:
        run_suite(SuiteSpec(suite, 17))
    assert (err.value.code, err.value.witness) == ("BadCarrier", (17,))


def test_suite_starts_no_process_or_thread(capsys):
    threads = threading.active_count()
    run_suite(SuiteSpec("thm-4.6", 3), workers=2)
    run_suite(SuiteSpec("lattice-laws", 5), workers=1)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    assert main(["verify", "--suite", "thm-4.6", "--n", "3"]) == 0
    capsys.readouterr()
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_suites_call_library_functions_by_module_attribute(monkeypatch):
    # the traced benchmark run rebinds module attributes, so a suite record
    # that held one of these functions would hide its calls from the tracer
    wrapped = (
        (labcli, "posets"), (labcli, "topologies"),
        (ospace, "thm_4_6_sides"), (ospace, "thm_5_3_sides"),
    )
    calls = {name: 0 for _module, name in wrapped}
    for module, name in wrapped:
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    run_suite(SuiteSpec("thm-4.6", 3))
    run_suite(SuiteSpec("thm-5.3", 3))
    # one enumeration per suite, and one decide per (topology class, order)
    assert calls == {
        "posets": 2, "topologies": 2,
        "thm_4_6_sides": 9 * 19, "thm_5_3_sides": 9 * 19,
    }


# (instances, passes, failures) and determinism_hash of the ordered-space
# suites at n = 4; the fault hashes cover every encoded counterexample
ORDERED_SPACE_N4_PINS = {
    ("thm-4.6", None): (
        (77745, 77745, 0),
        "305586c16101086711a832a976b534e4973afdeab0930541938f7f4260d42bab",
    ),
    ("thm-4.6", "sector-no-separation"): (
        (77745, 69403, 8342),
        "1c923a50f064c69730941383e32d5a613c0f14004bac0f4ec79053b60c859f71",
    ),
    ("thm-5.3", None): (
        (77745, 77745, 0),
        "f5cf08186a9349a747c837acb577c1184b726823aa613d8c433d18cd2258a7c6",
    ),
    ("thm-5.3", "fan-no-separation"): (
        (77745, 67951, 9794),
        "e8b05550d4ea00f555ce8daf0be64ad13528889c3e25f6ff60bb9022f2babe58",
    ),
    ("thm-7.2", None): (
        (76, 76, 0),
        "f181e32f9ab696521e0c7dc7977599968cec41a2bc84d057818e408d9537ef89",
    ),
    ("prop-7.4", None): (
        (26980, 26980, 0),
        "94907cb62360758e2f32bb9c6aa63879f6a20cf67d13c465850fabadf3a7cfc7",
    ),
}


@pytest.mark.parametrize("suite, fault", ORDERED_SPACE_N4_PINS)
def test_ordered_space_suite_reports_at_n4(suite, fault):
    counts, digest = ORDERED_SPACE_N4_PINS[suite, fault]
    report = run_suite(SuiteSpec(suite, 4), fault=fault)
    assert (report.instances, report.passes, report.failures) == counts
    assert report.determinism_hash == digest


def test_topology_classes_and_their_witnesses():
    counts = []
    for n in range(1, 5):
        tops = enumerate_instances("topology", n)
        reps, members = labcli._topology_classes(tops)
        counts.append(len(reps))
        first = {}
        for ti, (t, (c, p)) in enumerate(zip(tops, members)):
            first.setdefault(c, ti)
            assert sorted(p) == list(range(n))
            # p carries rep.M onto t.M
            assert all(
                t.M[p[x]] == mask_of(p[y] for y in bits(reps[c].M[x]))
                for x in range(n)
            )
        assert [tops[ti] for ti in first.values()] == reps
    # the unlabeled topologies on 1..4 points
    assert counts == [1, 3, 9, 33]


def _every_side(tb):
    """Every verdict an ordered-space suite reads, decided directly."""
    meet = ospace.meet_table(tb.q)
    return (
        ospace.thm_4_6_sides(tb),
        ospace.thm_5_3_sides(tb),
        ospace.prop_7_4_sides(tb),
        ospace._neighborhood_base(tb, lambda w, x: ospace._is_sector(tb, w)),
        ospace._neighborhood_base(tb, lambda w, x: ospace._is_fan(tb, w)),
        ospace.is_hyperconvex(tb) and ospace.is_semi_qospace(tb),
        meet and ospace.thm_7_2_sides(tb, meet),
    )


@pytest.mark.parametrize("orders_of", [labcli.posets, labcli._meet_posets])
def test_class_verdicts_equal_direct_verdicts_at_n3(orders_of):
    tops = enumerate_instances("topology", 3)
    orders = [Qoset(3, rows) for rows in orders_of(3)]
    decided = []

    def decide(tb):
        decided.append(tb.space)
        return _every_side(tb)

    verdict = labcli._class_verdicts(tops, orders, decide)
    for ti, t in enumerate(tops):
        for qi, q in enumerate(orders):
            assert verdict(qi, ti) == _every_side(ospace.Tables(OrderedSpace(q, t)))
    # once per (topology class, order)
    assert len(decided) == len(set(decided)) == 9 * len(orders)


@pytest.mark.parametrize("suite, builds", [
    ("thm-4.6", 33 * 219),
    ("thm-5.3", 33 * 219),
    ("thm-7.2", 33 * 76),
    ("prop-7.4", 33 * 76),
    # at n = 3: one per poset with its Lawson topology, then the cross-check
    # of sides 4 and 5 once per (topology class, poset)
    ("thm-6.2", 19 + 9 * 19),
])
def test_ordered_space_suites_build_tables_once_per_class_and_order(
    suite, builds, monkeypatch
):
    # count the Tables the suite driver builds, not those the predicates
    # build for upper spaces
    built = []

    def tables(space):
        built.append(space)
        return ospace.Tables(space)

    monkeypatch.setattr(
        labcli, "ospace", SimpleNamespace(**{**vars(ospace), "Tables": tables})
    )
    run_suite(SuiteSpec(suite, 3 if suite == "thm-6.2" else 4))
    assert len(built) == builds
    # the Lawson topology of a poset on 3 points is discrete, and the
    # discrete topology is its own class, so the cross-check builds thm-6.2's
    # 19 Lawson spaces again; every other build is distinct
    assert len(set(built)) == builds - (19 if suite == "thm-6.2" else 0)


# ---------------------------------------------------------------- faults

def test_fault_injection_produces_stable_counterexamples():
    spec = SuiteSpec("thm-4.6", 3)
    a = run_suite(spec, fault="sector-no-separation")
    b = run_suite(spec, fault="sector-no-separation")
    assert a.failures == 177
    assert a.determinism_hash == b.determinism_hash
    assert a.counterexamples[0] == b.counterexamples[0]


def test_fan_fault_failure_count():
    report = run_suite(SuiteSpec("thm-5.3", 3), fault="fan-no-separation")
    assert report.failures == 189


def test_fault_must_match_suite():
    with pytest.raises(ValidationError) as err:
        run_suite(SuiteSpec("thm-5.3", 2), fault="sector-no-separation")
    assert err.value.code == "UnknownFault"
    assert {
        (name, fault) for name, suite in labcli.SUITES.items() for fault in suite.faults
    } == {("thm-4.6", "sector-no-separation"), ("thm-5.3", "fan-no-separation")}


# ---------------------------------------------------------------- hunting

def test_hunt_exhausts_on_true_implications():
    for assume, refute in (
        (("semi-qospace",), "up-stable"),
        (("sector-space",), "strongly-convex"),
        (("fan-space",), "hyperconvex"),
    ):
        result = hunt(HypothesisSpec(assume, refute))
        assert "counterexample" not in result
        assert result["exhausted"] == {
            "kind": "ordered-space", "n": 3, "instances": 551
        }


def test_hunt_finds_counterexample():
    result = hunt(HypothesisSpec((), "semi-qospace", n=2))
    assert "counterexample" in result


def test_hunt_rejects_unknown_or_mismatched_tags():
    with pytest.raises(ValidationError) as err:
        hunt(HypothesisSpec((), "open-hearted"))
    assert err.value.code == "UnknownPredicateTag"
    with pytest.raises(ValidationError):
        hunt(HypothesisSpec((), "sober"))  # topology tag, ordered-space kind


# a true implication between tags of each kind that PREDICATES covers
HUNT_IMPLICATIONS = {
    "ordered-space": ("semi-qospace", "up-stable"),
    "topology": ("sober", "t0"),
}


@pytest.mark.parametrize("kind", labcli.BOUNDS)
def test_hunt_refuses_kinds_no_tag_covers(kind, capsys):
    assume, refute = HUNT_IMPLICATIONS.get(kind, ("semi-qospace", "up-stable"))
    argv = ["hunt", "--assume", assume, "--refute", refute, "--kind", kind, "--n", "2"]
    if kind in HUNT_IMPLICATIONS:
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["exhausted"]["kind"] == kind
        return
    with pytest.raises(ValidationError) as err:
        hunt(HypothesisSpec((assume,), refute, kind, 2))
    assert (err.value.code, err.value.witness) == ("KindHasNoTags", (kind,))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: KindHasNoTags('{kind}',)\n"


# ---------------------------------------------------------------- CLI

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_cli_check(tmp_path, capsys):
    path = _write(tmp_path, "s.json", encode(SIER))
    assert main(["check", "--class", "t0", "--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True
    path2 = _write(tmp_path, "i.json", encode(Topology(2, (0, 3))))
    assert main(["check", "--class", "t0", "--in", path2]) == 1
    assert main(["check", "--class", "nonsense", "--in", path]) == 2
    # topology tag applied to a qoset record
    qpath = _write(tmp_path, "q.json", encode(Qoset(2, (3, 2))))
    assert main(["check", "--class", "sober", "--in", qpath]) == 2


def test_cli_derive(tmp_path, capsys):
    qpath = _write(tmp_path, "q.json", encode(Qoset(3, (0b111, 0b110, 0b100))))
    assert main(["derive", "--op", "scott", "--in", qpath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "topology" and doc["n"] == 3
    spath = _write(tmp_path, "s.json", encode(SIER))
    assert main(["derive", "--op", "patch:upsilon", "--in", spath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "ordered_space"
    assert main(["derive", "--op", "cocompact", "--in", spath]) == 0
    capsys.readouterr()
    assert main(["derive", "--op", "frobnicate", "--in", spath]) == 2


def test_cli_derive_completion_and_uniformity(tmp_path, capsys):
    from ordertop.finstruct import BinaryRelation
    rpath = _write(tmp_path, "r.json", encode(BinaryRelation(2, (3, 2))))
    assert main(["derive", "--op", "completion", "--in", rpath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["basis"] == [0, 1]
    spath = _write(tmp_path, "s.json", encode(SIER))
    assert main(["derive", "--op", "quasi-uniformity", "--in", spath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["base"]) == 2


def test_cli_enumerate(tmp_path, capsys):
    assert main(["enumerate", "--kind", "topology", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert main(["enumerate", "--kind", "topology", "--n", "9"]) == 2
    assert "BoundTooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("suite", labcli.SUITES)
def test_every_suite_refuses_the_empty_carrier(suite):
    with pytest.raises(ValidationError) as err:
        run_suite(SuiteSpec(suite, 0))
    assert (err.value.code, err.value.witness) == ("BadCarrier", (0,))


def test_cli_enumerate_refuses_the_empty_carrier(capsys):
    assert main(["enumerate", "--kind", "topology", "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "BadCarrier(0,)" in captured.err


def test_cli_verify(capsys):
    assert main(["verify", "--suite", "thm-3.3-roundtrip", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 0 and doc["instances"] == 4
    assert main(["verify", "--suite", "thm-0.0", "--n", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: UnknownSuite")
    for flag in ("--workers", "--seed", "--sample"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "thm-4.6", "--n", "2", flag, "0"])
        assert exc.value.code == 2
    capsys.readouterr()
    assert main([
        "verify", "--suite", "thm-4.6", "--n", "2",
        "--fault", "sector-no-separation", "--verbose",
    ]) == 1
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1])["failures"] > 0


def test_verify_help_names_every_suite_with_its_bound_and_every_fault(
    capsys, monkeypatch
):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, suite in labcli.SUITES.items():
        assert f"{name} (n<={suite.bound})" in out
        for fault in suite.faults:
            assert f"{fault} ({name})" in out
    assert "sector-no-separation (thm-4.6)" in out
    assert "fan-no-separation (thm-5.3)" in out


def test_cli_hunt(capsys):
    assert main([
        "hunt", "--assume", "semi-qospace", "--refute", "up-stable", "--n", "3",
    ]) == 0
    assert "exhausted" in capsys.readouterr().out
    assert main(["hunt", "--refute", "semi-qospace", "--n", "2"]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_cli_invariants(tmp_path, capsys):
    path = _write(tmp_path, "s.json", encode(SIER))
    assert main(["invariants", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"c": 2, "w_open": 2, "w_closed": 2, "w_patch": 2, "d_patch": 2}


def test_cli_convert(tmp_path, capsys):
    rep = json.dumps({"kind": "t0-core-space", "payload": json.loads(encode(SIER))})
    path = _write(tmp_path, "rep.json", rep)
    assert main([
        "convert", "--from", "t0-core-space", "--to", "c-ordered-set",
        "--in", path,
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "c-ordered-set"
    assert main([
        "convert", "--from", "t0-core-space", "--to", "powerset", "--in", path,
    ]) == 2


def test_cli_missing_file(capsys):
    assert main(["check", "--class", "t0", "--in", "/nonexistent.json"]) == 2


QOSET_REC = encode(Qoset(2, (3, 2)))
TOPOLOGY_REC = encode(SIER)
SPACE_REC = encode(OrderedSpace(Qoset(2, (3, 2)), SIER))


@pytest.mark.parametrize(
    "argv,record",
    [
        (["derive", "--op", "lawson"], TOPOLOGY_REC),
        (["derive", "--op", "scott"], TOPOLOGY_REC),
        (["derive", "--op", "upper"], QOSET_REC),
        (["derive", "--op", "lower"], QOSET_REC),
        (["derive", "--op", "patch:upsilon"], QOSET_REC),
        (["derive", "--op", "patch:sigma"], SPACE_REC),
        (["derive", "--op", "cocompact"], QOSET_REC),
        (["derive", "--op", "interior-relation"], SPACE_REC),
        (["derive", "--op", "quasi-uniformity"], QOSET_REC),
        (["derive", "--op", "completion"], TOPOLOGY_REC),
        (["derive", "--op", "completion"], QOSET_REC),
        (["invariants"], QOSET_REC),
        (["invariants"], SPACE_REC),
        (["check", "--class", "sober"], SPACE_REC),
        (["check", "--class", "fan-space"], TOPOLOGY_REC),
        (["convert", "--from", "t0-core-space", "--to", "c-ordered-set"], TOPOLOGY_REC),
        (["convert", "--from", "based-domain", "--to", "t0-core-space"],
         json.dumps({"kind": "based-domain", "payload": json.loads(TOPOLOGY_REC),
                     "basis": [0, 1]})),
        (["convert", "--from", "based-domain", "--to", "t0-core-space"],
         json.dumps({"kind": "based-domain", "payload": json.loads(QOSET_REC)})),
        (["convert", "--from", "based-domain", "--to", "t0-core-space"],
         json.dumps({"kind": "based-domain", "payload": json.loads(QOSET_REC),
                     "basis": [0, 2]})),
        (["convert", "--from", "t0-core-space", "--to", "c-ordered-set"], "{oops"),
        # matrices hold only the integers 0 and 1, opens only carrier points
        (["derive", "--op", "scott"], '{"kind":"qoset","n":2,"leq":[[1,"x"],[0,1]]}'),
        (["derive", "--op", "scott"], '{"kind":"qoset","n":2,"leq":[[1,null],[0,1]]}'),
        (["derive", "--op", "scott"], '{"kind":"qoset","n":2,"leq":[[1,1],1.5]}'),
        (["derive", "--op", "scott"], '{"kind":"qoset","n":2,"leq":[[1.0,0],[0,1]]}'),
        (["derive", "--op", "scott"], '{"kind":"qoset","n":2,"leq":[[1,2],[0,1]]}'),
        (["derive", "--op", "scott"], '{"kind":"qoset","n":2,"leq":[[1,true],[0,1]]}'),
        (["derive", "--op", "completion"], '{"kind":"relation","n":2,"rel":[[1,"1"],[0,1]]}'),
        (["invariants"], '{"kind":"lattice","n":2,"leq":[[1,1],[0,"x"]]}'),
        (["invariants"], '{"kind":"topology","n":2,"opens":[[],["a"],[0,1]]}'),
        (["invariants"], '{"kind":"topology","n":2,"opens":[[],[1.0],[0,1]]}'),
        (["invariants"], '{"kind":"topology","n":2,"opens":[[],[-1],[0,1]]}'),
        (["invariants"], '{"kind":"topology","n":2,"opens":[[],1,[0,1]]}'),
        (["invariants"], '{"kind":"topology","n":true,"opens":[[],[0]]}'),
        (["invariants"], '{"kind":"map","n_src":1,"n_dst":1,"value":["a"]}'),
    ],
)
def test_cli_rejects_bad_records(tmp_path, capsys, argv, record):
    path = _write(tmp_path, "r.json", record)
    assert main(argv + ["--in", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


# sha256 over json.dumps([_record(instance), ok, detail], sort_keys=True) of
# every case of a suite, first 16 hex digits; n = 3 (lattice-laws: n = 5)
VERDICT_STREAM_PINS = {
    ("thm-3.3-roundtrip", None): "0a66121739543c5d",
    ("thm-4.6", None): "6887ce79d29c624d",
    ("thm-5.3", None): "6887ce79d29c624d",
    ("thm-6.2", None): "ad03992543ae9910",
    ("thm-7.2", None): "6abf29c8d41760e4",
    ("thm-8.4", None): "9b335cae85621c2b",
    ("thm-9.3", None): "6a9ac555b5b23fe5",
    ("prop-3.1", None): "cab4b9bc2ae15ed2",
    ("prop-5.5", None): "0a66121739543c5d",
    ("prop-7.4", None): "359e6c9040914679",
    ("prop-9.1", None): "b0909f53a17ffea8",
    ("lattice-laws", None): "61652e4fcf79608a",
    ("count-crosscheck", None): "779a837114a7e623",
    # the fault pins tell thm-4.6 and thm-5.3 apart
    ("thm-4.6", "sector-no-separation"): "6b1dea90773a104b",
    ("thm-5.3", "fan-no-separation"): "a0cd681ed46fcdf5",
}


def test_verdict_stream_pins():
    assert {suite for suite, _fault in VERDICT_STREAM_PINS} == set(labcli.SUITES)
    for (suite, fault), pin in VERDICT_STREAM_PINS.items():
        n = 5 if suite == "lattice-laws" else 3
        h = hashlib.sha256()
        for inst, ok, detail in labcli._suite_cases(SuiteSpec(suite, n), fault):
            h.update(json.dumps(
                [labcli._record(inst), ok, detail], sort_keys=True
            ).encode())
        assert h.hexdigest()[:16] == pin, (suite, fault)


def test_lattice_laws_n6_verdict_stream_pin():
    h = hashlib.sha256()
    for inst, ok, detail in labcli._suite_cases(SuiteSpec("lattice-laws", 6), None):
        h.update(json.dumps(
            [labcli._record(inst), ok, detail], sort_keys=True
        ).encode())
    assert h.hexdigest() == (
        "754d96d712eb6ac3a86dfdf25cd5676e51d400b4d0631637ee73928d5bde0164"
    )
