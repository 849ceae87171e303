"""Acceptance gate: one test per criterion, each printing a single verdict
line.  Time budgets are pinned with monotonic wall-clock measurements."""

import time

from ordertop import cord, latid, morphcat, ospace, topoderive as td
from ordertop.finstruct import (
    OrderedSpace,
    Qoset,
    Topology,
    decode,
    encode,
    validate_lattice,
)
from ordertop.labcli import (
    SuiteSpec,
    posets,
    run_suite,
    topologies,
)

SIER = Topology(2, (0, 2, 3))


def _verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_relation_space_roundtrip_n4():
    start = time.monotonic()
    report = run_suite(SuiteSpec("thm-3.3-roundtrip", 4))
    elapsed = time.monotonic() - start
    ok = report.instances == 355 and report.failures == 0 and elapsed < 10.0
    _verdict(1, ok, f"{report.instances} spaces, {report.failures} failures, "
                    f"{elapsed:.2f}s (budget 10s)")


def test_criterion_02_patch_adjunction():
    start = time.monotonic()
    first = second = 0
    ok = True
    for n in range(1, 4):
        tops = [Topology(n, o) for o in topologies(n)]
        for s in tops:
            for zeta in td.COSELECTIONS:
                first += 1
                ok = ok and td.upper_space(td.patch(s, zeta)) == s
        for rows in posets(n):
            q = Qoset(n, rows)
            for t in tops:
                sp = OrderedSpace(q, t)
                tb = ospace.Tables(sp)
                if not ospace.is_semi_qospace(tb):
                    continue
                for zeta in td.COSELECTIONS:
                    cotop = td.upset_topology(tb.q2.dual(), zeta)
                    if not ospace._cotopology_convex(tb, cotop):
                        continue
                    second += 1
                    ok = ok and td.patch(tb.upper_space, zeta) == sp
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _verdict(2, ok, f"{first} upper-of-patch + {second} patch-of-upper "
                    f"identities, {elapsed:.2f}s (budget 30s)")


def test_criterion_03_sector_and_fan_sweep_n4():
    start = time.monotonic()
    r46 = run_suite(SuiteSpec("thm-4.6", 4))
    r53 = run_suite(SuiteSpec("thm-5.3", 4))
    elapsed = time.monotonic() - start
    ok = (
        r46.instances == 77745 and r53.instances == 77745
        and r46.failures == 0 and r53.failures == 0
        and elapsed < 300.0
    )
    _verdict(3, ok, f"2x{r46.instances} ordered spaces, "
                    f"{r46.failures + r53.failures} failures, "
                    f"{elapsed:.2f}s (budget 300s)")


THM_6_2_N5_HASH = "96b559ec8cc9bf2b690a578d7ae569d1cc63c14c6118b62ce763b1e93e16b918"


def test_criterion_04_domain_bundle_through_n5():
    total = fails = 0
    for n in range(1, 6):
        report = run_suite(SuiteSpec("thm-6.2", n))
        total += report.instances
        fails += report.failures
    ok = (
        fails == 0
        and (report.instances, report.passes, report.failures) == (4231, 4231, 0)
        and report.determinism_hash == THM_6_2_N5_HASH
    )
    _verdict(4, ok, f"{total} instances across n=1..5, exhaustive "
                    f"({report.instances} posets at n=5), {fails} failures")


def test_criterion_05_locally_supercompact_profile_n4():
    total = fails = 0
    for n in range(1, 5):
        report = run_suite(SuiteSpec("prop-3.1", n))
        total += report.instances
        fails += report.failures
    _verdict(5, fails == 0, f"{total} spaces, all nine conditions agree, "
                            f"{fails} failures")


def test_criterion_06_quasi_uniformity_n3():
    total = fails = 0
    for n in range(1, 4):
        report = run_suite(SuiteSpec("prop-5.5", n))
        total += report.instances
        fails += report.failures
    base = [r.rel for r in td.quasi_uniformity(SIER).base]
    ok = fails == 0 and base == [(3, 2), (3, 3)]
    _verdict(6, ok, f"{total} spaces, {fails} failures, two-point base "
                    f"{base} as expected")


def test_criterion_07_cardinal_invariants():
    start = time.monotonic()
    total = fails = 0
    for n in range(1, 6):
        report = run_suite(SuiteSpec("thm-9.3", n))
        total += report.instances
        fails += report.failures
    for n in range(1, 4):
        report = run_suite(SuiteSpec("prop-9.1", n))
        total += report.instances
        fails += report.failures
    elapsed = time.monotonic() - start
    ok = fails == 0 and elapsed < 120.0
    _verdict(7, ok, f"{total} invariant checks, {fails} failures, "
                    f"{elapsed:.2f}s (budget 120s)")


LATTICE_LAWS_N6_HASH = "4a9f89a5a58cc76b922ba1e3aa6c65c80004fbd553c4e57f078e4e8e5193aeaa"


def test_criterion_08_lattice_law_collapse():
    start = time.monotonic()
    report = run_suite(SuiteSpec("lattice-laws", 6))
    elapsed = time.monotonic() - start
    m3 = validate_lattice(5, (0b11111, 0b10010, 0b10100, 0b11000, 0b10000))
    n5 = validate_lattice(5, (0b11111, 0b11010, 0b10100, 0b11000, 0b10000))
    ok_m3, wit_m3 = latid.check_law(m3, "frame")
    ok_n5, wit_n5 = latid.check_law(n5, "distributive")
    ok = (
        report.failures == 0
        and report.determinism_hash == LATTICE_LAWS_N6_HASH
        and not ok_m3 and wit_m3 == (1, (2, 3))
        and not ok_n5 and wit_n5 == (3, 1, 2)
        and elapsed < 3.0
    )
    _verdict(8, ok, f"{report.instances} lattices through 6 elements, "
                    f"{report.failures} failures, witnesses {wit_m3}/{wit_n5}, "
                    f"{elapsed:.2f}s (budget 3s)")


THM_8_4_N4_HASH = "7b5dffcc6ad93db9e64ad9f45520db32e6db91b9b93459222bcb9669f014a592"


def test_criterion_09_representation_roundtrips():
    total = fails = 0
    for n in range(1, 5):
        start = time.monotonic()
        report = run_suite(SuiteSpec("thm-8.4", n))
        elapsed = time.monotonic() - start
        total += report.instances
        fails += report.failures
    pairs = sum(
        1 for a in morphcat.KINDS for b in morphcat.KINDS if a != b
    )
    ok = (
        fails == 0 and pairs == 30
        and report.instances == 219 and report.determinism_hash == THM_8_4_N4_HASH
        and elapsed < 20.0
    )
    _verdict(9, ok, f"{total} spaces through all {pairs} ordered kind pairs, "
                    f"{fails} failures, n=4 in {elapsed:.2f}s (budget 20s)")


def test_criterion_10_semilattice_bundle_n4():
    total = fails = 0
    for n in range(1, 5):
        report = run_suite(SuiteSpec("thm-7.2", n))
        total += report.instances
        fails += report.failures
    _verdict(10, fails == 0, f"{total} hyperconvex semilattice-ordered "
                             f"instances, {fails} failures")


def test_criterion_11_determinism_and_partitioning():
    spec = SuiteSpec("thm-4.6", 3)
    a = run_suite(spec, fault="sector-no-separation")
    b = run_suite(spec, fault="sector-no-separation")
    clean1 = run_suite(spec)
    clean2 = run_suite(spec)
    ok = (
        a.failures == 177
        and a.determinism_hash == b.determinism_hash
        and a.counterexamples[0] == b.counterexamples[0]
        and clean1.failures == 0
        and clean1.determinism_hash == clean2.determinism_hash
    )
    _verdict(11, ok, f"fault run reproducible from run to run "
                     f"({a.failures} seeded failures, identical first "
                     f"counterexample and report hash)")


def test_criterion_12_derivations_on_16_points():
    n = 16
    full = (1 << n) - 1
    antichain = Qoset(n, tuple(1 << x for x in range(n)))
    chain = Qoset(n, tuple(full & ~((1 << x) - 1) for x in range(n)))
    discrete = Topology(n, tuple(range(full + 1)))
    chain_space = td.alexandroff(chain)
    record = encode(discrete)
    sixteen = (n,) * 5
    # each derived 16-point space is discrete: 65,536 opens; each invariant
    # of a 16-point T0 space is its number of points
    calls = [
        ("lawson(antichain)", lambda: td.lawson_topology(antichain), discrete),
        ("lawson(chain)", lambda: td.lawson_topology(chain), discrete),
        ("patch(discrete, upsilon)",
         lambda: td.patch(discrete, "upsilon").topology, discrete),
        ("decode(discrete)", lambda: decode(record), discrete),
        ("invariants(chain)",
         lambda: cord.cardinal_invariants(chain_space).values, sixteen),
        ("invariants(antichain)",
         lambda: cord.cardinal_invariants(discrete).values, sixteen),
    ]
    ok = True
    timings = []
    for name, call, expected in calls:
        start = time.monotonic()
        result = call()
        elapsed = time.monotonic() - start
        ok = ok and result == expected and elapsed < 5.0
        timings.append(f"{name} {elapsed:.2f}s")
    _verdict(12, ok, f"{', '.join(timings)} (budget 5s per call)")
