"""Walkthrough: exhaustive suite verification, fault injection, and
counterexample hunting.

Run with: python3 demos/suite_and_hunt.py
"""

from ordertop.labcli import HypothesisSpec, SuiteSpec, hunt, run_suite

print("verify the sector-space equivalence over every ordered space on "
      "three labeled points")
report = run_suite(SuiteSpec("thm-4.6", 3))
print(f"  instances={report.instances} passes={report.passes} "
      f"failures={report.failures}")
print(f"  determinism hash: {report.determinism_hash[:16]}...")

print("\nsame suite with a deliberately broken predicate (the separation "
      "conjunct dropped): failures appear, reproducibly")
broken = run_suite(SuiteSpec("thm-4.6", 3), fault="sector-no-separation")
print(f"  failures={broken.failures}")
first = broken.counterexamples[0]
print(f"  first counterexample: {first['instance']}")

print("\nhunt: is every semi-separated ordered space up-stable?")
result = hunt(HypothesisSpec(("semi-qospace",), "up-stable", n=3))
print(f"  {result}")

print("\nhunt: is every ordered space on two points semi-separated?")
result = hunt(HypothesisSpec((), "semi-qospace", n=2))
print(f"  counterexample found: {result['counterexample']}")
