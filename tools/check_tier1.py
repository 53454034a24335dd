"""Judge a tier-1 run from its JUnit XML report.

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tools/check_tier1.py tier1.xml

Exits 0 when the run collected every module, passed at least one test, and
failed or errored exactly the three published-reference criteria (README,
"Known deviation"), each with the message frozen below; otherwise prints
what differs and exits 1. The messages carry the criteria's errors and
rates to 4-5 digits, so a change that moves any of them is reported.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

# test id -> the first line of its failure message, without "AssertionError: "
EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_1_table1_reproduction":
        "M=4: err 1.1892e-02 vs 1.2759e-02 (-6.8%); M=8: CR 1.8084 vs 1.9186",
    "tests.test_acceptance::test_criterion_2_table2_reproduction":
        "E_0.5 M=4: 1.5941e-03 vs 3.6100e-03 (-55.8%); "
        "E_0.5 M=8: 4.7133e-04 vs 5.3420e-04 (-11.8%); "
        "E_0.75 M=4: 6.9572e-04 vs 1.5970e-03 (-56.4%); "
        "E_0.75 M=8: 2.0944e-04 vs 2.4010e-04 (-12.8%)",
    "tests.test_acceptance::test_criterion_3_table3_reproduction":
        "E_1 M=4: 4.5035e-03 vs 9.8980e-03 (-54.5%); E_1 M=64: 4.0899e-05 vs 4.9450e-05 (-17.3%)",
}


def _first_line(message: str | None) -> str:
    return (message or "").split("\n")[0].removeprefix("AssertionError: ")


def check(path: str) -> list[str]:
    """The ways the report differs from the expected tier-1 result."""
    failed, collection, passed = {}, [], 0
    for case in ET.parse(path).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        bad = [c for c in case if c.tag in ("failure", "error")]
        if any(c.get("message") == "collection failure" for c in bad):
            collection.append(case.get("name"))
        elif bad:
            failed[test_id] = _first_line(bad[0].get("message"))
        elif case.find("skipped") is None:
            passed += 1
    problems = [f"collection error in {name}" for name in collection]
    problems += [f"unexpected failure: {t}" for t in sorted(failed.keys() - EXPECTED_FAILURES)]
    problems += [f"expected failure did not fail: {t}"
                 for t in sorted(EXPECTED_FAILURES.keys() - failed.keys())]
    problems += [f"changed failure message: {t}: {failed[t]!r}, expected {expected!r}"
                 for t, expected in sorted(EXPECTED_FAILURES.items())
                 if t in failed and failed[t] != expected]
    if passed == 0:
        problems.append("no test passed")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_tier1.py REPORT.xml", file=sys.stderr)
        return 2
    try:
        problems = check(argv[0])
    except (OSError, ET.ParseError) as exc:
        problems = [f"cannot read {argv[0]}: {exc}"]
    for line in problems:
        print(line)
    if not problems:
        print(f"tier-1 as expected: only the {len(EXPECTED_FAILURES)} published-reference "
              "criteria fail, with their frozen messages")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
