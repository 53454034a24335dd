"""Judge a tier-1 run from its JUnit XML report.

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tools/check_tier1.py tier1.xml

Exits 0 when the run collected every module, passed at least one test, and
failed or errored exactly the three published-reference criteria (README,
"Known deviation"); otherwise prints what differs and exits 1.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {
    f"tests.test_acceptance::test_criterion_{k}_table{k}_reproduction" for k in (1, 2, 3)
}


def check(path: str) -> list[str]:
    """The ways the report differs from the expected tier-1 result."""
    failed, collection, passed = set(), [], 0
    for case in ET.parse(path).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        bad = [c for c in case if c.tag in ("failure", "error")]
        if any(c.get("message") == "collection failure" for c in bad):
            collection.append(case.get("name"))
        elif bad:
            failed.add(test_id)
        elif case.find("skipped") is None:
            passed += 1
    problems = [f"collection error in {name}" for name in collection]
    problems += [f"unexpected failure: {t}" for t in sorted(failed - EXPECTED_FAILURES)]
    problems += [f"expected failure did not fail: {t}"
                 for t in sorted(EXPECTED_FAILURES - failed)]
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
              "criteria fail")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
