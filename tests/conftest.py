import gc
import re
import sys

import pytest

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


@pytest.fixture(autouse=True)
def collector_stays_enabled():
    """The CLI turns the cyclic collector off for each command; no test or
    command path may leave it off for the rest of the suite."""
    yield
    assert gc.isenabled(), "a test left the cyclic garbage collector off"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance checklist, one PASS/FAIL line per criterion.

    Runs after capture is released, so the lines are visible in every
    invocation, including plain `pytest -v`.
    """
    mod = (sys.modules.get("tests.test_acceptance")
           or sys.modules.get("test_acceptance"))
    titles = getattr(mod, "CRITERIA", {})
    verdicts = {}
    for outcome, verdict in (("passed", "PASS"), ("failed", "FAIL"),
                             ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            if outcome == "passed" and getattr(rep, "when", "call") != "call":
                continue
            m = _CRITERION_RE.search(rep.nodeid)
            if m and "test_acceptance" in rep.nodeid:
                n = int(m.group(1))
                if verdict == "FAIL" or n not in verdicts:
                    verdicts[n] = verdict
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(verdicts):
        terminalreporter.write_line(
            f"{verdicts[n]} criterion {n}: {titles.get(n, '')}")
