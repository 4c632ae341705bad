"""Shared pytest wiring: the per-criterion acceptance summary.

Tests in test_acceptance.py are named ``test_criterion_<k>_...``.  This
plugin aggregates their outcomes and appends one PASS/FAIL line per
criterion to the terminal summary, so a full run ends with an at-a-glance
verdict for each advertised guarantee and the wall time it took (setup,
call and teardown of its tests, summed).
"""

import re
from collections import defaultdict

_CRITERION = re.compile(r"test_criterion_(\d+)")

_TITLES = {
    1: "twisted AW/EZ chain maps, exhaustive bases + degree-4 samples",
    2: "AW o EZ = id exhaustively through total degree 4",
    3: "Koszul splitting pi o iota = id, chain-map and graded checks",
    4: "trivial-group degeneration to the classical AW/EZ maps",
    5: "three-way PBW verdict agreement on random parameter tables",
    6: "named deformation instances with pinned verdicts",
    7: "parameter cochain identities on random tables",
    8: "d^2 = 0 and differentials commute with the bimodule action",
}

#: criterion number -> [passed, failed, skipped] test counts
_OUTCOMES = defaultdict(lambda: [0, 0, 0])
#: criterion number -> summed duration of its test phases, in seconds
_SECONDS = defaultdict(float)


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    k = int(m.group(1))
    _SECONDS[k] += report.duration
    rec = _OUTCOMES[k]
    if report.when == "call":
        if report.passed:
            rec[0] += 1
        elif report.failed:
            rec[1] += 1
        else:
            rec[2] += 1
    elif report.failed:  # error during setup/teardown counts as a failure
        rec[1] += 1
    elif report.when == "setup" and report.skipped:
        rec[2] += 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(_TITLES):
        if k in _OUTCOMES:
            passed, failed, skipped = _OUTCOMES[k]
            verdict = "FAIL" if failed else ("PASS" if passed else "SKIP")
            counts = f"{passed} passed"
            if failed:
                counts += f", {failed} failed"
            if skipped:
                counts += f", {skipped} skipped"
            counts += f", {_SECONDS[k]:.1f} s"
        else:
            verdict, counts = "NOT RUN", "no tests collected"
        terminalreporter.write_line(
            f"criterion {k} [{verdict}] {_TITLES[k]} ({counts})"
        )
