"""Shared pytest wiring: one BLAS thread and the acceptance scorecard summary.

BLAS runs on one thread unless the environment already sets it, as in
``bench/run.py``: this module imports ``hessprec``, which sets that
default, before any test imports numpy, and the suite's products are
too small for a second thread to pay.

Acceptance tests register one line each via ``record_score``; the hook
below echoes the scorecard after the run so the PASS/FAIL lines are
visible even when output capture is on.
"""
import hessprec  # noqa: F401  (its one-BLAS-thread default, before numpy loads)

_SCORECARD = []


def record_score(line):
    _SCORECARD.append(line)


def pytest_terminal_summary(terminalreporter):
    if _SCORECARD:
        terminalreporter.section("acceptance scorecard")
        for line in _SCORECARD:
            terminalreporter.write_line(line)
