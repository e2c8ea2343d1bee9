"""Shared pytest wiring: one BLAS thread and the acceptance scorecard summary.

BLAS runs on one thread unless the environment already sets it, as in
``bench/run.py``: this module loads before any test imports numpy, and
the suite's products are too small for a second thread to pay.

Acceptance tests register one line each via ``record_score``; the hook
below echoes the scorecard after the run so the PASS/FAIL lines are
visible even when output capture is on.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_SCORECARD = []


def record_score(line):
    _SCORECARD.append(line)


def pytest_terminal_summary(terminalreporter):
    if _SCORECARD:
        terminalreporter.section("acceptance scorecard")
        for line in _SCORECARD:
            terminalreporter.write_line(line)
