"""Prints the wall time of each test file after the ``--durations`` table."""

from collections import defaultdict

import pytest

_file_seconds: defaultdict[str, float] = defaultdict(float)


def pytest_runtest_logreport(report):
    # Setup, call and teardown each report their own duration.
    _file_seconds[report.nodeid.split("::")[0]] += report.duration


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not _file_seconds:
        return
    terminalreporter.write_sep("=", "wall time per test file")
    for path, seconds in sorted(_file_seconds.items(), key=lambda item: -item[1]):
        terminalreporter.write_line(f"{seconds:8.2f}s {path}")
    terminalreporter.write_line(f"{sum(_file_seconds.values()):8.2f}s total")
