"""A wall-clock limit on every test under tests/, so that a regression that
hangs fails the one test it hangs in instead of stalling the suite.

The limit sits above every budget a test sets itself (the acceptance
criteria allow up to 120 s), so it fails no test that those budgets pass.
"""

import signal
import time

import pytest

TEST_LIMIT_S = 150


def overrun_handler(nodeid: str, start: float):
    """The SIGALRM handler for one test: fail it by name, with the time
    it has run."""

    def overrun(signum, frame):
        pytest.fail(f"{nodeid} overran the {TEST_LIMIT_S} s test limit "
                    f"after {time.perf_counter() - start:.1f} s")

    return overrun


@pytest.fixture(autouse=True)
def time_limit(request):
    previous = signal.signal(signal.SIGALRM, overrun_handler(request.node.nodeid, time.perf_counter()))
    signal.setitimer(signal.ITIMER_REAL, TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
