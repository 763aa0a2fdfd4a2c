"""The per-test wall-clock limit that conftest.py arms around every test."""

import re
import signal
import time

import pytest

from conftest import TEST_LIMIT_S


def test_the_limit_is_armed_above_every_test_budget():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_LIMIT_S and interval == 0
    assert TEST_LIMIT_S > 120  # the largest budget a test sets itself


def test_an_overrun_fails_the_running_test_by_name(request):
    signal.setitimer(signal.ITIMER_REAL, 0.05)  # bring the limit forward
    with pytest.raises(pytest.fail.Exception) as info:
        time.sleep(5)
    pattern = rf"{re.escape(request.node.nodeid)} overran the {TEST_LIMIT_S} s test limit after 0\.\d s"
    assert re.fullmatch(pattern, str(info.value))
