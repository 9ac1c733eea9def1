import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def time_limit():
    """A context manager that raises TimeoutError in the test's own thread
    once the given number of seconds has passed (SIGALRM)."""
    @contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
