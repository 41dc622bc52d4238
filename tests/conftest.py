import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({f'pid {pid}' if pid else 'running'})")


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that ends with more live threads than it started with."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"the test left {len(left)} thread(s) running: {', '.join(left)}")
