import threading
from datetime import timedelta

import pytest
from hypothesis import settings

settings.register_profile(
    "default", max_examples=50, deadline=timedelta(seconds=30)
)
settings.load_profile("default")


@pytest.fixture()
def started_threads(monkeypatch):
    """The names of the threads started while the test runs, in order. At
    teardown none of those threads may still run: each was joined before its
    caller returned or raised."""
    names, threads = [], []
    start = threading.Thread.start

    def spy(self):
        names.append(self.name)
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    yield names
    assert [t.name for t in threads if t.is_alive()] == []
