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
    """The names of the threads started while the test runs, in order."""
    names = []
    start = threading.Thread.start

    def spy(self):
        names.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return names
