"""Fixtures shared by the test modules."""

import threading

import pytest


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs, recorded as they start."""
    started = []

    class RecordedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordedThread)
    return started
