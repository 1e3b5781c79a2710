"""Fixtures shared by the service-layer tests."""

from __future__ import annotations

import threading

import pytest

from repro.service import SladeService


class BlockingFacade(SladeService):
    """A facade whose first batch waits, on its worker thread, for ``release``.

    ``entered`` is set once that batch is running, so a test can queue more
    requests behind it and then release it.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def solve_batch(self, requests):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=30), "first batch never released"
        return super().solve_batch(requests)


@pytest.fixture
def blocking_facade():
    facade = BlockingFacade()
    yield facade
    facade.release.set()  # never leave a worker thread blocked
