"""Shared fixtures for the event-kernel tests."""

import pytest

from repro.sim import CalendarScheduler, EventScheduler


@pytest.fixture(params=[CalendarScheduler, EventScheduler],
                ids=["calendar", "heap"])
def scheduler_cls(request):
    """Each scheduler class in turn: the fast path, then the reference."""
    return request.param
