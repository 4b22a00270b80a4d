import pytest

from pulsechain import pipeline


@pytest.fixture
def cold_front_end():
    """Empty the memo of ``pipeline._front_end`` before and after the test,
    so that call counts and memory peaks do not depend on test order."""
    pipeline._front_end.cache_clear()
    yield
    pipeline._front_end.cache_clear()
