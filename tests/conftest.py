import pytest

from pulsechain import pipeline, waveform


@pytest.fixture
def cold_front_end():
    """Empty the memo of ``pipeline._front_end`` and the trace text that
    ``waveform.write_traces`` keeps, before and after the test, so that
    call counts and memory peaks do not depend on test order."""
    pipeline._front_end.cache_clear()
    waveform._column_text = {}
    yield
    pipeline._front_end.cache_clear()
    waveform._column_text = {}
