"""Golden outputs: fresh runs of the cases in ``golden_cases`` against the
files in ``tests/golden/``.

Test A holds on any numpy: the same keys and structure, every string, int
and bool equal, and every float within 1e-12 relative.  Test B asks for
byte identity of the reports and the trace files; FFT last bits depend on
the numpy build (numpy 2.0 replaced pocketfft), so it runs only under the
numpy version that wrote the files.
"""

import json
import math

import numpy as np
import pytest

import golden_cases

FLOAT_REL = 1e-12
# A fit's residual_norm is |y - model| / |y|: a near-exact fit (the shaper's
# own exponential) reads ~1e-15, which is rounding noise with no relative
# accuracy, so it is also accepted within this absolute bound.
RESIDUAL_ABS = 1e-12


@pytest.fixture(scope="module")
def golden():
    return golden_cases.load()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden_cases.compute(str(tmp_path_factory.mktemp("golden_run")))


def _mismatches(old, new, path="$"):
    """Where ``new`` departs from ``old``: structure, type or value."""
    if isinstance(old, dict) or isinstance(new, dict):
        if not (isinstance(old, dict) and isinstance(new, dict)):
            return [f"{path}: {type(old).__name__} -> {type(new).__name__}"]
        if list(old) != list(new):
            return [f"{path}: keys {list(old)} -> {list(new)}"]
        return [m for k in old for m in _mismatches(old[k], new[k], f"{path}.{k}")]
    if isinstance(old, list) or isinstance(new, list):
        if not (isinstance(old, list) and isinstance(new, list)):
            return [f"{path}: {type(old).__name__} -> {type(new).__name__}"]
        if len(old) != len(new):
            return [f"{path}: length {len(old)} -> {len(new)}"]
        return [m for i, (a, b) in enumerate(zip(old, new))
                for m in _mismatches(a, b, f"{path}[{i}]")]
    if isinstance(old, float) and isinstance(new, float):
        abs_tol = RESIDUAL_ABS if path.endswith(".residual_norm") else 0.0
        if not math.isclose(old, new, rel_tol=FLOAT_REL, abs_tol=abs_tol):
            return [f"{path}: {old!r} -> {new!r}"]
        return []
    if type(old) is not type(new) or old != new:
        return [f"{path}: {old!r} -> {new!r}"]
    return []


def test_golden_a_structure_and_values(golden, fresh):
    """Test A: same structure; floats within 1e-12 relative."""
    stored, _ = golden
    texts, _ = fresh
    assert sorted(texts) == sorted(stored)
    for name in sorted(stored):
        bad = _mismatches(json.loads(stored[name]), json.loads(texts[name]))
        assert not bad, f"{name}: " + "; ".join(bad[:10])


def test_golden_b_bytes_and_trace_hashes(golden, fresh):
    """Test B: byte-identical reports and trace files, under the numpy
    version recorded with the golden files."""
    stored, meta = golden
    if np.__version__ != meta["numpy_version"]:
        pytest.skip(f"golden bytes were recorded under numpy "
                    f"{meta['numpy_version']}; this is numpy {np.__version__}")
    texts, trace_sha = fresh
    for name in sorted(stored):
        assert texts[name] == stored[name], f"{name} is not byte-identical"
    assert trace_sha == meta["trace_sha256"]
