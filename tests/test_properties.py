"""Property tests of the config boundary: any values of the keys that set
the excitation integrator end in a ValidationError that names its section,
or in a strict-JSON report with a finite p_max; any values of any keys end
in a refusal that names a key or a stage, or in a report with every
stage's block."""

import json
import math
import re
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pulsechain import (ChainConfig, LeakageWarning,  # noqa: E402
                        ValidationError, parse_config, run_chain)
from pulsechain.config import _SCHEMA, _STAGE_KEY  # noqa: E402

KEYS = [("atom", "excited_lifetime_ns"), ("atom", "detuning_mhz"),
        ("atom", "lambda_overlap"), ("grid", "dt_ns")]

values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-3, max_value=1e3),  # often a valid config
    st.sampled_from(["0", "-0.0", "1e-300", "1e-320", "1e308", "inf"]))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({key: st.one_of(st.none(), values)
                              for key in KEYS}))
def test_atom_keys_validate_or_report_finite(draw):
    text = ""
    for section in ("atom", "grid"):
        text += f"[{section}]\n" + "".join(
            f"{key} = {v}\n" for (sec, key), v in draw.items()
            if sec == section and v is not None)
    try:
        cfg = parse_config(text)
        report = run_chain(cfg)
    except ValidationError as exc:
        assert re.search(r"\[\w+\]", str(exc)), f"names no [section]: {exc}"
        return
    data = json.loads(report.to_json(), parse_constant=pytest.fail)
    assert math.isfinite(data["atom"]["p_max"])


# every schema key, and the stage<N>_ overrides as stage2_, with its kind
KNOWN = {section: {key for key, _, _ in items}
         for section, items in _SCHEMA.items()}
EVERY_KEY = [(section, key, kind, default)
             for section, items in _SCHEMA.items()
             for key, kind, default in items] + [
    ("etalon", f"stage2_{key}", "f", default)
    for key, _, default in _SCHEMA["etalon"]
    if _STAGE_KEY.match(f"stage2_{key}")]
EDGES = st.sampled_from(["0", "-0.0", "-1", "1e-300", "1e-320", "1e308",
                         "inf", "-inf", "nan", "0.5", "3", "x"])


def text_of(kind, default):
    """Values of one key: edge values, a design near the default, and (for
    float keys) any float.  Integer keys stay small: a drawn n_samples is a
    run of that length."""
    if kind == "b":
        return st.sampled_from(["true", "false", "no", "2", "x"])
    if kind == "i":
        return st.one_of(EDGES, st.integers(-2, 3 * max(int(default), 1))
                         .map(str))
    if kind == "rej":
        point = st.tuples(st.floats(-10, 1e3), st.floats(-10, 90))
        return st.one_of(EDGES, st.lists(point, min_size=1, max_size=4).map(
            lambda pairs: ",".join(f"{f!r}:{db!r}" for f, db in pairs)))
    near = st.floats(0.5, 2.0).map(lambda x: repr(x * float(default)))
    return st.one_of(EDGES, near, st.floats().map(repr))


@st.composite
def configs(draw):
    keys = draw(st.lists(st.sampled_from(EVERY_KEY), min_size=1, max_size=3,
                         unique_by=lambda k: (k[0], k[1])))
    return {(section, key): draw(text_of(kind, default))
            for section, key, kind, default in keys}


def names_a_key(msg):
    """A "[section] key" or "[section]: key" of a key of that section."""
    return any(key in KNOWN.get(section, ()) or
               (section == "etalon" and _STAGE_KEY.match(key))
               for section, key in re.findall(r"\[(\w+)\]:? (\w+)", msg))


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
@example({("etalon", "temp_jitter_mk"): "-0.0",  # numpy refused sigma -0.0
          ("etalon", "apply_temp_jitter"): "true"})
def test_every_key_validates_or_reports(draw):
    # a parse-time refusal names a key of its section; a stage's run-time
    # refusal names the stage and its sections; anything else is a
    # strict-JSON report with every stage's block
    sections = {}
    for (section, key), text in draw.items():
        sections.setdefault(section, {})[key] = text
    try:
        cfg = ChainConfig(sections)
    except ValidationError as exc:
        assert names_a_key(str(exc)), f"names no key: {exc}"
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", LeakageWarning)
            report = run_chain(cfg)
    except ValidationError as exc:
        assert re.match(r"stage '\w+' \(config (\[\w+\] ?)+\): ", str(exc)), \
            f"names no stage: {exc}"
        return
    data = json.loads(report.to_json(), parse_constant=pytest.fail)
    blocks = {"provenance", "grid", "envelope", "rf", "eom", "etalon",
              "detector", "traces"} | ({"atom"} if cfg.run_excitation else set())
    assert set(data) == blocks
