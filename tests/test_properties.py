"""Property test of the config boundary for the atom stage: any values of
the keys that set the excitation integrator end in a ValidationError that
names its section, or in a strict-JSON report with a finite p_max."""

import json
import math
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pulsechain import ValidationError, parse_config, run_chain  # noqa: E402

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
