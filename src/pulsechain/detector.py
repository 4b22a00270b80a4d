"""Square-law photodiode and oscilloscope front-end.

Power detection squares the optical amplitude, which exactly halves fitted
exponential time constants; diode and scope are each modeled as one-pole
low-passes of their nominal bandwidths (None or inf disables a pole),
applied together as one product response.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .waveform import Waveform, apply_transfer, one_pole_lowpass


@dataclass(frozen=True)
class DetectorParams:
    bandwidth_hz: float | None = 1e9        # photodiode
    scope_bandwidth_hz: float | None = 2e9  # oscilloscope
    responsivity: float = 1.0

    def __post_init__(self):
        for name in ("bandwidth_hz", "scope_bandwidth_hz"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValidationError(f"DetectorParams.{name} must be > 0 or None")
        if not (self.responsivity > 0):
            raise ValidationError("DetectorParams.responsivity must be > 0")


def detect(field: Waveform, d: DetectorParams) -> Waveform:
    """Detected trace: low-passed responsivity * |field|^2.

    Invariant under a global phase of the field; nonnegative before
    filtering (the poles may introduce a small undershoot, see
    :func:`undershoot_fraction`).
    """
    power = d.responsivity * np.abs(field.samples) ** 2
    out = Waveform(grid=field.grid, samples=power, unit="V")
    poles = [one_pole_lowpass(bw) for bw in (d.bandwidth_hz, d.scope_bandwidth_hz)
             if bw is not None and np.isfinite(bw)]
    if poles:
        out = apply_transfer(out, lambda f: math.prod(p(f) for p in poles))
    return Waveform(grid=out.grid, samples=out.samples.real, unit="V")


def undershoot_fraction(detected: Waveform):
    """Most negative excursion relative to the trace peak (0 if none)."""
    x = detected.samples.real
    peak = float(np.max(x))
    if peak <= 0:
        return 0.0
    return max(0.0, -float(np.min(x)) / peak)
