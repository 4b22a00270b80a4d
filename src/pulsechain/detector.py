"""Square-law photodiode and oscilloscope front-end.

Power detection squares the optical amplitude, which exactly halves fitted
exponential time constants; diode and scope are each modeled as one-pole
low-passes of their nominal bandwidths (inf disables a pole),
applied together as one product response.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .waveform import Waveform, _abs2, _filter_real, one_pole_lowpass


@dataclass(frozen=True)
class DetectorParams:
    bandwidth_hz: float = 1e9        # photodiode
    scope_bandwidth_hz: float = 2e9  # oscilloscope
    responsivity: float = 1.0

    def __post_init__(self):
        for name in ("bandwidth_hz", "scope_bandwidth_hz"):
            if getattr(self, name) is None:  # an older spelling of inf
                object.__setattr__(self, name, np.inf)
            if not getattr(self, name) > 0:
                raise ValidationError(f"DetectorParams.{name} must be > 0")
        if not (self.responsivity > 0):
            raise ValidationError("DetectorParams.responsivity must be > 0")


def detect(field: Waveform, d: DetectorParams) -> Waveform:
    """Detected trace: low-passed responsivity * |field|^2.

    Invariant under a global phase of the field; nonnegative before
    filtering (the poles may introduce a small undershoot, see
    :func:`undershoot_fraction`).  The power is real and the pole product
    Hermitian, so the filter is :func:`~pulsechain.waveform._filter_real`,
    which writes the filtered trace over the power it has transformed.
    """
    power = _abs2(field.samples)
    if d.responsivity != 1.0:  # x * 1.0 is x, bit for bit
        np.multiply(d.responsivity, power, out=power)
    bws = [bw for bw in (d.bandwidth_hz, d.scope_bandwidth_hz) if bw < np.inf]
    if bws:
        _filter_real(power, field.grid.dt, one_pole_lowpass(*bws), out=power)
    power.flags.writeable = False
    return Waveform(grid=field.grid, samples=power, unit="V")


def undershoot_fraction(detected: Waveform):
    """Most negative excursion relative to the trace peak (0 if none)."""
    x = detected.samples.real
    peak = float(np.max(x))
    if peak <= 0:
        return 0.0
    return max(0.0, -float(np.min(x)) / peak)
