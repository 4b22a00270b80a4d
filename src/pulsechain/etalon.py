"""Cascaded solid Fabry-Perot etalon filter.

Each stage is the full complex Airy amplitude response (magnitude and
dispersion), stages multiply independently (no inter-stage feedback), and
temperature enters through the FSR-per-kelvin tuning map.  Filtering a pulse
uses the frequency-domain response, so the cutoff ringdown emerges from the
same model that sets the line width.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LeakageWarning, ValidationError
from .waveform import Waveform, filter_spectrum, to_spectrum


@dataclass(frozen=True)
class EtalonParams:
    reflectivity: float = 0.95
    fsr_hz: float = 17e9
    detuning_hz: float = 0.0     # offset of the input from the transmission peak
    loss: float = 0.0            # round-trip intensity loss
    temp_per_fsr_k: float = 7.4  # temperature change for one FSR of tuning
    temp_jitter_k: float = 0.005  # RMS of the static thermal detuning draw

    def __post_init__(self):
        if not (0.0 < self.reflectivity < 1.0):
            raise ValidationError("EtalonParams.reflectivity must be in (0, 1)")
        if not (self.fsr_hz > 0):
            raise ValidationError("EtalonParams.fsr_hz must be > 0")
        if not (0.0 <= self.loss < 1.0):
            raise ValidationError("EtalonParams.loss must be in [0, 1)")
        if not (self.temp_per_fsr_k > 0):
            raise ValidationError("EtalonParams.temp_per_fsr_k must be > 0")
        if not (self.temp_jitter_k >= 0):
            raise ValidationError("EtalonParams.temp_jitter_k must be >= 0")
        if not np.isfinite(self.detuning_hz):
            raise ValidationError("EtalonParams.detuning_hz must be finite")


@dataclass(frozen=True)
class EtalonStack:
    """Ordered cascade of independent etalons."""

    stages: tuple

    def __post_init__(self):
        stages = tuple(self.stages)
        if len(stages) < 1:
            raise ValidationError("EtalonStack needs at least one stage")
        for s in stages:
            if not isinstance(s, EtalonParams):
                raise ValidationError("EtalonStack stages must be EtalonParams")
        object.__setattr__(self, "stages", stages)

    @classmethod
    def identical(cls, n_stages=3, params=None):
        p = params if params is not None else EtalonParams()
        return cls(stages=(p,) * n_stages)

    @property
    def min_fsr_hz(self):
        return min(s.fsr_hz for s in self.stages)


def airy_transmission(f_offset, e: EtalonParams):
    """Complex amplitude transmission of one etalon.

    t(f) = (1-R) e^{-i delta/2} / (1 - R (1-loss) e^{-i delta}) with
    delta = 2 pi (f_offset + detuning) / FSR: unit power transmission at
    resonance when lossless, periodic in f with the FSR.  The round-trip
    phasor sign follows this package's transform convention (synthesis with
    e^{+i 2 pi f t}), which makes the expansion (1-R) sum_n R^n e^{-i(n+1/2)delta}
    a causal train of delayed echoes; magnitudes match the textbook Airy
    function either way.  A positive detuning puts the input above the
    transmission peak.
    """
    f = np.asarray(f_offset, dtype=float)
    delta = 2.0 * np.pi * (f + e.detuning_hz) / e.fsr_hz
    r = e.reflectivity
    half = np.exp(-0.5j * delta)   # e^{-i delta} is its square: one exp, not two
    t = (1.0 - r) * half / (1.0 - r * (1.0 - e.loss) * (half * half))
    return complex(t) if np.isscalar(f_offset) else t


def stack_transmission(f_offset, s: EtalonStack):
    """Product of the per-stage amplitude transmissions."""
    f = np.asarray(f_offset, dtype=float)
    t = np.ones_like(f, dtype=np.complex128)
    for e in s.stages:
        t = t * airy_transmission(f, e)
    return complex(t) if np.isscalar(f_offset) else t


def finesse(e: EtalonParams):
    """Exact finesse pi / (2 asin((1-rho)/(2 sqrt(rho)))), rho = R(1-loss).

    Approaches the textbook pi*sqrt(R)/(1-R) for high reflectivity.  Below
    rho = 3 - 2 sqrt(2) ~ 0.172 the Airy contrast is under 2, the line never
    falls to half its peak, and the finesse is undefined (ValidationError).
    """
    rho = e.reflectivity * (1.0 - e.loss)
    x = (1.0 - rho) / (2.0 * np.sqrt(rho))
    if x > 1.0:
        raise ValidationError(
            f"line width undefined: R(1-loss) = {rho:.6g} < 3-2*sqrt(2), so "
            f"the Airy contrast is below 2 and |t|^2 has no half-power points")
    return np.pi / (2.0 * np.arcsin(x))


def fwhm_hz(e: EtalonParams):
    """Transmission line width (FWHM of |t|^2) = FSR / finesse."""
    return e.fsr_hz / finesse(e)


def photon_lifetime(e: EtalonParams):
    """Single-etalon amplitude ringdown constant -1/(FSR ln(R(1-loss)))."""
    rho = e.reflectivity * (1.0 - e.loss)
    return -1.0 / (e.fsr_hz * np.log(rho))


def carrier_leak(e: EtalonParams, f_offset):
    """Power transmission |t|^2 at an off-resonant frequency offset."""
    return abs(airy_transmission(f_offset, e)) ** 2


def stack_extinction_db(s: EtalonStack, f_offset):
    """Cascade power extinction (positive dB) at a frequency offset.

    The sum of the per-stage extinctions: equal to -10 log10 of the product
    of the stage transmissions, but finite where that product underflows.
    """
    return sum(-10.0 * np.log10(carrier_leak(e, f_offset)) for e in s.stages)


def temperature_to_frequency(d_temp, e: EtalonParams):
    """Map a temperature change to a transmission-peak shift:
    dT * FSR / temp_per_fsr (7.4 K tunes one full 17 GHz FSR)."""
    return d_temp * e.fsr_hz / e.temp_per_fsr_k


def with_thermal_jitter(s: EtalonStack, rng):
    """Stack with a static per-stage detuning draw N(0, sigma_f), sigma_f
    mapped from each stage's RMS temperature jitter (thermal time scales are
    far slower than the pulse, so one draw per run)."""
    stages = []
    for e in s.stages:
        sigma_f = temperature_to_frequency(e.temp_jitter_k, e)
        shift = float(rng.normal(0.0, sigma_f))
        stages.append(EtalonParams(
            reflectivity=e.reflectivity, fsr_hz=e.fsr_hz,
            detuning_hz=e.detuning_hz + shift, loss=e.loss,
            temp_per_fsr_k=e.temp_per_fsr_k, temp_jitter_k=e.temp_jitter_k))
    return EtalonStack(stages=tuple(stages))


def filter_pulse(field: Waveform, s: EtalonStack, pre_gain=None) -> Waveform:
    """Send a (sideband-centered) envelope through the cascade.

    ``pre_gain`` is an optional frequency response H(f) applied before the
    cascade in the same spectral pass (one forward and one inverse
    transform), e.g. :func:`pulsechain.eom.sideband_window` on a demodulated
    modulator output.  The spectral support that reaches the cascade must sit
    within +-FSR/2 of the stack's transmission peak nearest zero offset; if
    more than 1% of its energy lies outside that band a LeakageWarning is
    emitted (neighbouring FSR orders would alias through).
    """
    spec = to_spectrum(field)
    f = spec.frequencies()
    h = stack_transmission(f, s)
    pre = 1.0 if pre_gain is None else pre_gain(f)
    power = np.abs(pre * spec.amplitudes) ** 2
    total = power.sum()
    if total > 0:
        # the transmission peak nearest the sideband: with FSR below the
        # grid bandwidth, equal peaks repeat across the spectrum
        near = np.abs(f) <= s.min_fsr_hz / 2.0
        peak_f = f[near][int(np.argmax(np.abs(h[near])))]
        inside = np.abs(f - peak_f) <= s.min_fsr_hz / 2.0
        outside_frac = float(power[~inside].sum() / total)
        if outside_frac > 0.01:
            warnings.warn(
                f"{outside_frac:.1%} of pulse energy lies beyond +-FSR/2 of "
                f"the cascade transmission peak", LeakageWarning, stacklevel=2)
    return filter_spectrum(spec, pre * h, field.grid, field.unit)


def stage_diagnostics(s: EtalonStack, carrier_offset_hz):
    """Per-stage line summaries plus the cascade extinction at the carrier.

    A stage whose line has no half-power width (see :func:`finesse`) reports
    ``fwhm_hz`` and ``finesse`` as None with the reason in ``fwhm_error``.
    """
    per_stage = []
    for e in s.stages:
        leak = carrier_leak(e, carrier_offset_hz)
        try:
            line = {"fwhm_hz": float(fwhm_hz(e)), "finesse": float(finesse(e))}
        except ValidationError as exc:
            line = {"fwhm_hz": None, "finesse": None, "fwhm_error": str(exc)}
        per_stage.append({
            **line,
            "carrier_leak_fraction": float(leak),
            "carrier_leak_db": float(-10.0 * np.log10(leak)),
        })
    return {
        "per_stage": per_stage,
        "cascade_extinction_db": float(stack_extinction_db(s, carrier_offset_hz)),
    }
