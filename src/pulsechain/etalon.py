"""Cascaded solid Fabry-Perot etalon filter.

Each stage is the full complex Airy amplitude response (magnitude and
dispersion), stages multiply independently (no inter-stage feedback), and
temperature enters through the FSR-per-kelvin tuning map.  Filtering a pulse
uses the frequency-domain response, so the cutoff ringdown emerges from the
same model that sets the line width.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import LeakageWarning, ValidationError
from .waveform import _BINS, Waveform, _forward, _inverse, _spans


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
    return stack_transmission(f_offset, EtalonStack(stages=(e,)))


_BLOCK = 16  # stages per division in stack_transmission


def _phasor(f, fsr_hz):
    """``np.exp(-1j * np.pi / fsr_hz * f)``; over an array, bit for bit as
    its cosine and sine at ~0.6 of the cost (the exponential's phase is
    +0 + (-pi/FSR) f: the + 0.0 gives the DC bin's sine as +0, not -0)."""
    if f.ndim == 0:
        return np.exp(-1j * np.pi / fsr_hz * f)
    phase = np.multiply(-np.pi / fsr_hz, f)
    phase += 0.0
    half = np.empty(f.shape, complex)
    np.cos(phase, out=half.real)
    np.sin(phase, out=half.imag)
    return half


def stack_transmission(f_offset, s: EtalonStack):
    """Product of the per-stage amplitude transmissions.

    A stage's e^{-i delta/2} is e^{-i pi f/FSR} e^{-i pi detuning/FSR}: one
    phasor over the frequencies per distinct FSR (:func:`_phasor`), times a
    scalar per stage.  The numerators (1-R) e^{-i delta/2} and the
    denominators 1 - R(1-loss) e^{-i delta} accumulate as two products,
    divided once per block of at most ``_BLOCK`` stages: every factor lies
    between 1-R >= 2^-53 and 2 in magnitude, so a block product neither
    underflows nor overflows.
    """
    f = np.asarray(f_offset, dtype=float)
    phasors = {}  # FSR -> (e^{-i pi f/FSR}, its square)
    scratch = None if f.ndim == 0 else np.empty(f.shape, complex)
    t = None
    for lo in range(0, len(s.stages), _BLOCK):
        gain, num, den = 1.0, None, None
        for e in s.stages[lo:lo + _BLOCK]:
            if e.fsr_hz not in phasors:
                half = _phasor(f, e.fsr_hz)
                phasors[e.fsr_hz] = half, half * half
            half, full = phasors[e.fsr_hz]
            c = np.exp(-1j * np.pi * e.detuning_hz / e.fsr_hz)
            gain *= (1.0 - e.reflectivity) * c
            rho = e.reflectivity * (1.0 - e.loss)
            if scratch is None:  # numpy scalars round unlike 0-d arrays
                term = 1.0 - rho * c * c * full
            else:
                term = np.multiply(rho * c * c, full, out=scratch)
                np.subtract(1.0, term, out=term)
            # in place, operands in a fixed order: an expression like
            # den * (...) lets numpy reuse the right-hand temporary for
            # arrays of 256 KiB and more, commuting the complex product and
            # so its last bit; a block starts at its first factor (1*x = x)
            if num is None:
                num, den = np.array(half), np.array(term)
            else:
                np.multiply(num, half, out=num)
                np.multiply(den, term, out=den)
        np.multiply(gain, num, out=num)
        np.divide(num, den, out=num)
        t = num if t is None else np.multiply(t, num, out=t)
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
        # + 0.0 makes a jitter of -0.0 K +0: numpy refuses a negative zero
        sigma_f = temperature_to_frequency(e.temp_jitter_k, e) + 0.0
        shift = float(rng.normal(0.0, sigma_f))
        stages.append(replace(e, detuning_hz=e.detuning_hz + shift))
    return EtalonStack(stages=tuple(stages))


def filter_pulse(field: Waveform, s: EtalonStack, pre_gain=None) -> Waveform:
    """Send a (sideband-centered) envelope through the cascade.

    ``pre_gain`` is an optional frequency response H(f) applied before the
    cascade in the same spectral pass (one forward and one inverse
    transform), e.g. :func:`pulsechain.eom.sideband_window` on a demodulated
    modulator output.  The spectral support that reaches the cascade must sit
    within +-FSR/2 of the stack's transmission peak nearest zero offset; if
    more than 1% of its energy lies outside that band a LeakageWarning is
    emitted (neighbouring FSR orders would alias through).  The output is
    a new array: the leak check reads the input spectrum after the output
    is written.
    """
    return _filter_spectrum(_forward(field.samples), field.grid, field.unit,
                            s, pre_gain)


def _fft_frequencies(lo, hi, n, dt):
    """``np.fft.fftfreq(n, dt)[lo:hi]``, computed as fftfreq computes it."""
    wrap = (n - 1) // 2 + 1  # the first bin of negative frequency
    shift = n if lo >= wrap else 0
    k = np.arange(lo - shift, hi - shift)
    if lo < wrap < hi:  # only a block across the wrap needs the mask
        k[k >= wrap] -= n
    return k * (1.0 / (n * dt))


def _leak_fraction(amps, grid, pre_gain, f_peak, half_fsr):
    """Fraction of the power |pre_gain * amps|^2 (``amps`` as in
    :func:`_filter_spectrum`) more than ``half_fsr`` from ``f_peak``; 0 for a
    total of 0.  Summed block by block, so it holds O(block) temporaries."""
    n = grid.n_samples
    total = outside = 0.0
    for lo, hi in _spans(n, _BINS):
        fb = _fft_frequencies(lo, hi, n, grid.dt)
        pre = 1.0 if pre_gain is None else pre_gain(fb)
        pb = np.abs(pre * amps[lo:hi]) ** 2
        total += pb.sum()
        outside += pb[np.abs(fb - f_peak) > half_fsr].sum()
    return float(outside / total) if total > 0 else 0.0


def _filter_spectrum(amps, grid, unit, s: EtalonStack, pre_gain=None):
    """:func:`filter_pulse` on ``amps``, the normalized DFT
    (:func:`~pulsechain.waveform._forward`) of a field on ``grid``.

    ``amps`` is only read, so a shared, read-only spectrum can be filtered
    again with another stack.  One pass over blocks of ``_BINS`` bins forms
    each block's gain and peak search and writes the filtered spectrum to a
    new array, transformed back in place; beside it the pass holds O(block)
    temporaries.  Only when +-FSR/2 about the peak misses part of the grid
    can energy leak: then a second blocked pass (:func:`_leak_fraction`)
    sums the power |pre * amps|^2 inside and outside that band.
    """
    n = grid.n_samples
    df = 1.0 / (n * grid.dt)
    out = np.empty_like(amps)
    half_fsr = s.min_fsr_hz / 2.0
    peak, f_peak = -1.0, 0.0  # |h| at the peak and its frequency
    for lo, hi in _spans(n, _BINS):
        fb = _fft_frequencies(lo, hi, n, grid.dt)
        h = stack_transmission(fb, s)
        # the transmission peak nearest the sideband: with FSR below the
        # grid bandwidth, equal peaks repeat across the spectrum
        mag = np.abs(h)
        mag[np.abs(fb) > half_fsr] = -1.0
        k = int(np.argmax(mag))
        if mag[k] > peak:
            peak, f_peak = mag[k], fb[k]
        np.multiply(1.0 if pre_gain is None else pre_gain(fb), h, out=h)
        if not np.all(np.isfinite(h)):
            raise ValidationError("filter_pulse: the gain is not finite")
        np.multiply(h, amps[lo:hi], out=out[lo:hi])
    # by the comparison _leak_fraction masks with: when both ends of the
    # grid are inside, every bin is, and the fraction is exactly 0
    if not all(abs(k * df - f_peak) <= half_fsr
               for k in (-(n // 2), (n - 1) // 2)):
        outside_frac = _leak_fraction(amps, grid, pre_gain, f_peak, half_fsr)
        if outside_frac > 0.01:
            warnings.warn(
                f"{outside_frac:.1%} of pulse energy lies beyond +-FSR/2 of "
                f"the cascade transmission peak", LeakageWarning, stacklevel=3)
    return _inverse(out, grid, unit, overwrite=True)


def stage_diagnostics(s: EtalonStack, carrier_offset_hz):
    """Per-stage line summaries plus the cascade extinction at the carrier.

    A stage whose line has no half-power width (see :func:`finesse`) reports
    ``fwhm_hz`` and ``finesse`` as None with the reason in ``fwhm_error``.
    """
    per_stage, extinction_db = [], 0
    for e in s.stages:
        leak = carrier_leak(e, carrier_offset_hz)
        db = -10.0 * np.log10(leak)
        extinction_db += db  # stack_extinction_db's sum, in its order
        try:
            line = {"fwhm_hz": float(fwhm_hz(e)), "finesse": float(finesse(e))}
        except ValidationError as exc:
            line = {"fwhm_hz": None, "finesse": None, "fwhm_error": str(exc)}
        per_stage.append({
            **line,
            "carrier_leak_fraction": float(leak),
            "carrier_leak_db": float(db),
        })
    return {
        "per_stage": per_stage,
        "cascade_extinction_db": float(extinction_db),
    }
