"""Electro-optic phase modulation and Bessel-series sideband analysis.

A drive voltage v(t) imprints the phase pi*v(t)/v_pi on the optical carrier.
For a carrier-frequency drive of amplitude V_RF the field decomposes into
sidebands weighted by Bessel functions; the first sideband amplitude is
J1(pi*V_RF/v_pi), and keeping the drive small keeps the envelope transfer
linear (the distortion metric below quantifies the deviation).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .waveform import Waveform, _filter_real, one_pole_lowpass


@dataclass(frozen=True)
class ModulatorParams:
    """A finite ``bandwidth_hz`` rolls the drive off; inf leaves it flat."""

    v_pi: float = 1.7
    bandwidth_hz: float = np.inf
    drive_scale: float = 1.0     # electrical volts -> modulator volts

    def __post_init__(self):
        for name in ("v_pi", "bandwidth_hz", "drive_scale"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"ModulatorParams.{name} must be > 0")


def bessel_j(order, z):
    """Bessel function of the first kind by its ascending power series.

    J_n(z) = sum_m (-1)^m (z/2)^(2m+n) / (m! (m+n)!); terms are accumulated
    until they fall below 1e-17 of the running sum, which holds the result
    to better than 1e-12 absolute for |z| <= 2*pi (largest modulation depth
    accepted by the sanity bound below).
    """
    if order < 0:
        raise ValidationError("bessel_j: order must be >= 0")
    half = np.asarray(z, dtype=float) / 2.0
    if half.size == 0:
        return half.copy()
    term = half ** order
    for k in range(1, order + 1):
        term = term / k
    total = np.array(term, dtype=float, copy=True)
    sq = half * half
    for m in range(1, 120):
        term = term * (-sq) / (m * (m + order))
        total = total + term
        if np.max(np.abs(term)) <= 1e-17 * max(np.max(np.abs(total)), 1e-30):
            break
    return float(total) if np.isscalar(z) else total


def sideband_amplitude(v_rf_over_v_pi):
    """First-order sideband amplitude J1(pi * V_RF/V_pi)."""
    x = np.asarray(v_rf_over_v_pi, dtype=float)
    if np.any(x < 0):
        raise ValidationError("sideband_amplitude: argument must be >= 0")
    out = bessel_j(1, np.pi * x)
    return float(out) if np.isscalar(v_rf_over_v_pi) else out


def distortion_fraction(v_rf_over_v_pi):
    """Relative deviation of the sideband amplitude from its linear slope.

    1 - 2*J1(pi*x)/(pi*x); -> 0 as x -> 0 (handled by the series limit).
    Small-argument expansion (pi*x)^2/8.
    """
    x = np.atleast_1d(np.asarray(v_rf_over_v_pi, dtype=float))
    if np.any(x < 0):
        raise ValidationError("distortion_fraction: argument must be >= 0")
    z = np.pi * x
    out = np.zeros_like(z)
    nz = z != 0
    out[nz] = 1.0 - 2.0 * bessel_j(1, z[nz]) / z[nz]
    return float(out[0]) if np.isscalar(v_rf_over_v_pi) else out


def crystal_drive(drive: Waveform, m: ModulatorParams) -> Waveform:
    """The voltage the crystal sees: drive_scale v(t), low-passed with one
    pole when ``m.bandwidth_hz`` is finite; refused beyond 5*v_pi."""
    if not drive.is_real():
        raise ValidationError("phase_modulate: drive must be real-valued")
    v = drive.samples.real * m.drive_scale
    if np.max(np.abs(v)) >= 5.0 * m.v_pi:
        raise ValidationError(
            "phase_modulate: |drive|*drive_scale exceeds the 5*v_pi sanity bound")
    if np.isfinite(m.bandwidth_hz):
        v = _filter_real(v, drive.grid.dt, one_pole_lowpass(m.bandwidth_hz))
    v.flags.writeable = False
    return Waveform(grid=drive.grid, samples=v, unit="V")


def phase_modulate(drive: Waveform, m: ModulatorParams) -> Waveform:
    """Pure phase modulation exp(i pi v(t)/v_pi), v the :func:`crystal_drive`:
    exactly unit magnitude at every sample (power conserved)."""
    env = np.exp(1j * np.pi * crystal_drive(drive, m).samples / m.v_pi)
    env.flags.writeable = False
    return Waveform(grid=drive.grid, samples=env, unit="sqrtW")


_DEMOD_REL_WIDTH = 0.17  # Gaussian half-width as a fraction of f_s


def demodulate(env: Waveform, f_shift) -> Waveform:
    """Shift a field down in frequency: env(t) exp(-i 2 pi f_shift t)."""
    out = np.exp(-2j * np.pi * f_shift * env.times())
    np.multiply(env.samples, out, out=out)
    out.flags.writeable = False
    return Waveform(grid=env.grid, samples=out, unit=env.unit)


def sideband_window(f_s):
    """Gaussian low-pass H(f) that keeps one demodulated sideband.

    Half-power point at 0.17*f_s, adjacent-order rejection ~4e-11 in
    amplitude.  A Gaussian rings nowhere and passes exponential envelopes
    shape-exact, unlike a brick wall whose sinc tails would smear a sharp
    pulse cutoff across the trace.
    """
    width = _DEMOD_REL_WIDTH * f_s
    return lambda f: np.exp(-np.log(2.0) * (f / width) ** 2)


def window_spans_bin(f_s, grid):
    """True when :func:`sideband_window` spans a bin: 0.17*f_s >= 1/(n*dt)."""
    return _DEMOD_REL_WIDTH * f_s >= 1.0 / (grid.n_samples * grid.dt)
