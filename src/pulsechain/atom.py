"""Two-level-atom excitation probability in the weak-excitation regime.

For a single-photon temporal mode xi(t) (unit energy) driving an atom with
decay rate gamma, spatial overlap Lambda and detuning Delta, the excited
amplitude obeys

    dc/dt = -(gamma/2 + i 2 pi Delta) c + sqrt(gamma Lambda) xi(t),

and p(t) = |c(t)|^2.  The matched mode -- the time-reverse of spontaneous
emission, a rising exponential of amplitude constant 2/gamma terminated by a
sharp drop -- saturates the Cauchy-Schwarz bound p_max = Lambda; any other
unit-energy shape does worse.  Full Bloch saturation dynamics are out of
scope.

Integrator: classical fixed-step RK4 run with step 2*dt so that every stage
lands on a grid sample; for this linear equation the step is a first-order
recurrence with precomputed forcing (see _excite_scan).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .waveform import TimeGrid, Waveform


@dataclass(frozen=True)
class AtomParams:
    gamma: float = 1.0 / 26.2e-9   # D2-line excited-state decay rate [1/s]
    lambda_overlap: float = 1.0    # spatial mode overlap in [0, 1]
    detuning_hz: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValidationError("AtomParams.gamma must be > 0")
        if not (0.0 <= self.lambda_overlap <= 1.0):
            raise ValidationError("AtomParams.lambda_overlap must be in [0, 1]")
        if not np.isfinite(self.detuning_hz):
            raise ValidationError("AtomParams.detuning_hz must be finite")


@dataclass(frozen=True)
class ExcitationResult:
    p_max: float
    t_at_max: float
    p_trace: Waveform

    def __post_init__(self):
        if not (-1e-12 <= self.p_max <= 1.0 + 1e-9):
            raise ValidationError("ExcitationResult.p_max must lie in [0, 1]")


def _rk4_coeffs(h, a, b):
    """One RK4 step of dc/dt = a*c + b*xi as c' = p*c + w0*f0 + w1*fm + w2*f1
    for the drive f0, fm, f1 at the start, midpoint and end of the step."""
    al = a * h
    p = 1.0 + al * (1.0 + al * (0.5 + al * (1.0 / 6.0 + al / 24.0)))
    w0 = 1.0 + al + al * al / 2.0 + al ** 3 / 4.0
    w1 = 4.0 + 2.0 * al + al * al / 2.0
    return p, (h / 6.0) * b * w0, (h / 6.0) * b * w1, (h / 6.0) * b


def _excite_scan(xi, dt, a, b):
    """Amplitude trace c of dc/dt = a*c + b*xi(t) with c(0) = 0.

    Classical RK4 with step h = 2*dt, so the half-step stage falls on a real
    sample and the sampled drive is never interpolated (the drives of
    interest have sharp, sample-aligned cutoffs).  The step is the recurrence
    c_{k+1} = P*c_k + F_k, whose forcing F is computed vectorized so that
    only the trivial first-order recurrence runs as a Python loop.  Odd-index
    outputs come from one non-accumulating dt-step whose midpoint drive is
    the local quadratic through three neighbouring samples (the linear
    midpoint when the trace has only two samples).
    """
    xi = np.asarray(xi, dtype=np.complex128)
    n = len(xi)
    c = np.zeros(n, dtype=np.complex128)
    p1, b0, b1, b2 = _rk4_coeffs(dt, a, b)
    if n == 2:
        c[1] = b0 * xi[0] + b1 * ((xi[0] + xi[1]) / 2) + b2 * xi[1]
        return c

    m = (n - 1) // 2  # full 2*dt steps
    x0 = xi[0:2 * m - 1:2]
    x1 = xi[1:2 * m:2]
    x2 = xi[2:2 * m + 1:2]

    p2, a0, a1, a2 = _rk4_coeffs(2.0 * dt, a, b)
    forcing = a0 * x0 + a1 * x1 + a2 * x2
    even = np.empty(m + 1, dtype=np.complex128)
    even[0] = 0.0
    acc = 0.0 + 0.0j
    for k in range(m):
        acc = p2 * acc + forcing[k]
        even[k + 1] = acc
    c[0:2 * m + 1:2] = even

    fm = (3.0 * x0 + 6.0 * x1 - x2) / 8.0
    c[1:2 * m:2] = p1 * even[:-1] + (b0 * x0 + b1 * fm + b2 * x1)

    if n % 2 == 0:  # trailing odd index
        y0, y1, y2 = xi[n - 3], xi[n - 2], xi[n - 1]
        fme = (-y0 + 6.0 * y1 + 3.0 * y2) / 8.0
        c[n - 1] = p1 * c[n - 2] + (b0 * y1 + b1 * fme + b2 * y2)
    return c


def _refine_peak(p, times):
    """Parabolic peak refinement through the three samples at the discrete
    maximum.  At a symmetric cutoff corner the side samples agree and the
    vertex reduces to the sample itself, so the refinement never invents
    probability above a sharp-cutoff peak."""
    k = int(np.argmax(p))
    if not 0 < k < len(p) - 1:
        return float(p[k]), float(times[k])
    p0, p1, p2 = p[k - 1], p[k], p[k + 1]
    curv = p0 - 2.0 * p1 + p2
    if curv >= 0.0:
        return float(p1), float(times[k])
    shift = np.clip((p0 - p2) / (2.0 * curv), -0.5, 0.5)
    peak = p1 - 0.125 * (p0 - p2) ** 2 / curv
    return float(peak), float(times[k] + shift * (times[1] - times[0]))


def excite(pulse_mode: Waveform, a: AtomParams) -> ExcitationResult:
    """Excitation probability trace for a pulse interpreted as a
    single-photon temporal mode.

    The pulse is normalized internally to unit energy (trapezoid-weighted
    sum |xi|^2 dt = 1); a zero-energy pulse is rejected.  Lambda scales p(t)
    exactly linearly.  p_max/t_at_max are parabolically refined around the
    discrete peak of |c|^2.

    The integrator steps over sample pairs, so sharp pulse edges are
    resolved most accurately when they fall on even sample indices (edges
    mid-step cost O(dt^2) locally; smooth pulses are unaffected).
    """
    dt = pulse_mode.grid.dt
    power = np.abs(pulse_mode.samples) ** 2
    norm2 = (power.sum() - 0.5 * (power[0] + power[-1])) * dt
    if norm2 <= 0.0:
        raise ValidationError("excite: pulse mode has zero energy")
    xi = np.ascontiguousarray(pulse_mode.samples / np.sqrt(norm2))
    acoef = complex(-(a.gamma / 2.0), -2.0 * np.pi * a.detuning_hz)
    b = float(np.sqrt(a.gamma * a.lambda_overlap))
    c = _excite_scan(xi, dt, acoef, b)
    p = np.abs(c) ** 2
    p_max, t_at_max = _refine_peak(p, pulse_mode.times())
    return ExcitationResult(p_max=p_max, t_at_max=t_at_max,
                            p_trace=Waveform(grid=pulse_mode.grid, samples=p,
                                             unit=""))


def rising_exponential_pulse(grid: TimeGrid, tau_amp, t_cut) -> Waveform:
    """exp((t - t_cut)/tau_amp) up to the sharp cutoff at t_cut, zero after.

    tau_amp is the amplitude time constant; the matched mode for an atom of
    decay rate gamma is tau_amp = 2/gamma with t_cut - t_start >= 10/gamma.
    """
    if not (tau_amp > 0):
        raise ValidationError("tau_amp must be > 0")
    t = grid.times()
    x = np.where(t <= t_cut + 1e-9 * grid.dt,
                 np.exp((t - t_cut) / tau_amp), 0.0)
    return Waveform(grid=grid, samples=x, unit="sqrtW")


def falling_exponential_pulse(grid: TimeGrid, tau_amp, t_begin) -> Waveform:
    """exp(-(t - t_begin)/tau_amp) switched on at t_begin, zero before."""
    if not (tau_amp > 0):
        raise ValidationError("tau_amp must be > 0")
    t = grid.times()
    x = np.where(t >= t_begin - 1e-9 * grid.dt,
                 np.exp(-(t - t_begin) / tau_amp), 0.0)
    return Waveform(grid=grid, samples=x, unit="sqrtW")


def compare_shapes(tau_pulse, a: AtomParams, dt=0.1e-9):
    """Peak excitation of unit-energy rising vs falling exponentials of the
    same amplitude time constant.  Returns (p_rising, p_falling).

    The rising pulse's cutoff is placed on the final grid sample: there the
    trapezoid energy weights represent the truncated mode to O(dt^2), and
    its excitation peaks exactly at the cutoff, so nothing is lost by
    ending the grid with it.
    """
    if not (tau_pulse > 0):
        raise ValidationError("compare_shapes: tau_pulse must be > 0")
    lead_n = 2 * int(np.ceil(7.0 * tau_pulse / dt))   # support ~14 tau
    tail_n = 2 * int(np.ceil(8.0 * max(tau_pulse, 2.0 / a.gamma) / dt))
    grid_r = TimeGrid(t_start=0.0, dt=dt, n_samples=lead_n + 1)
    rising = rising_exponential_pulse(grid_r, tau_pulse, t_cut=lead_n * dt)
    grid_f = TimeGrid(t_start=0.0, dt=dt, n_samples=tail_n + 1)
    falling = falling_exponential_pulse(grid_f, tau_pulse, t_begin=0.0)
    return (excite(rising, a).p_max, excite(falling, a).p_max)
