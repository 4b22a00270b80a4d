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
lands on a grid sample; _accel.excite_scan runs it as a first-order linear
recurrence with precomputed forcing.
"""

from dataclasses import dataclass

import numpy as np

from . import _accel
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
    c = _accel.excite_scan(xi, dt, acoef, b)
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
