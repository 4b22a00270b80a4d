"""Behavioral model of the exponential pulse shaper circuit.

A constant current defined by the control voltage charges C1, so the base
voltage of the output transistor ramps linearly; the Shockley law then turns
the linear ramp into an exponentially rising collector current.  The gate
signal routes that current into the load while active and diverts it away
(sub-sample drop) when released, after which C1 discharges slowly.  The
switching transistors are ideal routing; only the Shockley stage shapes the
pulse.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .waveform import TimeGrid, Waveform


@dataclass(frozen=True)
class CircuitParams:
    """Pulse-shaper parameters.

    i0 and load_ohms set only the (conventional) absolute output scale; the
    defaults pair 50 ohms with the 40 mA clamp to give the 2 V output limit.
    v_t is explicit so timing sensitivity to the thermal voltage can be swept.
    """

    i0: float = 1e-14            # reverse saturation current [A]
    v_t: float = 0.026           # thermal voltage kT/e [V]
    c1: float = 3.9e-9           # ramp capacitor [F]
    r11: float = 1000.0          # current-source resistor [ohm]
    v_in: float = 4.455555555555556   # control input [V] (27 ns design point)
    v_drop: float = 0.7          # emitter junction drop [V]
    i_c_max: float = 0.040       # collector current clamp [A]
    v_out_max: float = 2.0       # output voltage clamp [V]
    discharge_tau: float = 200e-9  # C1 discharge after gate release [s]
    load_ohms: float = 50.0

    def __post_init__(self):
        for name in ("i0", "v_t", "c1", "r11", "v_in", "v_drop", "i_c_max",
                     "v_out_max", "discharge_tau", "load_ohms"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValidationError(f"CircuitParams.{name} must be finite and > 0")
        if not (0.020 <= self.v_t <= 0.035):
            raise ValidationError(
                "CircuitParams.v_t outside the 20-35 mV plausibility band")
        if not self.v_in > self.v_drop:
            raise ValidationError(
                "CircuitParams.v_in must exceed v_drop (no charging current)")

    @property
    def ramp_slope(self):
        """Base-voltage ramp rate (V_in - V_drop) / (R11 C1) [V/s]."""
        return (self.v_in - self.v_drop) / (self.r11 * self.c1)


@dataclass(frozen=True)
class GatePulse:
    """Digital control pulse: active for t_on <= t <= t_on + duration."""

    t_on: float
    duration: float

    def __post_init__(self):
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ValidationError("GatePulse.duration must be > 0")
        if not np.isfinite(self.t_on):
            raise ValidationError("GatePulse.t_on must be finite")

    @property
    def t_off(self):
        return self.t_on + self.duration


def shockley_current(v_be, p: CircuitParams):
    """Collector current i0*(exp(v_be/v_t) - 1), clamped at i_c_max.

    Total function: the exponent is limited before evaluation so the clamp
    is exact and overflow-free; exactly zero at v_be = 0.
    """
    arr = np.asarray(v_be, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("shockley_current: v_be must be finite")
    arg_max = np.log1p(p.i_c_max / p.i0)
    out = np.minimum(p.i0 * np.expm1(np.minimum(arr / p.v_t, arg_max)),
                     p.i_c_max)
    return float(out) if np.isscalar(v_be) else out


def tau_from_control_voltage(p: CircuitParams):
    """Design rise time constant R11 * C1 * v_t / (v_in - v_drop)."""
    if not p.v_in > p.v_drop:
        raise ValidationError("invalid control voltage: v_in <= v_drop")
    return p.r11 * p.c1 * p.v_t / (p.v_in - p.v_drop)


def control_voltage_for_tau(p: CircuitParams, tau):
    """Control input producing a requested rise constant (inverse of the
    tau formula); convenience for sweeps."""
    if not (tau > 0):
        raise ValidationError("tau must be > 0")
    return p.v_drop + p.r11 * p.c1 * p.v_t / tau


def simulate_circuit(p: CircuitParams, gates, grid: TimeGrid):
    """Run the shaper over the grid; returns (v_be, v_out) waveforms.

    ``gates`` is one GatePulse or a sequence of non-overlapping ones.  The
    base voltage charges linearly over each gate's samples, with the output
    routed to the load, and C1 discharges exponentially otherwise, with the
    output identically zero; a retrigger before full discharge therefore
    starts from the correctly elevated base voltage.
    """
    if isinstance(gates, GatePulse):
        gates = [gates]
    n = grid.n_samples
    tol = 1e-9 * grid.dt
    v_be = np.zeros(n)
    v_out = np.zeros(n)
    step = p.ramp_slope * grid.dt
    decay = math.exp(-grid.dt / p.discharge_tau)
    v0 = 0.0
    pos = 0
    prev_end = -np.inf
    for g in sorted(gates, key=lambda g: g.t_on):
        if g.t_on < grid.t_start - tol or g.t_off > grid.t_end + tol:
            raise ValidationError(
                f"gate [{g.t_on}, {g.t_off}] s extends outside the grid "
                f"[{grid.t_start}, {grid.t_end}] s")
        if g.t_on < prev_end:
            raise ValidationError("gate pulses overlap")
        prev_end = g.t_off
        on = grid.window_slice(g.t_on, g.t_off)
        if on.stop <= on.start:
            continue  # gate falls entirely between samples: no effect
        if on.start > pos:
            v_be[pos:on.start] = v0 * np.power(decay, np.arange(on.start - pos))
            v0 = v0 * decay ** (on.start - pos)
        seg = v0 + step * np.arange(on.stop - on.start)
        v_be[on] = seg
        v_out[on] = np.minimum(p.load_ohms * shockley_current(seg, p),
                               p.v_out_max)
        v0 = v0 + step * (on.stop - on.start)
        pos = on.stop
    v_be[pos:] = v0 * np.power(decay, np.arange(n - pos))
    return (Waveform(grid=grid, samples=v_be, unit="V"),
            Waveform(grid=grid, samples=v_out, unit="V"))


def generate_envelope(p: CircuitParams, gates, grid: TimeGrid) -> Waveform:
    """Output-voltage envelope of the shaper (see :func:`simulate_circuit`)."""
    return simulate_circuit(p, gates, grid)[1]
