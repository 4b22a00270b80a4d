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

Integrator: the exact step of this linear equation over 2*dt for the
drive's quadratic through the step's three grid samples, with propagator
p = e^(2a*dt) and phi-function weights (Hochbruck & Ostermann, Acta
Numerica 19, 209 (2010)).  The step is a first-order recurrence
c_{k+1} = p*c_k + F_k with precomputed forcing, evaluated as a blocked
prefix scan (Blelloch 1990) with no per-step Python loop, streamed in
groups of rows (see _scan_pieces).  |p| = e^(-gamma*dt) < 1 for every
gamma > 0, so every sample spacing runs.  A real drive on a resonant atom
scans in float64: every imaginary part is +-0, so |c|^2 keeps its bits.
Step powers p^(j+1) are memoised with the step coefficients (_scan_coeffs).
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .waveform import TimeGrid, Waveform, _abs2, _spans


@dataclass(frozen=True)
class AtomParams:
    gamma: float = 1.0 / 26.2e-9   # D2-line excited-state decay rate [1/s]
    lambda_overlap: float = 1.0    # spatial mode overlap in [0, 1]
    detuning_hz: float = 0.0

    def __post_init__(self):
        if not (0 < self.gamma < math.inf):
            raise ValidationError("AtomParams.gamma must be finite and > 0")
        if not (0.0 <= self.lambda_overlap <= 1.0):
            raise ValidationError("AtomParams.lambda_overlap must be in [0, 1]")
        if not np.isfinite(2.0 * np.pi * self.detuning_hz):
            raise ValidationError(
                "AtomParams.detuning_hz must be finite, also times 2*pi")


@dataclass(frozen=True)
class ExcitationResult:
    p_max: float
    t_at_max: float


def _step_coeffs(h, a, b):
    """The exact step of dc/dt = a*c + b*xi over h, for xi the quadratic
    through the drive f0, fm, f1 at the step's start, midpoint and end, as
    c' = p*c + w0*f0 + w1*fm + w2*f1 with p = e^(ah).  The weights are
    b*h*(phi1 - 3 phi2 + 4 phi3, 4 phi2 - 8 phi3, 4 phi3 - phi2), where
    phi_k(z) = sum_j z^j/(j+k)!: the series for |ah| < 1, the recurrence
    phi_(k+1) = (phi_k - 1/k!)/z from phi_0 = e^z otherwise."""
    z = a * h
    p = cmath.exp(z)
    if abs(z) < 1.0:
        phi3 = 0.0
        for j in range(17, -1, -1):
            phi3 = phi3 * z + 1.0 / math.factorial(j + 3)
        phi2 = 0.5 + z * phi3
        phi1 = 1.0 + z * phi2
    else:
        phi1 = (p - 1.0) / z
        phi2 = (phi1 - 1.0) / z
        phi3 = (phi2 - 0.5) / z
    bh = b * h
    return (p, bh * (phi1 - 3.0 * phi2 + 4.0 * phi3),
            bh * (4.0 * phi2 - 8.0 * phi3), bh * (4.0 * phi3 - phi2))


@functools.lru_cache(maxsize=4)
def _scan_coeffs(dt, a, b, real_drive):
    """_scan_pieces' dtype, step coefficients (real for a real scan) and
    step powers for blocks of up to min(_GROUP, 8/(gamma*dt)) steps, or None
    when every block is one step: 4 entries of 2 tables, <= 2 MiB."""
    coefs = _step_coeffs(dt, a, b) + _step_coeffs(2.0 * dt, a, b)
    dtype = np.complex128
    if real_drive and all(complex(v).imag == 0 for v in coefs):
        dtype, coefs = np.float64, tuple(complex(v).real for v in coefs)
    gamma_dt = -2.0 * a.real * dt
    block = _GROUP if gamma_dt * _GROUP <= 8.0 else int(8.0 / gamma_dt)
    return (dtype, *coefs,
            _step_powers(coefs[4], dtype, block) if block > 1 else None)


def _amplitude_coefs(a: AtomParams):
    """(a, b) of dc/dt = a*c + b*xi(t) for the atom's decay and detuning."""
    return (complex(-(a.gamma / 2.0), -2.0 * np.pi * a.detuning_hz),
            float(np.sqrt(a.gamma * a.lambda_overlap)))


_GROUP = 1 << 14  # 2*dt steps per group of the streamed scan: ~1 MB of work


def _step_powers(p2, dtype, block):
    """p2^(j+1) and p2^-(j+1) for j < block in ``dtype`` (the real parts for
    float64), read-only.  A table's prefix is the shorter table bit for bit."""
    pw = np.exp(np.log(complex(p2)) * np.arange(1.0, block + 1))
    tables = [np.ascontiguousarray(t.real if dtype is np.float64 else t)
              for t in (pw, 1.0 / pw)]
    for t in tables:
        t.flags.writeable = False
    return tables


def _scan_pieces(x, dt, a, b, scale):
    """The amplitude trace c of dc/dt = a*c + b*xi(t) with c(0) = 0, for the
    drive xi = x*scale, as consecutive pieces whose concatenation is c
    (float64 for a real drive and atom).

    The step is exact for the drive's quadratic through three samples,
    over h = 2*dt (:func:`_step_coeffs`), so the drive is never sampled off
    the grid (the drives of interest have sharp, sample-aligned cutoffs).
    It is the recurrence c_{k+1} = p*c_k + F_k, with p = e^(2a*dt) and the
    forcing F computed vectorized.  The recurrence runs as a blocked scan:
    F is laid out in rows of B steps, and within a row c_{j+1} = p^(j+1) *
    (carry + cumsum_i p^-(i+1) F_i), with the carry, the last value of the
    row before, added as carry * p^(j+1); only the loop over rows is in
    Python.  |p| = e^(-gamma*dt) < 1, and B is the largest block length, at
    most the number of steps, with gamma*dt*B <= 8: |p|^-B <= e^8 bounds
    the growth of the scaled terms and so the rounding of the cumulative
    sum.  One-step rows skip the scaling, so a p that underflows to 0 is
    never inverted.  Odd-index outputs come from one non-accumulating
    dt-step whose drive is the local quadratic through three neighbouring
    samples (the line through both samples when the trace has only two).

    The rows are streamed in groups of whole rows, about ``_GROUP`` steps
    each: a group scales its own samples of x, forms its forcing, runs its
    rows and yields its outputs, and the carry passes to the next group as
    from row to row.  Every output is computed by the same operations as
    in one pass over all rows, and no full-length array is made.
    """
    n = len(x)
    dtype, p1, b0, b1, b2, p2, a0, a1, a2, powers = _scan_coeffs(
        dt, a, b, np.isrealobj(x) and np.isrealobj(scale))

    def drive(lo, hi):
        return np.asarray(x[lo:hi] * scale, dtype=dtype)

    if n == 2:
        xi = drive(0, 2)
        yield np.array([0.0, b0 * xi[0] + b1 * ((xi[0] + xi[1]) / 2)
                        + b2 * xi[1]], dtype=dtype)
        return

    m = (n - 1) // 2  # full 2*dt steps
    gamma_dt = -2.0 * a.real * dt  # = -ln|p2|
    block = m if gamma_dt * m <= 8.0 else max(1, int(8.0 / gamma_dt))
    if block > 1 and len(powers[0]) < block:  # powers is None at block 1
        powers = _step_powers(p2, dtype, block)  # a block past the memo's
    pw, ipw = ((t[:block] for t in powers) if block > 1
               else (np.full(1, p2, dtype=dtype), None))
    carry = None  # c at the group's first even index, after the first group
    for k0, k1 in _spans(m, max(1, _GROUP // block) * block):
        k = k1 - k0  # steps in this group
        xi = drive(2 * k0, 2 * (k0 + k) + 1)
        x0, x1, x2 = xi[0:2 * k - 1:2], xi[1:2 * k:2], xi[2:2 * k + 1:2]
        n_rows = -(-k // block)
        # even[j] = c[2(k0 + j)]; the forcing is written in place of its
        # outputs and the tail past k pads the last row with zero forcing.
        even = np.zeros(n_rows * block + 1, dtype=dtype)
        forcing = even[1:k + 1]
        np.multiply(x0, a0, out=forcing)
        forcing += a1 * x1
        forcing += a2 * x2
        rows = even[1:].reshape(n_rows, block)
        if block > 1:
            rows *= ipw
            np.cumsum(rows, axis=1, out=rows)
            rows *= pw
        if carry is not None:
            even[0] = carry
            rows[0] += carry * pw
        for r in range(1, n_rows):
            rows[r] += rows[r - 1, -1] * pw
        carry = even[k]

        # odd outputs, with the midpoint drive fm = (3*x0 + 6*x1 - x2)/8
        c = np.empty(2 * k, dtype=dtype)
        c[0::2] = even[:k]
        odd = c[1::2]
        np.multiply(even[:k], p1, out=odd)
        odd += (b0 + 0.375 * b1) * x0
        odd += (0.75 * b1 + b2) * x1
        odd -= (0.125 * b1) * x2
        yield c

    tail = [carry]  # c[2m]
    if n % 2 == 0:  # trailing odd index
        y0, y1, y2 = drive(n - 3, n)
        fme = (-y0 + 6.0 * y1 + 3.0 * y2) / 8.0
        tail.append(p1 * carry + (b0 * y1 + b1 * fme + b2 * y2))
    yield np.array(tail, dtype=dtype)


def _refine_peak(p, grid: TimeGrid):
    """Parabolic peak refinement through the three samples at the discrete
    maximum.  At a symmetric cutoff corner the side samples agree and the
    vertex reduces to the sample itself, so the refinement never invents
    probability above a sharp-cutoff peak."""
    k = int(np.argmax(p))
    t_k = grid.t_start + grid.dt * k  # == grid.times()[k]
    if not 0 < k < len(p) - 1:
        return float(p[k]), float(t_k)
    p0, p1, p2 = p[k - 1], p[k], p[k + 1]
    curv = p0 - 2.0 * p1 + p2
    if curv >= 0.0:
        return float(p1), float(t_k)
    shift = min(max((p0 - p2) / (2.0 * curv), -0.5), 0.5)
    peak = p1 - 0.125 * (p0 - p2) ** 2 / curv
    return float(peak), float(t_k + shift * grid.dt)


def excite(pulse_mode: Waveform, a: AtomParams) -> ExcitationResult:
    """Peak excitation probability for a pulse interpreted as a
    single-photon temporal mode.

    The pulse is normalized internally to unit energy (trapezoid-weighted
    sum |xi|^2 dt = 1); a zero-energy pulse is rejected.  Lambda scales p(t)
    exactly linearly.  p_max/t_at_max are parabolically refined around the
    discrete peak of |c|^2.

    The integrator steps over sample pairs, so sharp pulse edges are
    resolved most accurately when they fall on even sample indices (edges
    mid-step cost O(dt^2) locally; smooth pulses are unaffected).  Its step
    is exact for the drive's local quadratic, so any sample spacing runs.
    A p_max above Lambda, which a unit-energy mode cannot reach, is
    rejected: it comes from content near the sample rate, which the scan's
    quadratic weighs differently from the trapezoid normalisation.
    """
    p_max, t_at_max = _refine_peak(_probability_trace(pulse_mode, a),
                                   pulse_mode.grid)
    if p_max > a.lambda_overlap * (1.0 + 1e-9):
        raise ValidationError(
            f"excite: p_max = {p_max:g} exceeds Lambda = "
            f"{a.lambda_overlap:g}: the pulse has content near the sample "
            f"rate of dt = {pulse_mode.grid.dt:g} s; low-pass or resample it")
    return ExcitationResult(p_max=p_max, t_at_max=t_at_max)


def _probability_trace(pulse_mode: Waveform, a: AtomParams):
    """p(t) = |c(t)|^2 on the pulse's grid, as :func:`excite` computes it."""
    dt = pulse_mode.grid.dt
    # |x|^2 for the energy, then |c|^2 over it as the scan streams c
    p = _abs2(pulse_mode.samples)
    norm2 = (p.sum() - 0.5 * (p[0] + p[-1])) * dt
    if norm2 <= 0.0:
        raise ValidationError("excite: pulse mode has zero energy")
    lo = 0
    # x * (1/s), as numpy divides a complex x by a real s, for any dtype
    for c in _scan_pieces(pulse_mode.samples, dt, *_amplitude_coefs(a),
                          scale=1.0 / np.sqrt(norm2)):
        _abs2(c, out=p[lo:lo + len(c)])
        lo += len(c)
    return p


def rising_exponential_pulse(grid: TimeGrid, tau_amp, t_cut) -> Waveform:
    """exp((t - t_cut)/tau_amp) up to the sharp cutoff at t_cut, zero after.

    tau_amp is the amplitude time constant; the matched mode for an atom of
    decay rate gamma is tau_amp = 2/gamma with t_cut - t_start >= 10/gamma.
    """
    return _exponential_pulse(grid, tau_amp, "t_cut", t_cut, sign=1.0)


def falling_exponential_pulse(grid: TimeGrid, tau_amp, t_begin) -> Waveform:
    """exp(-(t - t_begin)/tau_amp) switched on at t_begin, zero before."""
    return _exponential_pulse(grid, tau_amp, "t_begin", t_begin, sign=-1.0)


def _exponential_pulse(grid, tau_amp, name, t_edge, sign):
    """exp(sign*(t - t_edge)/tau_amp) up to t_edge (sign 1) or from it, within
    1e-9 dt, else 0; only that support, found by binary search, is computed."""
    if not (tau_amp > 0 and math.isfinite(t_edge)):
        raise ValidationError(f"{name} must be finite, not {t_edge}"
                              if tau_amp > 0 else "tau_amp must be > 0")
    x, tol = grid.times(), sign * 1e-9 * grid.dt
    k = int(np.searchsorted(x, t_edge + tol, "right" if sign > 0 else "left"))
    on, off = (x[:k], x[k:]) if sign > 0 else (x[k:], x[:k])
    on -= t_edge
    np.exp(np.divide(on, sign * tau_amp, out=on), out=on)  # v/-tau: -(v/tau)
    off[:] = 0.0
    x.flags.writeable = False
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
