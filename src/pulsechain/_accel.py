"""numpy kernels for the two sequential inner loops.

The transistor-envelope state loop and the RK4 excitation scan cannot be
vectorized across time (each sample depends on the previous state).  The
envelope loop is vectorized per gate segment instead, and the scan
precomputes its forcing vectorized so that only a first-order complex
recurrence runs as a Python loop.
"""

import math

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# transistor envelope loop
# ---------------------------------------------------------------------------

def envelope_loop(n, dt, i_on, i_off, slope, v_t, i0, i_c_max, v_out_max,
                  load, discharge_tau):
    """Base-emitter voltage and output of the shaper, one gate segment at a
    time: a linear charge while a gate is active (output routed to the load),
    exponential discharge otherwise (output identically zero)."""
    v_be = np.zeros(n)
    v_out = np.zeros(n)
    arg_max = math.log1p(i_c_max / i0)
    decay = math.exp(-dt / discharge_tau)
    v0 = 0.0
    pos = 0
    for a, b in zip(i_on, i_off):
        a = int(a)
        b = int(b)
        if a > pos:
            k = np.arange(a - pos)
            v_be[pos:a] = v0 * np.power(decay, k)
            v0 = v0 * decay ** (a - pos)
        m = np.arange(b - a + 1)
        seg = v0 + slope * dt * m
        v_be[a:b + 1] = seg
        ic = np.minimum(i0 * np.expm1(np.minimum(seg / v_t, arg_max)), i_c_max)
        v_out[a:b + 1] = np.minimum(load * ic, v_out_max)
        v0 = v0 + slope * dt * (b - a + 1)
        pos = b + 1
    if pos < n:
        k = np.arange(n - pos)
        v_be[pos:] = v0 * np.power(decay, k)
    return v_be, v_out


# ---------------------------------------------------------------------------
# weak-excitation amplitude scan:  dc/dt = a*c + b*xi(t)
# ---------------------------------------------------------------------------
#
# Classical RK4 with step h = 2*dt, so the half-step stage falls on a real
# sample and the sampled drive is never interpolated (the drives of interest
# have sharp, sample-aligned cutoffs).  Odd-index outputs are filled by a
# single non-accumulating dt-step whose midpoint drive comes from the local
# quadratic through three neighbouring samples.

def _rk4_step(c, h, a, b, f0, fm, f1):
    k1 = a * c + b * f0
    k2 = a * (c + 0.5 * h * k1) + b * fm
    k3 = a * (c + 0.5 * h * k2) + b * fm
    k4 = a * (c + h * k3) + b * f1
    return c + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def excite_scan(xi, dt, a, b):
    """RK4 amplitude scan with vectorized forcing.

    For a linear ODE the RK4 update is c_{k+1} = P*c_k + F_k with constant
    propagator P and a forcing F_k that is a fixed linear combination of the
    three drive samples of the step; F is precomputed vectorized and only the
    trivial first-order recurrence runs as a Python loop.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    n = len(xi)
    c = np.zeros(n, dtype=np.complex128)
    if n == 2:
        fm = 0.5 * (xi[0] + xi[1])
        c[1] = _rk4_step(c[0], dt, a, b, xi[0], fm, xi[1])
        return c

    def coeffs(h):
        al = a * h
        p = 1.0 + al * (1.0 + al * (0.5 + al * (1.0 / 6.0 + al / 24.0)))
        w0 = 1.0 + al + al * al / 2.0 + al ** 3 / 4.0
        w1 = 4.0 + 2.0 * al + al * al / 2.0
        return p, (h / 6.0) * b * w0, (h / 6.0) * b * w1, (h / 6.0) * b

    m = (n - 1) // 2  # full 2*dt steps
    x0 = xi[0:2 * m - 1:2]
    x1 = xi[1:2 * m:2]
    x2 = xi[2:2 * m + 1:2]

    p2, a0, a1, a2 = coeffs(2.0 * dt)
    forcing = a0 * x0 + a1 * x1 + a2 * x2
    even = np.empty(m + 1, dtype=np.complex128)
    even[0] = 0.0
    acc = 0.0 + 0.0j
    for k in range(m):
        acc = p2 * acc + forcing[k]
        even[k + 1] = acc
    c[0:2 * m + 1:2] = even

    p1, b0, b1, b2 = coeffs(dt)
    fm = (3.0 * x0 + 6.0 * x1 - x2) / 8.0
    c[1:2 * m:2] = p1 * even[:-1] + (b0 * x0 + b1 * fm + b2 * x1)

    if n % 2 == 0:  # trailing odd index
        y0, y1, y2 = xi[n - 3], xi[n - 2], xi[n - 1]
        fme = (-y0 + 6.0 * y1 + 3.0 * y2) / 8.0
        c[n - 1] = p1 * c[n - 2] + (b0 * y1 + b1 * fme + b2 * y2)
    return c
