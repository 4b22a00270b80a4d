"""The two sequential loops against per-sample and per-step reference loops:
the shaper's segment loop in ``envelope.simulate_circuit`` and the RK4
excitation scan in ``atom``."""

import math
import subprocess
import sys

import numpy as np
import pytest

from pulsechain import CircuitParams, GatePulse, TimeGrid, atom, simulate_circuit


def envelope_loop_reference(n, dt, i_on, i_off, slope, v_t, i0, i_c_max,
                            v_out_max, load, discharge_tau):
    # State variable is the base-emitter voltage: linear charge while a gate
    # is active, exponential discharge otherwise.  Output is routed to the
    # load only while active and is identically zero otherwise.
    v_be = np.zeros(n)
    v_out = np.zeros(n)
    arg_max = math.log1p(i_c_max / i0)
    decay = math.exp(-dt / discharge_tau)
    v = 0.0
    g = 0
    n_gates = len(i_on)
    for i in range(n):
        while g < n_gates and i > i_off[g]:
            g += 1
        active = g < n_gates and i_on[g] <= i <= i_off[g]
        v_be[i] = v
        if active:
            arg = v / v_t
            if arg >= arg_max:
                ic = i_c_max
            else:
                ic = i0 * math.expm1(arg)
                if ic > i_c_max:
                    ic = i_c_max
            vo = load * ic
            if vo > v_out_max:
                vo = v_out_max
            v_out[i] = vo
            v = v + slope * dt
        else:
            v = v * decay
    return v_be, v_out


def rk4_step_reference(c, h, a, b, f0, fm, f1):
    k1 = a * c + b * f0
    k2 = a * (c + 0.5 * h * k1) + b * fm
    k3 = a * (c + 0.5 * h * k2) + b * fm
    k4 = a * (c + h * k3) + b * f1
    return c + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def excite_scan_reference(xi, dt, a, b):
    # One RK4 step of length 2*dt per sample pair, plus a non-accumulating
    # dt step for each odd index, taken one at a time.
    n = len(xi)
    c = np.zeros(n, dtype=np.complex128)
    if n == 2:
        fm = 0.5 * (xi[0] + xi[1])
        c[1] = rk4_step_reference(c[0], dt, a, b, xi[0], fm, xi[1])
        return c
    i = 0
    while i + 2 <= n - 1:
        x0 = xi[i]
        x1 = xi[i + 1]
        x2 = xi[i + 2]
        fm = (3.0 * x0 + 6.0 * x1 - x2) / 8.0
        c[i + 1] = rk4_step_reference(c[i], dt, a, b, x0, fm, x1)
        c[i + 2] = rk4_step_reference(c[i], 2.0 * dt, a, b, x0, x1, x2)
        i += 2
    if i == n - 2:
        x0 = xi[n - 3]
        x1 = xi[n - 2]
        x2 = xi[n - 1]
        fm = (-x0 + 6.0 * x1 + 3.0 * x2) / 8.0
        c[n - 1] = rk4_step_reference(c[n - 2], dt, a, b, x1, fm, x2)
    return c


def test_envelope_loop_matches_reference():
    n = 20000
    dt = 0.1e-9
    i_on = np.array([500, 6000, 14000], dtype=np.int64)
    i_off = np.array([4000, 9000, 19000], dtype=np.int64)
    p = CircuitParams()
    gates = [GatePulse(t_on=a * dt, duration=(b - a) * dt)
             for a, b in zip(i_on, i_off)]
    vb_ref, vo_ref = envelope_loop_reference(
        n, dt, i_on, i_off, p.ramp_slope, p.v_t, p.i0, p.i_c_max,
        p.v_out_max, p.load_ohms, p.discharge_tau)
    v_be, v_out = simulate_circuit(p, gates, TimeGrid(0.0, dt, n))
    vb, vo = v_be.samples.real, v_out.samples.real
    assert np.allclose(vb_ref, vb, rtol=1e-9, atol=1e-18)
    assert np.allclose(vo_ref, vo, rtol=1e-9, atol=1e-18)


@pytest.mark.parametrize("n", [2, 3, 4, 101, 10000, 10001])
def test_excite_scan_matches_reference(n):
    rng = np.random.default_rng(n)
    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dt = 0.1e-9
    a = complex(-1.9e7, -2e5)
    b = 6178.0
    c_ref = excite_scan_reference(xi, dt, a, b)
    c = atom._excite_scan(xi, dt, a, b)
    scale = np.max(np.abs(c)) or 1.0
    assert np.max(np.abs(c_ref - c)) < 1e-9 * scale


def test_import_loads_numpy_backend_only():
    # numpy is the only third-party package that importing pulsechain loads
    # (no JIT compiler, no scipy).
    code = ("import sys; before = set(sys.modules); import pulsechain; "
            "from pulsechain import _accel; "
            "tops = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(_accel.BACKEND, *sorted(tops - sys.stdlib_module_names))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["numpy", "numpy", "pulsechain"]
