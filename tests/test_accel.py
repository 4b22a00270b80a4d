"""The two sequential loops against per-sample and per-step reference loops:
the shaper's segment loop in ``envelope.simulate_circuit`` and the
excitation scan in ``atom``."""

import cmath
import functools
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


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(30)


@functools.lru_cache(maxsize=None)
def quadrature_weights(h, a):
    # int_0^h e^(a(h-s)) L(s) ds for the Lagrange basis L of the nodes
    # s = 0, h/2, h, by 30-point Gauss-Legendre quadrature
    s = 0.5 * h * (GL_NODES + 1.0)
    u = s / h
    kernel = 0.5 * h * GL_WEIGHTS * np.exp(a * (h - s))
    return tuple(complex(np.dot(kernel, basis)) for basis in (
        (2.0 * u - 1.0) * (u - 1.0), 4.0 * u * (1.0 - u), u * (2.0 * u - 1.0)))


def exact_step_reference(c, h, a, b, f0, fm, f1):
    # c(h) = e^(ah) c(0) + b int_0^h e^(a(h-s)) q(s) ds, exactly, for q the
    # quadratic through f0, fm, f1 at the step's start, midpoint and end
    w0, wm, w1 = quadrature_weights(h, a)
    return cmath.exp(a * h) * c + b * (w0 * f0 + wm * fm + w1 * f1)


def excite_scan_reference(xi, dt, a, b):
    # One exact step of length 2*dt per sample pair, plus a non-accumulating
    # dt step for each odd index, taken one at a time.
    n = len(xi)
    c = np.zeros(n, dtype=np.complex128)
    if n == 2:
        fm = 0.5 * (xi[0] + xi[1])
        c[1] = exact_step_reference(c[0], dt, a, b, xi[0], fm, xi[1])
        return c
    i = 0
    while i + 2 <= n - 1:
        x0 = xi[i]
        x1 = xi[i + 1]
        x2 = xi[i + 2]
        fm = (3.0 * x0 + 6.0 * x1 - x2) / 8.0
        c[i + 1] = exact_step_reference(c[i], dt, a, b, x0, fm, x1)
        c[i + 2] = exact_step_reference(c[i], 2.0 * dt, a, b, x0, x1, x2)
        i += 2
    if i == n - 2:
        x0 = xi[n - 3]
        x1 = xi[n - 2]
        x2 = xi[n - 1]
        fm = (-x0 + 6.0 * x1 + 3.0 * x2) / 8.0
        c[n - 1] = exact_step_reference(c[n - 2], dt, a, b, x1, fm, x2)
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


DT = 0.1e-9
A_RB = complex(-1.9e7, -2e5)                  # ~26 ns lifetime, small detuning
A_DETUNED = complex(-1.9e7, -2 * np.pi * 3e8)  # p turns by ~0.38 rad per step
A_DAMPED = complex(-1.25e10, 0.0)              # 2*dt*a = -2.5


def excite_scan(xi, dt, a, b):
    """The amplitude trace of the scan for a complex drive, in one array."""
    xi = np.asarray(xi, dtype=np.complex128)
    return np.concatenate(list(atom._scan_pieces(xi, dt, a, b, 1.0)))


def block_length(a, dt, m):
    # The largest B <= m with |p|^-B <= e^8, p = e^(-gamma*dt) the modulus
    # of the free 2*dt step factor.
    p = math.exp(2.0 * a.real * dt)
    return max(1, min(m, math.floor(8.0 / -math.log(p))))


def check_scan(n, a, seed):
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = 6178.0
    c_ref = excite_scan_reference(xi, DT, a, b)
    c = excite_scan(xi, DT, a, b)
    scale = np.max(np.abs(c)) or 1.0
    assert np.max(np.abs(c_ref - c)) < 1e-9 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 101, 10000, 10001])
def test_excite_scan_matches_reference(n):
    check_scan(n, A_RB, n)


@pytest.mark.parametrize("n", [3, 4, 101, 10000, 10001])
def test_excite_scan_detuned(n):
    check_scan(n, A_DETUNED, n)


def test_excite_scan_damped_many_blocks():
    m = 5000
    assert block_length(A_DAMPED, DT, m) == 3
    check_scan(2 * m + 1, A_DAMPED, 5)


@pytest.mark.parametrize("a", [A_RB, A_DAMPED], ids=["rb", "damped"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dm", [-1, 0, 1])
@pytest.mark.parametrize("odd_tail", [0, 1])
def test_excite_scan_block_boundaries(a, k, dm, odd_tail):
    # m = k*B - 1, k*B, k*B + 1 full steps: an exact fit, a padded last
    # block, and one step spilling into a new block; odd_tail adds the
    # trailing odd sample.
    block = block_length(a, DT, 10 ** 6)
    m = k * block + dm
    check_scan(2 * m + 1 + odd_tail, a, m)


@pytest.mark.parametrize("z", [-0.99, -1.01, 0.99, 1.01, -1e-3,
                               0.99 * cmath.exp(2.2j), 1.01 * cmath.exp(2.2j),
                               1e-3 * cmath.exp(2.2j)])
def test_step_weights_match_quadrature(z):
    # the series (|z| < 1) and the recurrence (|z| >= 1) for the phi-function
    # weights, on both sides of the switch and where the recurrence would
    # cancel
    p, *weights = atom._step_coeffs(1.0, complex(z), 1.0)
    assert p == cmath.exp(z)
    for got, want in zip(weights, quadrature_weights(1.0, complex(z))):
        assert abs(got - want) <= 1e-13 * abs(want)


def test_excite_scan_repeatable():
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(20001) + 1j * rng.standard_normal(20001)
    first = excite_scan(xi, DT, A_DETUNED, 6178.0)
    second = excite_scan(xi.copy(), DT, A_DETUNED, 6178.0)
    assert first.tobytes() == second.tobytes()


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
