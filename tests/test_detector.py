import math
from dataclasses import replace

import numpy as np
import pytest

from pulsechain import (DetectorParams, EtalonStack, TimeGrid, ValidationError,
                        Waveform, detect, filter_pulse, fit_exponential,
                        one_pole_lowpass, undershoot_fraction)
from spectral_oracle import apply_transfer

GRID = TimeGrid(0.0, 0.1e-9, 10000)
WIDE_OPEN = DetectorParams(bandwidth_hz=np.inf, scope_bandwidth_hz=np.inf)


def gated_exponential(tau_amp, t_on=100e-9, t_cut=400e-9):
    t = GRID.times()
    x = np.where((t >= t_on) & (t <= t_cut), np.exp((t - t_cut) / tau_amp), 0.0)
    return Waveform(grid=GRID, samples=x, unit="sqrtW")


class TestSquareLaw:
    def test_squaring_halves_time_constant(self):
        # amplitude tau 20 ns -> power tau 10 ns (infinite bandwidths)
        out = detect(gated_exponential(20e-9), WIDE_OPEN)
        r = fit_exponential(out, (150e-9, 398e-9), "rising")
        assert r.tau == pytest.approx(10e-9, rel=0.01)

    def test_constant_field(self):
        a = 0.8
        w = Waveform(grid=GRID, samples=np.full(GRID.n_samples, a), unit="sqrtW")
        out = detect(w, DetectorParams(responsivity=2.0))
        assert np.max(np.abs(out.samples.real - 2.0 * a * a)) < 1e-9

    @pytest.mark.parametrize("tau", [10e-9, 17.4e-9, 27e-9, 54e-9])
    def test_factor_of_two_family(self, tau):
        t_cut = min(100e-9 + 8 * tau, 900e-9)
        out = detect(gated_exponential(tau, t_cut=t_cut), WIDE_OPEN)
        r = fit_exponential(out, (100e-9 + 2 * tau, t_cut - 1e-9), "rising")
        assert r.tau == pytest.approx(tau / 2.0, rel=0.005)

    def test_global_phase_invariance_exact(self):
        w = gated_exponential(20e-9)
        rotated = Waveform(grid=GRID, samples=1j * w.samples, unit=w.unit)
        a = detect(w, DetectorParams())
        b = detect(rotated, DetectorParams())
        assert np.array_equal(a.samples, b.samples)

    def test_global_phase_invariance_any_angle(self):
        w = gated_exponential(20e-9)
        rotated = Waveform(grid=GRID, samples=np.exp(0.7j) * w.samples,
                           unit=w.unit)
        a = detect(w, DetectorParams()).samples.real
        b = detect(rotated, DetectorParams()).samples.real
        assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(a))

    def test_quadratic_energy_scaling(self):
        w = gated_exponential(20e-9)
        doubled = Waveform(grid=GRID, samples=2.0 * w.samples, unit=w.unit)
        a = detect(w, DetectorParams()).samples.real
        b = detect(doubled, DetectorParams()).samples.real
        assert np.max(np.abs(b - 4.0 * a)) < 1e-12 * np.max(np.abs(b))


class TestBandwidth:
    def test_finite_bandwidth_smooths_cutoff(self):
        out_inf = detect(gated_exponential(17.4e-9), WIDE_OPEN).samples.real
        out_fin = detect(gated_exponential(17.4e-9), DetectorParams()).samples.real
        k = GRID.index_at(400e-9)
        assert out_inf[k + 2] == 0.0           # ideal detector sees the drop
        assert out_fin[k + 2] > 0.01 * out_fin.max()  # poles keep it alive

    def test_detected_rise_with_default_bandwidths(self):
        # 17.4 ns amplitude pulse through the 3-etalon stack and the
        # 1 GHz diode + 2 GHz scope: rise constant lands in the ~10 ns band
        pulse = gated_exponential(17.4e-9, t_on=100e-9, t_cut=187e-9)
        filtered = filter_pulse(pulse, EtalonStack.identical(3))
        out = detect(filtered, DetectorParams())
        r = fit_exponential(out, (147e-9, 185e-9), "rising")
        assert 8.7e-9 * (1 - 1e-6) <= r.tau <= 10.5e-9

    def test_undershoot_small_and_reported(self):
        out = detect(gated_exponential(17.4e-9), DetectorParams())
        u = undershoot_fraction(out)
        assert 0.0 <= u < 0.01

    def test_bandwidth_validation(self):
        with pytest.raises(ValidationError):
            DetectorParams(bandwidth_hz=0.0)
        with pytest.raises(ValidationError):
            DetectorParams(responsivity=0.0)

    def test_inf_is_the_one_off(self):
        # None, the older spelling of "no pole", is read as inf
        assert DetectorParams(bandwidth_hz=None, scope_bandwidth_hz=None) \
            == WIDE_OPEN
        assert WIDE_OPEN.bandwidth_hz == WIDE_OPEN.scope_bandwidth_hz == np.inf


def detect_reference(field, d):
    # the complex-transform path: |field|^2 as a complex waveform, the pole
    # product over the full spectrum, the real part of the inverse
    out = Waveform(grid=field.grid,
                   samples=d.responsivity * np.abs(field.samples) ** 2, unit="V")
    poles = [one_pole_lowpass(bw) for bw in (d.bandwidth_hz, d.scope_bandwidth_hz)
             if np.isfinite(bw)]
    if poles:
        out = apply_transfer(out, lambda f: math.prod(p(f) for p in poles))
    return out.samples.real


@pytest.mark.parametrize("bandwidths", [[1e9, 2e9], [3e9], [2e9, 1e9],
                                        [1e9, 2e9, 0.5e9], [math.pi * 1e9]])
def test_pole_product_is_the_product_of_poles(bandwidths):
    # built in real arithmetic, bit for bit the product of the complex
    # poles: over the rfft bins, signed zeros, negative and huge f
    f = np.concatenate([np.fft.rfftfreq(10001, 0.1e-9),
                        [0.0, -0.0, -1.0, -3.3e9, -1e12, 1e300, -1e300],
                        np.random.default_rng(5).uniform(-1e10, 1e12, 1000)])
    ref = math.prod(1.0 / (1.0 + 1j * f / bw) for bw in bandwidths)
    assert one_pole_lowpass(*bandwidths)(f).tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [DetectorParams(), WIDE_OPEN])
def test_responsivity_scales_the_trace_exactly(d):
    # a responsivity of 2 scales every step exactly, so the trace doubles
    # bit for bit: the multiply is taken for 2 and skipped for 1 alike
    w = gated_exponential(17.4e-9)
    one = detect(w, d).samples
    two = detect(w, replace(d, responsivity=2.0)).samples
    assert np.any(one != 0)
    assert (2.0 * one).tobytes() == two.tobytes()


class TestRealTransformOracle:
    @pytest.mark.parametrize("n", [10000, 10001])
    @pytest.mark.parametrize("d", [
        DetectorParams(),                                    # two poles
        DetectorParams(bandwidth_hz=np.inf),                 # one pole
        DetectorParams(bandwidth_hz=3e9, scope_bandwidth_hz=np.inf,
                       responsivity=0.7),                    # one pole
        WIDE_OPEN,                                           # no pole
    ])
    def test_detect_matches_complex_path(self, n, d):
        grid = TimeGrid(0.0, 0.1e-9, n)
        rng = np.random.default_rng(n)
        t = grid.times()
        x = np.where(t < 400e-9, np.exp((t - 400e-9) / 17.4e-9), 0.0) * \
            np.exp(1j * rng.uniform(0, 2 * np.pi, n)) + \
            0.01 * rng.standard_normal(n)
        field = Waveform(grid=grid, samples=x, unit="sqrtW")
        got = detect(field, d).samples
        ref = detect_reference(field, d)
        assert np.all(got.imag == 0.0)
        assert np.max(np.abs(got.real - ref)) <= 1e-14 * np.max(np.abs(ref))
