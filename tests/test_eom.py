import numpy as np
import pytest
from scipy import special

from pulsechain import (MixerParams, ModulatorParams, TimeGrid,
                        ValidationError, Waveform, bessel_j, demodulate,
                        distortion_fraction, mix_envelope, phase_modulate,
                        sideband_amplitude, sideband_window, to_spectrum)
from spectral_oracle import apply_transfer

GRID = TimeGrid(0.0, 0.1e-9, 10000)  # 1.5 GHz is exactly on a 1 MHz bin
F_S = 1.5e9

# frozen oracle values (scipy.special, cross-checked below)
J1_01PI = 0.15514969328365502
J1_02PI = 0.2989090563133747
J0_PI = -0.3042421776440939
J0_01PI = 0.9754777740752495
DIST_01 = 0.012286375788594706
DIST_02 = 0.04854292305585417


# All-order sideband analysis, kept as the oracle for the one-sideband path
# that run_chain takes (see also test_optical_path.py).

def decompose_sidebands(env, f_s, n_orders):
    """Split a phase-modulated field into per-order envelopes.

    Order k is demodulated at k*f_s and low-passed with ``sideband_window``.
    Returns [(k, Waveform)] for k = -n_orders..+n_orders.
    """
    if n_orders < 1:
        raise ValidationError("decompose_sidebands: n_orders must be >= 1")
    window = sideband_window(f_s)
    return [(k, apply_transfer(demodulate(env, k * f_s), window))
            for k in range(-n_orders, n_orders + 1)]


def reconstruct_from_orders(orders, f_s, grid):
    """Resum per-order envelopes: sum_k a_k(t) exp(+i 2 pi k f_s t)."""
    t = grid.times()
    total = np.zeros(grid.n_samples, dtype=np.complex128)
    for k, w in orders:
        total += w.samples * np.exp(2j * np.pi * (k * f_s) * t)
    return Waveform(grid=grid, samples=total, unit="sqrtW")


def cw_drive(x, f_s=F_S, v_pi=1.7):
    t = GRID.times()
    return Waveform(grid=GRID, samples=x * v_pi * np.cos(2 * np.pi * f_s * t),
                    unit="V")


class TestBesselSeries:
    def test_against_scipy_oracle(self):
        z = np.linspace(0.0, 2 * np.pi, 101)
        for order in range(6):
            mine = bessel_j(order, z)
            ref = special.jv(order, z)
            assert np.max(np.abs(mine - ref)) < 1e-12

    def test_frozen_values(self):
        assert bessel_j(1, 0.1 * np.pi) == pytest.approx(J1_01PI, abs=1e-13)
        assert bessel_j(1, 0.2 * np.pi) == pytest.approx(J1_02PI, abs=1e-13)
        assert bessel_j(0, np.pi) == pytest.approx(J0_PI, abs=1e-13)

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            bessel_j(-1, 1.0)


class TestSidebandAmplitude:
    def test_zero(self):
        assert sideband_amplitude(0.0) == 0.0

    def test_values(self):
        assert sideband_amplitude(0.1) == pytest.approx(J1_01PI, abs=1e-12)
        assert sideband_amplitude(0.2) == pytest.approx(J1_02PI, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            sideband_amplitude(-0.1)


class TestDistortion:
    def test_paper_percentages(self):
        # about 1.2% at x=0.1, 4.8% at x=0.2
        d1 = distortion_fraction(0.1)
        d2 = distortion_fraction(0.2)
        assert d1 == pytest.approx(DIST_01, abs=1e-12)
        assert d2 == pytest.approx(DIST_02, abs=1e-12)
        assert 0.010 <= d1 <= 0.014
        assert 0.046 <= d2 <= 0.050

    def test_small_argument_expansion(self):
        # (pi x)^2 / 8 for small x
        x = 0.01
        assert distortion_fraction(x) == pytest.approx((np.pi * x) ** 2 / 8,
                                                       rel=1e-3)

    def test_limit_at_zero(self):
        assert distortion_fraction(0.0) == 0.0

    def test_monotone_increasing(self):
        x = np.linspace(1e-3, 1.0, 400)
        d = distortion_fraction(x)
        assert np.all(np.diff(d) > 0.0)


class TestPhaseModulate:
    def test_no_drive_gives_unit_carrier(self):
        drive = Waveform(grid=GRID, samples=np.zeros(GRID.n_samples), unit="V")
        field = phase_modulate(drive, ModulatorParams())
        assert np.all(field.samples == 1.0)

    def test_power_conserved_exactly(self):
        rng = np.random.default_rng(6)
        drive = Waveform(grid=GRID, samples=rng.uniform(-1, 1, GRID.n_samples),
                         unit="V")
        field = phase_modulate(drive, ModulatorParams())
        mag2 = np.abs(field.samples) ** 2
        assert abs(mag2.mean() - 1.0) < 1e-14
        assert np.max(np.abs(mag2 - 1.0)) < 1e-13

    def test_carrier_amplitude_j0_pi(self):
        field = phase_modulate(cw_drive(1.0), ModulatorParams())
        s = to_spectrum(field)
        k0 = np.argmin(np.abs(s.frequencies()))
        carrier = s.amplitudes[k0] / np.sqrt(GRID.n_samples)
        assert carrier.real == pytest.approx(J0_PI, abs=1e-9)
        assert abs(carrier.imag) < 1e-9

    def test_first_sideband_j1(self):
        field = phase_modulate(cw_drive(0.1), ModulatorParams())
        s = to_spectrum(field)
        k = np.argmin(np.abs(s.frequencies() - F_S))
        amp = abs(s.amplitudes[k]) / np.sqrt(GRID.n_samples)
        assert amp == pytest.approx(J1_01PI, abs=1e-9)

    def test_sanity_bound(self):
        with pytest.raises(ValidationError):
            phase_modulate(cw_drive(5.5), ModulatorParams())

    def test_complex_drive_rejected(self):
        drive = Waveform(grid=GRID, samples=np.full(GRID.n_samples, 1j))
        with pytest.raises(ValidationError):
            phase_modulate(drive, ModulatorParams())

    def test_jacobi_anger_closure(self):
        # sum_k J_k(x)^2 = 1 within the truncation tail
        for x in (0.1 * np.pi, 0.2 * np.pi, np.pi):
            total = bessel_j(0, x) ** 2 + 2 * sum(
                bessel_j(k, x) ** 2 for k in range(1, 13))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestDecompose:
    def test_unmodulated_field_is_pure_carrier(self):
        drive = Waveform(grid=GRID, samples=np.zeros(GRID.n_samples), unit="V")
        orders = dict(decompose_sidebands(phase_modulate(drive, ModulatorParams()),
                                          F_S, 2))
        assert np.max(np.abs(orders[0].samples - 1.0)) < 1e-9
        for k in (-2, -1, 1, 2):
            assert np.max(np.abs(orders[k].samples)) < 1e-9

    def test_cw_orders_match_bessel(self):
        field = phase_modulate(cw_drive(0.1), ModulatorParams())
        orders = dict(decompose_sidebands(field, F_S, 2))
        mid = slice(100, -100)
        assert np.max(np.abs(np.abs(orders[0].samples[mid]) - J0_01PI)) < 1e-6
        for k in (-1, 1):
            assert np.max(np.abs(np.abs(orders[k].samples[mid]) - J1_01PI)) < 1e-6

    def test_real_drive_symmetry(self):
        # amplitude(k) = (-1)^k conj(amplitude(-k)) for a real drive.
        # Finer grid: at dt = 0.1 ns the 5th-order sidebands (7.5 GHz) alias
        # across Nyquist and land 500 MHz from the -+2 orders at the 1e-6
        # level, masking the identity under test.
        grid = TimeGrid(0.0, 0.05e-9, 20000)
        t = grid.times()
        drive = Waveform(grid=grid,
                         samples=0.15 * 1.7 * np.cos(2 * np.pi * F_S * t),
                         unit="V")
        field = phase_modulate(drive, ModulatorParams())
        orders = dict(decompose_sidebands(field, F_S, 3))
        mid = slice(200, -200)
        for k in (1, 2, 3):
            lhs = orders[k].samples[mid]
            rhs = (-1.0) ** k * np.conj(orders[-k].samples[mid])
            assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_pulsed_drive_tracks_bessel_pointwise(self):
        t = GRID.times()
        tau = 27e-9
        gate = (t >= 100e-9) & (t <= 500e-9)
        env = np.where(gate, np.exp((t - 500e-9) / tau), 0.0)
        drive = Waveform(grid=GRID,
                         samples=0.1 * 1.7 * env * np.cos(2 * np.pi * F_S * t),
                         unit="V")
        field = phase_modulate(drive, ModulatorParams())
        a1 = dict(decompose_sidebands(field, F_S, 3))[1]
        interior = (t > 120e-9) & (t < 495e-9)
        expected = bessel_j(1, np.pi * 0.1 * env[interior])
        got = np.abs(a1.samples[interior])
        assert np.max(np.abs(got - expected)) < 0.01 * expected.max()

    def test_reconstruction_rms(self):
        # n_orders >= 3 at x <= 0.2 rebuilds the field to <= 1% RMS
        field = phase_modulate(cw_drive(0.2), ModulatorParams())
        orders = decompose_sidebands(field, F_S, 3)
        rec = reconstruct_from_orders(orders, F_S, GRID)
        err = np.sqrt(np.mean(np.abs(rec.samples - field.samples) ** 2))
        assert err < 0.01

    def test_invalid_order_count(self):
        field = phase_modulate(cw_drive(0.1), ModulatorParams())
        with pytest.raises(ValidationError):
            decompose_sidebands(field, F_S, 0)


class TestBandwidthRolloff:
    def test_rolloff_attenuates_drive(self):
        m = ModulatorParams(bandwidth_hz=1.5e9)
        field = phase_modulate(cw_drive(0.1), m)
        s = to_spectrum(field)
        k = np.argmin(np.abs(s.frequencies() - F_S))
        amp = abs(s.amplitudes[k]) / np.sqrt(GRID.n_samples)
        # drive at exactly the one-pole corner: amplitude scales by 1/sqrt(2)
        assert amp == pytest.approx(bessel_j(1, np.pi * 0.1 / np.sqrt(2)),
                                    rel=1e-3)


class TestChainedWithMixer:
    def test_mixed_envelope_to_sideband(self):
        t = GRID.times()
        gate = (t >= 100e-9) & (t <= 600e-9)
        env = Waveform(grid=GRID,
                       samples=np.where(gate, np.exp((t - 600e-9) / 27e-9), 0.0),
                       unit="V")
        rf = mix_envelope(env, F_S, MixerParams(lo_leak_db=-np.inf,
                                                if_leak_db=-np.inf))
        field = phase_modulate(rf, ModulatorParams(drive_scale=0.17))
        a1 = dict(decompose_sidebands(field, F_S, 3))[1]
        interior = (t > 150e-9) & (t < 590e-9)
        x_t = 0.17 * env.samples.real[interior] / 1.7
        expected = bessel_j(1, np.pi * x_t)
        assert np.max(np.abs(np.abs(a1.samples[interior]) - expected)) \
            < 0.01 * expected.max()
