import numpy as np
import pytest

from pulsechain import (BandpassSpec, DdsParams, MixerParams, TimeGrid,
                        ValidationError, Waveform, analytic_envelope,
                        apply_bandpass, dds_tones, dominant_tone,
                        fit_exponential, frequency_double, frequency_quadruple,
                        mix_envelope)

IDEAL = MixerParams(lo_leak_db=-np.inf, if_leak_db=-np.inf)


class TestDdsTones:
    def test_default_tone_frequencies(self):
        tones = dds_tones(DdsParams())
        freqs = [f for f, _ in tones]
        expected = [125e6, 375e6, 625e6, 875e6, 1125e6, 1375e6, 1625e6,
                    1875e6, 2125e6]
        assert freqs == expected

    def test_first_upper_image_at_375mhz(self):
        tones = dict(dds_tones(DdsParams()))
        assert 375e6 in tones

    def test_zero_order_hold_ratios(self):
        # for f_tune = f_clk/4 the image weights are exactly f_tune/f
        tones = dict(dds_tones(DdsParams()))
        assert tones[125e6] == pytest.approx(1.0, rel=1e-12)
        assert tones[375e6] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert tones[625e6] == pytest.approx(0.2, rel=1e-12)
        assert tones[875e6] == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_amplitudes_positive_and_decreasing(self):
        amps = [a for _, a in dds_tones(DdsParams(n_images=6))]
        assert all(a > 0 for a in amps)
        assert all(a1 > a2 for a1, a2 in zip(amps, amps[1:]))

    def test_tune_frequency_validation(self):
        with pytest.raises(ValidationError):
            DdsParams(f_tune=300e6)  # above f_clk/2


class TestBandpass:
    def test_stated_suppression_points(self):
        tones = [(125e6, 1.0), (375e6, 1.0), (625e6, 1.0)]
        out = dict(apply_bandpass(tones, BandpassSpec()))
        assert out[125e6] == pytest.approx(10 ** (-70 / 20), rel=1e-12)
        assert out[375e6] == pytest.approx(1.0, rel=1e-12)
        assert out[625e6] == pytest.approx(10 ** (-35 / 20), rel=1e-12)

    def test_passband_loss(self):
        out = apply_bandpass([(375e6, 1.0)],
                             BandpassSpec(passband_loss_db=6.0))
        assert out[0][1] == pytest.approx(10 ** (-6 / 20), rel=1e-12)

    def test_negative_suppression_rejected(self):
        with pytest.raises(ValidationError):
            BandpassSpec(rejections=((125e6, -3.0),))


class TestDoubling:
    def test_quadruple_375_to_1500(self):
        out = frequency_quadruple([(375e6, 1.0)])
        assert out == [(1.5e9, 1.0)]

    def test_exact_times_four(self):
        rng = np.random.default_rng(2)
        for f in rng.uniform(50e6, 900e6, 5):
            out = frequency_quadruple([(f, 1.0)])
            assert out[0][0] == pytest.approx(4 * f, rel=1e-15)

    def test_spur_carried_through_quadrupler(self):
        out = dict(frequency_quadruple([(375e6, 1.0), (625e6, 0.1)]))
        assert out[2.5e9] == pytest.approx(0.1, rel=1e-12)
        assert out[1.5e9] == 1.0

    def test_single_stage_doubling(self):
        out = dict(frequency_double([(375e6, 1.0), (625e6, 0.1)]))
        assert set(out) == {750e6, 1.25e9}

    def test_dominant_tone(self):
        assert dominant_tone([(1e9, 0.2), (2e9, 0.9)]) == (2e9, 0.9)


class TestMixer:
    GRID = TimeGrid(0.0, 0.1e-9, 10000)

    def test_zero_envelope_ideal_mixer(self):
        env = Waveform(grid=self.GRID, samples=np.zeros(10000), unit="V")
        out = mix_envelope(env, 1.5e9, IDEAL)
        assert np.max(np.abs(out.samples)) == 0.0

    def test_constant_envelope_pure_tone(self):
        a = 0.7
        env = Waveform(grid=self.GRID, samples=np.full(10000, a), unit="V")
        out = mix_envelope(env, 1.5e9, MixerParams(conversion_gain=1.3,
                                                   lo_leak_db=-np.inf,
                                                   if_leak_db=-np.inf))
        expected = 1.3 * a * np.cos(2 * np.pi * 1.5e9 * self.GRID.times())
        assert np.max(np.abs(out.samples.real - expected)) < 1e-12

    def test_envelope_fit_after_modulation(self):
        # gated rising exponential, tau 17.4 ns, recovered from |analytic|
        t = self.GRID.times()
        tau = 17.4e-9
        gate = (t >= 100e-9) & (t <= 200e-9)
        env = Waveform(grid=self.GRID,
                       samples=np.where(gate, np.exp((t - 200e-9) / tau), 0.0),
                       unit="V")
        out = mix_envelope(env, 1.5e9, IDEAL)
        r = fit_exponential(analytic_envelope(out), (120e-9, 197e-9), "rising")
        assert r.tau == pytest.approx(tau, rel=0.02)

    def test_linearity_in_envelope(self):
        rng = np.random.default_rng(4)
        e1 = rng.standard_normal(10000)
        e2 = rng.standard_normal(10000)
        a, b = 0.3, -1.1
        mk = lambda x: Waveform(grid=self.GRID, samples=x, unit="V")
        lhs = mix_envelope(mk(a * e1 + b * e2), 1.5e9, IDEAL).samples
        rhs = (a * mix_envelope(mk(e1), 1.5e9, IDEAL).samples
               + b * mix_envelope(mk(e2), 1.5e9, IDEAL).samples)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))

    def test_envelope_recovery_rms(self):
        # band-limited envelope recovered within 1% RMS
        t = self.GRID.times()
        env = np.exp(-((t - 500e-9) / 60e-9) ** 2)
        out = mix_envelope(Waveform(grid=self.GRID, samples=env, unit="V"),
                           1.5e9, IDEAL)
        rec = analytic_envelope(out).samples.real
        rms = np.sqrt(np.mean((rec - env) ** 2)) / np.sqrt(np.mean(env ** 2))
        assert rms < 0.01

    def test_leak_terms_present(self):
        env = Waveform(grid=self.GRID, samples=np.zeros(10000), unit="V")
        out = mix_envelope(env, 1.5e9, MixerParams())  # -40 dB leaks
        # only the LO feedthrough survives a zero envelope
        assert np.max(np.abs(out.samples.real)) == pytest.approx(0.01, rel=1e-3)

    def test_grid_too_coarse_rejected(self):
        g = TimeGrid(0.0, 0.1e-9, 1000)
        env = Waveform(grid=g, samples=np.ones(1000), unit="V")
        with pytest.raises(ValidationError):
            mix_envelope(env, 3.0e9, IDEAL)  # 3.3 samples per cycle

    def test_complex_envelope_rejected(self):
        env = Waveform(grid=self.GRID, samples=np.full(10000, 1j), unit="V")
        with pytest.raises(ValidationError):
            mix_envelope(env, 1.5e9, IDEAL)

    def test_positive_leak_rejected(self):
        with pytest.raises(ValidationError):
            MixerParams(lo_leak_db=3.0)
