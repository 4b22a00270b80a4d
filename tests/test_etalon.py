import json
import warnings

import numpy as np
import pytest

from pulsechain import (EtalonParams, EtalonStack, LeakageWarning, TimeGrid,
                        ValidationError, Waveform, airy_transmission,
                        carrier_leak, filter_pulse, finesse, fit_exponential,
                        fwhm_hz, photon_lifetime, stack_extinction_db,
                        stack_transmission, stage_diagnostics,
                        temperature_to_frequency, with_thermal_jitter)

GRID = TimeGrid(0.0, 0.1e-9, 10000)

# frozen oracle values for R = 0.95, FSR = 17 GHz (bisection / closed forms)
FWHM_REF = 277622641.3627104        # Hz
LEAK_REF = 0.008708148226872287     # power leak at 1.5 GHz offset
EXTINCTION3_REF = 61.80222561504856  # dB, three stages


def rect_pulse(t_on, t_off, grid=GRID):
    t = grid.times()
    return Waveform(grid=grid,
                    samples=((t >= t_on) & (t <= t_off)).astype(float),
                    unit="sqrtW")


def rising_cut_pulse(tau, t_on, t_cut, grid=GRID):
    t = grid.times()
    x = np.where((t >= t_on) & (t <= t_cut), np.exp((t - t_cut) / tau), 0.0)
    return Waveform(grid=grid, samples=x, unit="sqrtW")


class TestAiry:
    def test_resonance_unity(self):
        e = EtalonParams()
        assert abs(airy_transmission(0.0, e)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_fwhm_matches_numeric_halfpower(self):
        e = EtalonParams()
        # independent oracle: bisection on |t|^2 = 1/2
        lo, hi = 1e6, e.fsr_hz / 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if abs(airy_transmission(mid, e)) ** 2 > 0.5:
                lo = mid
            else:
                hi = mid
        assert fwhm_hz(e) == pytest.approx(2 * lo, rel=1e-9)
        assert fwhm_hz(e) == pytest.approx(FWHM_REF, rel=1e-12)
        assert 265e6 <= fwhm_hz(e) <= 285e6

    def test_finesse_near_textbook_formula(self):
        e = EtalonParams()
        assert finesse(e) == pytest.approx(np.pi * np.sqrt(0.95) / 0.05,
                                           rel=2e-4)

    def test_carrier_leak_at_1p5ghz(self):
        leak = carrier_leak(EtalonParams(), 1.5e9)
        assert leak == pytest.approx(LEAK_REF, rel=1e-12)
        assert 0.007 <= leak <= 0.010

    def test_magnitude_periodic_in_fsr(self):
        e = EtalonParams()
        f = np.linspace(-8e9, 8e9, 401)
        t1 = np.abs(airy_transmission(f, e))
        t2 = np.abs(airy_transmission(f + e.fsr_hz, e))
        assert np.max(np.abs(t1 - t2)) < 1e-12

    def test_magnitude_bounded_by_one(self):
        e = EtalonParams()
        f = np.linspace(-40e9, 40e9, 20001)
        assert np.max(np.abs(airy_transmission(f, e))) <= 1.0 + 1e-12

    def test_detuning_shifts_peak(self):
        e = EtalonParams(detuning_hz=200e6)
        assert abs(airy_transmission(-200e6, e)) ** 2 == pytest.approx(1.0,
                                                                       abs=1e-12)
        assert abs(airy_transmission(0.0, e)) ** 2 < 0.7

    def test_loss_reduces_peak(self):
        e = EtalonParams(loss=0.01)
        assert abs(airy_transmission(0.0, e)) ** 2 < 1.0

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            EtalonParams(reflectivity=1.0)
        with pytest.raises(ValidationError):
            EtalonParams(loss=1.0)
        with pytest.raises(ValidationError):
            EtalonStack(stages=())


class TestStack:
    def test_single_stage_resonance_unity(self):
        s = EtalonStack(stages=(EtalonParams(),))
        assert abs(stack_transmission(0.0, s)) == pytest.approx(1.0, abs=1e-12)

    def test_three_stage_resonance_unity(self):
        s = EtalonStack.identical(3)
        assert abs(stack_transmission(0.0, s)) == pytest.approx(1.0, abs=1e-12)

    def test_extinction_adds_in_db(self):
        one = EtalonStack(stages=(EtalonParams(),))
        three = EtalonStack.identical(3)
        db1 = stack_extinction_db(one, 1.5e9)
        db3 = stack_extinction_db(three, 1.5e9)
        assert abs(db3 - 3 * db1) < 0.1
        assert db3 >= 60.0
        assert db3 == pytest.approx(EXTINCTION3_REF, rel=1e-9)

    def test_extinction_budget_arithmetic(self):
        # even a slightly better 0.77% per-stage leak gives
        # 0.77%^3 ~ 4.6e-7 ~ 63 dB, comfortably past the 60 dB target
        assert -10 * np.log10(0.0077 ** 3) == pytest.approx(63.4, abs=0.1)

    @pytest.mark.parametrize("e", [EtalonParams(reflectivity=0.1),
                                   EtalonParams(loss=0.999999)])
    def test_line_width_undefined_below_contrast_two(self, e):
        # R(1-loss) < 3-2*sqrt(2): |t|^2 never falls to half its peak
        t2 = np.abs(airy_transmission(np.linspace(0, e.fsr_hz, 1001), e)) ** 2
        assert t2.min() > 0.5 * t2.max()
        with pytest.raises(ValidationError, match="undefined"):
            finesse(e)
        with pytest.raises(ValidationError, match="undefined"):
            fwhm_hz(e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = stage_diagnostics(EtalonStack.identical(3, e), 1.5e9)
        for stage in d["per_stage"]:
            assert stage["fwhm_hz"] is None and stage["finesse"] is None
            assert "3-2*sqrt(2)" in stage["fwhm_error"]
            assert np.isfinite(stage["carrier_leak_db"])
        json.dumps(d, allow_nan=False)

    def test_line_width_defined_at_contrast_two(self):
        # exactly at the boundary the half-power points meet at +-FSR/2
        e = EtalonParams(reflectivity=3 - 2 * np.sqrt(2) + 1e-12)
        assert finesse(e) == pytest.approx(1.0, rel=1e-5)

    def test_diagnostics_shape(self):
        d = stage_diagnostics(EtalonStack.identical(3), 1.5e9)
        assert len(d["per_stage"]) == 3
        assert d["cascade_extinction_db"] == pytest.approx(EXTINCTION3_REF,
                                                           rel=1e-9)


class TestFilterPulse:
    def test_cw_at_peak_unchanged(self):
        w = Waveform(grid=GRID, samples=np.ones(GRID.n_samples), unit="sqrtW")
        out = filter_pulse(w, EtalonStack.identical(3))
        assert np.max(np.abs(out.samples - 1.0)) < 1e-9

    def test_rectangular_pulse_ringdown(self):
        # trailing amplitude decay constant ~ photon lifetime -1/(FSR ln R)
        out = filter_pulse(rect_pulse(100e-9, 300e-9),
                           EtalonStack(stages=(EtalonParams(),)))
        r = fit_exponential(out, (300.3e-9, 305e-9), "falling")
        assert r.tau == pytest.approx(photon_lifetime(EtalonParams()), rel=0.1)

    def test_rise_preserved_fall_slower(self):
        tau = 17.4e-9
        pulse = rising_cut_pulse(tau, 100e-9, 187e-9)
        out = filter_pulse(pulse, EtalonStack.identical(3))
        rise = fit_exponential(out, (147e-9, 185e-9), "rising")
        assert rise.tau == pytest.approx(tau, rel=0.03)
        # input drops within one sample; output must fall over many
        m = np.abs(out.samples)
        k = int(np.argmax(m))
        fall = fit_exponential(out, (GRID.times()[k] + 0.5e-9,
                                     GRID.times()[k] + 6e-9), "falling")
        assert fall.tau > GRID.dt
        assert fall.tau >= 0.95 * photon_lifetime(EtalonParams())

    def test_energy_never_grows(self):
        rng = np.random.default_rng(8)
        t = GRID.times()
        env = np.exp(-((t - 500e-9) / 50e-9) ** 2) * np.exp(
            2j * np.pi * rng.uniform(-2e9, 2e9) * t)
        w = Waveform(grid=GRID, samples=env, unit="sqrtW")
        out = filter_pulse(w, EtalonStack.identical(3))
        assert out.norm2() <= w.norm2() * (1 + 1e-12)

    def test_fwhm_sweep_monotone_ringdown(self):
        # wider line -> faster post-cutoff decay, over a 5-point sweep
        pulse = rising_cut_pulse(17.4e-9, 100e-9, 187e-9)
        taus = []
        for scale in (0.6, 0.8, 1.0, 1.3, 1.7):
            st = EtalonStack.identical(3, EtalonParams(fsr_hz=17e9 * scale))
            out = filter_pulse(pulse, st)
            m = np.abs(out.samples)
            k = int(np.argmax(m))
            ring = photon_lifetime(st.stages[0])
            r = fit_exponential(out, (GRID.times()[k] + 0.5 * ring,
                                      GRID.times()[k] + 8 * ring), "falling")
            taus.append(r.tau)
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_leakage_warning(self):
        # wideband input vs a 4 GHz FSR: energy beyond +-FSR/2 must warn
        rng = np.random.default_rng(3)
        w = Waveform(grid=GRID, samples=rng.standard_normal(GRID.n_samples),
                     unit="sqrtW")
        narrow = EtalonStack(stages=(EtalonParams(fsr_hz=4e9),))
        with pytest.warns(LeakageWarning):
            filter_pulse(w, narrow)


class TestTemperature:
    def test_one_fsr_per_tuning_step(self):
        e = EtalonParams()
        assert temperature_to_frequency(7.4, e) == pytest.approx(17e9,
                                                                 rel=1e-12)

    def test_5mk_frequency_uncertainty(self):
        shift = temperature_to_frequency(5e-3, EtalonParams())
        assert abs(shift - 11.5e6) <= 0.1e6

    def test_zero(self):
        assert temperature_to_frequency(0.0, EtalonParams()) == 0.0

    def test_thermal_jitter_draw_is_seeded(self):
        s = EtalonStack.identical(3)
        a = with_thermal_jitter(s, np.random.default_rng(42))
        b = with_thermal_jitter(s, np.random.default_rng(42))
        c = with_thermal_jitter(s, np.random.default_rng(43))
        assert [e.detuning_hz for e in a.stages] == \
               [e.detuning_hz for e in b.stages]
        assert [e.detuning_hz for e in a.stages] != \
               [e.detuning_hz for e in c.stages]
        sigma = temperature_to_frequency(EtalonParams().temp_jitter_k,
                                         EtalonParams())
        assert all(abs(e.detuning_hz) < 6 * sigma for e in a.stages)
