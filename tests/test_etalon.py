import json
import warnings

import numpy as np
import pytest

from pulsechain import (EtalonParams, EtalonStack, LeakageWarning, TimeGrid,
                        ValidationError, Waveform, airy_transmission,
                        carrier_leak, filter_pulse, finesse, fit_exponential,
                        fwhm_hz, parse_config, photon_lifetime,
                        stack_extinction_db, stack_transmission,
                        stage_diagnostics, temperature_to_frequency,
                        with_thermal_jitter)
from pulsechain.eom import sideband_window
from pulsechain import pipeline
from pulsechain.etalon import _BINS, _leak_fraction, _phasor
from pulsechain.waveform import to_spectrum
from spectral_oracle import filter_spectrum

import golden_cases

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


def airy_reference(f_offset, e):
    # one stage, one complex exponential and one division
    f = np.asarray(f_offset, dtype=float)
    delta = 2.0 * np.pi * (f + e.detuning_hz) / e.fsr_hz
    r = e.reflectivity
    half = np.exp(-0.5j * delta)
    return (1.0 - r) * half / (1.0 - r * (1.0 - e.loss) * (half * half))


def stack_transmission_reference(f_offset, s):
    # the per-stage product of the single-stage formula
    t = np.ones_like(np.asarray(f_offset, dtype=float), dtype=np.complex128)
    for e in s.stages:
        t = t * airy_reference(f_offset, e)
    return t


# the spectral support of the default grid: +-5 GHz in 1 MHz bins
GRID_FREQS = np.fft.fftfreq(GRID.n_samples, GRID.dt)
STACKS = {
    "identical": EtalonStack.identical(3),
    "jittered": with_thermal_jitter(EtalonStack.identical(3),
                                    np.random.default_rng(7)),
    "lossy": EtalonStack(stages=(
        EtalonParams(reflectivity=0.9, loss=0.02, detuning_hz=40e6),
        EtalonParams(),
        EtalonParams(reflectivity=0.99, loss=0.005, detuning_hz=-3e6))),
    "mixed_fsr": with_thermal_jitter(
        parse_config("[etalon]\nstage2_fsr_ghz = 12\n"
                     "stage3_fsr_ghz = 23.5\n").etalon,
        np.random.default_rng(3)),
    "mixed_fsr_shared": EtalonStack(stages=(
        EtalonParams(fsr_hz=17e9), EtalonParams(fsr_hz=9e9),
        EtalonParams(fsr_hz=17e9, detuning_hz=2e6))),
}


class TestStackOracle:
    @pytest.mark.parametrize("e", list(STACKS["lossy"].stages))
    def test_single_stage_matches_formula(self, e):
        ref = airy_reference(GRID_FREQS, e)
        got = airy_transmission(GRID_FREQS, e)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert isinstance(airy_transmission(1.5e9, e), complex)

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_matches_per_stage_product(self, name):
        s = STACKS[name]
        ref = stack_transmission_reference(GRID_FREQS, s)
        got = stack_transmission(GRID_FREQS, s)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_scalar_input(self, name):
        s = STACKS[name]
        for f in (0.0, 1.5e9, -4.2e9):
            got = stack_transmission(f, s)
            assert isinstance(got, complex)
            assert abs(got - complex(stack_transmission_reference(f, s))) \
                <= 1e-13

    @pytest.mark.parametrize("n", [1000, _BINS - 1, _BINS, _BINS + 1])
    @pytest.mark.parametrize("name", sorted(STACKS) + ["forty_stages"])
    def test_slices_are_bit_equal(self, n, name):
        # a bin's gain must not depend on the length of the array it is
        # computed in (filter_pulse builds it in blocks of _BINS)
        s = STACKS.get(name) or with_thermal_jitter(
            EtalonStack.identical(40), np.random.default_rng(5))
        f = np.fft.fftfreq(3 * _BINS + 7, GRID.dt)
        whole = stack_transmission(f, s)
        for lo in range(0, len(f), n):
            part = stack_transmission(f[lo:lo + n], s)
            assert np.array_equal(part.view(np.int64),
                                  whole[lo:lo + n].view(np.int64)), lo

    def test_400_stages_finite(self):
        # 25 blocks of 16; a single division over all 400 stages would
        # underflow both products to 0 and give 0/0
        s = EtalonStack.identical(400)
        ref = stack_transmission_reference(GRID_FREQS, s)
        got = stack_transmission(GRID_FREQS, s)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert abs(got[0]) == pytest.approx(1.0, abs=1e-12)

    def test_400_stages_at_highest_reflectivity_finite(self):
        # 1 - R = 2^-52: a block's numerator and denominator products reach
        # 2^-832 at resonance; more than 20 stages per block would underflow
        # them to 0 and give 0/0
        s = EtalonStack.identical(400, EtalonParams(reflectivity=1 - 2**-52))
        got = stack_transmission(GRID_FREQS, s)
        assert np.all(np.isfinite(got))
        assert got[0] == 1.0
        assert np.all(got[1:] == 0.0)  # off resonance the product underflows


def filter_pulse_reference(field, s, pre_gain=None):
    """The one-pass filter_pulse: the whole gain at once, then the leak
    check over the whole spectrum.  Returns the waveform and the warning
    text (None when nothing is emitted)."""
    spec = to_spectrum(field)
    f = spec.frequencies()
    h = stack_transmission(f, s)
    pre = 1.0 if pre_gain is None else pre_gain(f)
    power = np.abs(pre * spec.amplitudes) ** 2
    note = None
    if power.sum() > 0:
        near = np.abs(f) <= s.min_fsr_hz / 2.0
        peak_f = f[near][int(np.argmax(np.abs(h[near])))]
        inside = np.abs(f - peak_f) <= s.min_fsr_hz / 2.0
        frac = float(power[~inside].sum() / power.sum())
        if frac > 0.01:
            note = (f"{frac:.1%} of pulse energy lies beyond +-FSR/2 of the "
                    f"cascade transmission peak")
    return filter_spectrum(spec, pre * h, field.grid, field.unit), note


class TestBlockedGainOracle:
    """filter_pulse builds its gain in blocks of _BINS bins; it must agree
    with the whole-spectrum pass across block boundaries."""

    @pytest.mark.parametrize("n", [1000, _BINS - 1, _BINS, _BINS + 1,
                                   3 * _BINS + 7])
    @pytest.mark.parametrize("stack, pre", [
        (EtalonStack.identical(3), sideband_window(1.5e9)),
        (EtalonStack.identical(3), None),
        # a 4 GHz FSR below the 10 GHz grid bandwidth leaks; detuned by
        # 1.3 GHz, its peak sits at a negative offset, in the last blocks
        (EtalonStack(stages=(EtalonParams(fsr_hz=4e9, detuning_hz=1.3e9),
                             EtalonParams(fsr_hz=6e9))), None),
        (with_thermal_jitter(EtalonStack.identical(
            2, EtalonParams(fsr_hz=3e9)), np.random.default_rng(4)),
         sideband_window(1e9)),
        # a 12 GHz FSR spans the grid's 10 GHz, but detuned by +-4 GHz its
        # +-6 GHz band about the peak misses one end of the grid only
        (EtalonStack(stages=(EtalonParams(fsr_hz=12e9, detuning_hz=4e9),)),
         None),
        (EtalonStack(stages=(EtalonParams(fsr_hz=12e9, detuning_hz=-4e9),)),
         None),
    ])
    def test_matches_whole_spectrum_pass(self, n, stack, pre):
        grid = TimeGrid(0.0, 0.1e-9, n)
        rng = np.random.default_rng(n)
        t = grid.times()
        x = np.where(t < 0.6 * t[-1], np.exp((t - 0.6 * t[-1]) / 17e-9), 0.0) \
            + 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        w = Waveform(grid=grid, samples=x, unit="sqrtW")
        ref, note = filter_pulse_reference(w, stack, pre)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = filter_pulse(w, stack, pre_gain=pre)
        notes = [str(c.message) for c in caught
                 if issubclass(c.category, LeakageWarning)]
        assert notes == ([note] if note else [])
        peak = np.max(np.abs(ref.samples))
        assert np.max(np.abs(got.samples - ref.samples)) <= 1e-14 * peak
        assert got.unit == "sqrtW" and got.grid == grid

    def test_leak_case_warns(self):
        # the detuned 4 GHz case above is a leak case, so the text is pinned
        grid = TimeGrid(0.0, 0.1e-9, 3 * _BINS + 7)
        w = Waveform(grid=grid, samples=np.random.default_rng(1)
                     .standard_normal(grid.n_samples))
        stack = EtalonStack(stages=(EtalonParams(fsr_hz=4e9,
                                                 detuning_hz=1.3e9),))
        assert filter_pulse_reference(w, stack)[1] is not None

    def test_non_finite_gain_rejected(self):
        w = rect_pulse(100e-9, 300e-9)
        with pytest.raises(ValidationError, match="not finite"):
            filter_pulse(w, EtalonStack.identical(3),
                         pre_gain=lambda f: np.where(f < -4e9, np.nan, 1.0))


def reference_outside(f, h, power, min_fsr_hz):
    """filter_pulse_reference's leak accounting: the peak bin and the
    fraction of the power outside its mask."""
    near = np.flatnonzero(np.abs(f) <= min_fsr_hz / 2.0)
    i_peak = near[int(np.argmax(np.abs(h[near])))]
    inside = np.abs(f - f[i_peak]) <= min_fsr_hz / 2.0
    return i_peak, float(power[~inside].sum() / power.sum())


class TestLeakAccounting:
    """The outside fraction summed block by block, against the whole mask;
    a power of order one in every bin makes a bin moved across the mask
    edge show as 1/n."""

    @pytest.mark.parametrize("n", [1000, 1001, 3 * _BINS + 7, 3 * _BINS + 8])
    @pytest.mark.parametrize("stack", [
        # detuned by 1.3 GHz: the peak sits at a negative offset, in the
        # last block
        EtalonStack(stages=(EtalonParams(fsr_hz=4e9, detuning_hz=1.3e9),)),
        # the peak at 0: the inside crosses the FFT wrap from bin n-1 to 0
        EtalonStack(stages=(EtalonParams(fsr_hz=4e9),)),
        EtalonStack(stages=(EtalonParams(fsr_hz=3e9, detuning_hz=-0.4e9),
                            EtalonParams(fsr_hz=5e9))),
    ], ids=["negative_peak", "across_wrap", "positive_peak"])
    def test_matches_the_mask(self, n, stack):
        f = np.fft.fftfreq(n, GRID.dt)
        h = stack_transmission(f, stack)
        amps = np.sqrt(np.random.default_rng(n).random(n) + 0.5) + 0j
        power = np.abs(amps) ** 2
        i_peak, ref = reference_outside(f, h, power, stack.min_fsr_hz)
        got = _leak_fraction(amps, TimeGrid(0.0, GRID.dt, n), None, f[i_peak],
                             stack.min_fsr_hz / 2.0)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)
        assert 0.0 < ref < 1.0

    def test_fsr_100_mhz_default_run(self):
        # [etalon] fsr_ghz = 0.1 on the default run's sideband: 4.4% leaks
        cfg = parse_config("[etalon]\nfsr_ghz = 0.1\n")
        fe = pipeline._front_end(cfg.circuit, cfg.gate, cfg.grid, cfg.dds,
                                 cfg.bandpass, cfg.mixer, cfg.eom, False)
        n = cfg.grid.n_samples
        f = np.fft.fftfreq(n, cfg.grid.dt)
        window = sideband_window(fe.f_s)
        power = np.abs(window(f) * fe.sideband) ** 2
        h = stack_transmission(f, cfg.etalon)
        i_peak, ref = reference_outside(f, h, power, cfg.etalon.min_fsr_hz)
        got = _leak_fraction(fe.sideband, cfg.grid, window, f[i_peak],
                             cfg.etalon.min_fsr_hz / 2.0)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)
        assert f"{got:.1%}" == "4.4%"

    def test_total_of_zero(self):
        grid = TimeGrid(0.0, 1e-10, 1001)
        assert _leak_fraction(np.zeros(1001, complex), grid, None, 3e7,
                              2e9) == 0.0


@pytest.mark.skipif(
    np.__version__ != golden_cases.load()[1]["numpy_version"],
    reason="sin, cos and exp last bits depend on the numpy build; pinned "
           "under the numpy version that wrote tests/golden/")
@pytest.mark.parametrize("fsr_hz", [17e9, 0.1e9])
def test_phasor_is_the_exponential(fsr_hz):
    # the 1e6-bin grid at the default step: phases up to 0.92 rad at 17 GHz
    # and 157 rad at 0.1 GHz
    f = np.fft.fftfreq(1_000_000, GRID.dt)
    ref = np.exp(-1j * np.pi / fsr_hz * f)
    assert _phasor(f, fsr_hz).tobytes() == ref.tobytes()
