import tracemalloc

import numpy as np
import pytest

from pulsechain import (FitError, Spectrum, TimeGrid, ValidationError,
                        Waveform, analytic_envelope, fit_exponential,
                        from_spectrum, one_pole_lowpass, read_trace,
                        to_spectrum, write_trace)
from pulsechain import waveform
from pulsechain.waveform import _TRACE_CHUNK, _filter_real, write_traces
from spectral_oracle import apply_transfer


def wave(samples, dt=0.1e-9, t_start=0.0, unit=""):
    return Waveform(grid=TimeGrid(t_start, dt, len(samples)),
                    samples=np.asarray(samples), unit=unit)


class TestGridAndContainers:
    def test_grid_span(self):
        g = TimeGrid(0.0, 0.1e-9, 10000)
        assert g.span == pytest.approx(999.9e-9, rel=1e-12)
        assert g.times()[0] == 0.0 and len(g.times()) == 10000

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, -1e-9, 100)
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1e-9, 1)

    def test_waveform_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            wave([1.0, np.nan, 2.0])
        with pytest.raises(ValidationError):
            wave([1.0, np.inf, 2.0])

    def test_waveform_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            Waveform(grid=TimeGrid(0.0, 1e-9, 5), samples=np.ones(4))

    def test_samples_are_readonly(self):
        w = wave(np.ones(8))
        with pytest.raises(ValueError):
            w.samples[0] = 2.0
        with pytest.raises(ValueError):
            wave(np.ones(8) + 1j).samples[0] = 2.0


def frozen(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


# the array each container keeps for a given input
STORES = [lambda s: Waveform(TimeGrid(0.0, 1e-9, len(s)), s).samples,
          lambda s: Spectrum(1e6, s).amplitudes]


class TestOwnership:
    """A container keeps, without copying, only an array that is read-only,
    owns its memory and has the storage dtype; anything else is copied."""

    @pytest.mark.parametrize("make", STORES, ids=["waveform", "spectrum"])
    def test_writeable_array_is_copied(self, make):
        for x in (np.arange(8.0), np.arange(8.0) + 1j):
            kept = make(x)
            before = kept.copy()
            x[:] = 7.0
            assert kept is not x and np.array_equal(kept, before)
            assert not kept.flags.writeable

    @pytest.mark.parametrize("make", STORES, ids=["waveform", "spectrum"])
    def test_storage_dtype_follows_the_signal(self, make):
        for x, dtype in ((np.arange(8), np.float64), ([1.0] * 8, np.float64),
                         (np.ones(8, np.float32), np.float64),
                         (np.ones(8) + 0j, np.complex128),
                         (np.ones(8, np.complex64), np.complex128)):
            assert make(x).dtype == dtype

    @pytest.mark.parametrize("make", STORES, ids=["waveform", "spectrum"])
    def test_adopts_readonly_owned_array(self, make):
        for x in (frozen(np.arange(8.0)), frozen(np.arange(8.0) - 1j)):
            assert make(x) is x
        view = frozen(np.arange(16.0))[::2]          # does not own its memory
        assert make(view) is not view
        base = np.arange(8.0)                        # a writeable base
        alias = base[:]
        alias.flags.writeable = False
        kept = make(alias)
        base[0] = 5.0
        assert kept is not alias and kept[0] == 0.0
        wrong = frozen(np.arange(8, dtype=np.float32))
        assert make(wrong) is not wrong

    def test_adopt_path_keeps_checks(self):
        g = TimeGrid(0.0, 1e-9, 8)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                Waveform(g, frozen([1.0] * 7 + [bad]))
            with pytest.raises(ValidationError, match="finite"):
                Spectrum(1e6, frozen([1.0 + 0j] * 7 + [bad]))
        with pytest.raises(ValidationError, match="does not match grid"):
            Waveform(g, frozen(np.ones(7)))
        with pytest.raises(ValidationError, match="at least 2 bins"):
            Spectrum(1e6, frozen(np.ones(1)))

    def test_is_real(self):
        assert wave(np.arange(4.0)).is_real()
        assert wave(np.arange(4.0) + 0j).is_real()
        assert not wave(np.arange(4.0) + 1j).is_real()


class TestTransforms:
    def test_dc_waveform_single_bin(self):
        w = wave(np.ones(8))
        s = to_spectrum(w)
        f = s.frequencies()
        k0 = np.argmin(np.abs(f))
        assert s.amplitudes[k0] == pytest.approx(np.sqrt(8), rel=1e-12)
        others = np.delete(np.abs(s.amplitudes), k0)
        assert np.max(others) < 1e-12

    def test_pure_tone_single_bin(self):
        g = TimeGrid(0.0, 0.1e-9, 64)
        df = 1.0 / (64 * g.dt)
        f1 = 5 * df
        w = Waveform(grid=g, samples=np.exp(2j * np.pi * f1 * g.times()))
        s = to_spectrum(w)
        k = np.argmin(np.abs(s.frequencies() - f1))
        assert abs(s.amplitudes[k]) == pytest.approx(np.sqrt(64), rel=1e-12)
        others = np.delete(np.abs(s.amplitudes), k)
        assert np.max(others) < 1e-9 * np.sqrt(64)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        w = wave(x)
        back = from_spectrum(to_spectrum(w), t_start=w.grid.t_start)
        assert np.max(np.abs(back.samples - w.samples)) <= 1e-12 * np.max(np.abs(x))
        assert back.grid.dt == pytest.approx(w.grid.dt, rel=1e-12)

    def test_rising_exponential_roundtrip(self):
        g = TimeGrid(0.0, 0.1e-9, 1000)
        x = np.exp(g.times() / 27e-9)
        w = Waveform(grid=g, samples=x)
        back = from_spectrum(to_spectrum(w))
        assert np.max(np.abs(back.samples - x)) <= 1e-12 * x.max()

    def test_single_bin_to_constant(self):
        w = wave(np.ones(16))
        s = to_spectrum(w)
        back = from_spectrum(s)
        assert np.allclose(back.samples, 1.0, atol=1e-13)

    def test_zero_spectrum_to_zero_waveform(self):
        s = to_spectrum(wave(np.zeros(32)))
        assert np.all(from_spectrum(s).samples == 0.0)

    def test_parseval_and_roundtrip_randomized(self):
        # 1000 randomized cases at the guaranteed tolerances
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(16, 129))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = wave(x, dt=float(rng.uniform(0.01e-9, 1e-9)))
            s = to_spectrum(w)
            assert abs(s.norm2() - w.norm2()) <= 1e-10 * w.norm2()
            back = from_spectrum(s)
            assert np.max(np.abs(back.samples - x)) <= 1e-12 * np.max(np.abs(x))

    def test_transform_rejects_nonfinite(self):
        w = wave(np.ones(8))
        object.__setattr__(w, "samples", np.array([np.nan] * 8, dtype=complex))
        with pytest.raises(ValidationError):
            to_spectrum(w)


class TestApplyTransfer:
    """The tests' complex-path reference filter (``spectral_oracle``)."""

    def test_identity(self):
        rng = np.random.default_rng(3)
        w = wave(rng.standard_normal(128))
        out = apply_transfer(w, lambda f: 1.0)
        assert np.max(np.abs(out.samples - w.samples)) < 1e-12

    def test_zero(self):
        w = wave(np.ones(64))
        out = apply_transfer(w, lambda f: 0.0)
        assert np.max(np.abs(out.samples)) == 0.0

    def test_rejects_nonfinite_response(self):
        w = wave(np.ones(64))
        with pytest.raises(ValidationError):
            apply_transfer(w, lambda f: np.where(f == 0, np.inf, 1.0))

    def test_one_pole_step_rise_time(self):
        # 10-90% rise of a first-order low-pass step response is
        # ln(9)/(2 pi f_c) = 0.3497/f_c
        g = TimeGrid(0.0, 0.1e-9, 10000)
        t = g.times()
        f_c = 50e6
        step = Waveform(grid=g, samples=(t >= 300e-9).astype(float))
        out = apply_transfer(step, one_pole_lowpass(f_c)).samples.real
        k0 = g.index_at(300e-9)  # search after the edge (FFT is circular)

        def crossing(level):
            i = k0 + np.nonzero(out[k0:] >= level)[0][0]
            frac = (level - out[i - 1]) / (out[i] - out[i - 1])
            return t[i - 1] + frac * g.dt

        rise = crossing(0.9) - crossing(0.1)
        assert rise == pytest.approx(0.35 / f_c, rel=0.05)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        w1 = wave(rng.standard_normal(256) + 1j * rng.standard_normal(256))
        w2 = wave(rng.standard_normal(256) + 1j * rng.standard_normal(256))
        h = one_pole_lowpass(200e6)
        a, b = 1.7, -0.4 + 0.2j
        combo = wave(a * w1.samples + b * w2.samples)
        lhs = apply_transfer(combo, h).samples
        rhs = a * apply_transfer(w1, h).samples + b * apply_transfer(w2, h).samples
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))

    def test_composition(self):
        rng = np.random.default_rng(12)
        w = wave(rng.standard_normal(512))
        h1 = one_pole_lowpass(100e6)
        h2 = one_pole_lowpass(300e6)
        seq = apply_transfer(apply_transfer(w, h1), h2).samples
        prod = apply_transfer(w, lambda f: h1(f) * h2(f)).samples
        assert np.max(np.abs(seq - prod)) <= 1e-10 * np.max(np.abs(prod))


class TestFilterReal:
    """The package's one filter of real signals."""

    def test_identity_gives_a_new_readonly_copy(self):
        x = np.random.default_rng(3).standard_normal(128)
        out = _filter_real(x, 0.1e-9, lambda f: 1.0)
        assert out.dtype == np.float64 and not out.flags.writeable
        assert not np.shares_memory(out, x)
        assert np.max(np.abs(out - x)) < 1e-12

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_matches_complex_path(self, n):
        # H(-f) = conj H(f): the real pair equals the full complex transform
        x = np.random.default_rng(n).standard_normal(n)
        h = one_pole_lowpass(300e6)
        ref = apply_transfer(wave(x), h).samples.real
        out = _filter_real(x, 0.1e-9, h)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_one_pole_step_rise_time(self):
        # 10-90% rise of a first-order low-pass step response is
        # ln(9)/(2 pi f_c) = 0.3497/f_c
        g = TimeGrid(0.0, 0.1e-9, 10000)
        t = g.times()
        f_c = 50e6
        out = _filter_real((t >= 300e-9).astype(float), g.dt,
                           one_pole_lowpass(f_c))
        k0 = g.index_at(300e-9)  # search after the edge (FFT is circular)

        def crossing(level):
            i = k0 + np.nonzero(out[k0:] >= level)[0][0]
            frac = (level - out[i - 1]) / (out[i] - out[i - 1])
            return t[i - 1] + frac * g.dt

        rise = crossing(0.9) - crossing(0.1)
        assert rise == pytest.approx(0.35 / f_c, rel=0.05)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x1, x2 = rng.standard_normal(256), rng.standard_normal(256)
        h = one_pole_lowpass(200e6)
        a, b = 1.7, -0.4
        lhs = _filter_real(a * x1 + b * x2, 0.1e-9, h)
        rhs = a * _filter_real(x1, 0.1e-9, h) + b * _filter_real(x2, 0.1e-9, h)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))

    def test_composition(self):
        # odd length: at even length the Nyquist bin is real, so each pass
        # takes Re H(f_N) there and Re(H1) Re(H2) != Re(H1 H2)
        x = np.random.default_rng(12).standard_normal(511)
        h1 = one_pole_lowpass(100e6)
        h2 = one_pole_lowpass(300e6)
        seq = _filter_real(_filter_real(x, 0.1e-9, h1), 0.1e-9, h2)
        prod = _filter_real(x, 0.1e-9, lambda f: h1(f) * h2(f))
        assert np.max(np.abs(seq - prod)) <= 1e-10 * np.max(np.abs(prod))


class TestFitExponential:
    def test_exact_rising_27ns(self):
        g = TimeGrid(0.0, 0.1e-9, 801)
        w = Waveform(grid=g, samples=np.exp(g.times() / 27e-9))
        r = fit_exponential(w, (0.0, 80e-9), "rising")
        assert r.tau == pytest.approx(27e-9, rel=1e-3)
        assert r.residual_norm < 1e-9

    def test_power_halves_time_constant(self):
        # squaring an exponential halves tau ("factor of 2 exactly")
        g = TimeGrid(0.0, 0.1e-9, 801)
        amp = np.exp(g.times() / 27e-9)
        r = fit_exponential(Waveform(grid=g, samples=amp ** 2), (0.0, 80e-9),
                            "rising")
        assert r.tau == pytest.approx(13.5e-9, rel=1e-3)

    @pytest.mark.parametrize("tau", [5e-9, 10e-9, 27e-9, 54e-9, 100e-9, 150e-9])
    @pytest.mark.parametrize("direction", ["rising", "falling"])
    def test_noiseless_tau_recovery(self, tau, direction):
        g = TimeGrid(0.0, 0.1e-9, 6001)
        sign = 1.0 if direction == "rising" else -1.0
        x = 2.5 * np.exp(sign * g.times() / tau) + 0.3
        # window scaled to tau: a flat underflowed tail is rightly rejected
        window = (0.0, min(24 * tau, 600e-9))
        r = fit_exponential(Waveform(grid=g, samples=x), window, direction)
        assert r.tau == pytest.approx(tau, rel=1e-3)
        assert r.amplitude == pytest.approx(2.5, rel=1e-6)
        assert r.offset == pytest.approx(0.3, abs=1e-6)

    def test_noise_monte_carlo(self):
        # 1% additive white noise, 100 seeded trials, tau within 2% each
        g = TimeGrid(0.0, 0.1e-9, 1001)
        clean = np.exp(g.times() / 27e-9)
        rng = np.random.default_rng(12345)
        for _ in range(100):
            y = clean + 0.01 * clean.max() * rng.standard_normal(len(clean))
            r = fit_exponential(Waveform(grid=g, samples=np.abs(y)),
                                (0.0, 100e-9), "rising")
            assert abs(r.tau - 27e-9) <= 0.02 * 27e-9

    def test_deterministic(self):
        g = TimeGrid(0.0, 0.1e-9, 1001)
        rng = np.random.default_rng(5)
        y = np.abs(np.exp(g.times() / 27e-9)
                   + 0.01 * rng.standard_normal(1001) * np.exp(100e-9 / 27e-9))
        w = Waveform(grid=g, samples=y)
        r1 = fit_exponential(w, (0.0, 100e-9), "rising")
        r2 = fit_exponential(w, (0.0, 100e-9), "rising")
        assert r1 == r2

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_tiny_amplitudes(self, scale):
        # the weights are z^2: at 1e-160 and below they underflowed to 0
        g = TimeGrid(0.0, 0.1e-9, 801)
        w = Waveform(grid=g, samples=scale * np.exp(g.times() / 27e-9))
        r = fit_exponential(w, (0.0, 80e-9), "rising")
        assert r.tau == pytest.approx(27e-9, rel=1e-9)
        assert r.amplitude == pytest.approx(scale, rel=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
    def test_fit_is_scale_free(self, scale):
        # at 1e300 the offset estimate's third sums once overflowed, and at
        # 1e-300 the residual norm underflowed to 0; a small ripple keeps
        # the fit from being exact, so its residual is a number to compare
        g = TimeGrid(0.0, 0.1e-9, 801)
        t = g.times()
        x = np.exp(t / 27e-9) * (1.0 + 1e-3 * np.sin(2 * np.pi * t / 20e-9))
        ref = fit_exponential(Waveform(grid=g, samples=x), (0.0, 80e-9),
                              "rising")
        r = fit_exponential(Waveform(grid=g, samples=scale * x), (0.0, 80e-9),
                            "rising")
        assert r.tau == pytest.approx(ref.tau, rel=1e-14)
        assert r.tau == pytest.approx(27e-9, rel=2e-3)
        assert r.amplitude == pytest.approx(scale * ref.amplitude, rel=1e-14)
        assert r.residual_norm == pytest.approx(ref.residual_norm, rel=1e-12)
        assert r.residual_norm > 0

    def test_rejects_nonmonotone(self):
        g = TimeGrid(0.0, 0.1e-9, 1001)
        w = Waveform(grid=g, samples=2 + np.sin(2 * np.pi * 50e6 * g.times()))
        with pytest.raises(FitError):
            fit_exponential(w, (0.0, 100e-9), "rising")

    def test_rejects_near_constant(self):
        g = TimeGrid(0.0, 0.1e-9, 1001)
        w = Waveform(grid=g, samples=np.full(1001, 3.0))
        with pytest.raises(FitError):
            fit_exponential(w, (0.0, 100e-9), "rising")

    def test_rejects_direction_mismatch(self):
        g = TimeGrid(0.0, 0.1e-9, 1001)
        w = Waveform(grid=g, samples=np.exp(-g.times() / 27e-9))
        with pytest.raises(FitError):
            fit_exponential(w, (0.0, 100e-9), "rising")

    def test_block_means_equal_array_split_means(self):
        # the trend check's block means, bit for bit, at every smoothed
        # length the fit can see (16 samples and up), remainders included
        sm = np.random.default_rng(11).standard_normal(5000).cumsum()
        for n in range(16, 5001):
            k = max(2, min(16, n // 8))
            ref = np.array([b.mean() for b in np.array_split(sm[:n], k)])
            got = waveform._block_means(sm[:n], k)
            assert got.tobytes() == ref.tobytes(), n

    def test_window_validation(self):
        g = TimeGrid(0.0, 0.1e-9, 1001)
        w = Waveform(grid=g, samples=np.exp(g.times() / 27e-9))
        with pytest.raises(ValidationError):
            fit_exponential(w, (0.0, 200e-9), "rising")  # outside grid
        with pytest.raises(ValidationError):
            fit_exponential(w, (0.0, 1e-9), "rising")    # < 16 samples
        with pytest.raises(ValidationError):
            fit_exponential(w, (0.0, 80e-9), "sideways")

    @pytest.mark.parametrize("window", [(np.nan, 50e-9), (0.0, np.inf),
                                        (-np.inf, 50e-9), (np.nan, np.nan)])
    def test_non_finite_window_is_refused(self, window):
        g = TimeGrid(0.0, 0.1e-9, 1001)
        w = Waveform(grid=g, samples=np.exp(g.times() / 27e-9))
        with pytest.raises(ValidationError, match="fit window .* finite"):
            fit_exponential(w, window, "rising")


class TestAnalyticEnvelope:
    def test_tone_burst_envelope(self):
        g = TimeGrid(0.0, 0.1e-9, 10000)
        t = g.times()
        gate = ((t >= 200e-9) & (t <= 700e-9)).astype(float)
        w = Waveform(grid=g, samples=gate * np.cos(2 * np.pi * 1.5e9 * t))
        env = analytic_envelope(w).samples.real
        interior = (t > 220e-9) & (t < 680e-9)
        assert np.max(np.abs(env[interior] - 1.0)) < 0.02


def analytic_envelope_reference(w):
    # the full complex transform with the one-sided gain: 1 at DC (and at
    # Nyquist for even n), 2 on positive frequencies, 0 on negative ones
    x = w.samples.real
    n = len(x)
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
        gain[1:n // 2] = 2.0
    else:
        gain[1:(n + 1) // 2] = 2.0
    return np.abs(np.fft.ifft(np.fft.fft(x) * gain))


class TestAnalyticEnvelopeOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10000, 10001])
    def test_matches_full_transform(self, n):
        rng = np.random.default_rng(n)
        # a DC offset, a tone burst, noise and an imaginary part to ignore
        t = np.arange(n)
        x = 0.3 + np.cos(0.9 * t) * (t > n // 3) + \
            0.1 * rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = wave(x)
        got = analytic_envelope(w).samples
        ref = analytic_envelope_reference(w)
        assert np.all(got.imag == 0.0)
        assert np.max(np.abs(got.real - ref)) <= 1e-14 * np.max(ref)


class TestTraceIO:
    def test_complex_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        w = wave(rng.standard_normal(64) + 1j * rng.standard_normal(64),
                 dt=0.25e-9, t_start=3e-9)
        path = tmp_path / "trace.csv"
        write_trace(path, w)
        back = read_trace(path)
        assert np.array_equal(back.samples, w.samples)
        assert back.grid.t_start == w.grid.t_start
        assert back.grid.dt == pytest.approx(w.grid.dt, rel=1e-12)

    def test_real_roundtrip(self, tmp_path):
        w = wave(np.linspace(0, 1, 32))
        path = tmp_path / "trace.csv"
        write_trace(path, w)
        text = path.read_text()
        assert text.splitlines()[0] == "time_s,value"
        back = read_trace(path)
        assert np.array_equal(back.samples.real, w.samples.real)
        assert back.samples.dtype == np.float64

    def test_imag_column_exactly_when_some_sample_has_one(self, tmp_path):
        x = np.linspace(0, 1, 32)
        one_imag = x + 0j
        one_imag[5] = 0.5 + 1e-300j
        negative_zero = x + 0j
        negative_zero.imag = -0.0
        cases = [(x, "time_s,value", np.float64),
                 (x + 0j, "time_s,value", np.float64),
                 (negative_zero, "time_s,value", np.float64),
                 (one_imag, "time_s,real,imag", np.complex128)]
        for samples, header, dtype in cases:
            path = tmp_path / "trace.csv"
            write_trace(path, wave(samples))
            assert path.read_text().splitlines()[0] == header
            back = read_trace(path)
            assert back.samples.dtype == dtype
            assert np.array_equal(back.samples, samples)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,1.0\n1e-9,not_a_number\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_trace(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,real,imag\n0.0,1.0\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_trace(path)

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("seconds,volts\n0.0,1.0\n")
        with pytest.raises(ValidationError, match="line 1"):
            read_trace(path)

    def test_nonuniform_times_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,1.0\n1e-9,2.0\n3e-9,3.0\n")
        with pytest.raises(ValidationError, match="uniform"):
            read_trace(path)

    def test_overflowing_time_span_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n-1e308,1.0\n0.0,1.0\n1e308,1.0\n")
        with pytest.raises(ValidationError) as exc:
            read_trace(path)
        assert str(exc.value) == (
            f"{path}: sample times are not finite and uniformly spaced")

    @pytest.mark.parametrize("row", [2, 4], ids=["middle", "last"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1], ids=["time", "sample"])
    def test_non_finite_value_rejected_naming_the_file(self, tmp_path, row,
                                                       value, column):
        # a NaN time compares false with every spacing, so a check written
        # as "dt <= 0 or spacing error > tolerance" let it through
        lines = ["time_s,real,imag"] + [f"{k}e-9,1.0,0.5" for k in range(4)]
        fields = lines[row].split(",")
        fields[column] = value
        lines[row] = ",".join(fields)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as exc:
            read_trace(path)
        assert str(exc.value) == f"{path}: " + (
            "sample times are not finite and uniformly spaced" if column == 0
            else "waveform samples must all be finite")


# ---------------------------------------------------------------------------
# oracles for the chunked trace writer and reader: the per-row writer and
# per-line reader they replaced, kept as references
# ---------------------------------------------------------------------------

def write_trace_reference(path, w):
    t = w.times()
    lines = []
    if np.any(w.samples.imag != 0.0):
        lines.append("time_s,real,imag")
        for ti, si in zip(t, w.samples):
            lines.append(f"{float(ti)!r},{float(si.real)!r},{float(si.imag)!r}")
    else:
        lines.append("time_s,value")
        for ti, si in zip(t, w.samples.real):
            lines.append(f"{float(ti)!r},{float(si)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_reference(path, unit=""):
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    rows = [(i + 1, line.strip()) for i, line in enumerate(raw) if line.strip()]
    if not rows:
        raise ValidationError(f"{path}: empty trace file")
    header = rows[0][1].replace(" ", "").lower()
    if header == "time_s,real,imag":
        ncol = 3
    elif header == "time_s,value":
        ncol = 2
    else:
        raise ValidationError(
            f"{path}: line 1: unrecognized header {rows[0][1]!r}")
    times = []
    vals = []
    for lineno, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != ncol:
            raise ValidationError(
                f"{path}: line {lineno}: expected {ncol} columns, "
                f"got {len(parts)}")
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
        times.append(nums[0])
        vals.append(nums[1] if ncol == 2 else complex(nums[1], nums[2]))
    if len(times) < 2:
        raise ValidationError(f"{path}: trace needs at least 2 samples")
    t = np.asarray(times)
    dt = (t[-1] - t[0]) / (len(t) - 1)
    if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > 1e-6 * dt:
        raise ValidationError(f"{path}: sample times are not uniformly spaced")
    grid = TimeGrid(t_start=float(t[0]), dt=float(dt), n_samples=len(t))
    return Waveform(grid=grid, samples=np.asarray(vals), unit=unit)


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 123456789.0, -1e-5, 0.1]
# around the first chunk boundary and the fourth, and past twelve chunks
TRACE_SIZES = ([2] + [k * _TRACE_CHUNK + d for k in (1, 4) for d in (-1, 0, 1)]
               + [12 * _TRACE_CHUNK + 7])


def trace_set(n):
    """Waveforms on two grids, one shorter than the other, covering the
    formatter's special cases."""
    rng = np.random.default_rng(n)
    g1 = TimeGrid(-37.5e-9, 0.1e-9, n)
    g2 = TimeGrid(3e-9, 0.25e-9, max(2, n // 3))
    special = np.resize(SPECIAL, n)
    sparse = np.where(rng.random(n) < 0.92, 0.0, rng.standard_normal(n))
    sparse[rng.random(n) < 0.02] = -0.0
    imag = np.where(rng.random(n) < 0.3, rng.standard_normal(n),
                    np.resize([0.0, -0.0], n))
    imag[0] = 0.5   # some nonzero imaginary part even at n = 2
    return {
        "special.csv": Waveform(g1, special),
        "sparse.csv": Waveform(g1, sparse),
        "complex.csv": Waveform(g1, rng.standard_normal(n) + 1j * imag),
        "other_grid.csv": Waveform(g2, rng.standard_normal(g2.n_samples)),
    }


def assert_same_waveform(a, b):
    assert a.grid == b.grid
    assert np.array_equal(a.samples.view(np.int64), b.samples.view(np.int64))


class TestTraceIOOracle:
    @pytest.mark.parametrize("n", TRACE_SIZES)
    def test_write_byte_identical_and_read_bit_equal(self, tmp_path, n):
        waves = trace_set(n)
        write_traces([(tmp_path / name, w) for name, w in waves.items()])
        for name, w in waves.items():
            ref = tmp_path / f"ref_{name}"
            write_trace_reference(ref, w)
            assert (tmp_path / name).read_bytes() == ref.read_bytes(), name
            assert_same_waveform(read_trace(tmp_path / name),
                                 read_trace_reference(ref))
        single = tmp_path / "single.csv"
        write_trace(single, waves["special.csv"])
        assert single.read_bytes() == (tmp_path / "special.csv").read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_read_tolerates_blanks_spaces_and_crlf(self, tmp_path, newline):
        n = 2 * _TRACE_CHUNK + 5
        for name, w in trace_set(n).items():
            ref = tmp_path / f"ref_{name}"
            write_trace_reference(ref, w)
            lines = ref.read_text().splitlines()
            for k in (3 * _TRACE_CHUNK // 2, _TRACE_CHUNK, 7, 1):
                lines.insert(k, " " if k % 2 else "")
            lines = ([" \t", ""] + lines[:40]
                     + [f"  {line.replace(',', ' , ')}\t" for line in lines[40:90]]
                     + lines[90:] + ["", "  "])
            path = tmp_path / f"messy_{name}"
            path.write_bytes(newline.join(lines).encode("utf-8"))
            assert_same_waveform(read_trace(path), read_trace_reference(path))
            assert_same_waveform(read_trace(path), read_trace_reference(ref))

    @pytest.mark.parametrize("bad, pattern", [
        ("1e-9,not_a_number", "could not convert"),
        ("1e-9,1.0,2.0", "expected 2 columns, got 3"),
        ("1e-9", "expected 2 columns, got 1"),
    ])
    def test_error_names_line_after_first_chunk(self, tmp_path, bad, pattern):
        n = _TRACE_CHUNK + 50
        ref = tmp_path / "ref.csv"
        write_trace_reference(ref, Waveform(TimeGrid(0.0, 1e-9, n),
                                            np.linspace(0.0, 1.0, n)))
        lines = ref.read_text().splitlines()
        k = _TRACE_CHUNK + 20       # line k + 1 holds sample k
        lines.insert(k - 5, "")     # a blank line before the bad one
        lines[k + 1] = bad
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        lineno = k + 2
        with pytest.raises(ValidationError,
                           match=rf"line {lineno}: {pattern}") as new:
            read_trace(path)
        with pytest.raises(ValidationError) as old:
            read_trace_reference(path)
        assert str(new.value) == str(old.value)

    def test_first_error_in_chunk_wins(self, tmp_path):
        # a bad value before a bad column count in the same chunk
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,1.0\n1e-9,x\n2e-9,1,2\n")
        with pytest.raises(ValidationError, match="line 3: could not"):
            read_trace(path)

    @pytest.mark.parametrize("read_chars", [1, 7, 64, 4096])
    def test_read_blocks_keep_lines_and_line_numbers(self, tmp_path,
                                                    monkeypatch, read_chars):
        # CRLF pairs, lines and a leading blank run split between read
        # blocks, and the line breaks str.splitlines knows besides "\n"
        monkeypatch.setattr(waveform, "_READ_CHARS", read_chars)
        ref = tmp_path / "ref.csv"
        write_trace_reference(ref, trace_set(120)["complex.csv"])
        lines = ref.read_text().splitlines()
        lines[30] += "\x0c"
        lines[60] = " \u2028 " + lines[60]
        lines = [" " * 50, "", "\t"] + lines + ["\x1e"]
        path = tmp_path / "messy.csv"
        path.write_bytes("\r\n".join(lines).encode("utf-8"))
        assert_same_waveform(read_trace(path), read_trace_reference(path))
        lines[90] = "1e-9,1.0"  # line 91, moved two down by the breaks above
        path.write_bytes("\r\n".join(lines).encode("utf-8"))
        with pytest.raises(ValidationError, match="line 93: expected 3") as new:
            read_trace(path)
        with pytest.raises(ValidationError) as old:
            read_trace_reference(path)
        assert str(new.value) == str(old.value)

    def test_read_holds_a_block_not_the_file(self, tmp_path):
        # traces of 1e5 rows with full-length values (6.6 MB if complex)
        n = 100_000
        rng = np.random.default_rng(3)
        pool = np.array([repr(x) for x in rng.standard_normal(1000).tolist()])
        # the packed values with a block's text, or with the time check,
        # make ~4.3 and ~3.5 MB peaks; one more trace-length float64 array
        # held through the check (a copied time column: 5.06 and 4.11 MB),
        # or one more copy of complex samples (5.86 MB), passes the bound
        for header, dtype, bound in [("time_s,real,imag", np.complex128, 5e6),
                                     ("time_s,value", np.float64, 3.9e6)]:
            values = [pool[rng.integers(0, 1000, n)]
                      for _ in range(header.count(","))]
            rows = zip(map(str, range(n)), *map(list, values))
            path = tmp_path / f"{dtype.__name__}.csv"
            path.write_text(header + "\n" + "\n".join(map(",".join, rows)))
            tracemalloc.start()
            try:
                w = read_trace(path)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert w.grid.n_samples == n and w.samples.dtype == dtype
            # held whole with its lines, the complex file made an 18 MB peak
            assert peak <= bound, header
            # the waveform keeps its samples alone: not the packed table
            # they were copied from, and no second copy
            assert kept <= 1.05 * w.samples.nbytes, header


@pytest.fixture
def no_kept_text(monkeypatch):
    """No column text kept from earlier writes, and a count of the calls
    that format a value column."""
    monkeypatch.setattr(waveform, "_column_text", {})
    calls = []
    format_column = waveform._format_column

    def counted(x):
        calls.append(len(x))
        return format_column(x)
    monkeypatch.setattr(waveform, "_format_column", counted)
    return calls


def write_and_compare(directory, waves):
    """Write ``waves`` into ``directory`` in one call; each file must equal
    the reference writer's."""
    directory.mkdir()
    write_traces([(directory / name, w) for name, w in waves.items()])
    for name, w in waves.items():
        ref = directory / f"ref_{name}"
        write_trace_reference(ref, w)
        assert (directory / name).read_bytes() == ref.read_bytes(), name


def kept_text():
    return {k: v for k, v in waveform._column_text.items() if v is not None}


class TestTraceTextReuse:
    @pytest.mark.parametrize("n", [2, _TRACE_CHUNK + 1, 3 * _TRACE_CHUNK + 7])
    def test_repeated_writes_are_byte_identical(self, tmp_path, no_kept_text,
                                                n):
        waves = trace_set(n)
        write_and_compare(tmp_path / "cold", waves)
        assert kept_text() == {}
        write_and_compare(tmp_path / "fill", waves)
        # two time columns and five value columns, kept from the second call
        assert len(kept_text()) == 7
        no_kept_text.clear()
        write_and_compare(tmp_path / "reuse", waves)
        assert no_kept_text == []   # every column's text was reused

    def test_changed_column_is_formatted_afresh(self, tmp_path, no_kept_text):
        n = 2 * _TRACE_CHUNK + 3
        waves = trace_set(n)
        write_and_compare(tmp_path / "a", waves)
        write_and_compare(tmp_path / "b", waves)
        # one value changed, in the last chunk only
        w = waves["sparse.csv"]
        samples = w.samples.copy()
        samples[-2] = 0.25
        waves["sparse.csv"] = Waveform(w.grid, samples)
        no_kept_text.clear()
        write_and_compare(tmp_path / "c", waves)
        assert no_kept_text == [_TRACE_CHUNK, _TRACE_CHUNK, 3]

    def test_changed_chunk_size_is_formatted_afresh(self, tmp_path,
                                                    no_kept_text, monkeypatch):
        n = 3 * _TRACE_CHUNK + 7
        waves = trace_set(n)
        write_and_compare(tmp_path / "a", waves)
        write_and_compare(tmp_path / "b", waves)
        monkeypatch.setattr(waveform, "_TRACE_CHUNK", 1000)
        no_kept_text.clear()
        write_and_compare(tmp_path / "c", waves)
        # every value column formatted again, 1000 rows at a time
        assert max(no_kept_text) == 1000
        assert sum(no_kept_text) == 4 * n + n // 3
        assert kept_text() == {}

    def test_a_call_that_repeats_no_column_keeps_nothing(self, tmp_path,
                                                         no_kept_text):
        n = _TRACE_CHUNK + 1
        write_and_compare(tmp_path / "a", trace_set(n))
        write_and_compare(tmp_path / "b", trace_set(n))
        assert kept_text()
        write_and_compare(tmp_path / "c", trace_set(n + 3))
        assert kept_text() == {}
        write_and_compare(tmp_path / "d", trace_set(n))
        assert kept_text() == {}

    def test_failed_write_keeps_the_previous_text(self, tmp_path,
                                                  no_kept_text):
        waves = trace_set(_TRACE_CHUNK + 1)
        write_and_compare(tmp_path / "a", waves)
        write_and_compare(tmp_path / "b", waves)
        before = dict(waveform._column_text)
        (tmp_path / "c").mkdir()
        with pytest.raises(OSError):
            write_traces([(tmp_path / "c" / "x.csv", waves["sparse.csv"]),
                          (tmp_path / "missing" / "y.csv",
                           waves["special.csv"])])
        assert waveform._column_text == before
