import warnings

import numpy as np
import pytest

from pulsechain import (AtomParams, TimeGrid, ValidationError, Waveform,
                        compare_shapes, excite, falling_exponential_pulse,
                        rising_exponential_pulse, write_trace)
from pulsechain import atom as atom_mod
from pulsechain.atom import _probability_trace
from pulsechain.cli import main

GAMMA = 1.0 / 26.2e-9
DT = 0.1e-9
P_FALLING = 4.0 / np.e ** 2  # closed form for the rate-matched falling mode


def matched_rising(n_lifetimes=12.0, dt=DT, gamma=GAMMA):
    # cutoff on the final sample so the trapezoid end weights apply there
    n = 2 * int(np.ceil(0.5 * n_lifetimes / gamma / dt))
    grid = TimeGrid(0.0, dt, n + 1)
    return rising_exponential_pulse(grid, 2.0 / gamma, t_cut=n * dt)


def falling_pulse(dt=DT, gamma=GAMMA, n=10000):
    grid = TimeGrid(0.0, dt, n + 1)
    return falling_exponential_pulse(grid, 2.0 / gamma, t_begin=0.0)


class TestFallingClosedForm:
    def test_p_max_and_location(self):
        res = excite(falling_pulse(), AtomParams(gamma=GAMMA))
        assert abs(res.p_max - P_FALLING) < 1e-4
        assert res.t_at_max == pytest.approx(2.0 / GAMMA, rel=1e-3)

    def test_global_error_against_closed_form(self):
        # c(t) = sqrt(L) gamma t e^{-gamma t/2} for the rate-matched
        # falling exponential; compare the whole probability trace
        pulse = falling_pulse()
        p = _probability_trace(pulse, AtomParams(gamma=GAMMA))
        t = pulse.times()
        p_exact = (GAMMA * t * np.exp(-GAMMA * t / 2.0)) ** 2
        assert np.max(np.abs(p - p_exact)) < 1e-6

    def test_brute_force_quadrature_oracle(self):
        # independent oracle: c(t) = b int_0^t e^{a (t-s)} xi(s) ds by
        # high-resolution trapezoid quadrature on the exact integrand
        pulse = falling_pulse(n=4000)
        p = _probability_trace(pulse, AtomParams(gamma=GAMMA))
        a = -GAMMA / 2.0
        b = np.sqrt(GAMMA)
        fine = 8
        ts = np.linspace(0.0, 4000 * DT, 4000 * fine + 1)
        xi = np.sqrt(GAMMA) * np.exp(-GAMMA * ts / 2.0)
        for k in (500, 1500, 3000):
            s = ts[:k * fine + 1]
            integrand = np.exp(a * (s[-1] - s)) * xi[:len(s)]
            c = b * np.trapezoid(integrand, s)
            assert p[k] == pytest.approx(c ** 2, rel=5e-4)


class TestMatchedRising:
    def test_reaches_unity(self):
        res = excite(matched_rising(), AtomParams(gamma=GAMMA))
        assert res.p_max >= 0.999
        assert res.p_max <= 1.0 + 1e-9

    def test_peak_at_cutoff(self):
        pulse = matched_rising()
        res = excite(pulse, AtomParams(gamma=GAMMA))
        assert res.t_at_max == pytest.approx(pulse.grid.t_end, abs=2 * DT)

    def test_support_window_scaling(self):
        # 10 lifetimes of support already suffice for 1e-4 closeness
        res = excite(matched_rising(n_lifetimes=10.0), AtomParams(gamma=GAMMA))
        assert res.p_max > 1.0 - 1e-4


class TestLinearityAndInvariance:
    def test_lambda_scaling_exact(self):
        pulse = falling_pulse()
        p1 = excite(pulse, AtomParams(gamma=GAMMA, lambda_overlap=1.0)).p_max
        for lam in (0.1, 0.37, 0.9):
            p = excite(pulse, AtomParams(gamma=GAMMA, lambda_overlap=lam)).p_max
            assert abs(p - lam * p1) <= 1e-10 * p1

    def test_lambda_zero_gives_zero_trace(self):
        atom = AtomParams(gamma=GAMMA, lambda_overlap=0.0)
        res = excite(falling_pulse(), atom)
        assert np.all(_probability_trace(falling_pulse(), atom) == 0.0)
        assert res.p_max == 0.0

    def test_time_shift_invariance_discontinuous(self):
        # interior-supported pulse shifted by whole integrator steps
        grid = TimeGrid(0.0, DT, 10001)
        pulse = falling_exponential_pulse(grid, 2.0 / GAMMA, t_begin=50e-9)
        shift = 1000
        shifted = Waveform(
            grid=grid,
            samples=np.concatenate([np.zeros(shift),
                                    np.asarray(pulse.samples[:-shift])]),
            unit=pulse.unit)
        r0 = excite(pulse, AtomParams(gamma=GAMMA))
        r1 = excite(shifted, AtomParams(gamma=GAMMA))
        assert abs(r1.p_max - r0.p_max) <= 1e-10
        assert r1.t_at_max - r0.t_at_max == pytest.approx(shift * DT,
                                                          abs=DT / 100)

    def test_time_shift_invariance_smooth_any_offset(self):
        grid = TimeGrid(0.0, DT, 10001)
        t = grid.times()
        x = np.exp(-((t - 200e-9) / 30e-9) ** 2)
        r0 = excite(Waveform(grid=grid, samples=x), AtomParams(gamma=GAMMA))
        for shift in (999, 1000):
            xs = np.concatenate([np.zeros(shift), x[:-shift]])
            r1 = excite(Waveform(grid=grid, samples=xs),
                        AtomParams(gamma=GAMMA))
            assert abs(r1.p_max - r0.p_max) <= 1e-10
            assert r1.t_at_max - r0.t_at_max == pytest.approx(shift * DT,
                                                              abs=DT / 100)

    def test_probability_trace_in_unit_interval(self):
        p = _probability_trace(matched_rising(), AtomParams(gamma=GAMMA))
        assert np.all(p >= 0.0) and np.all(p <= 1.0 + 1e-9)


class TestIntegratorAccuracy:
    def test_convergence_under_halving(self):
        def p_max_at(scale):
            dt = DT / scale
            grid = TimeGrid(0.0, dt, 6000 * scale + 1)
            t = grid.times()
            xi = np.exp(-((t - 250e-9) / 40e-9) ** 2)
            return excite(Waveform(grid=grid, samples=xi),
                          AtomParams(gamma=GAMMA)).p_max

        assert abs(p_max_at(1) - p_max_at(2)) < 1e-8

    def test_detuning_reduces_excitation(self):
        pulse = matched_rising()
        on = excite(pulse, AtomParams(gamma=GAMMA)).p_max
        off = excite(pulse, AtomParams(gamma=GAMMA, detuning_hz=30e6)).p_max
        assert off < on


class TestOptimality:
    def test_no_shape_beats_matched(self):
        grid = TimeGrid(0.0, DT, 8001)
        t = grid.times()
        shapes = [
            ((t >= 100e-9) & (t <= 200e-9)).astype(float),
            np.exp(-((t - 300e-9) / 30e-9) ** 2),
            np.where(t >= 50e-9, np.exp(-GAMMA * (t - 50e-9) / 2.0), 0.0),
            np.where(t <= 400e-9, np.exp(GAMMA * (t - 400e-9)), 0.0),
        ]
        p_matched = excite(matched_rising(), AtomParams(gamma=GAMMA)).p_max
        for x in shapes:
            p = excite(Waveform(grid=grid, samples=x),
                       AtomParams(gamma=GAMMA)).p_max
            assert p <= 1.0 + 1e-6      # Cauchy-Schwarz bound at Lambda = 1
            assert p < p_matched

    def test_zero_energy_rejected(self):
        grid = TimeGrid(0.0, DT, 100)
        with pytest.raises(ValidationError):
            excite(Waveform(grid=grid, samples=np.zeros(100)),
                   AtomParams(gamma=GAMMA))

    def test_coarse_or_detuned_step_runs_within_lambda(self):
        # the exact step damps the free amplitude at any spacing: here
        # 2*dt*gamma/2 = 3, and a detuning of 20 GHz turns it by 25 rad
        for pulse, atom in [
                (falling_pulse(dt=3.0 / GAMMA, n=100),
                 AtomParams(gamma=GAMMA)),
                (falling_pulse(n=100),
                 AtomParams(gamma=GAMMA, detuning_hz=20e9))]:
            p = excite(pulse, atom).p_max
            assert 0.0 <= p <= atom.lambda_overlap

    @pytest.mark.parametrize("gamma", [np.inf, 0.0, -1.0, np.nan])
    def test_gamma_finite_positive(self, gamma):
        with pytest.raises(ValidationError, match="gamma"):
            AtomParams(gamma=gamma)


class TestCompareShapes:
    def test_matched_pair(self):
        p_r, p_f = compare_shapes(2.0 / GAMMA, AtomParams(gamma=GAMMA))
        assert p_r == pytest.approx(1.0, abs=2e-3)
        assert p_f == pytest.approx(P_FALLING, abs=2e-3)
        assert p_r > p_f

    def test_lambda_factors_out(self):
        p_r1, p_f1 = compare_shapes(2.0 / GAMMA, AtomParams(gamma=GAMMA))
        p_r, p_f = compare_shapes(2.0 / GAMMA,
                                  AtomParams(gamma=GAMMA, lambda_overlap=0.1))
        assert p_r == pytest.approx(0.1 * p_r1, rel=1e-10)
        assert p_f == pytest.approx(0.1 * p_f1, rel=1e-10)

    def test_rising_maximized_at_two_over_gamma(self):
        scales = [0.6, 0.8, 1.0, 1.25, 1.6]
        p = [compare_shapes(s * 2.0 / GAMMA, AtomParams(gamma=GAMMA))[0]
             for s in scales]
        assert int(np.argmax(p)) == scales.index(1.0)

    def test_invalid_tau(self):
        with pytest.raises(ValidationError):
            compare_shapes(0.0, AtomParams(gamma=GAMMA))

    @pytest.mark.parametrize("tau", [5.4e-9, 10e-9, 27e-9, 52.4e-9, 80e-9,
                                     135e-9])
    def test_closed_forms(self, tau):
        # with x = gamma*tau/2, a truncated rising exponential peaks at
        # 4x/(1+x)^2 and a falling one at (4/x) x^(-2/(x-1)), whose limit at
        # x = 1 is 4/e^2; the scan holds both within (dt/tau)^2/2
        x = GAMMA * tau / 2.0
        rising = 4.0 * x / (1.0 + x) ** 2
        falling = (P_FALLING if abs(x - 1.0) < 1e-9
                   else (4.0 / x) * x ** (-2.0 / (x - 1.0)))
        p_r, p_f = compare_shapes(tau, AtomParams(gamma=GAMMA))
        bound = (DT / tau) ** 2 / 2.0
        assert abs(p_r - rising) <= bound
        assert abs(p_f - falling) <= bound

    def test_coarse_matched_pair_runs(self):
        p_r, p_f = compare_shapes(2.0 / GAMMA, AtomParams(gamma=GAMMA),
                                  dt=60e-9)
        assert p_r == pytest.approx(0.753, abs=1e-3)
        assert p_f == pytest.approx(0.416, abs=1e-3)

    def test_overshooting_step_is_named(self):
        # doubling the odd samples puts content at the sample rate, which
        # the scan's quadratic weighs differently from the trapezoid
        # normalisation: p_max reads ~1.11 Lambda at every spacing
        for lam in (1.0, 0.5):
            with pytest.raises(ValidationError,
                               match=rf"p_max = {1.11 * lam:.3g}\d* exceeds "
                                     rf"Lambda = {lam:g}.*dt = 2\.62e-09 s"):
                excite(doubled_odd(), AtomParams(gamma=GAMMA,
                                                 lambda_overlap=lam))

    def test_overshooting_pulse_file_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "chain.ini"
        cfg.write_text("[run]\nseed = 0\n")
        trace = tmp_path / "doubled.csv"
        write_trace(trace, doubled_odd())
        assert main(["excite", str(cfg), "--pulse", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "exceeds Lambda" in err and "near the sample rate" in err

    def test_coarse_pulse_file_exit_0(self, tmp_path, capsys):
        cfg = tmp_path / "chain.ini"
        cfg.write_text("[run]\nseed = 0\n")
        grid = TimeGrid(0.0, 60e-9, 15)  # compare_shapes' 60 ns rising mode
        trace = tmp_path / "coarse.csv"
        write_trace(trace, rising_exponential_pulse(grid, 2.0 / GAMMA,
                                                    t_cut=grid.t_end))
        assert main(["excite", str(cfg), "--pulse", str(trace)]) == 0
        assert "p_max = 0." in capsys.readouterr().out


def doubled_odd(dt=0.1 / GAMMA, n=201):
    # the matched rising mode with its odd-index samples doubled
    grid = TimeGrid(0.0, dt, n)
    x = rising_exponential_pulse(grid, 2.0 / GAMMA, grid.t_end).samples.copy()
    x[1::2] *= 2.0
    return Waveform(grid=grid, samples=x, unit="sqrtW")


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def pieces(x, a, scale=1.0):  # x * 1.0 is x, bit for bit
    return list(atom_mod._scan_pieces(x, DT, *atom_mod._amplitude_coefs(a),
                                      scale=scale))


def drive(kind, n, dt=DT):
    t = TimeGrid(0.0, dt, n).times()
    if kind == "rising":  # cut on the last sample, as compare_shapes cuts it
        return np.exp((t - t[-1]) / 27e-9)
    if kind == "falling":
        return np.exp(-t / 27e-9)
    return np.random.default_rng(n).standard_normal(n)


class TestRealScan:
    """A real drive on a resonant atom runs the scan in float64: every
    imaginary part of the complex scan is +-0, so |c|^2 is the same."""

    @pytest.mark.parametrize("kind", ["rising", "falling", "noise"])
    @pytest.mark.parametrize("lam", [1.0, 0.3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 100, 101,
                                   2 * 2 * atom_mod._GROUP + 1,
                                   2 * 2 * atom_mod._GROUP + 2])
    @pytest.mark.parametrize("dt", [DT, 50e-9])  # 50 ns: a coarse step
    def test_real_drive_equals_complex_drive(self, kind, lam, n, dt):
        # n past 2*_GROUP samples runs the scan in several groups
        x = drive(kind, n, dt)
        grid = TimeGrid(0.0, dt, n)
        a = AtomParams(gamma=GAMMA, lambda_overlap=lam)
        p_real = _probability_trace(Waveform(grid=grid, samples=x), a)
        p_cplx = _probability_trace(
            Waveform(grid=grid, samples=x.astype(np.complex128)), a)
        assert np.array_equal(bits(p_real), bits(p_cplx))

    @pytest.mark.parametrize("kind", ["rising", "falling", "noise"])
    def test_negative_weights_real_drive_equals_complex_drive(self, kind):
        # at dt = 200 ns the exact step's weight on its first sample is
        # negative, so the real path must take each coefficient's real part
        dt, n = 200e-9, 101
        a, b = atom_mod._amplitude_coefs(AtomParams(gamma=GAMMA))
        assert atom_mod._step_coeffs(dt, a, b)[1].real < 0
        x = drive(kind, n, dt)
        grid = TimeGrid(0.0, dt, n)
        atom = AtomParams(gamma=GAMMA)
        p_real = _probability_trace(Waveform(grid=grid, samples=x), atom)
        p_cplx = _probability_trace(
            Waveform(grid=grid, samples=x.astype(np.complex128)), atom)
        assert np.array_equal(bits(p_real), bits(p_cplx))

    @pytest.mark.parametrize("n", [2, 5, 2 * 2 * atom_mod._GROUP + 2])
    def test_unscaled_real_drive_equals_complex_drive(self, n):
        x = drive("noise", n)
        a = AtomParams(gamma=GAMMA)
        c_real = np.concatenate(pieces(x, a))
        c_cplx = np.concatenate(pieces(x.astype(np.complex128), a))
        assert c_real.dtype == np.float64
        assert not np.any(c_cplx.imag)
        assert np.array_equal(bits(np.abs(c_real) ** 2),
                              bits(np.abs(c_cplx) ** 2))

    @pytest.mark.parametrize("n", [2, 5, 1001])
    def test_detuned_atom_or_complex_drive_stays_complex(self, n):
        x = drive("falling", n)
        resonant = AtomParams(gamma=GAMMA)
        detuned = AtomParams(gamma=GAMMA, detuning_hz=3e6)
        assert {c.dtype for c in pieces(x, resonant)} == {np.dtype(np.float64)}
        assert {c.dtype for c in pieces(x, detuned)} == {
            np.dtype(np.complex128)}
        assert {c.dtype for c in pieces(x + 0j, resonant)} == {
            np.dtype(np.complex128)}
        assert {c.dtype for c in pieces(x, resonant, scale=0.5 + 0.5j)} == {
            np.dtype(np.complex128)}

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_step_powers_read_only_and_prefix_stable(self, dtype):
        # the memo's tables are min(_GROUP, 8/(gamma*dt)) steps long, and
        # each block's prefix is the table the scan built per call
        a, b = atom_mod._amplitude_coefs(AtomParams(gamma=GAMMA))
        coefs = atom_mod._scan_coeffs(DT, a, b, dtype is np.float64)
        assert coefs[0] is dtype
        p2, tables = coefs[5], coefs[-1]

        def built(b):  # the table at length b, as the scan built it per call
            pw = np.exp(np.log(complex(p2)) * np.arange(1.0, b + 1))
            return [t.real if dtype is np.float64 else t for t in (pw, 1 / pw)]

        assert [len(t) for t in tables] == [2096] * 2
        for b in (1, 69, 700, 2095, 2096):
            for got, want in zip(tables, built(b)):
                assert got.dtype == dtype and not got.flags.writeable
                assert np.array_equal(bits(got[:b]), bits(
                    np.ascontiguousarray(want)))

    @pytest.mark.parametrize("gamma, length", [(GAMMA / 100, atom_mod._GROUP),
                                               (2.5e10, 3), (5e10, None)])
    def test_step_powers_bounded_by_the_group(self, gamma, length):
        # a slow atom's tables stop at _GROUP steps, so the memo's entries
        # hold 2 MiB at most, and a fast atom's blocks are one step: none
        a, b = atom_mod._amplitude_coefs(AtomParams(gamma=gamma))
        tables = atom_mod._scan_coeffs(DT, a, b, False)[-1]
        if length is None:
            assert tables is None
            return
        assert [len(t) for t in tables] == [length] * 2
        entries = atom_mod._scan_coeffs.cache_info().maxsize
        assert entries * sum(t.nbytes for t in tables) <= 2 << 20

    @pytest.mark.parametrize("n", [2 * atom_mod._GROUP + 11,
                                   2 * atom_mod._GROUP + 12])
    def test_block_past_the_group_gets_its_own_tables(self, n):
        # one block of more than _GROUP steps: a real drive still equals a
        # complex one, and the memo keeps its _GROUP-step tables
        x = drive("noise", n)
        a = AtomParams(gamma=GAMMA / 100)
        grid = TimeGrid(0.0, DT, n)
        p_real = _probability_trace(Waveform(grid=grid, samples=x), a)
        p_cplx = _probability_trace(
            Waveform(grid=grid, samples=x.astype(np.complex128)), a)
        assert np.array_equal(bits(p_real), bits(p_cplx))
        coefs = atom_mod._amplitude_coefs(a)
        for real in (True, False):
            tables = atom_mod._scan_coeffs(DT, *coefs, real)[-1]
            assert [len(t) for t in tables] == [atom_mod._GROUP] * 2


def where_pulse(grid, tau, edge, rising):
    # the whole-grid expression the builders replace
    t = grid.times()
    with np.errstate(over="ignore"):
        if rising:
            return np.where(t <= edge + 1e-9 * grid.dt,
                            np.exp((t - edge) / tau), 0.0)
        return np.where(t >= edge - 1e-9 * grid.dt,
                        np.exp(-(t - edge) / tau), 0.0)


def at_tolerance(t_k, dt, rising):
    # an edge whose tolerance lands exactly on the sample t_k
    tol = 1e-9 * dt
    edge = t_k - tol if rising else t_k + tol
    for _ in range(8):
        reach = edge + tol if rising else edge - tol
        if reach == t_k:
            return edge
        edge = np.nextafter(edge, t_k if reach > t_k else -t_k)
    raise AssertionError(f"no edge reaches {t_k!r} within 8 steps")


class TestPulseBuilders:
    BUILDERS = [(rising_exponential_pulse, True),
                (falling_exponential_pulse, False)]

    @pytest.mark.parametrize("build, rising", BUILDERS)
    @pytest.mark.parametrize("t_start", [0.0, 3.7e-9])
    @pytest.mark.parametrize("n", [2, 3, 101])
    def test_bit_equal_to_where_expression(self, build, rising, t_start, n):
        # a cut before the grid, on a sample, between samples, exactly at
        # the 1e-9 dt tolerance, on the last sample and past the grid
        grid = TimeGrid(t_start, DT, n)
        t = grid.times()
        k = n // 2
        edges = [t[0] - 5 * DT, t[k], t[k] + 0.4 * DT, t[k] - 0.4 * DT,
                 at_tolerance(t[k], DT, rising), t[-1], t[-1] + 5 * DT]
        for tau in (27e-9, 1e-9, 0.05e-9):
            for edge in edges:
                got = build(grid, tau, edge).samples
                want = where_pulse(grid, tau, edge, rising)
                assert np.array_equal(bits(got), bits(want)), (tau, edge)
                assert not got.flags.writeable

    def test_tolerance_edge_takes_the_sample(self):
        grid = TimeGrid(3.7e-9, DT, 11)
        t = grid.times()
        for build, rising in self.BUILDERS:
            x = build(grid, 27e-9, at_tolerance(t[5], DT, rising)).samples
            assert x[5] > 0.0
            assert np.all(x[6:] == 0.0) if rising else np.all(x[:5] == 0.0)

    def test_no_overflow_off_the_support(self):
        # exp((t - t_cut)/tau) overflows after a 1 ns cut at 50 ns, and a
        # falling pulse's before a 950 ns switch-on: those samples are 0
        grid = TimeGrid(0.0, 0.1e-9, 10001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rising = rising_exponential_pulse(grid, 1e-9, 50e-9).samples
            falling = falling_exponential_pulse(grid, 1e-9, 950e-9).samples
        assert rising[500] == pytest.approx(1.0) and not np.any(rising[501:])
        assert falling[9500] == pytest.approx(1.0)
        assert not np.any(falling[:9500])

    @pytest.mark.parametrize("build, name", [
        (rising_exponential_pulse, "t_cut"),
        (falling_exponential_pulse, "t_begin")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_edge_refused(self, build, name, value):
        with pytest.raises(ValidationError, match=rf"^{name} must be finite"):
            build(TimeGrid(0.0, DT, 11), 27e-9, value)


class TestRealSquare:
    @pytest.mark.parametrize("kind", ["rising", "falling", "noise"])
    @pytest.mark.parametrize("n", [2, 5, 1001, 2 * 2 * atom_mod._GROUP + 2])
    def test_square_equals_abs_then_square(self, kind, n):
        # a float64 drive and scan are squared as they are; the abs-then-
        # square they replace gives the same trace and the same p_max bits
        x = drive(kind, n)
        grid = TimeGrid(0.0, DT, n)
        pulse = Waveform(grid=grid, samples=x)
        a = AtomParams(gamma=GAMMA)
        e = np.square(np.abs(x))
        norm2 = (e.sum() - 0.5 * (e[0] + e[-1])) * DT
        c = np.concatenate(pieces(x, a, scale=1.0 / np.sqrt(norm2)))
        assert c.dtype == np.float64
        want = np.square(np.abs(c))
        assert np.array_equal(bits(_probability_trace(pulse, a)), bits(want))
        p_max = atom_mod._refine_peak(want, grid)[0]
        assert bits(np.float64(excite(pulse, a).p_max)) == bits(
            np.float64(p_max))
