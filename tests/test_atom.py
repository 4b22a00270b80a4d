import numpy as np
import pytest

from pulsechain import (AtomParams, TimeGrid, ValidationError, Waveform,
                        compare_shapes, excite, falling_exponential_pulse,
                        rising_exponential_pulse)
from pulsechain.atom import _probability_trace

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

    def test_unstable_step_rejected(self):
        # 2*dt*gamma/2 = 3 lies outside RK4's real stability interval
        pulse = falling_pulse(dt=3.0 / GAMMA, n=100)
        with pytest.raises(ValidationError, match="unstable"):
            excite(pulse, AtomParams(gamma=GAMMA))
        with pytest.raises(ValidationError, match="unstable"):
            excite(falling_pulse(n=100), AtomParams(gamma=GAMMA,
                                                     detuning_hz=20e9))

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
