"""What a run holds, and the blocked and streamed passes that keep it small:
a warm run's peak memory in complex traces, blocked spectral gains against
their whole-array forms, and the streamed excitation scan against one pass
over all its rows, each bit for bit."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pulsechain import (AtomParams, EtalonParams, EtalonStack, FitError,
                        TimeGrid, Waveform, atom, etalon, fit_exponential,
                        parse_config, run_chain, set_config_value)
from pulsechain.eom import sideband_window
from pulsechain.etalon import (_fft_frequencies, _filter_spectrum,
                               stack_transmission, with_thermal_jitter)
from pulsechain.waveform import _BINS, _filter_real, _forward, one_pole_lowpass

DT = 0.1e-9


def bits(x):
    return np.ascontiguousarray(x).view(np.uint8).tobytes()


def test_warm_run_holds_about_two_traces():
    # beyond the memoised sideband, a warm run holds the filtered field and
    # about one trace of working memory, plus O(block) temporaries
    n = 1 << 18
    cfg = parse_config(f"[grid]\nn_samples = {n}\n"
                       "[etalon]\napply_temp_jitter = true\n")
    run_chain(cfg)  # cold: fills the front-end memo for this design
    warm = set_config_value(cfg, "run.seed", "1")
    tracemalloc.start()
    try:
        run_chain(warm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * n) < 2.5


# ---------------------------------------------------------------------------
# blocked spectral gains
# ---------------------------------------------------------------------------

def filter_real_whole(x, dt, transfer):
    spec = np.fft.rfft(x)
    spec *= transfer(np.fft.rfftfreq(len(x), dt))
    return np.fft.irfft(spec, len(x))


def detector_poles(f):
    return math.prod(p(f) for p in (one_pole_lowpass(1e9),
                                    one_pole_lowpass(2e9)))


# rfft bins n//2 + 1: one block less one, one block and one block plus one,
# at odd and even n, and several blocks
REAL_NS = [1001, 2 * _BINS - 4, 2 * _BINS - 3, 2 * _BINS - 2, 2 * _BINS - 1,
           2 * _BINS, 2 * _BINS + 1, 5 * _BINS + 3]


@pytest.mark.parametrize("n", REAL_NS)
@pytest.mark.parametrize("transfer", [detector_poles, one_pole_lowpass(20e9),
                                      lambda f: -1j],
                         ids=["detector", "one_pole", "hilbert"])
def test_filter_real_blocks_are_bit_equal(n, transfer):
    x = np.random.default_rng(n).standard_normal(n)
    whole = filter_real_whole(x, DT, transfer)
    assert bits(_filter_real(x, DT, transfer)) == bits(whole)
    into = x.copy()
    assert _filter_real(into, DT, transfer, out=into) is into
    assert bits(into) == bits(whole)


SPECTRAL_NS = [1000, _BINS - 1, _BINS, _BINS + 1, 3 * _BINS + 8]


@pytest.mark.parametrize("n", SPECTRAL_NS + [1, 2, 1001, 3 * _BINS + 7])
def test_fft_frequencies_match_fftfreq(n):
    whole = np.fft.fftfreq(n, DT)
    blocks = [_fft_frequencies(lo, min(lo + _BINS, n), n, DT)
              for lo in range(0, n, _BINS)]
    assert bits(np.concatenate(blocks)) == bits(whole)
    # blocks wholly below the wrap point, ending at it, starting at it,
    # wholly above it and straddling it
    wrap = (n - 1) // 2 + 1
    for lo, hi in [(0, wrap // 2), (0, wrap), (wrap, n), ((wrap + n) // 2, n),
                   (max(0, wrap - 3), min(n, wrap + 3))]:
        if lo < hi:
            assert bits(_fft_frequencies(lo, hi, n, DT)) == bits(whole[lo:hi])


@pytest.mark.parametrize("n", SPECTRAL_NS)
@pytest.mark.parametrize("stack, pre", [
    (with_thermal_jitter(EtalonStack.identical(3), np.random.default_rng(2)),
     sideband_window(1.5e9)),
    (EtalonStack(stages=(EtalonParams(fsr_hz=4e9, detuning_hz=1.3e9),)), None),
], ids=["jittered_window", "leaking"])
def test_filter_spectrum_blocks_are_bit_equal(n, stack, pre):
    rng = np.random.default_rng(n)
    amps = _forward(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    amps.flags.writeable = False
    f = np.fft.fftfreq(n, DT)
    gain = (1.0 if pre is None else pre(f)) * stack_transmission(f, stack)
    whole = np.fft.ifft(gain * amps)
    whole *= np.sqrt(n)
    grid = TimeGrid(0.0, DT, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the leaking stack warns
        got = _filter_spectrum(amps, grid, "sqrtW", stack, pre_gain=pre)
    assert bits(got.samples) == bits(whole)


def test_covered_band_forms_no_power(monkeypatch):
    # the default 17 GHz stack's +-FSR/2 covers the 10 GHz grid, so the
    # leak fraction is 0 without a leak pass; a 100 MHz stack leaks, and its
    # pass sums the power block by block.  Either way the pass holds its
    # output and O(block) temporaries, which smaller blocks keep below 0.2
    # trace at 1e5 bins (an n-float power array would add half a trace)
    monkeypatch.setattr(etalon, "_BINS", 1024)
    n = 100_000
    rng = np.random.default_rng(n)
    amps = _forward(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    amps.flags.writeable = False
    for stack in (EtalonStack.identical(3),
                  EtalonStack.identical(3, EtalonParams(fsr_hz=0.1e9))):
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the 100 MHz stack warns
                _filter_spectrum(amps, TimeGrid(0.0, DT, n), "sqrtW", stack,
                                 sideband_window(1.5e9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (16 * n) <= 1.2, stack


def test_rejected_fit_builds_no_time_axis():
    # a window that _check_trend rejects costs |y| and its moving average,
    # not the time-axis traces that only an accepted fit needs
    n = 100_000
    grid = TimeGrid(0.0, DT, n)
    w = Waveform(grid=grid, samples=np.sin(np.linspace(0.0, 3.0, n)) + 2.0)
    tracemalloc.start()
    try:
        with pytest.raises(FitError, match="not monotone falling"):
            fit_exponential(w, (grid.t_start, grid.t_end), "falling")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * n) <= 2.2


# ---------------------------------------------------------------------------
# the streamed excitation scan
# ---------------------------------------------------------------------------

def group_steps(a, dt):
    p2 = atom._step_coeffs(2.0 * dt, a, 1.0)[0]
    block = int(8.0 / -math.log(abs(p2)))
    return max(1, atom._GROUP // block) * block


def excite_scan(xi, dt, a, b):
    """The amplitude trace of the scan for a complex drive, in one array."""
    xi = np.asarray(xi, dtype=np.complex128)
    return np.concatenate(list(atom._scan_pieces(xi, dt, a, b, 1.0)))


def unstreamed(monkeypatch, fn, *args):
    with monkeypatch.context() as mp:
        mp.setattr(atom, "_GROUP", 1 << 62)
        return fn(*args)


ATOM = AtomParams()


@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("dm", [-1, 0, 1, 2])
@pytest.mark.parametrize("odd_tail", [0, 1])
@pytest.mark.parametrize("drive", ["complex", "real"])
def test_streamed_scan_is_bit_equal(monkeypatch, groups, dm, odd_tail, drive):
    # m full steps on a group boundary, one short of it and past it (a
    # one-step remainder joins the group before it)
    a, b = atom._amplitude_coefs(ATOM)
    m = groups * group_steps(a, DT) + dm
    n = 2 * m + 1 + odd_tail
    grid = TimeGrid(0.0, DT, n)
    if drive == "real":  # a rising exponential cut on the last sample
        pulse = atom.rising_exponential_pulse(grid, 27e-9, grid.t_end)
    else:
        rng = np.random.default_rng(m)
        pulse = Waveform(grid=grid, samples=rng.standard_normal(n)
                         + 1j * rng.standard_normal(n))
    p = atom._probability_trace(pulse, ATOM)
    assert bits(p) == bits(unstreamed(monkeypatch, atom._probability_trace,
                                      pulse, ATOM))
    xi = pulse.samples
    c = excite_scan(xi, DT, a, b)
    assert bits(c) == bits(unstreamed(monkeypatch, excite_scan,
                                      xi, DT, a, b))


def test_streamed_scan_carries_across_many_rows(monkeypatch):
    # a strongly damped atom: 3-step rows, thousands of rows per group
    a, b = complex(-1.25e10, 0.0), 6178.0
    m = 2 * group_steps(a, DT) + 1
    xi = np.random.default_rng(9).standard_normal(2 * m + 2) + 0.5j
    c = excite_scan(xi, DT, a, b)
    assert bits(c) == bits(unstreamed(monkeypatch, excite_scan,
                                      xi, DT, a, b))
