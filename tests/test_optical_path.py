"""The one-pass optical path against the composition it replaced.

The references below are the former per-stage path, kept here as oracles:
all sideband orders by ``decompose_sidebands`` (in test_eom.py) with order +1
kept, then the cascade as its own transform pair, then one transform pair per
detector pole.  The one-pass path demodulates at +f_S, applies the sideband window and
the cascade as one gain between one forward and one inverse transform, and
the detector applies the product of its poles in one pair.
"""

import math
import warnings

import numpy as np
import pytest

from pulsechain import (DetectorParams, LeakageWarning, Waveform,
                        analytic_envelope, apply_bandpass, bessel_j, dds_tones,
                        default_config, demodulate, detect, dominant_tone,
                        filter_pulse, frequency_quadruple, mix_envelope,
                        one_pole_lowpass, parse_config, phase_modulate,
                        photon_lifetime, read_trace, run_chain,
                        sideband_window, simulate_circuit, stack_transmission,
                        with_thermal_jitter)
from pulsechain import etalon
from pulsechain.waveform import _forward
from spectral_oracle import apply_transfer
from test_eom import decompose_sidebands

ROUNDOFF = 1e-12   # of the trace peak


def reference_sideband_filter(field, f_s, stack):
    a1 = dict(decompose_sidebands(field, f_s, 3))[1]
    return apply_transfer(a1, lambda f: stack_transmission(f, stack))


def reference_detect(field, d):
    out = Waveform(grid=field.grid,
                   samples=d.responsivity * np.abs(field.samples) ** 2, unit="V")
    for bw in (d.bandwidth_hz, d.scope_bandwidth_hz):
        if np.isfinite(bw):
            out = apply_transfer(out, one_pole_lowpass(bw))
    return out.samples.real


@pytest.fixture(scope="module")
def chain():
    """EOM output of the default chain and its carrier f_S."""
    cfg = default_config()
    _, v_out = simulate_circuit(cfg.circuit, cfg.gate, cfg.grid)
    tones = frequency_quadruple(apply_bandpass(dds_tones(cfg.dds), cfg.bandpass))
    f_s = dominant_tone(tones)[0]
    rf = mix_envelope(v_out, f_s, cfg.mixer)
    return cfg, phase_modulate(rf, cfg.eom), f_s


def one_pass(field, f_s, stack):
    return filter_pulse(demodulate(field, f_s), stack,
                        pre_gain=sideband_window(f_s))


def assert_roundoff(got, ref):
    peak = np.max(np.abs(ref))
    assert peak > 0
    assert np.max(np.abs(got - ref)) <= ROUNDOFF * peak


@pytest.mark.parametrize("jitter_seed", [None, 7])
def test_sideband_and_cascade_match_reference(chain, jitter_seed):
    cfg, field, f_s = chain
    stack = cfg.etalon
    if jitter_seed is not None:
        stack = with_thermal_jitter(stack, np.random.default_rng(jitter_seed))
        assert len({e.detuning_hz for e in stack.stages}) == 3
    got = one_pass(field, f_s, stack)
    assert_roundoff(got.samples, reference_sideband_filter(field, f_s, stack).samples)


@pytest.mark.parametrize("d", [
    DetectorParams(),
    DetectorParams(bandwidth_hz=np.inf),
    DetectorParams(bandwidth_hz=3e9, scope_bandwidth_hz=0.5e9,
                   responsivity=0.7),
])
def test_detector_matches_sequential_poles(chain, d):
    cfg, field, f_s = chain
    filtered = one_pass(field, f_s, cfg.etalon)
    assert_roundoff(detect(filtered, d).samples.real,
                    reference_detect(filtered, d))


def test_narrow_fsr_run_still_warns():
    # the windowed sideband spans ~+-50 MHz; a 100 MHz FSR leaks ~4%
    with pytest.warns(LeakageWarning, match="beyond"):
        run_chain(parse_config("[etalon]\nfsr_ghz = 0.1\n"))


@pytest.mark.parametrize("detuning_mhz", [0.0, 30.0])
def test_narrow_fsr_leak_matches_the_whole_power(chain, monkeypatch,
                                                 detuning_mhz):
    # +-FSR/2 of a 100 MHz FSR misses most of the grid, so the leak check
    # sums the power; with 30 MHz of detuning the peak sits off centre, at
    # -30 MHz.  Its fraction and warning text are those of the whole power
    # array under one mask
    cfg, field, f_s = chain
    stack = parse_config(f"[etalon]\nfsr_ghz = 0.1\n"
                         f"detuning_mhz = {detuning_mhz}\n").etalon
    calls, leak_fraction = [], etalon._leak_fraction

    def spy(amps, grid, pre_gain, f_peak, half_fsr):
        got = leak_fraction(amps, grid, pre_gain, f_peak, half_fsr)
        calls.append((f_peak, half_fsr, got))
        return got

    monkeypatch.setattr(etalon, "_leak_fraction", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        one_pass(field, f_s, stack)
    shifted = demodulate(field, f_s)
    n, dt = shifted.grid.n_samples, shifted.grid.dt
    f = np.fft.fftfreq(n, dt)
    power = np.abs(sideband_window(f_s)(f) * _forward(shifted.samples)) ** 2
    near = np.flatnonzero(np.abs(f) <= 50e6)
    i_peak = near[int(np.argmax(np.abs(stack_transmission(f[near], stack))))]
    assert f[i_peak] == pytest.approx(-detuning_mhz * 1e6, abs=1 / (n * dt))
    frac = float(power[np.abs(f - f[i_peak]) > 50e6].sum() / power.sum())
    assert frac > 0.01
    [(f_peak, half_fsr, got)] = calls
    assert (f_peak, half_fsr) == (f[i_peak], 50e6)
    assert got == pytest.approx(frac, rel=1e-12, abs=0)
    assert [str(c.message) for c in caught] == [
        f"{frac:.1%} of pulse energy lies beyond +-FSR/2 of the cascade "
        f"transmission peak"]


def test_repeated_peaks_do_not_fake_leakage():
    # a 2 GHz FSR repeats equal transmission peaks across the +-5 GHz grid;
    # the check measures around the peak nearest the sideband
    with warnings.catch_warnings():
        warnings.simplefilter("error", LeakageWarning)
        run_chain(parse_config("[etalon]\nfsr_ghz = 2\n"))


def test_default_run_makes_six_ffts(monkeypatch, cold_front_end):
    # analytic envelope and detector: one real pair each; sideband +
    # cascade: the one complex pair.  A run that shares the front end with
    # the previous one makes only the cascade's inverse and the detector's
    # pair.
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn"):
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    run_chain(default_config())
    assert sorted(calls) == ["fft", "ifft", "irfft", "irfft", "rfft", "rfft"]
    calls.clear()
    run_chain(parse_config("[run]\nseed = 1\n"))
    assert sorted(calls) == ["ifft", "irfft", "rfft"]


def test_exponential_passes_the_chain_as_itself(tmp_path):
    # e^{t/tau} is an eigenfunction of every linear stage: before the cutoff
    # the filtered sideband is J1(pi x(t)) times the cascade's one-pole
    # limits 1/(1 + tau_k s) at s = 1/tau, and the detected power is
    # |filtered|^2 times the detector's two poles at s = 2/tau.  Leaks off,
    # so no CW floor adds to the pulse; the median rides over a ~2% ripple,
    # most likely the carrier that the cascade lets through.
    cfg = parse_config("[mixer]\nlo_leak_db = -inf\nif_leak_db = -inf\n")
    rep = run_chain(cfg, str(tmp_path)).data
    rf, filtered, detected = (read_trace(tmp_path / name) for name in (
        "rf_drive.csv", "filtered_envelope.csv", "detected_power.csv"))
    tau = rep["envelope"]["tau_design_s"]
    t = cfg.grid.times()
    late = (t > cfg.gate.t_off - 50e-9) & (t < cfg.gate.t_off)
    x = cfg.eom.drive_scale * analytic_envelope(rf).samples[late] / cfg.eom.v_pi
    field = np.abs(filtered.samples[late])

    cascade = math.prod(1.0 / (1.0 + photon_lifetime(e) / tau)
                        for e in cfg.etalon.stages)
    ratio = np.median(field / np.abs(bessel_j(1, np.pi * x)))
    assert ratio == pytest.approx(cascade, rel=2e-3)

    d = cfg.detector
    poles = math.prod(1.0 / (1.0 + 2.0 / (tau * 2.0 * math.pi * f_c))
                      for f_c in (d.bandwidth_hz, d.scope_bandwidth_hz))
    ratio = np.median(detected.samples[late] / (d.responsivity * field ** 2))
    assert ratio == pytest.approx(poles, rel=2e-3)
