"""The one-pass optical path against the composition it replaced.

The references below are the former per-stage path, kept here as oracles:
all sideband orders by ``decompose_sidebands`` with order +1 kept, then the
cascade as its own transform pair, then one transform pair per detector
pole.  The one-pass path demodulates at +f_S, applies the sideband window and
the cascade as one gain between one forward and one inverse transform, and
the detector applies the product of its poles in one pair.
"""

import warnings

import numpy as np
import pytest

from pulsechain import (DetectorParams, LeakageWarning, Waveform,
                        apply_bandpass, apply_transfer, dds_tones,
                        decompose_sidebands, default_config, demodulate,
                        detect, dominant_tone, filter_pulse,
                        frequency_quadruple, mix_envelope, one_pole_lowpass,
                        parse_config, phase_modulate, run_chain,
                        sideband_window, simulate_circuit, stack_transmission,
                        with_thermal_jitter)

ROUNDOFF = 1e-12   # of the trace peak


def reference_sideband_filter(field, f_s, stack):
    a1 = dict(decompose_sidebands(field, f_s, 3))[1]
    return apply_transfer(a1, lambda f: stack_transmission(f, stack))


def reference_detect(field, d):
    out = Waveform(grid=field.grid,
                   samples=d.responsivity * np.abs(field.samples) ** 2, unit="V")
    for bw in (d.bandwidth_hz, d.scope_bandwidth_hz):
        if bw is not None and np.isfinite(bw):
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
    DetectorParams(bandwidth_hz=None),
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


def test_repeated_peaks_do_not_fake_leakage():
    # a 2 GHz FSR repeats equal transmission peaks across the +-5 GHz grid;
    # the check measures around the peak nearest the sideband
    with warnings.catch_warnings():
        warnings.simplefilter("error", LeakageWarning)
        run_chain(parse_config("[etalon]\nfsr_ghz = 2\n"))


def test_default_run_makes_six_ffts(monkeypatch):
    # analytic envelope, sideband + cascade, detector: one pair each
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn"):
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    run_chain(default_config())
    assert sorted(calls) == ["fft"] * 3 + ["ifft"] * 3
