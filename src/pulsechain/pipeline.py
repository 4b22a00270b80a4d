"""Full-chain orchestration: envelope -> mixer -> EOM -> etalons ->
photodiode, optionally -> atom; trace taps, fitted summaries, sweeps.

A run is deterministic given (config, seed): report and trace files are
byte-identical across repeated runs, and every output file is written
atomically.
"""

import copy
import functools
import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .atom import excite
from .config import ChainConfig, config_sha256, set_config_value
from .detector import detect, undershoot_fraction
from .envelope import simulate_circuit, tau_from_control_voltage
from .eom import (ModulatorParams, bessel_j, crystal_drive, demodulate,
                  distortion_fraction, phase_modulate, sideband_window)
from .errors import FitError, ValidationError
from .etalon import (_filter_spectrum, photon_lifetime, stack_transmission,
                     stage_diagnostics, with_thermal_jitter)
from .rfchain import carrier_tones, dominant_tone, mix_envelope
from .waveform import (TimeGrid, Waveform, _forward, analytic_envelope,
                       _replacing, fit_exponential, read_trace,
                       write_traces)


@dataclass(frozen=True)
class RunReport:
    """Per-stage summaries plus provenance; serializable deterministically."""

    data: dict  # of plain JSON types: dict, list, str, int, float, bool, None

    def to_json(self):
        return json.dumps(self.data, indent=2, allow_nan=False) + "\n"

    def to_text(self):
        lines = ["pulsechain run report"]

        def walk(prefix, obj):
            items = obj.items() if isinstance(obj, dict) else enumerate(obj)
            for k, v in items:
                if isinstance(v, (dict, list)):
                    walk(f"{prefix}{k}.", v)
                else:
                    lines.append(f"  {prefix}{k} = {v}")

        walk("", self.data)
        return "\n".join(lines) + "\n"


def _atomic_write(path, text):
    with _replacing([path]) as (fh,):
        fh.write(text)


# The config sections whose values set each stage, named in its errors.
_STAGE_SECTIONS = {"envelope": "[circuit] [grid]",
                   "rf": "[dds] [bandpass] [mixer] [grid]",
                   "eom": "[eom] [circuit] [mixer]",
                   "etalon": "[etalon]", "detector": "[detector]",
                   "atom": "[atom] [grid]"}


def _stage_error(name, msg):
    return ValidationError(f"stage '{name}' (config {_STAGE_SECTIONS[name]}): "
                           f"{msg}")


def _stage(name, fn):
    """``fn()``; a refusal or float error in it ends the run as stage
    ``name``'s error."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn()
    except (ValidationError, FloatingPointError) as exc:
        raise _stage_error(name, exc) from None


def _try_fit(w, window, direction):
    """Report-level fit: returns a summary dict, or the failure reason."""
    try:
        r = fit_exponential(w, window, direction)
        return {"tau_s": r.tau, "residual_norm": r.residual_norm,
                "window_s": [r.window[0], r.window[1]]}
    except (ValidationError, FitError) as exc:
        return {"tau_s": None, "error": str(exc)}


# the rf envelope is fitted inside the gate, so its analytic signal is taken
# over the gate and this margin on each side (clamped to the grid) only
_HILBERT_MARGIN_S = 250e-9


def _gate_span(w, gate):
    """``w`` over the gate +- ``_HILBERT_MARGIN_S``: ``w`` itself when that
    covers the grid, else a waveform on the sub-grid."""
    g = w.grid
    sl = g.window_slice(gate.t_on - _HILBERT_MARGIN_S,
                        gate.t_off + _HILBERT_MARGIN_S)
    if sl.stop - sl.start == g.n_samples:
        return w
    sub = TimeGrid(g.t_start + g.dt * sl.start, g.dt, sl.stop - sl.start)
    return Waveform(grid=sub, samples=w.samples[sl], unit=w.unit)


class _FrontEnd(NamedTuple):
    envelope: dict        # the envelope, rf and eom report blocks
    rf: dict
    eom: dict
    f_s: float
    rf_window: tuple      # the rising-edge fit window, clear of its edges
    sideband: np.ndarray  # read-only _forward DFT of the +1 sideband
    taps: tuple           # (file name, waveform or None) per electrical tap


@functools.lru_cache(maxsize=1)
def _front_end(circuit, gate, grid, dds, bandpass, mixer, eom, keep_taps):
    """Shaper -> RF chain -> EOM -> spectrum of the +1 sideband at baseband.

    No ``[etalon]``, ``[detector]``, ``[atom]`` or ``[run]`` key reaches
    this part of the run, and its arguments are the frozen config blocks it
    reads, so it is memoised on them: a sweep over a downstream key or a
    loop over seeds computes it once.  The result is shared between runs:
    its arrays are read-only, and :func:`run_chain` copies its report
    blocks.  Electrical taps are kept only when ``keep_taps``.
    """
    taps = []

    def tap(name, w):
        taps.append((name, w if keep_taps else None))

    tau_design = _stage("envelope", lambda: tau_from_control_voltage(circuit))
    v_be, v_out = _stage("envelope",
                         lambda: simulate_circuit(circuit, gate, grid))
    tap("v_be.csv", v_be)

    # parsing checked the gate; the output level can still underflow to 0
    peak = float(np.max(np.abs(v_out.samples)))
    if peak <= 0.0:
        raise _stage_error("envelope", "the shaper's output peak is 0 V")

    # fit window over the late on-interval, where I_C >> I0
    w_lo = gate.t_on + max(0.3 * gate.duration,
                           gate.duration - 5.0 * tau_design)
    w_hi = gate.t_off - 2.0 * grid.dt
    rf_window = (w_lo + 2e-9, w_hi - 2e-9)  # clear of analytic-signal edges
    envelope = {
        "tau_design_s": tau_design,
        "gate_on_s": gate.t_on, "gate_len_s": gate.duration,
        "v_out_peak_v": peak,
        "fit": _try_fit(v_out, (w_lo, w_hi), "rising"),
    }
    tap("v_out.csv", v_out)

    tones_bpf, tones_rf = _stage("rf", lambda: carrier_tones(dds, bandpass))
    f_s = dominant_tone(tones_rf)[0]
    rf = _stage("rf", lambda: mix_envelope(v_out, f_s, mixer))
    del v_be, v_out
    tap("rf_drive.csv", rf)
    rf_block = {
        "f_s_hz": f_s,
        "tones_after_bandpass": [
            {"f_hz": f, "amplitude": a} for f, a in tones_bpf],
        "spurs_at_output": [
            {"f_hz": f, "dbc": float(20.0 * np.log10(a)) if a > 0 else None}
            for f, a in tones_rf if a < 1.0],
        "envelope_fit": _try_fit(
            _stage("rf", lambda: analytic_envelope(_gate_span(rf, gate))),
            rf_window, "rising"),
    }

    crystal = _stage("eom", lambda: crystal_drive(rf, eom))
    x_peak = float(np.max(np.abs(crystal.samples))) / eom.v_pi
    # the +1 sideband of the drive, already scaled and rolled off, shifted
    # to baseband; its window is applied with the cascade in the etalon
    # pass.  Freeing the drive before the shift keeps the memoised spectrum
    # where a warm 1e6 run takes ~6,250 minor faults, not ~13,000
    env = _stage("eom", lambda: phase_modulate(
        crystal, ModulatorParams(v_pi=eom.v_pi)))
    del crystal
    shifted = _stage("eom", lambda: demodulate(env, f_s))
    del env, rf
    sideband = _forward(shifted.samples)
    del shifted
    sideband.flags.writeable = False
    eom_block = {
        "x_peak_vrf_over_vpi": x_peak,
        "carrier_j0": bessel_j(0, np.pi * x_peak),
        "sideband_j1": bessel_j(1, np.pi * x_peak),
        "distortion_fraction": distortion_fraction(x_peak),
    }
    return _FrontEnd(envelope, rf_block, eom_block, f_s, rf_window, sideband,
                     tuple(taps))


def run_chain(cfg: ChainConfig, outdir=None) -> RunReport:
    """Execute the chain on a validated config; optionally emit trace files.

    Trace taps match the documented measurement points: base voltage,
    shaper output, modulated RF drive, filtered optical sideband envelope,
    detected power.  Taps are held only when written; every other trace is
    dropped after its last reader.  The part of the run up to the sideband
    spectrum is shared with the previous run when their designs agree (see
    :func:`_front_end`).
    """
    grid = cfg.grid
    fe = _front_end(cfg.circuit, cfg.gate, grid, cfg.dds, cfg.bandpass,
                    cfg.mixer, cfg.eom, outdir is not None)
    traces = dict(fe.taps)  # tap name -> waveform, or None when not written

    def tap(name, w):
        traces[name] = w if outdir is not None else None

    report = copy.deepcopy({  # the front-end blocks are shared between runs
        "provenance": {"config_sha256": config_sha256(cfg), "seed": cfg.seed,
                       "version": __version__},
        "grid": {"dt_s": grid.dt, "n_samples": grid.n_samples,
                 "t_start_s": grid.t_start},
        # -0.0 and 0.0 are one key of the memo: echo this run's gate start
        "envelope": {**fe.envelope, "gate_on_s": cfg.gate.t_on},
        "rf": fe.rf,
        "eom": fe.eom,
    })
    f_s, rf_window = fe.f_s, fe.rf_window

    stack = cfg.etalon
    if cfg.apply_temp_jitter:
        stack = with_thermal_jitter(stack, np.random.default_rng(cfg.seed))
    diag = _stage("etalon", lambda: stage_diagnostics(stack, -f_s))
    # a +1 sideband no stronger than the carrier leaking through a cascade
    # that rejects the carrier leaves no pulse: the drive is empty.  (Where
    # the cascade passes the carrier at half its sideband transmission or
    # more, the etalon, not the drive, sets the leak; its block reports it.)
    j1, j0 = abs(fe.eom["sideband_j1"]), abs(fe.eom["carrier_j0"])
    t_carrier = 10.0 ** (-diag["cascade_extinction_db"] / 20.0)
    leak = j0 * t_carrier
    if (not j1 > leak
            and t_carrier < 0.5 * abs(stack_transmission(0.0, stack))):
        raise _stage_error(
            "eom", f"the +1 sideband J1 = {j1:.3g} is not above the carrier "
            f"J0*|T(-f_S)| = {leak:.3g} that leaks through the cascade: the "
            "drive that [eom] drive_scale, [eom] v_pi_v and [mixer] "
            "conversion_gain set leaves no pulse")
    filtered = _stage("etalon", lambda: _filter_spectrum(
        fe.sideband, grid, "sqrtW", stack, pre_gain=sideband_window(f_s)))
    ring_amp = float(max(photon_lifetime(e) for e in stack.stages))
    report["etalon"] = {
        **diag,
        "rise_fit": _try_fit(filtered, rf_window, "rising"),
        "single_stage_ringdown_s": ring_amp,
    }
    tap("filtered_envelope.csv", filtered)

    det = _stage("detector", lambda: detect(filtered, cfg.detector))
    # the cascade group delay shifts the cutoff; anchor the decay-fit
    # window at the detected peak and stop it at 1% of the peak, before
    # any residual mixer-leak floor flattens the tail
    dp = det.samples
    k_peak = int(np.argmax(dp))
    t_peak_det = grid.t_start + grid.dt * k_peak
    below = dp[k_peak:] < 0.01 * dp[k_peak]
    t_floor = grid.t_start + grid.dt * (k_peak + int(np.argmax(below))) \
        if below.any() else grid.t_end - grid.dt
    fall_window = (t_peak_det + max(0.5 * ring_amp, 2.0 * grid.dt),
                   min(t_floor, grid.t_end - grid.dt))
    report["detector"] = {
        "rise_fit": _try_fit(det, rf_window, "rising"),
        "fall_fit": _try_fit(det, fall_window, "falling"),
        "undershoot_fraction": undershoot_fraction(det),
    }
    tap("detected_power.csv", det)
    del det, dp

    if cfg.run_excitation:
        res = _stage("atom", lambda: excite(filtered, cfg.atom))
        bound = cfg.atom.lambda_overlap  # > 0 (config._build)
        report["atom"] = {
            "p_max": res.p_max,
            "t_at_max_s": res.t_at_max,
            "matched_pulse_bound": bound,
            "efficiency_vs_matched": res.p_max / bound,
        }

    report["traces"] = sorted(traces)
    out = RunReport(data=report)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        write_traces([(os.path.join(outdir, name), w)
                      for name, w in traces.items()])
        _atomic_write(os.path.join(outdir, "report.json"), out.to_json())
        _atomic_write(os.path.join(outdir, "report.txt"), out.to_text())
    return out


def sweep(cfg: ChainConfig, parameter_path, values, outdir=None):
    """Independent runs with one config key swept; order-deterministic.

    ``parameter_path`` is "section.key" (config key names, unit suffixes
    included); unresolvable paths fail naming the valid ones.
    """
    reports = []
    for i, v in enumerate(values):
        cfg_i = set_config_value(cfg, parameter_path, v)
        sub = os.path.join(outdir, f"point_{i:03d}") if outdir is not None else None
        reports.append(run_chain(cfg_i, sub))
    if outdir is not None:
        summary = {
            "parameter": parameter_path,
            "points": [{"index": i, "value": np.asarray(v).item(),  # plain scalar
                        "report": r.data}
                       for i, (v, r) in enumerate(zip(values, reports))],
        }
        _atomic_write(os.path.join(outdir, "sweep_summary.json"),
                      json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return reports


def fit_trace(path, window, direction):
    """Fit an exponential to a stored CSV trace (CLI `fit` backend)."""
    w = read_trace(path)
    return fit_exponential(w, window, direction)
