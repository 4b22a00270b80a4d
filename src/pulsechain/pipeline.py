"""Full-chain orchestration: envelope -> mixer -> EOM -> etalons ->
photodiode, optionally -> atom; trace taps, fitted summaries, sweeps.

A run is deterministic given (config, seed): report and trace files are
byte-identical across repeated runs, and every output file is written
atomically.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .atom import excite
from .config import ChainConfig, config_sha256, set_config_value
from .detector import detect, undershoot_fraction
from .envelope import simulate_circuit, tau_from_control_voltage
from .eom import bessel_j, demodulate, distortion_fraction, phase_modulate, sideband_window
from .errors import FitError, ValidationError
from .etalon import filter_pulse, photon_lifetime, stage_diagnostics, with_thermal_jitter
from .rfchain import apply_bandpass, dds_tones, dominant_tone, frequency_quadruple, mix_envelope
from .waveform import analytic_envelope, fit_exponential, read_trace, write_trace


def _py(obj):
    """Recursively convert numpy scalars so the report serializes as JSON."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


@dataclass(frozen=True)
class RunReport:
    """Per-stage summaries plus provenance; serializable deterministically."""

    data: dict

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
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _atomic_trace(path, w):
    tmp = f"{path}.tmp"
    write_trace(tmp, w)
    os.replace(tmp, path)


def _stage(name, fn):
    try:
        return fn()
    except ValidationError as exc:
        raise ValidationError(f"stage '{name}': {exc}") from None


def _try_fit(w, window, direction):
    """Report-level fit: returns a summary dict, or the failure reason."""
    try:
        r = fit_exponential(w, window, direction)
        return {"tau_s": r.tau, "residual_norm": r.residual_norm,
                "window_s": [r.window[0], r.window[1]]}
    except (ValidationError, FitError) as exc:
        return {"tau_s": None, "error": str(exc)}


def run_chain(cfg: ChainConfig, outdir=None) -> RunReport:
    """Execute the chain on a validated config; optionally emit trace files.

    Trace taps match the documented measurement points: base voltage,
    shaper output, modulated RF drive, filtered optical sideband envelope,
    detected power.
    """
    grid = cfg.grid
    gate = cfg.gate
    tau_design = _stage("envelope", lambda: tau_from_control_voltage(cfg.circuit))
    v_be, v_out = _stage("envelope",
                         lambda: simulate_circuit(cfg.circuit, gate, grid))

    peak = float(np.max(np.abs(v_out.samples)))
    sl = grid.window_slice(gate.t_on, gate.t_off)
    degenerate = peak <= 0.0 or (sl.stop - sl.start) < 16

    # fit window over the late on-interval, where I_C >> I0
    w_lo = gate.t_on + max(0.3 * gate.duration,
                           gate.duration - 5.0 * tau_design)
    w_hi = gate.t_off - 2.0 * grid.dt
    rf_window = (w_lo + 2e-9, w_hi - 2e-9)  # clear of analytic-signal edges

    report = {
        "provenance": {"config_sha256": config_sha256(cfg), "seed": cfg.seed,
                       "version": __version__},
        "grid": {"dt_s": grid.dt, "n_samples": grid.n_samples,
                 "t_start_s": grid.t_start},
        "envelope": {
            "tau_design_s": tau_design,
            "gate_on_s": gate.t_on, "gate_len_s": gate.duration,
            "v_out_peak_v": peak,
            "degenerate": bool(degenerate),
            "fit": None if degenerate else _try_fit(v_out, (w_lo, w_hi), "rising"),
        },
    }

    traces = {"v_be.csv": v_be, "v_out.csv": v_out}

    if not degenerate:
        tones = _stage("rf", lambda: dds_tones(cfg.dds))
        tones_bpf = _stage("rf", lambda: apply_bandpass(tones, cfg.bandpass))
        tones_rf = _stage("rf", lambda: frequency_quadruple(tones_bpf))
        f_s = dominant_tone(tones_rf)[0]
        if cfg.eom.bandwidth_hz <= f_s:
            raise ValidationError(
                f"stage 'eom': modulator bandwidth {cfg.eom.bandwidth_hz:g} Hz "
                f"must exceed the carrier f_S = {f_s:g} Hz")
        rf = _stage("rf", lambda: mix_envelope(v_out, f_s, cfg.mixer))
        rf_env = analytic_envelope(rf)
        report["rf"] = {
            "f_s_hz": f_s,
            "tones_after_bandpass": [
                {"f_hz": f, "amplitude": a} for f, a in tones_bpf],
            "spurs_at_output": [
                {"f_hz": f, "dbc": 20.0 * np.log10(a) if a > 0 else None}
                for f, a in tones_rf if a < 1.0],
            "envelope_fit": _try_fit(rf_env, rf_window, "rising"),
        }
        traces["rf_drive.csv"] = rf

        x_peak = cfg.eom.drive_scale * float(np.max(np.abs(rf.samples.real))) / cfg.eom.v_pi
        field = _stage("eom", lambda: phase_modulate(rf, cfg.eom))
        # the +1 sideband, shifted to baseband; its window is applied
        # together with the cascade in one spectral pass below
        shifted = _stage("eom", lambda: demodulate(field, f_s))
        report["eom"] = {
            "x_peak_vrf_over_vpi": x_peak,
            "carrier_j0": bessel_j(0, np.pi * x_peak),
            "sideband_j1": bessel_j(1, np.pi * x_peak),
            "distortion_fraction": distortion_fraction(x_peak),
        }

        stack = cfg.etalon
        if cfg.apply_temp_jitter:
            stack = with_thermal_jitter(stack, np.random.default_rng(cfg.seed))
        filtered = _stage("etalon", lambda: filter_pulse(
            shifted, stack, pre_gain=sideband_window(f_s)))
        diag = stage_diagnostics(stack, carrier_offset_hz=-f_s)
        ring_amp = max(photon_lifetime(e) for e in stack.stages)
        report["etalon"] = {
            **diag,
            "rise_fit": _try_fit(filtered, rf_window, "rising"),
            "single_stage_ringdown_s": ring_amp,
        }
        traces["filtered_envelope.csv"] = filtered

        det = _stage("detector", lambda: detect(filtered, cfg.detector))
        # the cascade group delay shifts the cutoff; anchor the decay-fit
        # window at the detected peak and stop it at 1% of the peak, before
        # any residual mixer-leak floor flattens the tail
        dp = det.samples.real
        k_peak = int(np.argmax(dp))
        t_peak_det = grid.t_start + grid.dt * k_peak
        below = np.nonzero(dp[k_peak:] < 0.01 * dp[k_peak])[0]
        t_floor = grid.t_start + grid.dt * (k_peak + int(below[0])) \
            if len(below) else grid.t_end - grid.dt
        fall_window = (t_peak_det + max(0.5 * ring_amp, 2.0 * grid.dt),
                       min(t_floor, grid.t_end - grid.dt))
        report["detector"] = {
            "rise_fit": _try_fit(det, rf_window, "rising"),
            "fall_fit": _try_fit(det, fall_window, "falling"),
            "undershoot_fraction": undershoot_fraction(det),
        }
        traces["detected_power.csv"] = det

        if cfg.run_excitation:
            res = _stage("atom", lambda: excite(filtered, cfg.atom))
            bound = cfg.atom.lambda_overlap
            report["atom"] = {
                "p_max": res.p_max,
                "t_at_max_s": res.t_at_max,
                "matched_pulse_bound": bound,
                "efficiency_vs_matched": res.p_max / bound if bound > 0 else None,
            }

    report["traces"] = sorted(traces)
    out = RunReport(data=_py(report))
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        for name, w in traces.items():
            _atomic_trace(os.path.join(outdir, name), w)
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
            "points": [{"index": i, "value": _py(v), "report": r.data}
                       for i, (v, r) in enumerate(zip(values, reports))],
        }
        _atomic_write(os.path.join(outdir, "sweep_summary.json"),
                      json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return reports


def fit_trace(path, window, direction):
    """Fit an exponential to a stored CSV trace (CLI `fit` backend)."""
    w = read_trace(path)
    return fit_exponential(w, window, direction)
