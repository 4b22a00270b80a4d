import dataclasses
import json
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from pulsechain import (EtalonStack, GatePulse, LeakageWarning, RunReport,
                        ValidationError, Waveform, bessel_j, default_config,
                        distortion_fraction, fit_trace, one_pole_lowpass,
                        parse_config, pipeline, read_trace, run_chain,
                        set_config_value, stack_extinction_db, sweep,
                        valid_parameter_paths, waveform)
from pulsechain.cli import main
from spectral_oracle import apply_transfer


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def with_kv(cfg, section, **texts):
    """``cfg`` with some keys' text changed, by ``dataclasses.replace``."""
    kv = {s: dict(items) for s, items in cfg.kv.items()}
    kv[section].update(texts)
    return dataclasses.replace(cfg, kv=kv)


@pytest.fixture(scope="module")
def report():
    return run_chain(default_config()).data


class TestDefaultRun:

    def test_cascade_extinction(self, report):
        assert report["etalon"]["cascade_extinction_db"] >= 60.0

    def test_envelope_fit_matches_design(self, report):
        env = report["envelope"]
        assert env["fit"]["tau_s"] == pytest.approx(env["tau_design_s"],
                                                    rel=0.02)

    def test_rf_carrier_frequency(self, report):
        assert report["rf"]["f_s_hz"] == pytest.approx(1.5e9)

    def test_operating_point_near_tenth_vpi(self, report):
        assert report["eom"]["x_peak_vrf_over_vpi"] == pytest.approx(0.1,
                                                                     rel=0.1)

    def test_detected_constants(self, report):
        det = report["detector"]
        rise = det["rise_fit"]["tau_s"]
        # power rise about half the 27 ns amplitude constant
        assert rise == pytest.approx(13.5e-9, rel=0.08)
        assert det["fall_fit"]["tau_s"] > report["grid"]["dt_s"]

    def test_excitation_block(self, report):
        atom = report["atom"]
        assert 0.0 < atom["p_max"] <= 1.0
        assert atom["efficiency_vs_matched"] == atom["p_max"]

    def test_provenance(self, report):
        assert len(report["provenance"]["config_sha256"]) == 64
        assert report["provenance"]["seed"] == 0


class TestOutputs:
    def test_trace_emission(self, tmp_path):
        out = tmp_path / "run"
        run_chain(default_config(), str(out))
        names = sorted(os.listdir(out))
        assert names == ["detected_power.csv", "filtered_envelope.csv",
                         "report.json", "report.txt", "rf_drive.csv",
                         "v_be.csv", "v_out.csv"]
        rep = json.loads((out / "report.json").read_text())
        assert rep["etalon"]["cascade_extinction_db"] >= 60.0
        w = read_trace(out / "v_out.csv")
        assert w.grid.n_samples == 10000

    def test_fit_trace_on_emitted_file(self, tmp_path):
        out = tmp_path / "run"
        run_chain(default_config(), str(out))
        r = fit_trace(str(out / "v_out.csv"), (665e-9, 799.8e-9), "rising")
        assert r.tau == pytest.approx(27e-9, rel=0.02)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = default_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_chain(cfg, str(a))
        run_chain(cfg, str(b))
        for name in sorted(os.listdir(a)):
            assert read_bytes(a / name) == read_bytes(b / name), name

    def test_jitter_deterministic_per_seed(self, tmp_path):
        text = "[etalon]\napply_temp_jitter = true\n[run]\nseed = 7\n"
        r1 = run_chain(parse_config(text)).data
        r2 = run_chain(parse_config(text)).data
        assert r1 == r2
        r3 = run_chain(parse_config(text.replace("7", "8"))).data
        assert (r3["etalon"]["cascade_extinction_db"]
                != r1["etalon"]["cascade_extinction_db"])


class TestSpecialConfigs:
    def test_single_etalon_extinction(self):
        rep = run_chain(set_config_value(default_config(),
                                         "etalon.n_stages", 1)).data
        assert 20.0 <= rep["etalon"]["cascade_extinction_db"] <= 22.0

    def test_eom_block_reads_the_rolled_off_drive(self, cold_front_end):
        # a 2 GHz modulator passes the 1.5 GHz carrier at |H| = 0.8: the
        # block describes the drive the crystal sees, not the electrical
        # one, and without a roll-off the two are equal bit for bit
        for bandwidth, x_shown in ((2.0, 0.0802530), (np.inf, 0.1014704)):
            cfg = parse_config(f"[eom]\nbandwidth_ghz = {bandwidth}\n")
            fe = pipeline._front_end(cfg.circuit, cfg.gate, cfg.grid, cfg.dds,
                                     cfg.bandpass, cfg.mixer, cfg.eom, True)
            rf, eom = dict(fe.taps)["rf_drive.csv"], fe.eom
            v = Waveform(grid=rf.grid,
                         samples=rf.samples * cfg.eom.drive_scale)
            if np.isfinite(bandwidth):
                v = apply_transfer(v, one_pole_lowpass(bandwidth * 1e9))
            else:
                assert eom["x_peak_vrf_over_vpi"] == (
                    cfg.eom.drive_scale * float(np.max(np.abs(rf.samples)))
                    / cfg.eom.v_pi)
            x = float(np.max(np.abs(v.samples.real))) / cfg.eom.v_pi
            assert eom["x_peak_vrf_over_vpi"] == pytest.approx(x, rel=1e-12)
            assert eom["x_peak_vrf_over_vpi"] == pytest.approx(x_shown,
                                                               abs=1e-7)
            assert eom["carrier_j0"] == pytest.approx(
                bessel_j(0, np.pi * x), rel=1e-12)
            assert eom["sideband_j1"] == pytest.approx(
                bessel_j(1, np.pi * x), rel=1e-12)
            assert eom["distortion_fraction"] == pytest.approx(
                distortion_fraction(x), rel=1e-9)

    def test_zero_length_gate_degenerate(self):
        # a gate too short for the grid never runs: parsing refuses it,
        # naming both keys, and no config can be built around parsing
        match = r"\[grid\]: dt_ns = 0.1 .*\[circuit\] gate_len_ns = 0.01"
        with pytest.raises(ValidationError, match=match):
            parse_config("[circuit]\ngate_len_ns = 0.01\n")
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(default_config(),
                                gate=GatePulse(t_on=50e-9, duration=0.01e-9))
        with pytest.raises(ValidationError, match=match):
            with_kv(default_config(), "circuit", gate_len_ns="0.01")

    def test_excitation_can_be_disabled(self):
        cfg = parse_config("[atom]\nrun_excitation = false\n")
        assert "atom" not in run_chain(cfg).data

    def test_eom_bandwidth_below_carrier_aborts_with_stage(self):
        # the config decides it, so parsing refuses it, naming key and f_S
        with pytest.raises(ValidationError,
                           match=r"\[eom\] bandwidth_ghz = 1\.0 .*f_S = 1\.5e\+09 Hz"):
            parse_config("[eom]\nbandwidth_ghz = 1.0\n")

    def test_overdriven_modulator_error_names_the_drive_sections(self):
        # the drive level is set by [circuit] and [mixer] as well as [eom]
        cfg = parse_config("[mixer]\nconversion_gain = 1e9\n")
        with pytest.raises(ValidationError,
                           match=r"stage 'eom' \(config .*\[mixer\].*5\*v_pi"):
            run_chain(cfg)

    @pytest.mark.parametrize("text", ["[eom]\nv_pi_v = 1e300\n",
                                      "[eom]\ndrive_scale = 1e-300\n"])
    def test_empty_modulator_setting_aborts_naming_the_drive_keys(self, text):
        # J1 = 2.7e-301 against a carrier leak J0*|T(-f_S)| = 8.1e-4: the
        # "pulse" would be carrier leaking through the cascade
        with pytest.raises(ValidationError) as err:
            run_chain(parse_config(text))
        msg = str(err.value)
        assert msg.startswith("stage 'eom'") and "J0*|T(-f_S)| = 0.000813" in msg
        for key in ("[eom] drive_scale", "[eom] v_pi_v",
                    "[mixer] conversion_gain"):
            assert key in msg

    def test_weak_drive_above_the_leak_still_runs(self, report):
        # the LO leak alone drives J1 = 0.0042, above the 8.1e-4 leak
        data = run_chain(parse_config("[mixer]\nconversion_gain = 1e-300\n")).data
        assert data["eom"]["sideband_j1"] == pytest.approx(0.00423, rel=1e-2)
        assert report["eom"]["sideband_j1"] == pytest.approx(0.157, rel=1e-2)

    @pytest.mark.parametrize("section, key, value", [
        ("circuit", "i0_a", "1e-300"), ("circuit", "load_ohm", "1e-300"),
        ("circuit", "c1_nf", "1e300"), ("circuit", "r11_ohm", "1e300"),
        ("detector", "responsivity", "1e-300"),
        ("detector", "responsivity", "1e300")])
    def test_tiny_signals_fit_without_warnings(self, section, key, value,
                                               report):
        # the suite turns RuntimeWarning into an error; these once made the
        # fit weights underflow to 0/0 and read as a contradicting trend,
        # and a huge detected power overflowed the fit's offset estimate
        rep = run_chain(parse_config(f"[{section}]\n{key} = {value}\n")).data
        fits = [rep["envelope"]["fit"], rep["rf"]["envelope_fit"],
                rep["etalon"]["rise_fit"], rep["detector"]["rise_fit"],
                rep["detector"]["fall_fit"]]
        assert not any("contradicts" in f.get("error", "") for f in fits)
        if key in ("i0_a", "load_ohm"):
            assert rep["envelope"]["fit"]["tau_s"] == pytest.approx(27e-9,
                                                                    rel=1e-6)
        if key == "responsivity":
            # the detected trace is only rescaled: its fits are the default's
            for name in ("rise_fit", "fall_fit"):
                fit = rep["detector"][name]
                assert fit["residual_norm"] > 0
                assert fit["tau_s"] == pytest.approx(
                    report["detector"][name]["tau_s"], rel=1e-14)

    def test_gate_outside_grid_aborts_with_stage(self):
        # a gate that ends past the grid never runs: parsing refuses it,
        # naming the grid and gate keys, and a block cannot be replaced
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(default_config(),
                                gate=GatePulse(t_on=600e-9, duration=500e-9))
        with pytest.raises(ValidationError,
                           match=r"\[grid\]: dt_ns = 0.1 .*\[circuit\] "
                                 r"gate_on_ns = 600.0, gate_len_ns = 500.0"):
            with_kv(default_config(), "circuit", gate_on_ns="600",
                    gate_len_ns="500")

    def test_vanishing_shaper_output_aborts_with_stage(self):
        # the gate is fine, but the output underflows to 0 V: the data
        # decides this, so the envelope stage refuses it at run time
        cfg = parse_config("[circuit]\ni0_a = 1e-300\nc1_nf = 1e300\n")
        with pytest.raises(ValidationError,
                           match=r"stage 'envelope' .*output peak is 0 V"):
            run_chain(cfg)

    def test_sweep_keeps_an_edit_in_every_point(self):
        edited = with_kv(default_config(), "circuit", gate_len_ns="400")
        reports = sweep(edited, "etalon.fsr_ghz", [12.0, 17.0, 24.0])
        for r in reports:
            assert r.data["envelope"]["gate_len_s"] == edited.gate.duration
        assert edited.gate.duration == pytest.approx(400e-9)
        # 17 GHz is the config's own value: that point is the run itself
        assert reports[1].to_json() == run_chain(edited).to_json()


class TestStrictJson:
    @pytest.mark.parametrize("text", ["[etalon]\nreflectivity = 0.1\n",
                                      "[etalon]\nloss = 0.999999\n"])
    def test_undefined_line_width_reported_as_null(self, tmp_path, text):
        run_chain(parse_config(text), str(tmp_path))
        rep = json.loads((tmp_path / "report.json").read_text(),
                         parse_constant=pytest.fail)
        for stage in rep["etalon"]["per_stage"]:
            assert stage["fwhm_hz"] is None and stage["finesse"] is None
            assert "undefined" in stage["fwhm_error"]

    def test_long_cascade_extinction_stays_finite(self, tmp_path):
        # the product of 400 stage transmissions underflows to 0; the
        # extinction is the sum of the per-stage values instead
        cfg = tmp_path / "s400.ini"
        cfg.write_text("[etalon]\nn_stages = 400\n")
        assert main(["simulate", str(cfg), "--outdir", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "report.json").read_text(),
                         parse_constant=pytest.fail)
        single = stack_extinction_db(EtalonStack.identical(1), 1.5e9)
        assert rep["etalon"]["cascade_extinction_db"] == pytest.approx(
            400 * single, rel=1e-12)

    @pytest.mark.parametrize("lifetime_ns, p_max", [
        ("3.6e-239", 8.2e-240), ("1e-6", 2.3e-7), ("1.8e15", 8.0e-14),
        ("1e300", 1.4e-298)])
    def test_extreme_atom_lifetime_reports_finite(self, lifetime_ns, p_max):
        # gamma*dt from 2.8e237, where the 2*dt step factor underflows to 0,
        # down to 1e-301, where it rounds to 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_chain(parse_config(
                f"[atom]\nexcited_lifetime_ns = {lifetime_ns}\n"))
        rep = json.loads(report.to_json(), parse_constant=pytest.fail)
        assert rep["atom"]["p_max"] == pytest.approx(p_max, rel=0.05)

    @pytest.mark.parametrize("text", [
        "", "[etalon]\napply_temp_jitter = true\n",
        "[atom]\nrun_excitation = false\n",
        "[mixer]\nlo_leak_db = -inf\nif_leak_db = -inf\n",
        "[etalon]\nfsr_ghz = 0.1\n"])
    def test_every_report_node_is_a_plain_type(self, text):
        # exact types: numpy's float64 subclasses float and would pass
        # isinstance, but not int64 or bool_
        def odd_nodes(obj, path):
            if type(obj) is dict:
                keys = [f"{path} key {k!r}" for k in obj if type(k) is not str]
                return keys + [p for k, v in obj.items()
                               for p in odd_nodes(v, f"{path}.{k}")]
            if type(obj) is list:
                return [p for i, v in enumerate(obj)
                        for p in odd_nodes(v, f"{path}[{i}]")]
            plain = (str, int, float, bool, type(None))
            return [] if type(obj) in plain else [f"{path}: {type(obj)}"]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeakageWarning)  # fsr_ghz = 0.1
            data = run_chain(parse_config(text)).data
        assert odd_nodes(data, "data") == []

    def test_non_finite_values_refused(self):
        with pytest.raises(ValueError):
            RunReport(data={"x": float("nan")}).to_json()
        with pytest.raises(ValueError):
            RunReport(data={"x": float("inf")}).to_json()


class TestMemory:
    def test_run_peak_is_a_few_traces(self, cold_front_end):
        # one complex trace is 16*n bytes; the run used to peak at 13.7 of
        # them (real signals stored complex, copies into every container,
        # full-length cascade temporaries, every tap held to the end)
        n = 100_000
        design = (f"[grid]\nn_samples = {n}\n"
                  "[etalon]\napply_temp_jitter = true\n")
        run_chain(parse_config(design))  # first-call set-up is not part of it
        pipeline._front_end.cache_clear()
        tracemalloc.start()
        try:
            run_chain(parse_config(design + "[run]\nseed = 1\n"))
            kept, cold_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the memo keeps one complex spectrum, made before a warm run starts
        assert pipeline._front_end.cache_info().currsize == 1
        assert kept <= 1.05 * 16 * n
        tracemalloc.start()
        try:
            run_chain(parse_config(design + "[run]\nseed = 2\n"))
            warm_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cold_peak <= 8 * 16 * n
        assert warm_peak + 16 * n <= 8 * 16 * n


class TestRfFitOverTheGate:
    """``rf.envelope_fit`` reads the analytic signal over the gate and
    ``pipeline._HILBERT_MARGIN_S`` on each side only."""

    def test_fit_does_not_depend_on_grid_length(self):
        # both grids hold the gate and its margins
        fits = [run_chain(parse_config(f"[grid]\nn_samples = {n}\n"))
                .data["rf"]["envelope_fit"] for n in (100_000, 200_000)]
        assert fits[0]["tau_s"] is not None
        assert fits[0] == fits[1]

    def test_span_over_the_whole_grid_is_the_drive(self):
        # at 1e4 samples the span is the whole grid: the fit reads the drive
        # itself, as golden Test B's default report expects
        cfg = default_config()
        w = Waveform(grid=cfg.grid, samples=np.zeros(cfg.grid.n_samples))
        assert pipeline._gate_span(w, cfg.gate) is w

    # the gate at the grid's start, and the gate ending on the grid's end
    @pytest.mark.parametrize("n, gate_on_ns", [(20_000, 0.0), (18_001, 1050.0)])
    def test_gate_at_the_grid_edge_clamps_the_span(self, n, gate_on_ns):
        cfg = parse_config(f"[grid]\nn_samples = {n}\n"
                           f"[circuit]\ngate_on_ns = {gate_on_ns}\n")
        g, gate, margin = cfg.grid, cfg.gate, pipeline._HILBERT_MARGIN_S
        w = Waveform(grid=g, samples=np.arange(n, dtype=float))
        span = pipeline._gate_span(w, gate)
        lo = round((span.grid.t_start - g.t_start) / g.dt)
        assert span.grid.n_samples < n and span.grid.dt == g.dt
        assert span.grid.t_start == pytest.approx(
            max(g.t_start, gate.t_on - margin), abs=0.5 * g.dt)
        assert span.grid.t_end == pytest.approx(
            min(g.t_end, gate.t_off + margin), abs=0.5 * g.dt)
        np.testing.assert_array_equal(
            span.samples, w.samples[lo:lo + span.grid.n_samples])
        data = run_chain(cfg).data
        assert data["rf"]["envelope_fit"]["tau_s"] == pytest.approx(
            data["envelope"]["tau_design_s"], rel=0.02)


def _outcome(cfg, outdir=None):
    """A run's report JSON, or its error message; with ``outdir``, the
    bytes of every file it wrote."""
    try:
        text = run_chain(cfg, outdir).to_json()
    except ValidationError as exc:
        return f"error: {exc}"
    return _tree_bytes(outdir) if outdir is not None else text


def _tree_bytes(root):
    return {name: read_bytes(os.path.join(root, name))
            for name in sorted(os.listdir(root))}


def _without_provenance(out):
    """An :func:`_outcome` less what names the config: the reports among
    the written files, or the report's ``provenance``."""
    if isinstance(out, dict):
        return {k: v for k, v in out.items() if not k.startswith("report")}
    return out if out.startswith("error") else (
        json.loads(out) | {"provenance": None})


class TestFrontEndMemo:
    # one changed value per [grid] [circuit] [dds] [bandpass] [mixer] [eom]
    # key, each chosen to change the run's outcome: its report, or for the
    # discharge after the gate, which only the v_be trace shows, its files
    FRONT_END_KEYS = [
        ("grid.dt_ns", 0.09), ("grid.n_samples", 12000),
        ("grid.t_start_ns", -5.0),
        ("circuit.i0_a", 2e-14), ("circuit.v_t_mv", 25.0),
        ("circuit.c1_nf", 4.2), ("circuit.r11_ohm", 1100.0),
        ("circuit.v_in_v", 4.2), ("circuit.v_drop_v", 0.65),
        ("circuit.i_c_max_ma", 10.0), ("circuit.v_out_max_v", 0.5),
        ("circuit.discharge_tau_ns", 150.0), ("circuit.load_ohm", 45.0),
        ("circuit.gate_on_ns", 60.0), ("circuit.gate_len_ns", 700.0),
        ("dds.f_clk_mhz", 510.0), ("dds.f_tune_mhz", 130.0),
        ("dds.n_images", 2),
        ("bandpass.f_center_mhz", 380.0),
        ("bandpass.rejections_mhz_dbc", "125.0:60.0,500.0:24.0,625.0:35.0"),
        ("bandpass.passband_loss_db", 1.0),
        ("mixer.conversion_gain", 1.1), ("mixer.lo_leak_db", -50.0),
        ("mixer.if_leak_db", -50.0),
        ("eom.v_pi_v", 1.8), ("eom.drive_scale", 0.3),
        ("eom.bandwidth_ghz", 2.0),
    ]

    def test_key_list_covers_the_front_end_sections(self):
        listed = {path for path, _ in self.FRONT_END_KEYS}
        sections = ("grid", "circuit", "dds", "bandpass", "mixer", "eom")
        assert listed == {p for p in valid_parameter_paths()
                          if p.split(".")[0] in sections}

    @pytest.mark.parametrize("path, value", FRONT_END_KEYS)
    def test_every_front_end_key_is_in_the_memo_key(self, tmp_path,
                                                    cold_front_end,
                                                    path, value):
        outdir = (lambda name: str(tmp_path / name)
                  if path == "circuit.discharge_tau_ns" else None)
        base = default_config()
        cfg = set_config_value(base, path, value)
        base_out = _outcome(base, outdir("base"))  # the memo holds it now
        warm = _outcome(cfg, outdir("warm"))
        pipeline._front_end.cache_clear()
        cold = _outcome(cfg, outdir("cold"))
        assert warm == cold
        assert _without_provenance(cold) != _without_provenance(base_out)

    def test_negative_zero_gate_start(self, cold_front_end):
        # -0.0 and 0.0 are one key of the memo; the report keeps the sign
        cfg_pos = parse_config("[circuit]\ngate_on_ns = 0.0\n")
        cfg_neg = parse_config("[circuit]\ngate_on_ns = -0.0\n")
        run_chain(cfg_pos)
        warm = run_chain(cfg_neg).to_json()
        pipeline._front_end.cache_clear()
        assert warm == run_chain(cfg_neg).to_json()
        assert '"gate_on_s": -0.0' in warm

    def test_sweeps_shape_once_per_design(self, cold_front_end, monkeypatch):
        calls = []
        shaper = pipeline.simulate_circuit

        def counted(*args):
            calls.append(args)
            return shaper(*args)

        monkeypatch.setattr(pipeline, "simulate_circuit", counted)
        sweep(default_config(), "etalon.fsr_ghz", [12.0, 15.0, 17.0, 25.0])
        assert len(calls) == 1
        calls.clear()
        sweep(default_config(), "circuit.v_in_v", [4.0, 4.2, 4.4])
        assert len(calls) == 3

    @pytest.mark.parametrize("n", [10_000, 100_000])
    @pytest.mark.parametrize("write", [False, True])
    def test_warm_run_equals_cold_run(self, tmp_path, cold_front_end, n,
                                      write):
        design = (f"[grid]\nn_samples = {n}\n"
                  "[etalon]\napply_temp_jitter = true\n")

        def run(seed, name):
            outdir = str(tmp_path / name) if write else None
            text = run_chain(parse_config(design + f"[run]\nseed = {seed}\n"),
                             outdir).to_json()
            return _tree_bytes(outdir) if write else text

        run(1, "prime")
        warm = run(2, "warm")  # formats each column; keeps the front end's
        kept = dict(waveform._column_text)
        pipeline._front_end.cache_clear()
        assert warm == run(2, "cold")
        if write:  # the cold run served the time column and the three
            # electrical taps from the text that the warm run kept
            reused = [k for k, v in kept.items()
                      if v is not None and waveform._column_text[k] is v]
            assert len(reused) == 4

    def test_lone_cold_traced_run_keeps_no_text(self, tmp_path,
                                                cold_front_end):
        run_chain(default_config(), str(tmp_path))
        assert waveform._column_text
        assert all(v is None for v in waveform._column_text.values())

    def test_shared_state_is_not_writable(self, cold_front_end):
        cfg = parse_config("[etalon]\napply_temp_jitter = true\n")
        first = run_chain(cfg)
        expected = first.to_json()
        first.data["envelope"]["fit"]["tau_s"] = -1.0
        first.data["rf"]["tones_after_bandpass"].clear()
        first.data["eom"]["carrier_j0"] = 0.0
        fe = pipeline._front_end(cfg.circuit, cfg.gate, cfg.grid, cfg.dds,
                                 cfg.bandpass, cfg.mixer, cfg.eom, False)
        assert pipeline._front_end.cache_info().hits == 1
        spectrum = fe.sideband.copy()
        with pytest.raises(ValueError):
            fe.sideband[0] = 0.0
        assert run_chain(cfg).to_json() == expected
        assert np.array_equal(fe.sideband.view(np.int64),
                              spectrum.view(np.int64))


class TestBackEndKeys:
    # one changed value per [etalon] [detector] [atom] [run] key, each
    # chosen to change the run's outcome: its report, with the thermal
    # jitter on for the keys that act only through its draw, or for the
    # responsivity, which moves the report only by rounding, its files
    BACK_END_KEYS = [
        ("etalon.n_stages", 2), ("etalon.reflectivity", 0.9),
        ("etalon.fsr_ghz", 15.0), ("etalon.detuning_mhz", 50.0),
        ("etalon.loss", 0.01), ("etalon.temp_per_fsr_k", 5.0),
        ("etalon.temp_jitter_mk", 50.0), ("etalon.apply_temp_jitter", "true"),
        ("etalon.stage2_reflectivity", 0.9), ("etalon.stage2_fsr_ghz", 15.0),
        ("etalon.stage2_detuning_mhz", 50.0), ("etalon.stage2_loss", 0.01),
        ("etalon.stage2_temp_per_fsr_k", 5.0),
        ("detector.bandwidth_ghz", 0.5), ("detector.scope_bandwidth_ghz", 1.0),
        ("detector.responsivity", 2.0),
        ("atom.excited_lifetime_ns", 30.0), ("atom.lambda_overlap", 0.5),
        ("atom.detuning_mhz", 10.0), ("atom.run_excitation", "false"),
        ("run.seed", 1),
    ]
    JITTERED = {"run.seed", "etalon.temp_jitter_mk", "etalon.temp_per_fsr_k",
                "etalon.stage2_temp_per_fsr_k"}

    def test_key_lists_cover_every_key(self):
        # a key that no list names, or that the schema has lost, fails here
        paths = [path for path, _ in
                 TestFrontEndMemo.FRONT_END_KEYS + self.BACK_END_KEYS]
        listed = [re.sub(r"^etalon\.stage\d+_", "etalon.stage<N>_", path)
                  for path in paths]
        schema = []
        for path in valid_parameter_paths():
            m = re.fullmatch(r"etalon\.stage<N>_<(.*)>", path)
            schema += ([f"etalon.stage<N>_{name}"
                        for name in m.group(1).split("|")] if m else [path])
        assert sorted(listed) == sorted(schema)

    @pytest.mark.parametrize("path, value", BACK_END_KEYS)
    def test_every_back_end_key_acts(self, tmp_path, path, value):
        outdir = (lambda name: str(tmp_path / name)
                  if path == "detector.responsivity" else None)
        base = parse_config("[etalon]\napply_temp_jitter = true\n"
                            if path in self.JITTERED else "")
        base_out = _outcome(base, outdir("base"))
        out = _outcome(set_config_value(base, path, value), outdir("changed"))
        assert _without_provenance(out) != _without_provenance(base_out)


class TestEdgeValues:
    # every key, one at a time, at values that sit on or past the edges of
    # its range; the two key lists above hold each schema key once, with
    # stage<N> as stage2
    VALUES = ["0", "-0.0", "-1", "1e-300", "1e-320", "1e308", "inf", "-inf",
              "nan", "3", "0.5"]
    PATHS = [path for path, _ in
             TestFrontEndMemo.FRONT_END_KEYS + TestBackEndKeys.BACK_END_KEYS]

    @pytest.mark.parametrize("path", PATHS)
    def test_named_error_or_a_report(self, path):
        # a leaking stack warns by design; a numpy warning would mean a
        # float error that no stage named
        sections = "|".join(sorted({p.split(".")[0] for p in self.PATHS}))
        unnamed = []
        for value in self.VALUES:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    warnings.simplefilter("ignore", LeakageWarning)
                    run_chain(set_config_value(default_config(), path,
                                               value)).to_json()
            except ValidationError as exc:
                if not re.search(rf"\[({sections})\]", str(exc)):
                    unnamed.append((value, str(exc)))
        assert unnamed == []

    @pytest.mark.parametrize("path", PATHS)
    def test_parse_time_refusal_names_its_key(self, path):
        # the key that was set follows its [section] (stage2_* by its own
        # name), and no type's Cls.field stands in for it
        section, key = path.split(".")
        for value in self.VALUES:
            try:
                set_config_value(default_config(), path, value)
            except ValidationError as exc:
                msg = str(exc)
                assert re.search(rf"\[{section}\][^\[]*\b{key}\b", msg), msg
                assert not re.search(r"\b[A-Z]\w*\.[a-z_]\w*", msg), msg

    @pytest.mark.parametrize("path, value, stage", [
        ("mixer.conversion_gain", "1e308", "rf"),
        ("detector.responsivity", "1e308", "detector")])
    def test_float_error_ends_its_stage(self, path, value, stage):
        # an overflow or invalid value inside a stage is that stage's
        # error, and numpy prints no warning on the way
        cfg = set_config_value(default_config(), path, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"^stage '{stage}' "):
                run_chain(cfg)

    @pytest.mark.parametrize("value", ["1e-320", "2.7e-308"])
    @pytest.mark.parametrize("key", ["bandwidth_ghz", "scope_bandwidth_ghz"])
    def test_narrow_pole_refused_at_parse(self, key, value):
        # f/bw overflows at the grid's Nyquist frequency, 5 GHz at the
        # default dt: refused when parsed, naming its key, not in the run
        with pytest.raises(ValidationError,
                           match=rf"^config \[detector\]: {key} = {value} "):
            set_config_value(default_config(), f"detector.{key}", value)
        run_chain(set_config_value(default_config(), f"detector.{key}",
                                   "2.8e-308"))

    @pytest.mark.parametrize("path, value", [
        ("circuit.r11_ohm", "1e-300"), ("circuit.v_in_v", "1e308"),
        ("etalon.fsr_ghz", "1e-320"), ("etalon.stage2_fsr_ghz", "1e-320")])
    def test_overflowing_product_refused_at_parse(self, path, value):
        # the ramp slope (v_in - v_drop)/(r11 c1), and pi/FSR times the
        # Nyquist frequency, overflow: refused when parsed, naming the key
        # that was set first, not in the run
        section, key = path.split(".")
        shown = re.escape(repr(float(value)))
        with pytest.raises(ValidationError,
                           match=rf"^config \[{section}\]: {key} = {shown} "):
            set_config_value(default_config(), path, value)


class TestSweep:
    def test_tau_sweep_order_and_values(self, tmp_path):
        cfg = default_config()
        values = [4.0, 4.455555555555556, 5.0]
        reports = sweep(cfg, "circuit.v_in_v", values, str(tmp_path / "sw"))
        taus = [r.data["envelope"]["tau_design_s"] for r in reports]
        assert taus == sorted(taus, reverse=True)  # higher drive, faster ramp
        summary = json.loads((tmp_path / "sw" / "sweep_summary.json").read_text(),
                             parse_constant=pytest.fail)
        assert [p["value"] for p in summary["points"]] == values
        assert os.path.isdir(tmp_path / "sw" / "point_002")

    @pytest.mark.parametrize("path, values", [
        ("etalon.n_stages", np.arange(2, 4)),
        ("etalon.fsr_ghz", np.array([10.2, 17.0]))])
    def test_numpy_scalar_values_written_as_plain_json(self, tmp_path, path,
                                                       values):
        # the values iterate as numpy scalars: int64, then float64
        sweep(default_config(), path, values, str(tmp_path))
        summary = json.loads((tmp_path / "sweep_summary.json").read_text(),
                             parse_constant=pytest.fail)
        written = [p["value"] for p in summary["points"]]
        assert written == values.tolist()
        assert [type(v) for v in written] == [type(v) for v in values.tolist()]

    def test_unresolvable_path_names_valid_ones(self):
        with pytest.raises(ValidationError, match="valid paths"):
            sweep(default_config(), "circuit.voltage", [1.0])

    def test_sweep_values_validated(self):
        with pytest.raises(ValidationError):
            sweep(default_config(), "etalon.reflectivity", [0.9, 1.5])
