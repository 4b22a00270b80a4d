import json
import os

import pytest

from pulsechain import (EtalonStack, RunReport, ValidationError,
                        default_config, fit_trace, parse_config, read_trace,
                        run_chain, set_config_value, stack_extinction_db, sweep)
from pulsechain.cli import main


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


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

    def test_zero_length_gate_degenerate(self):
        cfg = parse_config("[circuit]\ngate_len_ns = 0.01\n")
        rep = run_chain(cfg).data
        assert rep["envelope"]["degenerate"] is True
        assert rep["envelope"]["v_out_peak_v"] == 0.0
        assert "rf" not in rep
        assert "atom" not in rep

    def test_excitation_can_be_disabled(self):
        cfg = parse_config("[atom]\nrun_excitation = false\n")
        assert "atom" not in run_chain(cfg).data

    def test_eom_bandwidth_below_carrier_aborts_with_stage(self):
        cfg = parse_config("[eom]\nbandwidth_ghz = 1.0\n")
        with pytest.raises(ValidationError, match="eom"):
            run_chain(cfg)

    def test_gate_outside_grid_aborts_with_stage(self):
        cfg = parse_config("[circuit]\ngate_on_ns = 600\ngate_len_ns = 500\n")
        with pytest.raises(ValidationError, match="envelope"):
            run_chain(cfg)


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

    def test_non_finite_values_refused(self):
        with pytest.raises(ValueError):
            RunReport(data={"x": float("nan")}).to_json()
        with pytest.raises(ValueError):
            RunReport(data={"x": float("inf")}).to_json()


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

    def test_unresolvable_path_names_valid_ones(self):
        with pytest.raises(ValidationError, match="valid paths"):
            sweep(default_config(), "circuit.voltage", [1.0])

    def test_sweep_values_validated(self):
        with pytest.raises(ValidationError):
            sweep(default_config(), "etalon.reflectivity", [0.9, 1.5])
