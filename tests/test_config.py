import copy
import dataclasses
import json
import pickle

import pytest

from pulsechain import (ChainConfig, GatePulse, ValidationError, config_sha256,
                        default_config, parse_config, run_chain,
                        serialize_config, set_config_value,
                        valid_parameter_paths)
from pulsechain.config import MAX_IMAGES, MAX_SAMPLES, MAX_STAGES


class TestDefaults:
    def test_default_config_valid(self):
        cfg = default_config()
        assert cfg.grid.n_samples == 10000
        assert cfg.grid.dt == pytest.approx(0.1e-9)
        assert cfg.circuit.c1 == pytest.approx(3.9e-9)
        assert cfg.dds.f_clk == 500e6
        assert cfg.eom.v_pi == pytest.approx(1.7)
        assert len(cfg.etalon.stages) == 3
        assert cfg.etalon.stages[0].reflectivity == 0.95
        assert cfg.detector.bandwidth_hz == pytest.approx(1e9)
        assert cfg.atom.gamma == pytest.approx(1 / 26.2e-9)
        assert cfg.seed == 0

    def test_canonical_roundtrip(self):
        cfg = default_config()
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again.kv == cfg.kv
        assert config_sha256(again) == config_sha256(cfg)

    def test_semantically_equal_texts_hash_identically(self):
        a = parse_config("[circuit]\nv_in_v = 4.0\n")
        b = parse_config("[circuit]\nv_in_v = 0.4e1\n")
        assert config_sha256(a) == config_sha256(b)


class TestValidation:
    def test_unknown_section(self):
        with pytest.raises(ValidationError, match="unknown section"):
            parse_config("[thruster]\npower = 11\n")

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config("[circuit]\nv_inn_v = 4.0\n")

    def test_bad_number(self):
        with pytest.raises(ValidationError, match=r"\[circuit\]"):
            parse_config("[circuit]\nv_in_v = four volts\n")

    def test_invariant_violations_name_section(self):
        cases = [
            ("[etalon]\nreflectivity = 1.01\n", "etalon"),
            ("[circuit]\nv_in_v = 0.5\n", "circuit"),
            ("[grid]\ndt_ns = 0\n", "grid"),
            ("[circuit]\nv_t_mv = 50\n", "circuit"),
            ("[mixer]\nlo_leak_db = 3\n", "mixer"),
            ("[atom]\nlambda_overlap = 1.5\n", "atom"),
            ("[dds]\nf_tune_mhz = 400\n", "dds"),
            ("[run]\nseed = -1\n", "run"),
            # non-finite values
            ("[etalon]\nfsr_ghz = inf\n", "etalon"),
            ("[dds]\nf_clk_mhz = inf\n", "dds"),
            ("[eom]\nv_pi_v = inf\n", "eom"),
            ("[bandpass]\npassband_loss_db = nan\n", "bandpass"),
            ("[bandpass]\nrejections_mhz_dbc = 125:nan\n", "bandpass"),
            # a band-pass loss that leaves the tones no power
            ("[bandpass]\npassband_loss_db = 1e6\n", "bandpass"),
            ("[etalon]\ntemp_jitter_mk = nan\n", "etalon"),
            ("[etalon]\nstage2_fsr_ghz = infinity\n", "etalon"),
            # finite values that the unit factor overflows or flushes to 0
            ("[etalon]\nfsr_ghz = 1e305\n", "etalon"),
            ("[etalon]\nstage1_fsr_ghz = 1e305\n", "etalon"),
            ("[dds]\nf_clk_mhz = 1e305\n", "dds"),
            ("[atom]\nexcited_lifetime_ns = 1e-320\n", "atom"),
            # lifetimes whose decay rate overflows to inf
            ("[atom]\nexcited_lifetime_ns = 1e-300\n", "atom"),
            ("[atom]\nexcited_lifetime_ns = 1e-309\n", "atom"),
            # a detuning whose angular rate 2*pi*Delta overflows to inf
            ("[atom]\ndetuning_mhz = 1e302\n", "atom"),
            # a grid that ends before the gate, or gives fewer than 4
            # samples per carrier cycle
            ("[grid]\ndt_ns = 0.03\n", "grid"),
            ("[grid]\ndt_ns = 1.0\n", "grid"),
        ]
        for text, section in cases:
            with pytest.raises(ValidationError, match=rf"\[{section}\]"):
                parse_config(text)

    def test_atom_errors_name_key(self):
        cases = [
            ("[atom]\nexcited_lifetime_ns = 1e-300\n",
             r"\[atom\]: excited_lifetime_ns = 1e-300 .*infinite"),
        ]
        for text, pattern in cases:
            with pytest.raises(ValidationError, match=pattern):
                parse_config(text)

    def test_grid_errors_name_keys(self):
        cases = [
            ("[grid]\ndt_ns = 0.03\n",
             r"\[grid\]: dt_ns = 0.03 .* \[circuit\] gate_on_ns = 50.0, "
             r"gate_len_ns = 750.0"),
            ("[grid]\nt_start_ns = 60\n",
             r"\[grid\]: dt_ns = 0.1 .*t_start_ns = 60.0 .* \[circuit\] "
             r"gate_on_ns"),
            ("[grid]\ndt_ns = 1.0\n",
             r"\[grid\]: dt_ns = 1.0 .*4 samples per cycle .*\[dds\] "
             r"f_clk_mhz = 500.0, f_tune_mhz = 125.0"),
            ("[circuit]\ngate_len_ns = 1.4\n",
             r"\[grid\]: dt_ns = 0.1 .*fewer than 16 samples \(15\) .*"
             r"\[circuit\] gate_len_ns = 1.4"),
            ("[circuit]\ngate_len_ns = 0.01\n",
             r"\[grid\]: dt_ns = 0.1 .*\(1\) .*gate_len_ns = 0.01"),
        ]
        for text, pattern in cases:
            with pytest.raises(ValidationError, match=pattern):
                parse_config(text)
        # the limits themselves are accepted: the gate ends on the last
        # sample, f_S = 1.5 GHz gets 4 samples per cycle at 1/6 ns, and a
        # 1.5 ns gate holds 16 samples
        parse_config("[grid]\nn_samples = 8001\n")
        parse_config("[grid]\ndt_ns = 0.16666666666666666\n")
        parse_config("[circuit]\ngate_len_ns = 1.5\n")

    def test_count_keys_capped(self):
        # the uncapped values build 1e9 stages or tones at parse time, or
        # 1e9 samples' worth of traces (1e308 overflowed numpy's dimension)
        for section, key, limit in (("etalon", "n_stages", MAX_STAGES),
                                    ("dds", "n_images", MAX_IMAGES),
                                    ("grid", "n_samples", MAX_SAMPLES)):
            for value in (str(limit + 1), "1e9", "1e308"):
                with pytest.raises(ValidationError,
                                   match=rf"\[{section}\] {key} = \d+ "
                                         rf"exceeds {limit}$"):
                    parse_config(f"[{section}]\n{key} = {value}\n")
            parse_config(f"[{section}]\n{key} = {limit}\n")

    def test_sideband_window_narrower_than_a_bin(self):
        # f_S = 4 kHz used to run with a 680 Hz window on 1 MHz bins, and
        # 8.19e-199 MHz overflowed in eom.sideband_window
        for value, shown in (("1e-3", "0.001"), ("8.19e-199", "8.19e-199")):
            with pytest.raises(ValidationError,
                               match=rf"\[dds\]: f_tune_mhz = {shown} .*"
                                     r"\[bandpass\] .*one frequency bin of "
                                     r"\[grid\] n_samples = 10000"):
                parse_config(f"[dds]\nf_tune_mhz = {value}\n")
        # the limit 0.17 f_S >= 1/(n dt): 255 MHz against a 4 ns grid's
        # 250 MHz bins passes, against a 3.9 ns grid's 256 MHz it does not
        short = "[circuit]\ngate_len_ns = 1.5\n[grid]\nt_start_ns = 50\n"
        parse_config(short + "n_samples = 40\n")
        with pytest.raises(ValidationError, match=r"n_samples = 39, dt_ns"):
            parse_config(short + "n_samples = 39\n")

    def test_short_lifetime_accepted_on_finer_grid(self):
        cfg = parse_config("[grid]\ndt_ns = 0.05\nn_samples = 20000\n"
                           "[atom]\nexcited_lifetime_ns = 0.03\n")
        assert cfg.atom.gamma == pytest.approx(1.0 / 0.03e-9)

    def test_n_orders_key_removed(self):
        with pytest.raises(ValidationError, match="unknown key 'n_orders'"):
            parse_config("[eom]\nn_orders = 3\n")

    def test_rolloff_flag_removed(self):
        # one key: a finite [eom] bandwidth_ghz rolls the drive off, and inf,
        # the default, leaves it flat
        with pytest.raises(ValidationError,
                           match=r"\[eom\]: unknown key "
                                 r"'apply_bandwidth_rolloff' \(known: "
                                 r"bandwidth_ghz, drive_scale, v_pi_v\)"):
            parse_config("[eom]\napply_bandwidth_rolloff = true\n")
        assert default_config().eom.bandwidth_hz == float("inf")
        assert default_config().kv["eom"]["bandwidth_ghz"] == "inf"
        assert parse_config("[eom]\nbandwidth_ghz = 2\n").eom.bandwidth_hz \
            == 2e9

    @pytest.mark.parametrize("text", [
        "[circuit]\nr11_ohm = 1e-320\n",
        "[circuit]\nr11_ohm = 1e-250\nc1_nf = 1e-100\n"])
    def test_ramp_time_constant_underflow_names_keys(self, text):
        # r11 * c1 flushed to 0 divided the ramp slope by zero at run time
        with pytest.raises(ValidationError,
                           match=r"\[circuit\]: r11_ohm = .* times c1_nf = "
                                 r".* underflows to 0 s"):
            parse_config(text)

    def test_rejections_parse(self):
        cfg = parse_config("[bandpass]\nrejections_mhz_dbc = 100:60, 700:30\n")
        assert cfg.bandpass.rejections == ((100e6, 60.0), (700e6, 30.0))
        with pytest.raises(ValidationError):
            parse_config("[bandpass]\nrejections_mhz_dbc = 100=60\n")

    def test_detector_infinite_bandwidth(self):
        cfg = parse_config("[detector]\nbandwidth_ghz = inf\n")
        assert cfg.detector.bandwidth_hz == float("inf")
        assert "inf" in serialize_config(cfg)
        # infinite keys take either sign: -inf dB is an ideal mixer
        cfg = parse_config("[mixer]\nlo_leak_db = -inf\n")
        assert cfg.mixer.lo_leak_db == float("-inf")


class TestStageOverrides:
    def test_override_applies_to_one_stage(self):
        cfg = parse_config("[etalon]\nstage2_detuning_mhz = 100\n")
        d = [e.detuning_hz for e in cfg.etalon.stages]
        assert d == [0.0, 100e6, 0.0]

    def test_override_out_of_range(self):
        with pytest.raises(ValidationError, match="stage override"):
            parse_config("[etalon]\nn_stages = 2\nstage3_loss = 0.1\n")

    def test_override_survives_roundtrip(self):
        cfg = parse_config("[etalon]\nstage1_reflectivity = 0.9\n")
        again = parse_config(serialize_config(cfg))
        assert again.etalon.stages[0].reflectivity == 0.9
        assert again.etalon.stages[1].reflectivity == 0.95


class TestSetValue:
    def test_set_and_revalidate(self):
        cfg = default_config()
        cfg2 = set_config_value(cfg, "circuit.v_in_v", 5.0)
        assert cfg2.circuit.v_in == 5.0
        assert cfg.circuit.v_in != 5.0  # original untouched

    def test_set_rejects_invalid_value(self):
        with pytest.raises(ValidationError):
            set_config_value(default_config(), "etalon.reflectivity", 2.0)

    def test_unknown_path_lists_valid_ones(self):
        with pytest.raises(ValidationError, match="circuit.v_in_v"):
            set_config_value(default_config(), "circuit.nope", 1.0)
        with pytest.raises(ValidationError, match="valid paths"):
            set_config_value(default_config(), "no_dot_here", 1.0)

    def test_paths_listing(self):
        paths = valid_parameter_paths()
        assert "circuit.v_in_v" in paths
        assert "etalon.fsr_ghz" in paths


class TestBuiltFromKv:
    """A config is its key-values: every way to build one parses and checks
    them, and its typed blocks are derived from them."""

    def test_kv_is_the_only_input(self):
        assert [f.name for f in dataclasses.fields(ChainConfig)
                if f.init] == ["kv"]
        assert ChainConfig({"grid": {"dt_ns": "1e-1"}}).kv == default_config().kv
        # a value given as a number is read as its text
        assert ChainConfig({"grid": {"n_samples": 20000}}).kv["grid"][
            "n_samples"] == "20000"

    def test_kv_cannot_be_edited_in_place(self):
        # an edit would change config_sha256 but not the typed blocks
        cfg = default_config()
        edits = [lambda kv: kv["circuit"].__setitem__("gate_len_ns", "400.0"),
                 lambda kv: kv["circuit"].update(gate_len_ns="400.0"),
                 lambda kv: kv["circuit"].pop("gate_len_ns"),
                 lambda kv: kv.__delitem__("circuit"),
                 lambda kv: kv.setdefault("extra", {}),
                 lambda kv: kv["grid"].clear()]
        for edit in edits:
            with pytest.raises(TypeError, match="read-only"):
                edit(cfg.kv)
        with pytest.raises(TypeError, match="read-only"):
            cfg.kv["grid"] |= {"n_samples": "20000"}
        assert cfg.kv == default_config().kv
        assert cfg.gate.duration == pytest.approx(750e-9)

    def test_kv_serialises_pickles_and_copies_as_a_dict(self):
        cfg = set_config_value(default_config(), "etalon.stage2_loss", "0.01")
        plain = json.loads(json.dumps(cfg.kv))
        assert cfg.kv == plain and isinstance(cfg.kv, dict)
        for again in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg),
                      copy.copy(cfg)):
            assert again == cfg and again.kv == plain
            assert config_sha256(again) == config_sha256(cfg)
            with pytest.raises(TypeError):
                again.kv["etalon"]["loss"] = "0.5"
        assert dataclasses.replace(cfg, kv=plain) == cfg

    def test_a_block_cannot_be_replaced(self):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(default_config(), gate=GatePulse(50e-9, 400e-9))

    def test_three_ways_to_one_setting_agree(self):
        kv = {s: dict(items) for s, items in default_config().kv.items()}
        kv["circuit"]["gate_len_ns"] = "4e2"
        ways = [parse_config("[circuit]\ngate_len_ns = 4e2\n"),
                set_config_value(default_config(), "circuit.gate_len_ns", "4e2"),
                dataclasses.replace(default_config(), kv=kv)]
        texts = {serialize_config(cfg) for cfg in ways}
        assert len(texts) == 1 and "gate_len_ns = 400.0\n" in texts.pop()
        assert len({config_sha256(cfg) for cfg in ways}) == 1
        assert len({run_chain(cfg).to_json() for cfg in ways}) == 1
        assert ways[2].gate.duration == pytest.approx(400e-9)
