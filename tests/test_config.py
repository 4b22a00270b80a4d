import pytest

from pulsechain import (ValidationError, config_sha256, default_config,
                        parse_config, serialize_config, set_config_value,
                        valid_parameter_paths)


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
            ("[etalon]\ntemp_jitter_mk = nan\n", "etalon"),
            ("[etalon]\nstage2_fsr_ghz = infinity\n", "etalon"),
            # finite values that the unit factor overflows or flushes to 0
            ("[etalon]\nfsr_ghz = 1e305\n", "etalon"),
            ("[etalon]\nstage1_fsr_ghz = 1e305\n", "etalon"),
            ("[dds]\nf_clk_mhz = 1e305\n", "dds"),
            ("[atom]\nexcited_lifetime_ns = 1e-320\n", "atom"),
        ]
        for text, section in cases:
            with pytest.raises(ValidationError, match=rf"\[{section}\]"):
                parse_config(text)

    def test_n_orders_key_removed(self):
        with pytest.raises(ValidationError, match="unknown key 'n_orders'"):
            parse_config("[eom]\nn_orders = 3\n")

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
