import json
import os

import numpy as np
import pytest

from pulsechain import TimeGrid, Waveform, load_config, pipeline, write_trace
from pulsechain.cli import main

DEFAULT_CFG = "[run]\nseed = 0\n"


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "chain.ini"
    p.write_text(DEFAULT_CFG)
    return str(p)


def test_simulate(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", cfg_file, "--outdir", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    assert "cascade_extinction_db" in capsys.readouterr().out
    assert json.loads((out / "report.json").read_text())["envelope"]["fit"]


def test_simulate_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[circuit]\nv_in_v = 0.2\n")
    rc = main(["simulate", str(p)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_simulate_non_finite_report_exit_2(cfg_file, tmp_path, capsys,
                                           monkeypatch):
    monkeypatch.setattr(pipeline, "undershoot_fraction",
                        lambda det: float("nan"))
    rc = main(["simulate", cfg_file, "--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "JSON" in err


def test_simulate_failed_trace_write_leaves_nothing(cfg_file, tmp_path,
                                                   capsys):
    # the third tap's temporary file cannot be opened, after the first two
    # taps' temporary files were
    out = tmp_path / "out"
    (out / "rf_drive.csv.tmp").mkdir(parents=True)
    rc = main(["simulate", cfg_file, "--outdir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(os.listdir(out)) == ["rf_drive.csv.tmp"]


def test_simulate_failed_report_write_leaves_no_tmp(cfg_file, tmp_path,
                                                   capsys):
    # report.json cannot replace a directory; its temporary file goes too
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    assert main(["simulate", cfg_file, "--outdir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "report.json.tmp").exists()


def test_simulate_missing_file(capsys):
    assert main(["simulate", "/nonexistent/nowhere.ini"]) == 1


def test_fit_command(tmp_path, capsys):
    grid = TimeGrid(0.0, 0.1e-9, 1001)
    w = Waveform(grid=grid, samples=np.exp(grid.times() / 27e-9))
    trace = tmp_path / "trace.csv"
    write_trace(trace, w)
    rc = main(["fit", str(trace), "--window", "0,100e-9",
               "--direction", "rising"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tau = 2.7" in out


def test_fit_numerical_failure_exit_2(tmp_path, capsys):
    grid = TimeGrid(0.0, 0.1e-9, 1001)
    w = Waveform(grid=grid, samples=np.full(1001, 5.0))
    trace = tmp_path / "flat.csv"
    write_trace(trace, w)
    rc = main(["fit", str(trace), "--window", "0,100e-9",
               "--direction", "rising"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_fit_bad_window_exit_1(tmp_path):
    grid = TimeGrid(0.0, 0.1e-9, 101)
    trace = tmp_path / "t.csv"
    write_trace(trace, Waveform(grid=grid, samples=np.ones(101)))
    assert main(["fit", str(trace), "--window", "oops",
                 "--direction", "rising"]) == 1


@pytest.mark.parametrize("window", ["nan,5e-8", "0,inf", "-inf,5e-8"])
def test_fit_non_finite_window_exit_1(tmp_path, capsys, window):
    grid = TimeGrid(0.0, 0.1e-9, 1001)
    trace = tmp_path / "t.csv"
    write_trace(trace, Waveform(grid=grid, samples=np.exp(grid.times() / 27e-9)))
    assert main(["fit", str(trace), f"--window={window}",
                 "--direction", "rising"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fit window") and "finite" in err


@pytest.mark.parametrize("row, column, value", [
    (500, 0, "nan"), (-1, 0, "nan"), (-1, 0, "inf"), (500, 1, "nan")])
def test_fit_non_finite_trace_exit_1(tmp_path, capsys, row, column, value):
    # each used to fit and exit 0, or fail without naming the file
    grid = TimeGrid(0.0, 0.1e-9, 1001)
    trace = tmp_path / "t.csv"
    write_trace(trace, Waveform(grid=grid, samples=np.exp(grid.times() / 27e-9)))
    lines = trace.read_text().splitlines()
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["fit", str(trace), "--window", "1e-8,9e-8",
                 "--direction", "rising"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {trace}: ")


def test_sweep_command(cfg_file, tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", cfg_file, "--param", "circuit.v_in_v",
               "--values", "4.0,4.5", "--outdir", str(out)])
    assert rc == 0
    assert (out / "sweep_summary.json").exists()
    assert "tau_design" in capsys.readouterr().out


def test_sweep_bad_param(cfg_file):
    assert main(["sweep", cfg_file, "--param", "nope.nope",
                 "--values", "1"]) == 1


def test_sweep_refuses_list_valued_key(cfg_file, capsys, monkeypatch):
    # the commas of "125:70,500:24" would split one list into two points
    def no_run(*args):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr("pulsechain.cli.sweep", no_run)
    assert main(["sweep", cfg_file, "--param", "bandpass.rejections_mhz_dbc",
                 "--values", "125:70,500:24"]) == 1
    assert "bandpass.rejections_mhz_dbc" in capsys.readouterr().err
    # the library sweep takes the list as one value
    cfg = load_config(cfg_file)
    [report] = pipeline.sweep(cfg, "bandpass.rejections_mhz_dbc",
                              ["125:70,500:24"])
    assert report.data["envelope"]["fit"]


def test_excite_from_chain(cfg_file, capsys):
    rc = main(["excite", cfg_file])
    assert rc == 0
    assert "p_max" in capsys.readouterr().out


def test_excite_refuses_disabled_atom_before_running(tmp_path, capsys,
                                                     monkeypatch):
    p = tmp_path / "no_atom.ini"
    p.write_text("[atom]\nrun_excitation = false\n")

    def no_run(*args):
        raise AssertionError("run_chain called for a refused excite")

    monkeypatch.setattr("pulsechain.cli.run_chain", no_run)
    assert main(["excite", str(p)]) == 1
    assert capsys.readouterr().err == (
        "error: config disables [atom] run_excitation and no --pulse given\n")


@pytest.mark.parametrize("command", ["excite", "simulate"])
def test_zero_overlap_refused_naming_the_key(tmp_path, capsys, command):
    # an atom with no overlap cannot be excited: refused before any output
    p = tmp_path / "dark.ini"
    p.write_text("[atom]\nlambda_overlap = 0\n")
    out = tmp_path / "out"
    args = [command, str(p)] + (["--outdir", str(out)]
                                if command == "simulate" else [])
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: config [atom] lambda_overlap must be > 0: "
                            "an atom with no overlap cannot be excited\n")
    assert not out.exists()


def test_ramp_time_constant_underflow_exit_1(tmp_path, capsys):
    # r11_ohm * c1_nf flushes to 0: refused at parse time, no traceback
    p = tmp_path / "r11.ini"
    p.write_text("[circuit]\nr11_ohm = 1e-320\n")
    out = tmp_path / "out"
    assert main(["simulate", str(p), "--outdir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: config [circuit]: r11_ohm = 1e-320 times "
                            "c1_nf = 3.9 underflows to 0 s\n")
    assert not out.exists()


def test_sample_count_cap_exit_1(tmp_path, capsys):
    # numpy refused 1e308 samples at run time, a numerical failure (exit 2)
    p = tmp_path / "n.ini"
    p.write_text("[grid]\nn_samples = 1e308\n")
    assert main(["simulate", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config [grid] n_samples = ")
    assert err.endswith(" exceeds 100000000\n")


def test_excite_with_pulse_file(cfg_file, tmp_path, capsys):
    gamma = 1 / 26.2e-9
    n = 2620  # 10 lifetimes of support
    grid = TimeGrid(0.0, 0.1e-9, n + 1)
    x = np.exp((grid.times() - n * 0.1e-9) * gamma / 2.0)
    trace = tmp_path / "pulse.csv"
    write_trace(trace, Waveform(grid=grid, samples=x, unit="sqrtW"))
    rc = main(["excite", cfg_file, "--pulse", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "p_max = 0.99" in out


def test_excite_pulse_coarse_exit_0(cfg_file, tmp_path, capsys):
    # the trace's own 80 ns spacing is three lifetimes of the default atom;
    # the exact step runs at any spacing
    grid = TimeGrid(0.0, 80e-9, 50)
    trace = tmp_path / "coarse.csv"
    write_trace(trace, Waveform(grid=grid, samples=np.ones(50), unit="sqrtW"))
    rc = main(["excite", cfg_file, "--pulse", str(trace)])
    assert rc == 0
    assert "p_max = 0." in capsys.readouterr().out


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["warp-drive"])
    assert exc.value.code == 1
