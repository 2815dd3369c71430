"""CLI contract: configs in, CSV/JSON out, exit codes, reproducibility."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from deoq_dyn import disorder
from deoq_dyn.analysis import fit_trace
from deoq_dyn.cli import MATERIALS_HEADER, SWEEP_HEADER, TRACE_HEADER, main
from deoq_dyn.disorder import NoiseSpec, disorder_average_quadrature
from deoq_dyn.qubit import ExchangeParams

SHORT_TIMES = {"t_max": 100.0, "n_points": 2001}
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(tmp_path, command, cfg, extra=(), name="cfg"):
    cfg_path = tmp_path / f"{name}.json"
    out_path = tmp_path / f"{name}.out"
    cfg_path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(cfg_path), "--out", str(out_path), *extra])
    return code, out_path


def read_csv(path):
    lines = path.read_text().splitlines()
    echo = None
    rows = []
    for ln in lines[1:]:
        if ln.startswith("# config="):
            echo = json.loads(ln[len("# config="):])
        elif ln:
            rows.append(ln.split(","))
    return lines[0], rows, echo


def test_simulate_csv_shape_and_noiseless_values(tmp_path):
    cfg = {"noise": {"sigma_e": 0.0}, "times": SHORT_TIMES}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    header, rows, echo = read_csv(out)
    assert header == TRACE_HEADER
    assert len(rows) == SHORT_TIMES["n_points"]
    assert rows[0][0] == "0" and rows[0][2] == "1"
    # no j0_ev and no mc errors: those columns stay empty
    assert rows[0][1] == "" and rows[0][3] == ""
    assert echo["command"] == "simulate"
    assert echo["method"] == "quadrature"
    assert echo["noise"]["j01"] == 0.5 and echo["noise"]["j02"] == 1.5


def test_simulate_prints_convergence_warning(tmp_path, capsys):
    cfg = {"noise": {"sigma_e": 0.6, "sigma_j1": 0.3, "sigma_j2": 0.3},
           "times": {"t_max": 120.0, "n_points": 601},
           "quadrature": {"n_hermite": 5, "n_legendre": 7}}
    code, plain = run_cli(tmp_path, "simulate", cfg, name="plain")
    assert code == 0 and capsys.readouterr().err == ""
    code, checked = run_cli(tmp_path, "simulate", {**cfg, "check_convergence": True}, name="checked")
    assert code == 0
    assert "warning: doubling nodes moved a point" in capsys.readouterr().err
    # stderr only: the files differ in the echoed flag and nowhere else
    assert checked.read_text().splitlines()[:-1] == plain.read_text().splitlines()[:-1]
    assert read_csv(checked)[2] == {**read_csv(plain)[2], "check_convergence": True}


def test_simulate_seconds_column(tmp_path):
    cfg = {"times": {"t_max": 2.0, "n_points": 3}, "j0_ev": 1e-6}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    _, rows, _ = read_csv(out)
    assert float(rows[1][1]) == pytest.approx(6.582119569e-10, rel=1e-8)


def test_simulate_echo_reproduces_file_exactly(tmp_path):
    cfg = {
        "noise": {"sigma_e": 0.3, "sigma_j1": 0.1, "sigma_j2": 0.1},
        "times": {"t_max": 40.0, "n_points": 801},
    }
    code, first = run_cli(tmp_path, "simulate", cfg, name="first")
    assert code == 0
    _, _, echo = read_csv(first)
    code, second = run_cli(tmp_path, "simulate", echo, name="second")
    assert code == 0
    assert second.read_bytes() == first.read_bytes()


def test_simulate_mc_deterministic_and_overridable(tmp_path):
    cfg = {
        "method": "mc", "seed": 5, "n_samples": 400,
        "noise": {"sigma_e": 0.2}, "times": {"t_max": 20.0, "n_points": 81},
    }
    code, a = run_cli(tmp_path, "simulate", cfg, name="a")
    code_b, b = run_cli(tmp_path, "simulate", cfg, name="b")
    assert code == code_b == 0
    assert a.read_bytes() == b.read_bytes()
    _, rows, echo = read_csv(a)
    assert echo["seed"] == 5 and echo["n_samples"] == 400
    assert all(float(r[3]) >= 0.0 for r in rows)

    code, c = run_cli(tmp_path, "simulate", cfg, extra=("--seed", "7"), name="c")
    assert code == 0
    _, _, echo_c = read_csv(c)
    assert echo_c["seed"] == 7
    assert c.read_bytes() != a.read_bytes()

    code, d = run_cli(tmp_path, "simulate", cfg, extra=("--samples", "200"), name="d")
    assert code == 0
    _, _, echo_d = read_csv(d)
    assert echo_d["n_samples"] == 200


def test_simulate_method_override_flag(tmp_path):
    cfg = {"times": {"t_max": 10.0, "n_points": 41}, "noise": {"sigma_e": 0.1}}
    code, out = run_cli(tmp_path, "simulate", cfg, extra=("--method", "mc", "--samples", "50"))
    assert code == 0
    _, rows, echo = read_csv(out)
    assert echo["method"] == "mc" and echo["n_samples"] == 50 and echo["seed"] == 0
    assert rows[0][3] != ""


def test_invalid_noise_exits_2_and_names_field(tmp_path, capsys):
    cfg = {"noise": {"sigma_e": -0.5}}
    code, _ = run_cli(tmp_path, "simulate", cfg)
    assert code == 2
    assert "sigma_e" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("simulate", {"params": {"j1": None}}, "params.j1"),
        ("simulate", {"noise": {"sigma_e": None}}, "noise.sigma_e"),
        ("simulate", {"times": {"t_max": None}}, "times.t_max"),
        ("simulate", {"quadrature": {"n_hermite": None}}, "quadrature.n_hermite"),
        ("simulate", {"method": "mc", "n_samples": None}, "n_samples"),
        ("simulate", {"method": "mc", "seed": None}, "seed"),
        ("sweep", {"j0_ev": None}, "j0_ev"),
        ("materials", {"j0_ev": None}, "j0_ev"),
        ("fit", {"simulate": {"noise": {"sigma_j1": None}}}, "noise.sigma_j1"),
    ],
)
def test_null_number_exits_2_and_names_field(tmp_path, capsys, command, cfg, field):
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == 2
    assert field in capsys.readouterr().err


def test_null_j0_ev_means_absent_for_simulate(tmp_path):
    code, out = run_cli(tmp_path, "simulate", {"j0_ev": None, "times": {"t_max": 2.0, "n_points": 3}})
    assert code == 0
    _, rows, echo = read_csv(out)
    assert "j0_ev" not in echo and rows[1][1] == ""


def test_unknown_key_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "simulate", {"sigma_e": 0.1})
    assert code == 2
    assert "unknown key 'sigma_e'" in capsys.readouterr().err


def test_command_mismatch_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "fit", {"command": "simulate", "trace_file": "x.csv"})
    assert code == 2
    assert "declares command" in capsys.readouterr().err


def test_missing_config_exits_3(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 3
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_trace_file_exits_3(tmp_path, capsys):
    cfg = {"trace_file": str(tmp_path / "absent.csv")}
    code, _ = run_cli(tmp_path, "fit", cfg)
    assert code == 3


def test_fit_from_file_matches_in_memory_fit(tmp_path):
    sim_cfg = {
        "noise": {"sigma_e": 0.1, "sigma_j1": 0.1, "sigma_j2": 0.1},
        "times": {"t_max": 150.0, "n_points": 6001},
    }
    code, trace_path = run_cli(tmp_path, "simulate", sim_cfg, name="trace")
    assert code == 0

    code, report_path = run_cli(tmp_path, "fit", {"trace_file": str(trace_path)}, name="fit")
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == "1"
    assert report["config"]["initial"] == "zero"

    times = np.linspace(0.0, 150.0, 6001)
    noise = NoiseSpec(sigma_e=0.1, sigma_j1=0.1, sigma_j2=0.1)
    trace = disorder_average_quadrature(ExchangeParams(), noise, "zero", times)
    direct = fit_trace(trace)
    # 9-digit file rounding perturbs the refit only at this level
    assert report["fit"]["status"] == direct.status == "converged"
    assert report["fit"]["t2_star"] == pytest.approx(direct.t2_star, rel=1e-4)
    assert report["fit"]["alpha"] == pytest.approx(direct.alpha, rel=1e-3)
    assert report["fit"]["q"] == pytest.approx(math.exp(-1.0 / direct.t2_star), rel=1e-4)


def test_fit_synthetic_decay_file(tmp_path):
    times = np.linspace(0.0, 120.0, 1201)
    values = 0.25 + 0.75 * np.exp(-((times / 20.0) ** 1.5))
    lines = [TRACE_HEADER] + [f"{t:.9g},,{v:.9g}," for t, v in zip(times, values)]
    trace_path = tmp_path / "decay.csv"
    trace_path.write_text("\n".join(lines) + "\n")

    cfg = {"trace_file": str(trace_path), "j0_ev": 1e-6}
    code, report_path = run_cli(tmp_path, "fit", cfg)
    assert code == 0
    fit = json.loads(report_path.read_text())["fit"]
    assert fit["status"] == "converged"
    assert fit["t2_star"] == pytest.approx(20.0, rel=0.01)
    assert fit["alpha"] == pytest.approx(1.5, rel=0.02)
    assert fit["t2_star_seconds"] == pytest.approx(20.0 * 6.582119569e-10, rel=0.01)


def test_fit_constant_file_reports_no_decay(tmp_path):
    times = np.linspace(0.0, 50.0, 201)
    lines = [TRACE_HEADER] + [f"{t:.9g},,1," for t in times]
    trace_path = tmp_path / "flat.csv"
    trace_path.write_text("\n".join(lines) + "\n")

    code, report_path = run_cli(tmp_path, "fit", {"trace_file": str(trace_path)})
    assert code == 0
    fit = json.loads(report_path.read_text())["fit"]
    assert fit["status"] == "no-decay"
    assert fit["t2_star"] is None  # inf is not representable in JSON
    assert fit["q"] == 1.0


@pytest.mark.parametrize("rows", [slice(100, 101), slice(1, None)], ids=["one-nan", "nan-after-t0"])
def test_fit_rejects_non_finite_trace_file(tmp_path, capsys, rows):
    """A NaN in the p column is an invalid trace, not a fit input: one NaN
    used to fit as "converged", NaN after t = 0 to end in a traceback."""
    times = np.linspace(0.0, 50.0, 201)
    values = 0.5 + 0.5 * np.exp(-times / 10.0) * np.cos(times)
    values[rows] = np.nan
    lines = [TRACE_HEADER] + [f"{t:.9g},,{v:.9g}," for t, v in zip(times, values)]
    trace_path = tmp_path / "nan.csv"
    trace_path.write_text("\n".join(lines) + "\n")

    code, _ = run_cli(tmp_path, "fit", {"trace_file": str(trace_path)})
    assert code == 2
    assert "trace file: probabilities must be finite" in capsys.readouterr().err


def test_fit_rejects_subnormal_t_max(tmp_path, capsys):
    """A grid ending at 1e-315 leaves no room for the fit's t2_star bounds;
    it used to end in a bare "math domain error"."""
    k = np.arange(50)
    values = 0.5 + 0.5 * np.exp(-k / 10.0) * np.cos(k)
    lines = [TRACE_HEADER] + [f"{t:.9g},,{v:.9g}," for t, v in zip(np.linspace(0.0, 1e-315, 50), values)]
    trace_path = tmp_path / "subnormal.csv"
    trace_path.write_text("\n".join(lines) + "\n")

    code, _ = run_cli(tmp_path, "fit", {"trace_file": str(trace_path)})
    assert code == 2
    assert "t_max" in capsys.readouterr().err


def test_fit_inline_simulate(tmp_path):
    cfg = {
        "simulate": {
            "noise": {"sigma_e": 0.2, "sigma_j1": 0.1, "sigma_j2": 0.1},
            "times": SHORT_TIMES,
        },
        "j0_ev": 1e-6,
    }
    code, report_path = run_cli(tmp_path, "fit", cfg)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["fit"]["status"] == "converged"
    assert report["config"]["simulate"]["noise"]["sigma_e"] == 0.2
    assert report["fit"]["t2_star_seconds"] > 0


def test_fit_requires_exactly_one_source(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "fit", {})
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_sweep_single_noiseless_cell(tmp_path):
    cfg = {
        "grid": {"sigma_e_values": [0.0], "sigma_j_values": [0.0]},
        "times": {"t_max": 60.0, "n_points": 1201},
    }
    code, out = run_cli(tmp_path, "sweep", cfg)
    assert code == 0
    header, rows, echo = read_csv(out)
    assert header == SWEEP_HEADER
    assert len(rows) == 1
    sigma_e, sigma_j, t2, t2_s, q, alpha, status = rows[0]
    assert (sigma_e, sigma_j) == ("0", "0")
    assert t2 == "inf" and t2_s == "inf"
    assert q == "1"
    assert status == "no-decay"
    assert echo["j0_ev"] == 1e-6


def test_sweep_small_grid_values(tmp_path):
    cfg = {
        "grid": {"sigma_e_values": [0.2], "sigma_j_values": [0.1, 0.2]},
        "times": SHORT_TIMES,
    }
    code, out = run_cli(tmp_path, "sweep", cfg)
    assert code == 0
    _, rows, _ = read_csv(out)
    assert [r[6] for r in rows] == ["converged", "converged"]
    t2 = [float(r[2]) for r in rows]
    assert t2[1] < t2[0]
    for r in rows:
        assert float(r[4]) == pytest.approx(math.exp(-1.0 / float(r[2])), rel=1e-6)
        assert float(r[3]) == pytest.approx(float(r[2]) * 6.582119569e-10, rel=1e-6)


def test_sweep_rejects_method_flag(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"),
                 "--method", "mc"])
    assert code == 2
    assert "do not apply" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "materials"])
def test_sweep_and_materials_reject_seed_flag(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"),
                 "--seed", "3"])
    assert code == 2
    assert "do not apply" in capsys.readouterr().err


def test_materials_small_run(tmp_path):
    cfg = {
        "presets": [
            {"name": "clean", "sigma_e_floor_ev": 0.0},
            {"name": "noisy", "sigma_e_floor_ev": 1e-7},
        ],
        "sigma_j_values_ev": [0.05e-6, 0.2e-6],
        "both_initial_conditions": False,
    }
    code, out = run_cli(tmp_path, "materials", cfg)
    assert code == 0
    header, rows, echo = read_csv(out)
    assert header == MATERIALS_HEADER
    assert [(r[0], r[2]) for r in rows] == [
        ("clean", "zero"), ("clean", "zero"), ("noisy", "zero"), ("noisy", "zero")
    ]
    assert all(float(r[3]) > 0 for r in rows)
    assert echo["presets"][1]["sigma_e_floor_ev"] == 1e-7
    assert echo["j0_ev"] == 1e-6


def test_materials_rejects_oversized_quadrature(tmp_path, capsys):
    # sigma_e = 1e6 j0 would size about 3.6e8 delta_e nodes
    cfg = {"presets": [{"name": "a", "sigma_e_floor_ev": 1}],
           "sigma_j_values_ev": [3e-7], "params": {"j2": 2}}
    code, _ = run_cli(tmp_path, "materials", cfg)
    assert code == 2
    assert "nodes" in capsys.readouterr().err


@pytest.mark.parametrize("noise", [{}, {"sigma_e": 0.1, "sigma_j1": 0.1, "sigma_j2": 0.1}])
def test_internal_numerical_failure_exits_4(tmp_path, monkeypatch, capsys, noise):
    """An average outside [0, 1] is a fault of the method, not invalid input."""
    def broken(chunks, n_nodes, band, times, evaluator):
        at_zero = sum(base + coef.sum() for _, coef, base in chunks)  # the value at t = 0
        return np.full(len(times), 1.1 * at_zero), "direct"

    monkeypatch.setattr(disorder, "_evaluate", broken)
    cfg = {"noise": noise, "times": {"t_max": 5.0, "n_points": 11}}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("quadrature", [None, {"n_hermite": 9, "n_legendre": 9}], ids=["2d", "tensor"])
def test_frequency_outside_band_exits_4(tmp_path, monkeypatch, capsys, quadrature):
    """A node frequency outside the band its producer declared is a fault of
    the method: without the guard it indexed past the bins."""
    monkeypatch.setattr(disorder, "_band", lambda *ranges: (0.0, 0.5))
    cfg = {"noise": {"sigma_e": 0.1, "sigma_j1": 0.1, "sigma_j2": 0.1},
           "times": {"t_max": 5.0, "n_points": 11}, "quadrature": quadrature}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 4
    assert "outside the band [0.0, 0.5]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("module, name, error, exit_code", [
    (json, "dumps", ValueError, 2),
    (os, "replace", OSError, 3),
], ids=["serialize", "rename"])
@pytest.mark.parametrize("command, cfg", [
    ("simulate", {"times": {"t_max": 5.0, "n_points": 11}}),
    ("fit", {"simulate": {"noise": {"sigma_e": 0.2}, "times": {"t_max": 20.0, "n_points": 81}}}),
], ids=["csv", "json"])
def test_failed_write_keeps_earlier_output(tmp_path, monkeypatch, command, cfg,
                                           module, name, error, exit_code):
    """Outputs are written to a temp file and renamed: a run that fails while
    serializing or renaming leaves the earlier file as it was and no partial
    file behind."""
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    config.write_text(json.dumps(cfg))
    out.write_text("earlier output\n")

    def fail(*args, **kwargs):
        raise error(f"{name} failed")

    monkeypatch.setattr(module, name, fail)
    code = main([command, "--config", str(config), "--out", str(out)])
    monkeypatch.undo()
    assert code == exit_code
    assert out.read_text() == "earlier output\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out"]


def test_materials_rejects_bad_preset(tmp_path, capsys):
    cfg = {"presets": [{"name": "x", "sigma_e_floor_ev": -1.0}],
           "sigma_j_values_ev": [0.1e-6]}
    code, _ = run_cli(tmp_path, "materials", cfg)
    assert code == 2
    assert "sigma_e_floor" in capsys.readouterr().err


# expected output file -> command line; the config is <stem>.config.json beside it
GOLDEN_CASES = {
    "simulate_quadrature.csv": ("simulate",),
    "simulate_mc.csv": ("simulate", "--seed", "11", "--samples", "300"),
    "fit_inline.json": ("fit",),
    "sweep_1x2.csv": ("sweep",),
    "materials_1preset.csv": ("materials",),
}


@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_output_matches_golden_file(tmp_path, name):
    """Outputs stay byte-identical to the files an earlier release wrote."""
    command, *extra = GOLDEN_CASES[name]
    stem = name.rsplit(".", 1)[0]
    out_path = tmp_path / name
    code = main([command, "--config", str(GOLDEN / f"{stem}.config.json"),
                 "--out", str(out_path), *extra])
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / name).read_bytes()


def test_cli_import_skips_scipy_signal():
    """Importing scipy.signal would add about a second to every CLI start."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, deoq_dyn.cli; assert 'scipy.signal' not in sys.modules, 'scipy.signal imported'"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr


def test_console_script_entry_point(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "trace.csv"
    cfg_path.write_text(json.dumps({"times": {"t_max": 5.0, "n_points": 11}}))
    proc = subprocess.run(
        [sys.executable, "-m", "deoq_dyn.cli", "simulate",
         "--config", str(cfg_path), "--out", str(out_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out_path.read_text().splitlines()[0] == TRACE_HEADER
    script = subprocess.run(
        ["deoq-dyn", "simulate", "--config", str(cfg_path), "--out", str(out_path)],
        capture_output=True, text=True,
    )
    assert script.returncode == 0, script.stderr
