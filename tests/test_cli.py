"""CLI contract: configs in, CSV/JSON out, exit codes, reproducibility."""

import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from deoq_dyn import cli, disorder
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
        ("sweep", {"grid": {"sigma_e_values": ["0.2"], "sigma_j_values": [0.1]}}, "grid.sigma_e_values"),
        ("sweep", {"grid": {"sigma_e_values": [0.2], "sigma_j_values": [True]}}, "grid.sigma_j_values"),
        ("sweep", {"grid": {"sigma_e_values": [None], "sigma_j_values": [0.1]}}, "grid.sigma_e_values"),
        ("sweep", {"grid": {"sigma_e_values": "0.2", "sigma_j_values": [0.1]}}, "grid.sigma_e_values"),
        ("materials", {"sigma_j_values_ev": ["3e-9"]}, "sigma_j_values_ev"),
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


@pytest.mark.parametrize("line, message", [
    ("[1]", "trace file config must be a JSON object"),
    ("{", "trace file config is not valid JSON"),
    ('{"noise": {"sigma_e": -1}}', "trace file config.noise: sigma_e must be finite"),
], ids=["list", "json", "noise"])
def test_fit_rejects_invalid_trace_config(tmp_path, capsys, line, message):
    """The embedded config is read as a simulate config; a list there used to
    end in an AttributeError traceback."""
    trace_path = tmp_path / "bad.csv"
    trace_path.write_text(f"{TRACE_HEADER}\n0,,1,\n1,,0.5,\n2,,0.8,\n# config={line}\n")
    code, _ = run_cli(tmp_path, "fit", {"trace_file": str(trace_path)})
    assert code == 2
    assert message in capsys.readouterr().err


def test_fit_rejects_initial_beside_inline_simulate(tmp_path, capsys):
    """A top-level initial was neither applied to the inline run nor echoed."""
    cfg = {"simulate": {"times": {"t_max": 20.0, "n_points": 81}}, "initial": "superposition"}
    code, out = run_cli(tmp_path, "fit", cfg)
    assert code == 2 and not out.exists()
    assert "initial belongs inside simulate" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [("--seed", "3"), ("--method", "mc"), ("--samples", "50")])
def test_fit_of_trace_file_rejects_simulate_flags(tmp_path, capsys, flag):
    """The flags act on a simulate run; a fit of a trace file used to ignore them."""
    code, trace_path = run_cli(tmp_path, "simulate", {"times": {"t_max": 20.0, "n_points": 81}}, name="trace")
    assert code == 0
    code, out = run_cli(tmp_path, "fit", {"trace_file": str(trace_path)}, extra=flag, name="fit")
    assert code == 2 and not out.exists()
    assert "--seed/--method/--samples do not apply" in capsys.readouterr().err


def test_fit_of_trace_file_takes_initial_and_j0_ev_from_its_config(tmp_path):
    """null j0_ev means absent: the trace file's own j0_ev fills the seconds,
    and the echo, run again, writes the same report."""
    sim = {"initial": "superposition", "noise": {"sigma_e": 0.2, "sigma_j1": 0.1, "sigma_j2": 0.1},
           "times": {"t_max": 60.0, "n_points": 1201}, "j0_ev": 2e-6}
    code, trace_path = run_cli(tmp_path, "simulate", sim, name="trace")
    assert code == 0
    code, first = run_cli(tmp_path, "fit", {"trace_file": str(trace_path), "j0_ev": None}, name="first")
    assert code == 0
    report = json.loads(first.read_text())
    assert report["config"]["initial"] == "superposition" and report["config"]["j0_ev"] == 2e-6
    assert report["fit"]["t2_star_seconds"] == pytest.approx(report["fit"]["t2_star"] * 3.2910597845e-10)
    code, second = run_cli(tmp_path, "fit", report["config"], name="second")
    assert code == 0 and second.read_bytes() == first.read_bytes()


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


@pytest.mark.parametrize("command, cfg", [
    ("simulate", {"noise": {"sigma_e": 1e-30}}),
    ("simulate", {"noise": {"sigma_j1": 1e-30, "sigma_j2": 1e-30}}),
    ("materials", {"presets": [{"name": "a", "sigma_e_floor_ev": 1e-8}],
                   "sigma_j_values_ev": [1e-30], "both_initial_conditions": False}),
], ids=["sigma_e", "sigma_j", "materials"])
def test_sub_resolution_widths_run(tmp_path, command, cfg):
    """Widths whose spans round away at their means run as zero widths
    instead of failing to build a node."""
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 0 and out.exists()


@pytest.mark.parametrize("cfg, message", [
    ({"noise": {"sigma_e": 1e200}}, "quadrature needs inf nodes"),
    ({"params": {"j_prime": 1e308}}, "overflow the bin grid"),
], ids=["sigma_e", "j_prime"])
def test_huge_finite_inputs_exit_2(tmp_path, capsys, cfg, message):
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 2 and not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("method", ["quadrature", "mc"])
def test_phase_past_double_precision_exits_2(tmp_path, capsys, method):
    """At t_max 1e300 a double keeps no digit of the phase: both methods
    exit 2 naming the bound instead of writing cos of rounding noise."""
    cfg = {"method": method, "times": {"t_max": 1e300, "n_points": 5}, "n_samples": 10, "seed": 1}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 2 and not out.exists()
    assert "om_max t_max <= 1e-6 * 2^52" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["quadrature", "mc"])
@pytest.mark.parametrize("j_prime", [1e155, 1e308])
def test_frequency_square_overflow_exits_2_before_any_warning(tmp_path, capsys, method, j_prime):
    """Both methods check the band of their nodes or samples before they
    form a frequency, whose square overflows here: the same one message on
    stderr, and no numpy warning before it."""
    cfg = {"method": method, "params": {"j_prime": j_prime}, "times": {"t_max": 10.0, "n_points": 5},
           "n_samples": 10, "seed": 1}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["deoq-dyn: frequencies up to inf over t_max 10 overflow the bin grid"]


@pytest.mark.parametrize("sigma_e", [1e-8, 0.0], ids=["form-0", "form-below-0"])
def test_near_singular_noise_exits_2_without_traceback(tmp_path, capsys, sigma_e):
    """Widths 1e28 apart on a window short enough to pass the node guard: the
    polar set-up's quadratic form along a line rounds to 0 (sigma_e 1e-8) or
    below it (sigma_e 0).  That raised an uncaught ZeroDivisionError (a
    traceback, exit 1) or a bare "math domain error" from the square root
    (exit 2, naming nothing); it is invalid input, named with the widths and
    the window."""
    cfg = {"noise": {"sigma_e": sigma_e, "sigma_j1": 1e-8, "sigma_j2": 1e20}, "times": {"t_max": 1e-290, "n_points": 5}}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"deoq-dyn: noise widths sigma_e {sigma_e:.6g}, sigma_j1 1e-08, sigma_j2 1e+20 are too "
                                "far apart to integrate over t_max 1e-290"]


def test_nan_node_count_exits_2_without_traceback(tmp_path, capsys):
    """Widths 1e30 apart on a window of 1e-100.  Once the polar set-up's
    sampled widths rounded below 0 (nan) and to 0 (inf) here, so the r
    rule's summed count was nan, which passed the caps and raised an
    uncaught OverflowError (a traceback, exit 1).  The r panels' widths
    are now bounded in closed form, and the count is a number past the
    caps: invalid input, one message and no warning."""
    cfg = {"noise": {"sigma_e": 0.1, "sigma_j1": 1e20, "sigma_j2": 1e50}, "times": {"t_max": 1e-100, "n_points": 11}}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["deoq-dyn: quadrature needs 2.00007e+40 nodes in one dimension and 2.00007e+40 in "
                                "all, above the limits of 5000 and 500000000; reduce the noise widths or the time "
                                "window"]


def _broken_evaluator(chunks, band, times):
    """1.1 times each coefficient set's value at t = 0, at every time."""
    at_zero = sum(np.asarray(base) + coef.sum(axis=1) for _, coef, base in chunks)
    return np.outer(1.1 * at_zero, np.ones(len(times))), 0, [0.0] * len(at_zero)


@pytest.mark.parametrize("noise", [{}, {"sigma_e": 0.1, "sigma_j1": 0.1, "sigma_j2": 0.1}])
def test_internal_numerical_failure_exits_4(tmp_path, monkeypatch, capsys, noise):
    """An average outside [0, 1] is a fault of the method, not invalid input."""
    monkeypatch.setattr(disorder, "_evaluate", _broken_evaluator)
    cfg = {"noise": noise, "times": {"t_max": 5.0, "n_points": 11}}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_materials_numerical_failure_exits_4(tmp_path, monkeypatch, capsys):
    """The pass that serves both initial states reports an average outside
    [0, 1] as a fault of the method too."""
    monkeypatch.setattr(disorder, "_evaluate", _broken_evaluator)
    cfg = {"presets": [{"name": "Si", "sigma_e_floor_ev": 3e-9}], "sigma_j_values_ev": [4.43e-8]}
    code, out = run_cli(tmp_path, "materials", cfg)
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


def test_bin_count_above_the_cap_exits_2(tmp_path, capsys):
    """A band times window that needs more frequency bins than the evaluator
    allows is invalid input, named with its bin count."""
    cfg = {"noise": {"sigma_e": 10.0}, "times": {"t_max": 1e6, "n_points": 11},
           "quadrature": {"n_hermite": 5, "n_legendre": 3}}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 2 and not out.exists()
    assert "frequency bins" in capsys.readouterr().err


def test_mc_bin_count_above_the_cap_exits_2(tmp_path, capsys):
    """Monte Carlo sums its samples on the same evaluator and shares its bin
    cap: sigma_e 1 over t_max 1e6 spans about 7 j0 of frequency, 4.5 M bins."""
    cfg = {"method": "mc", "noise": {"sigma_e": 1.0}, "times": {"t_max": 1e6, "n_points": 11},
           "n_samples": 200, "seed": 1}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 2 and not out.exists()
    assert re.search(r"needs \d+ frequency bins .* above the limit of 4194304", capsys.readouterr().err)


def test_convergence_check_past_the_node_limits_exits_2(tmp_path, monkeypatch, capsys):
    """An explicit spec within the limits whose doubled counts are not is
    rejected when check_convergence would double it, naming the doubled count."""
    monkeypatch.setattr(disorder, "_MAX_DIM_NODES", 10)
    cfg = {"noise": {"sigma_e": 0.2, "sigma_j1": 0.1, "sigma_j2": 0.1},
           "times": {"t_max": 10.0, "n_points": 41},
           "quadrature": {"n_hermite": 5, "n_legendre": 8}}
    assert run_cli(tmp_path, "simulate", cfg, name="single")[0] == 0
    code, out = run_cli(tmp_path, "simulate", {**cfg, "check_convergence": True})
    assert code == 2 and not out.exists()
    assert "16 nodes in one dimension" in capsys.readouterr().err


@pytest.mark.parametrize("noise, rule", [
    ({"sigma_j1": 1e-170}, "hermite"),
    ({"sigma_j1": 1e-170}, "legendre"),
    ({"sigma_e": 1e-170}, "legendre"),
], ids=["sigma_j1-hermite", "sigma_j1-legendre", "sigma_e-legendre"])
def test_tensor_rule_of_underflowing_width_writes_zero_width_trace(tmp_path, noise, rule):
    """A width whose square underflows runs on an explicit tensor rule and
    writes the zero-width trace: the pdf weights never square the width
    (they turned nan, exit 4)."""
    times = {"t_max": 50.0, "n_points": 201}
    quadrature = {"n_hermite": 3, "n_legendre": 3, "delta_e_rule": rule}
    code, out = run_cli(tmp_path, "simulate", {"noise": noise, "times": times, "quadrature": quadrature})
    assert code == 0
    code, ref = run_cli(tmp_path, "simulate", {"times": times, "quadrature": quadrature}, name="zero")
    assert code == 0
    np.testing.assert_allclose([float(r[2]) for r in read_csv(out)[1]],
                               [float(r[2]) for r in read_csv(ref)[1]], rtol=0, atol=1e-12)


def _fail_mid_stream(monkeypatch, seen):
    """Make the third write to an output's temp file raise OSError, once the
    header and the first piece of rows have reached it; its text then goes
    to ``seen``."""
    def failing_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" in mode:
            write, count = fh.write, itertools.count()

            def third_fails(text):
                if next(count) == 2:
                    fh.flush()
                    seen.append(pathlib.Path(path).read_text())
                    raise OSError("write failed")
                return write(text)

            fh.write = third_fails
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)


_SMALL_SIMULATE = {"times": {"t_max": 5.0, "n_points": 11}}
_SMALL_FIT = {"simulate": {"noise": {"sigma_e": 0.2}, "times": {"t_max": 20.0, "n_points": 81}}}


@pytest.mark.parametrize("command, cfg, failure, exit_code", [
    ("simulate", _SMALL_SIMULATE, (json, "dumps", ValueError), 2),
    ("simulate", _SMALL_SIMULATE, (os, "replace", OSError), 3),
    ("fit", _SMALL_FIT, (json, "dumps", ValueError), 2),
    ("fit", _SMALL_FIT, (os, "replace", OSError), 3),
    ("simulate", {"times": {"t_max": 5.0, "n_points": 2049}}, "mid-stream", 3),
], ids=["csv-serialize", "csv-rename", "json-serialize", "json-rename", "csv-write"])
def test_failed_write_keeps_earlier_output(tmp_path, monkeypatch, command, cfg, failure, exit_code):
    """Outputs are written to a temp file and renamed: a run that fails while
    serializing, writing or renaming leaves the earlier file as it was and no
    partial file behind.  A trace CSV is written as it is formatted, a piece
    of rows at a time; in the csv-write case its write fails when the header
    and the first of three pieces of rows are in the temp file."""
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    config.write_text(json.dumps(cfg))
    out.write_text("earlier output\n")
    seen = []
    if failure == "mid-stream":
        _fail_mid_stream(monkeypatch, seen)
    else:
        module, name, error = failure

        def fail(*args, **kwargs):
            raise error(f"{name} failed")

        monkeypatch.setattr(module, name, fail)
    code = main([command, "--config", str(config), "--out", str(out)])
    monkeypatch.undo()
    assert code == exit_code
    assert out.read_text() == "earlier output\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out"]
    if failure == "mid-stream":
        lines = seen[0].splitlines()
        assert lines[0] == TRACE_HEADER and len(lines) == 1 + cli._ROWS_PER_PIECE


@pytest.mark.parametrize("preset, message", [
    ({"name": "x"}, "config.presets[0] needs sigma_e_floor_ev"),
    ({"sigma_e_floor_ev": 0.0}, "config.presets[0] needs name"),
    ({"name": "", "sigma_e_floor_ev": 0.0}, "preset name must be a non-empty string"),
    # a name is the first field of its rows: a comma would add a field, a line
    # break split the row, and a leading '#' make comment-skipping readers drop it
    ({"name": "Si,28", "sigma_e_floor_ev": 0.0}, "config.presets[0]: preset name 'Si,28'"),
    ({"name": "#GaAs", "sigma_e_floor_ev": 0.0}, "config.presets[0]: preset name '#GaAs'"),
    ({"name": "Ga\nAs", "sigma_e_floor_ev": 0.0}, "config.presets[0]: preset name 'Ga\\nAs'"),
    ({"name": "Ga\rAs", "sigma_e_floor_ev": 0.0}, "config.presets[0]: preset name 'Ga\\rAs'"),
], ids=["floor", "name", "empty-name", "comma-name", "hash-name", "lf-name", "cr-name"])
def test_materials_preset_needs_name_and_floor(tmp_path, capsys, preset, message):
    code, _ = run_cli(tmp_path, "materials", {"presets": [preset], "sigma_j_values_ev": [1e-7]})
    assert code == 2
    assert message in capsys.readouterr().err


def test_materials_rejects_bad_preset(tmp_path, capsys):
    cfg = {"presets": [{"name": "x", "sigma_e_floor_ev": -1.0}],
           "sigma_j_values_ev": [0.1e-6]}
    code, _ = run_cli(tmp_path, "materials", cfg)
    assert code == 2
    assert "sigma_e_floor" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, runner", [
    ("sweep", {"grid": {"sigma_e_values": [0.2], "sigma_j_values": [0.1]}, "times": {"t_max": 20.0, "n_points": 201}},
     "run_sweep"),
    ("materials", {"presets": [{"name": "Si", "sigma_e_floor_ev": 3e-9}], "sigma_j_values_ev": [2e-7],
                   "both_initial_conditions": False}, "material_comparison"),
])
def test_table_commands_run_the_config_they_echo(tmp_path, monkeypatch, command, cfg, runner):
    """The sweep and materials commands hand the config object they read to
    their runner, and the file's echo is that object."""
    seen = []
    run = getattr(cli, runner)
    monkeypatch.setattr(cli, runner, lambda config: seen.append(config) or run(config))
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 0
    (config,) = seen
    assert type(config) is {"sweep": cli.SweepConfig, "materials": cli.MaterialsConfig}[command]
    assert read_csv(out)[2] == json.loads(json.dumps(cli._echo(config)))


def test_commands_read_and_write_utf8_without_the_locale(tmp_path):
    """Configs, trace files and outputs are opened as UTF-8, never in the
    locale's encoding: each command runs under ``-X warn_default_encoding``
    with EncodingWarning an error, and writes the bytes of an in-process
    run.  The preset name is not ASCII."""
    times = {"t_max": 20.0, "n_points": 201}
    configs = {
        "simulate": {"noise": {"sigma_e": 0.2, "sigma_j1": 0.1, "sigma_j2": 0.1}, "times": times},
        "fit": {"trace_file": str(tmp_path / "simulate.sub")},
        "sweep": {"grid": {"sigma_e_values": [0.2], "sigma_j_values": [0.1]}, "times": times},
        "materials": {"presets": [{"name": "\u00b2\u2078Si", "sigma_e_floor_ev": 0.0}], "sigma_j_values_ev": [2e-7],
                      "both_initial_conditions": False},
    }
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    for command, cfg in configs.items():
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "deoq_dyn.cli",
             command, "--config", str(config), "--out", str(tmp_path / f"{command}.sub")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert main([command, "--config", str(config), "--out", str(tmp_path / f"{command}.in")]) == 0
        assert (tmp_path / f"{command}.sub").read_bytes() == (tmp_path / f"{command}.in").read_bytes()
    assert (tmp_path / "materials.sub").read_bytes().splitlines()[1].startswith("\u00b2\u2078Si,".encode())


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


def test_cli_commands_load_no_scipy(tmp_path):
    """Every command runs on numpy alone; importing scipy would add most of a
    second to each CLI start."""
    noise = {"sigma_e": 0.2, "sigma_j1": 0.1, "sigma_j2": 0.1}
    times = {"t_max": 20.0, "n_points": 201}
    hermite = {"n_hermite": 21, "n_legendre": 5, "delta_e_rule": "hermite"}
    trace = tmp_path / "simulate.out"
    configs = {
        "simulate": {"noise": noise, "times": times},
        "simulate_hermite": {"noise": noise, "times": times, "quadrature": hermite},
        "simulate_mc": {"noise": noise, "times": times, "n_samples": 200, "seed": 1},
        "fit": {"trace_file": str(trace)},
        "sweep": {"grid": {"sigma_e_values": [0.2], "sigma_j_values": [0.1]}, "times": times},
        "materials": {"presets": [{"name": "Si", "sigma_e_floor_ev": 3e-9}],
                      "sigma_j_values_ev": [2e-7], "j0_ev": 1e-6},
    }
    runs = []
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        runs.append([name.split("_")[0], "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / f"{name}.out")]
                    + (["--method", "mc"] if name == "simulate_mc" else []))
    script = (
        "import json, sys\n"
        "from deoq_dyn.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, f'scipy modules loaded: {loaded}'\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / f"{name}.out").stat().st_size > 0 for name in configs)


def test_mc_and_fit_runs_never_load_the_polar_module(tmp_path):
    """An MC simulate and a fit from its trace file run without importing
    ``deoq_dyn.polar``, which only the quadrature route needs; a quadrature
    simulate in the same process then loads it."""
    times = {"t_max": 20.0, "n_points": 201}
    trace = tmp_path / "mc.out"
    configs = {
        "mc": {"noise": {"sigma_e": 0.2, "sigma_j1": 0.1}, "times": times, "n_samples": 200, "seed": 1},
        "fit": {"trace_file": str(trace)},
        "quadrature": {"noise": {"sigma_e": 0.2}, "times": times},
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    runs = [["simulate", "--config", str(tmp_path / "mc.json"), "--out", str(trace), "--method", "mc"],
            ["fit", "--config", str(tmp_path / "fit.json"), "--out", str(tmp_path / "fit.out")],
            ["simulate", "--config", str(tmp_path / "quadrature.json"), "--out", str(tmp_path / "quadrature.out")]]
    script = (
        "import json, sys\n"
        "import deoq_dyn.cli\n"
        "mc, fit, quadrature = json.loads(sys.argv[1])\n"
        "assert deoq_dyn.cli.main(mc) == 0 and deoq_dyn.cli.main(fit) == 0\n"
        "assert 'deoq_dyn.polar' not in sys.modules, 'MC or fit loaded deoq_dyn.polar'\n"
        "assert deoq_dyn.cli.main(quadrature) == 0\n"
        "assert 'deoq_dyn.polar' in sys.modules\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert trace.stat().st_size > 0 and (tmp_path / "fit.out").stat().st_size > 0


def test_simulate_runs_under_the_standard_profiler(tmp_path):
    """``python -m cProfile -m deoq_dyn.cli`` runs the CLI as ``__main__``
    while ``sys.modules["__main__"]`` is the profiler's module; the run
    exits 0 and writes the bytes of a plain run."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"noise": {"sigma_e": 0.1, "sigma_j1": 0.05},
                                    "times": {"t_max": 5.0, "n_points": 11}}))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outs = []
    for profiler in ([], ["-m", "cProfile", "-o", str(tmp_path / "profile.out")]):
        out_path = tmp_path / f"trace{len(outs)}.csv"
        proc = subprocess.run(
            [sys.executable, *profiler, "-m", "deoq_dyn.cli", "simulate",
             "--config", str(cfg_path), "--out", str(out_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


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
