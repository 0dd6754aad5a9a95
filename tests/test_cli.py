import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import negative_slope_trace
from zpgd import cli


def run_cli(args):
    return cli.main(args)


def test_parse_config_values():
    cfg = cli.parse_config("""
    mode = eigen            # trailing comment
    count = 5
    [problem]
    case = ball2d
    epsilon = 1.0
    radius = 1.0
    [problem.q0]
    breakpoints = 0, 1, 2
    """)
    assert cfg["mode"] == "eigen"
    assert cfg["count"] == 5.0
    assert cfg["problem"]["case"] == "ball2d"
    assert cfg["problem"]["q0"]["breakpoints"] == [0.0, 1.0, 2.0]


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = eigen\nthis line has no equals sign\n")
    assert run_cli(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = warp-drive\n")
    assert run_cli(["run", "--config", str(bad), "--out", str(tmp_path)]) == 3
    missing = tmp_path / "missing.cfg"
    missing.write_text("mode = eigen\n[problem]\ncase = ball2d\n")  # no radius
    assert run_cli(["run", "--config", str(missing), "--out", str(tmp_path)]) == 3
    # an inner inflow wall strong enough for a growing Robin mode
    growing = tmp_path / "growing.cfg"
    growing.write_text(cli.resolve_config("annulus3d_smooth").replace(
        "q_inner = -0.2", "q_inner = 0.5").replace(
        "coeffs0 = -0.2, 0.0, 1.2, -0.8", "coeffs0 = 0.5, 0.0, -0.9, 0.6")
        + "[problem.rho_inner]\ntype = constant\nvalue = 1.0\n")
    assert run_cli(["run", "--config", str(growing), "--out", str(tmp_path)]) == 3
    # a singular wall form: eigenvalue 0, outside the positive-frequency series
    singular = tmp_path / "singular.cfg"
    singular.write_text(cli.resolve_config("annulus3d_smooth").replace(
        "q_inner = -0.2", "q_inner = 0.3").replace("q_outer = 0.2", "q_outer = 0.1").replace(
        "coeffs0 = -0.2, 0.0, 1.2, -0.8", "coeffs0 = 0.3, 0.0, -0.6, 0.4").replace(
        "coeffs1 = 0.2", "coeffs1 = 0.1")
        + "[problem.rho_inner]\ntype = constant\nvalue = 1.0\n")
    capsys.readouterr()
    assert run_cli(["run", "--config", str(singular), "--out", str(tmp_path)]) == 3
    assert "eigenvalue 0 with eigenfunction A + B/r" in capsys.readouterr().err


def test_freespace_closed_form_density_check(tmp_path):
    # the traced density against rho0(r/(1+t))/(1+t): the gap peaks at
    # t = 10, about 2.9e-6, inside the fixed 1e-5
    assert run_cli(["run", "--config", "freespace_closed_form", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "freespace_closed_form_report.txt").read_text()
    m = re.search(r"\[(PASS|FAIL)\] closed-form density gap: \|(\S+)\| <= (\S+)", report)
    assert m[1] == "PASS"
    assert 2.8e-6 < float(m[2]) < 3.0e-6
    assert float(m[3]) == 1e-5


EIGEN_CFG = """
mode = eigen
count = 3
[problem]
case = ball2d
epsilon = 1.0
radius = 1.0
q_boundary = 0.0
"""


def test_check_failure_exit_code(tmp_path):
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text(EIGEN_CFG)
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    # --tolerance-scale is the one tolerance setting: shrunk, a check fails
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path),
                    "--tolerance-scale", "1e-30"]) == 1
    assert "[FAIL] eigen residual (scaled)" in (tmp_path / "eigen_report.txt").read_text()


@pytest.mark.parametrize("line", ["residual = 1e-30", "robin = 1e-3", "mass_tol = 1e-5"])
def test_unknown_checks_key_exit_code(tmp_path, capsys, line):
    # tolerances are fixed per check, so a [checks] key other than the
    # free-space switches is an error, not silently ignored
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text(EIGEN_CFG + "[checks]\n" + line + "\n")
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    key = line.split(" = ")[0]
    assert f"validation error: unknown [checks] key {key} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the switches pass validation in a free-space config
    cfg.write_text(cli.resolve_config("freespace_closed_form").replace(
        "closed_form = 1\n", "mass = 0\ndecay = 0\nclosed_form = 1\n"))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name, old, new, message", [
    ("eigen_ball3d", "count = 8", "cuont = 3", "unknown key cuont "),
    ("freespace_decay", "epsilon = 0.4", "epsilon = 0.4\nepsilom = 0.1", "'epsilom'"),
    ("oracle_compare_ball3d", "t = 0.1, 2.0, 20", "t = 0.1, 2.0, 20\nr = 0.1, 0.9, 9",
     "unknown [grid] key r "),
    ("ball3d_smooth", "coeffs1 = 0.25", "coeffs1 = 0.25\ncoeffs2 = 0.0",
     "unknown [problem.q0] key coeffs2 "),
    ("eigen_ball3d", "[output]", "[checks]\nmass = 1\n[output]", "unknown [checks] key mass "),
    ("freespace_decay", "epsilon = 0.4\n", "", "'epsilon'"),
    ("inviscid_inflow", "n = 3", "n = 2.5", "n must be 1, 2 or 3"),
    ("inviscid_inflow", "r = 0.05, 2.0, 40", "r = 5", "[grid] key r: "),
    ("inviscid_inflow", "t = 0.2, 1.4, 7", "t = 0.2, 1.4, 7.5", "[grid] key t: "),
    ("inviscid_inflow", "r = 0.05, 2.0, 40", "r = 0.05, 2.0, 0", "[grid] key r: "),
    ("inviscid_inflow", "r = 0.05, 2.0, 40", "r = 0.05, 2.0, many", "[grid] key r: "),
    ("eigen_ball3d", "count = 8", "count = 8, 9", "key count: "),
    ("eigen_ball3d", "count = 8", "count = 2.5", "key count: "),
    ("eigen_ball3d", "count = 8", "count = -1", "key count: "),
    ("eps_sweep_riemann", "time = 2.0", "time = 1.0, 2.0", "key time: "),
    ("eps_sweep_riemann", "points = 1.0, 3.3", "points = 1.0, r3.3", "key points: "),
])
def test_unknown_or_missing_key_exit_code(tmp_path, capsys, name, old, new, message):
    # every key a scenario may set is a key of its mode or a field of its
    # problem class, with a value of the shape its reader takes; any other
    # key or value, or a missing field, exits 3 before any output
    text = cli.resolve_config(name)
    assert old in text
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(text.replace(old, new))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_key_parse_error(tmp_path, capsys):
    cfg = tmp_path / "repeated.cfg"
    cfg.write_text(cli.resolve_config("freespace_decay").replace(
        "epsilon = 0.4\n", "epsilon = 0.4\nepsilon = 0.1\n"))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "line 6: repeated key epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    # one eigenvalue cannot meet the series tail bound: a numerical failure
    # (4), not a failed check (1), with the exception named in the report
    find = cli.bg.find_eigenvalues
    monkeypatch.setattr(cli.bg, "find_eigenvalues", lambda eigen, count: find(eigen, 1))
    assert run_cli(["run", "--config", "ball3d_smooth", "--out", str(tmp_path)]) == 4
    assert "numerical failure: TruncationError" in capsys.readouterr().err
    report = (tmp_path / "ball3d_smooth_report.txt").read_text()
    assert "numerical failure: TruncationError: series tail" in report
    assert "result: FAIL" in report


def test_characteristic_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a backward trace with a negative Jacobian is a numerical failure (4)
    monkeypatch.setattr(cli.fs, "_rk4_doubling", negative_slope_trace)
    code = run_cli(["run", "--config", "freespace_closed_form", "--out", str(tmp_path)])
    assert code == 4
    assert "numerical failure: CharacteristicError" in capsys.readouterr().err


def test_gallery_covers_required_scenarios():
    names = [n for n, _ in cli.bundled_scenarios()]
    for case in ("ball2d", "ball3d", "annulus2d", "annulus3d"):
        assert any(case in n for n in names)
    assert any("riemann" in n for n in names)
    assert any("eps_sweep" in n for n in names)


def test_eigen_subcommand(tmp_path, capsys):
    code = run_cli(["eigen", "--case", "ball2d", "--radius", "1.0",
                    "--count", "3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "3.8317059702075" in out
    assert (tmp_path / "eigen_ball2d.csv").exists()
    assert run_cli(["eigen", "--case", "annulus2d", "--count", "2",
                    "--out", str(tmp_path)]) == 3   # missing geometry
    assert ("validation error: annulus cases need r_inner and r_outer"
            in capsys.readouterr().err)


def test_run_bundled_eigen_scenario(tmp_path):
    code = run_cli(["run", "--config", "eigen_ball2d", "--out", str(tmp_path)])
    assert code == 0
    csv = tmp_path / "eigen_ball2d_eigenvalues.csv"
    assert csv.exists()
    report = (tmp_path / "eigen_ball2d_report.txt").read_text()
    assert "PASS" in report and "FAIL" not in report


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(["run", "--config", "eigen_annulus3d", "--out", str(out)]) == 0
    f1 = (out1 / "eigen_annulus3d_eigenvalues.csv").read_bytes()
    f2 = (out2 / "eigen_annulus3d_eigenvalues.csv").read_bytes()
    assert f1 == f2


def test_missing_config_resolution(tmp_path):
    assert run_cli(["run", "--config", "no_such_scenario",
                    "--out", str(tmp_path)]) == 3


def test_inviscid_scenario_runs(tmp_path):
    code = run_cli(["run", "--config", "inviscid_riemann_shock", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "inviscid_riemann_panel.csv").exists()
    assert (tmp_path / "inviscid_riemann_boundary_report.csv").exists()


def test_import_leaves_scipy_integrate_and_linalg_unloaded():
    # no solver needs scipy.integrate, which would also load scipy.optimize
    # and scipy.sparse on every start of the CLI, and scipy.linalg (tens of
    # ms, several MB resident) is for the FD oracles alone
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, zpgd, zpgd.cli as c\n"
            "for name, _ in c.bundled_scenarios():\n"
            "    c.parse_config(c.resolve_config(name))\n"
            "print(sorted({'scipy.integrate', 'scipy.linalg'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_scipy_special_loads_on_first_bessel_call(tmp_path):
    # loading scipy.special is a large share of a start's time and resident
    # memory, and inviscid and n = 1 free-space runs never evaluate a Bessel
    # function
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, zpgd, zpgd.cli as c\n"
            "import numpy as np\n"
            "for name, _ in c.bundled_scenarios():\n"
            "    c.parse_config(c.resolve_config(name))\n"
            "seen = ['scipy.special' in sys.modules]\n"
            "code = c.run_scenario(c.resolve_config('inviscid_riemann_shock'), sys.argv[1])\n"
            "seen.append('scipy.special' in sys.modules)\n"
            "x = np.linspace(0.05, 40.0, 801)\n"
            "j0, j1 = zpgd.specfun.bessel_j01(x)\n"
            "seen.append('scipy.special' in sys.modules)\n"
            "import scipy.special as sp\n"
            "same = j0.tobytes() == sp.j0(x).tobytes() and j1.tobytes() == sp.j1(x).tobytes()\n"
            "print('RESULT', code, *seen, same)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "RESULT 0 False False True True"


@pytest.mark.parametrize("name", [n for n, _ in cli.bundled_scenarios()])
def test_bundled_scenario_runs(name, tmp_path):
    assert cli.run_scenario(cli.resolve_config(name), str(tmp_path)) == 0
    report = next(tmp_path.glob("*report.txt")).read_text()
    artifacts = report.split("artifacts:\n", 1)[1].split()
    assert artifacts
    assert all(Path(a).is_file() for a in artifacts)
