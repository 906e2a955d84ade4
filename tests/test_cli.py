"""Command-line interface: subcommands, exit codes, file formats."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mibounds
from mibounds import cli, protocols
from mibounds.channels import (
    CHANNEL_KINDS,
    MAX_QUBITS,
    NoisyQpeModel,
    chi_closed_form,
    chi_numeric,
)
from mibounds.cli import main
from mibounds.protocols import EntangledState, posterior_entropy

REPORT_KEYS = {
    "method",
    "bound_bits",
    "sigma2",
    "prior_entropy_bits",
    "tail_mass_bound",
    "flags",
    "command",
    "timestamp",
    "seed",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(*argv):
    """cli.main in process without pytest fixtures, for hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def src_env():
    src = str(Path(mibounds.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_cosine_model(path, n_grid=512):
    phis = np.arange(n_grid) / n_grid
    p1 = np.cos(np.pi * phis) ** 2
    lines = ["phi,p1,p2"]
    for phi, a in zip(phis, p1):
        lines.append(f"{float(phi)!r},{float(a)!r},{float(1.0 - a)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_bound_channel_fourier(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "2", "--eta", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == REPORT_KEYS
    assert abs(report["bound_bits"] - 2.0) < 1e-9
    assert report["method"] == "fourier"
    assert report["seed"] is None
    assert report["command"].startswith("mibounds bound")


def test_bound_channel_fisher(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "3", "--eta", "0.9",
        "--method", "fisher",
    )
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "fisher"
    assert report["sigma2"] is not None
    assert math.copysign(1.0, report["prior_entropy_bits"]) == 1.0
    assert report["bound_bits"] > 0.0


def test_bound_fisher_needs_dephasing(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--channel", "erasure", "--M", "2", "--eta", "0.5",
        "--method", "fisher",
    )
    assert code == 2
    assert "dephasing" in err


def test_bound_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bound")
    assert code == 2
    assert "exactly one" in err
    model = tmp_path / "m.csv"
    write_cosine_model(model, 64)
    code, _, err = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "1", "--eta", "1",
        "--model", str(model),
    )
    assert code == 2


def test_bound_rejects_bad_channel_parameters(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "99", "--eta", "0.5"
    )
    assert code == 2 and "n_qubits" in err
    code, _, err = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "2", "--eta", "1.5"
    )
    assert code == 2


@hst.composite
def channel_bound_inputs(draw):
    m = draw(hst.integers(1, MAX_QUBITS))
    grid = draw(hst.one_of(hst.none(), hst.integers(1, 2 ** (m + 2))))
    return (draw(hst.sampled_from(CHANNEL_KINDS)), m,
            draw(hst.floats(0.0, 1.0)), grid)


@settings(max_examples=150, deadline=None)
@given(inputs=channel_bound_inputs())
def test_bound_channel_fourier_is_the_closed_form(inputs):
    """Every M up to MAX_QUBITS gets sum_j h(x_j); a grid that cannot
    resolve k = 0..2^M - 1 exits 2 instead of returning a low bound."""
    kind, m, eta, grid = inputs
    argv = ["bound", "--channel", kind, "--M", str(m), "--eta", repr(eta)]
    if grid is not None:
        argv += ["--grid", str(grid)]
    code, out, err = run_quiet(*argv)
    if grid is not None and grid < 2 ** (m + 1):
        assert code == 2 and "cannot resolve" in err and out == ""
        return
    assert code == 0, err
    report = json.loads(out)
    want = chi_closed_form(NoisyQpeModel(kind, m, eta))
    assert abs(report["bound_bits"] - want) <= 1e-12
    assert report["tail_mass_bound"] == 0.0 and report["flags"] == []
    if m <= 10:
        assert abs(want - chi_numeric(NoisyQpeModel(kind, m, eta))) <= 1e-10


@pytest.mark.parametrize("m,grid", [(10, 6), (2, 4)])
def test_bound_channel_rejects_aliasing_grid(capsys, m, grid):
    """These grids used to alias the spectrum into a low bound with exit 0
    (1.29 of 10 bits, 0.5 of 2 bits)."""
    code, out, err = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", str(m), "--eta", "1",
        "--grid", str(grid),
    )
    assert code == 2 and "cannot resolve" in err
    assert out == ""


def test_bound_channel_grid_at_window_gives_full_bound(capsys):
    """A grid of 2^(M+1) resolves every mode; it used to return 1 of 2 bits."""
    code, out, _ = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "2", "--eta", "1",
        "--grid", "8",
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["bound_bits"] - 2.0) < 1e-12
    assert report["flags"] == [] and report["tail_mass_bound"] == 0.0


def test_bound_channel_thirty_qubits_in_bounded_memory():
    """M = MAX_QUBITS needs no 4 * 2^30-point grid: it runs under a 1 GiB
    address-space limit (the FFT route asked for 32 GiB)."""
    script = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from mibounds import cli
        sys.exit(cli.main(["bound", "--channel", "erasure", "--M", "30",
                           "--eta", "0.9"]))
    """)
    env = dict(src_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    want = chi_closed_form(NoisyQpeModel("erasure", 30, 0.9))
    assert abs(report["bound_bits"] - want) <= 1e-12
    assert report["flags"] == [] and report["tail_mass_bound"] == 0.0


def test_parser_is_built_once_and_leaks_no_state(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "12", "--eta", "1",
        "--grid", "8192", "--seed", "5",
    )
    assert code == 0 and json.loads(out)["seed"] == 5
    # a leaked --grid 8192 would be too coarse for M = 13 and exit 2
    code, out, err = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "13", "--eta", "1"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["seed"] is None
    assert abs(report["bound_bits"] - 13.0) < 1e-12
    code, _, _ = run_cli(
        capsys, "figure", "chi_qpe", "--M-max", "1", "--n-eta", "2",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "chi_qpe.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "# seed: none" and len(lines) == 4 + 2


@pytest.mark.parametrize("argv", [
    ["optimize", "--N", "3"],
    ["two-seed", "--trials", "2"],
    ["figure", "entropy2", "--N", "3"],
    ["check", "protocols", "--trials", "2"],
])
def test_negative_seed_exits_two(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # figure writes to the working directory
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2 and "--seed" in err
    assert out == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["optimize", "--N", "3", "--restarts", "0"],
    ["optimize", "--N", "3", "--restarts", "-2"],
    ["figure", "entropy2", "--N", "3", "--restarts", "-1"],
])
def test_nonpositive_restarts_exit_two(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # figure writes to the working directory
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and "restarts" in err
    assert out == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("grid", ["0", "-4"])
@pytest.mark.parametrize("method", ["fourier", "fisher"])
def test_bound_rejects_nonpositive_grid(capsys, grid, method):
    code, out, err = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "2", "--eta", "1",
        "--method", method, "--grid", grid,
    )
    assert code == 2 and "--grid" in err
    assert out == ""


def test_bound_model_csv(capsys, tmp_path):
    """A cos^2 conditional model goes through the Fisher route."""
    model = tmp_path / "model.csv"
    write_cosine_model(model)
    code, out, _ = run_cli(
        capsys, "bound", "--model", str(model), "--method", "fisher"
    )
    assert code == 0
    report = json.loads(out)
    # sigma^2 = 1/4 for this model, so the bound is 0.5 log2(1 + pi e / 2)
    assert abs(report["sigma2"] - 0.25) < 1e-4
    assert abs(
        report["bound_bits"] - 0.5 * np.log2(1.0 + np.pi * np.e / 2.0)
    ) < 1e-4


def test_bound_model_requires_fisher_method(capsys, tmp_path):
    model = tmp_path / "model.csv"
    write_cosine_model(model, 64)
    code, _, err = run_cli(capsys, "bound", "--model", str(model))
    assert code == 2 and "fisher" in err


def test_bound_overlap_csv(capsys, tmp_path):
    phis = np.arange(128) / 128.0
    f = 0.5 + 0.5 * np.exp(2j * np.pi * phis)
    lines = ["phi,re,im"]
    for phi, v in zip(phis, f):
        lines.append(f"{float(phi)!r},{float(v.real)!r},{float(v.imag)!r}")
    overlap = tmp_path / "overlap.csv"
    overlap.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "bound", "--overlap", str(overlap))
    assert code == 0
    assert abs(json.loads(out)["bound_bits"] - 1.0) < 1e-9


def test_bound_step_model_exits_three(capsys, tmp_path):
    """A grid-scale discontinuity is reported as a numerical failure."""
    phis = np.arange(256) / 256.0
    p1 = np.where(phis < 0.5, 0.8, 0.2)
    lines = ["phi,p1,p2"]
    for phi, a in zip(phis, p1):
        lines.append(f"{float(phi)!r},{float(a)!r},{float(1.0 - a)!r}")
    model = tmp_path / "step.csv"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "bound", "--model", str(model), "--method", "fisher"
    )
    assert code == 3
    report = json.loads(out)
    assert report["bound_bits"] is None
    assert "divergent" in report["flags"]


def test_bound_ragged_csv_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("phi,p1,p2\n0.0,0.5,0.5\n0.5,0.5\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "bound", "--model", str(bad), "--method", "fisher"
    )
    assert code == 2


def test_bound_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "bound", "--channel", "erasure", "--M", "2", "--eta", "0.7",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert set(report) == REPORT_KEYS


def test_figure_csv_metadata_and_svg(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "figure", "chi_qpe", "--M-max", "2", "--n-eta", "5",
        "--out-dir", str(tmp_path), "--svg", "--seed", "3",
    )
    assert code == 0
    csv_path = tmp_path / "chi_qpe.csv"
    svg_path = tmp_path / "chi_qpe.svg"
    assert str(csv_path) in out and str(svg_path) in out
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# command: mibounds figure chi_qpe")
    assert lines[1] == "# seed: 3"
    assert lines[2].startswith("# version: ")
    assert lines[3] == "eta,M,value_bits"
    assert len(lines) == 4 + 2 * 5
    float(lines[4].split(",")[2])  # numeric payload
    assert svg_path.read_text(encoding="utf-8").startswith("<svg")


def test_figure_determinism(capsys, tmp_path):
    """The same invocation writes byte-identical CSV and SVG files."""
    args = (
        "figure", "b_sigma", "--n-sigma", "20",
        "--out-dir", str(tmp_path), "--svg", "--seed", "0",
    )
    assert run_cli(capsys, *args)[0] == 0
    first_csv = (tmp_path / "b_sigma.csv").read_bytes()
    first_svg = (tmp_path / "b_sigma.svg").read_bytes()
    assert run_cli(capsys, *args)[0] == 0
    assert (tmp_path / "b_sigma.csv").read_bytes() == first_csv
    assert (tmp_path / "b_sigma.svg").read_bytes() == first_svg


@pytest.mark.parametrize("name,flag", [("b_sigma", "--n-sigma"),
                                       ("chi_qpe", "--n-eta"),
                                       ("transition", "--n-eta")])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_figure_rejects_nonpositive_point_counts(capsys, tmp_path, name, flag,
                                                 count):
    code, out, err = run_cli(
        capsys, "figure", name, flag, count, "--out-dir", str(tmp_path)
    )
    assert code == 2 and flag in err
    assert out == "" and not list(tmp_path.iterdir())


def test_figure_unknown_name(capsys):
    code, _, err = run_cli(capsys, "figure", "no_such_plot")
    assert code == 2 and "unknown figure" in err


def test_check_passing_suite(capsys, tmp_path):
    out_path = tmp_path / "checks.csv"
    code, out, _ = run_cli(
        capsys, "check", "channels", "--out", str(out_path)
    )
    assert code == 0
    assert "4/4 checks passed" in out
    assert all(
        line.startswith("PASS") for line in out.splitlines()[:-1]
    )
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[3] == "suite,name,passed,detail"
    assert all(",true," in line for line in lines[4:])


def test_check_failing_suite_exits_one(capsys):
    # the numerics suite includes the documented reference-curve dip
    code, out, _ = run_cli(capsys, "check", "numerics")
    assert code == 1
    assert "FAIL  numerics.entropy_vs_bound_scan" in out
    assert "4/5 checks passed" in out


def test_check_protocols_with_trials(capsys):
    code, out, _ = run_cli(
        capsys, "check", "protocols", "--trials", "10", "--seed", "1"
    )
    assert code == 0
    assert "4/4 checks passed" in out


def test_check_protocols_rejects_nonpositive_trials(capsys):
    code, out, err = run_cli(capsys, "check", "protocols", "--trials", "-3")
    assert code == 2
    assert "trials" in err and "PASS" not in out


def test_optimize_json(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--N", "7", "--restarts", "3", "--seed", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["n_calls"] == 7
    # the ceiling is the optimized state's own weight entropy, <= log2(N+1)
    weights = np.array(report["coefficients"]) ** 2
    pos = weights[weights > 0.0]
    assert abs(report["ceiling_bits"] + np.sum(pos * np.log2(pos))) < 1e-9
    assert report["ceiling_bits"] <= 3.0 + 1e-12
    assert report["mi_bits"] <= report["ceiling_bits"] + 1e-9
    assert report["entropy_bits"] < report["uniform_entropy_bits"] - 1e-3
    assert len(report["trace"]) == 3
    assert len(report["coefficients"]) == 8
    assert abs(sum(c * c for c in report["coefficients"]) - 1.0) < 1e-9


def test_optimize_emit_csv(capsys, tmp_path, monkeypatch):
    """--emit-csv plots the state it reports and optimizes only once."""
    calls = []
    original = protocols.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocols, "minimize", counting)
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "optimize", "--N", "3", "--grid", "8", "--restarts", "2",
        "--out", str(report_path), "--emit-csv", str(tmp_path),
    )
    assert code == 0
    assert len(calls) == 2
    report = json.loads(report_path.read_text())
    weights = cli._read_table(tmp_path / "entropy2_weights.csv")[1][:, 2]
    want = np.array(report["coefficients"]) ** 2
    assert np.max(np.abs(weights - want)) <= 1e-15
    assert cli._read_table(tmp_path / "entropy2.csv")[1].shape == (8, 3)


def test_figure_entropy2_grid_is_the_optimizer_grid(capsys, tmp_path):
    """figure entropy2 --grid G optimizes on G, as optimize --grid G does."""
    common = ("--N", "3", "--grid", "8", "--restarts", "2", "--seed", "0")
    code, _, _ = run_cli(capsys, "figure", "entropy2", *common,
                         "--out-dir", str(tmp_path / "figure"))
    assert code == 0
    code, _, _ = run_cli(capsys, "optimize", *common,
                         "--emit-csv", str(tmp_path / "optimize"))
    assert code == 0
    rows = [
        [line for line in (tmp_path / d / "entropy2_weights.csv")
         .read_text(encoding="utf-8").splitlines()
         if not line.startswith("#")]
        for d in ("figure", "optimize")
    ]
    assert rows[0] == rows[1] and len(rows[0]) == 1 + 4
    assert abs(float(rows[0][1].split(",")[2]) - 0.1777706) < 1e-6


def test_figure_entropy2_odd_grid_exits_two(capsys, tmp_path):
    out_dir = tmp_path / "figure"
    code, _, err = run_cli(
        capsys, "figure", "entropy2", "--N", "3", "--grid", "9",
        "--restarts", "1", "--out-dir", str(out_dir),
    )
    assert code == 2 and "even" in err
    assert not out_dir.exists()


def test_optimize_odd_grid_with_emit_csv_writes_nothing(capsys, tmp_path):
    """The posterior plot needs an even grid; it is checked before any write."""
    report_path = tmp_path / "report.json"
    csv_dir = tmp_path / "csv"
    code, _, err = run_cli(
        capsys, "optimize", "--N", "3", "--grid", "9", "--restarts", "1",
        "--out", str(report_path), "--emit-csv", str(csv_dir),
    )
    assert code == 2 and "even" in err
    assert not report_path.exists() and not csv_dir.exists()


def test_odd_plot_grid_is_rejected_before_optimizing(capsys, tmp_path,
                                                    monkeypatch):
    """An odd --grid that must be plotted exits 2 without one optimizer
    call; optimize without --emit-csv still runs on it."""
    calls = []
    original = protocols.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocols, "minimize", counting)
    for argv in (["figure", "entropy2", "--out-dir", str(tmp_path / "fig")],
                 ["optimize", "--emit-csv", str(tmp_path / "csv"),
                  "--out", str(tmp_path / "report.json")]):
        code, _, err = run_cli(capsys, *argv, "--N", "3", "--grid", "9",
                               "--restarts", "2")
        assert code == 2 and "even" in err
    assert calls == [] and list(tmp_path.iterdir()) == []
    code, _, _ = run_cli(capsys, "optimize", "--N", "3", "--grid", "9",
                         "--restarts", "2")
    assert code == 0 and len(calls) == 2


@pytest.mark.parametrize("grid", [None, 9, 64])
def test_optimize_uniform_entropy_uses_the_grid(capsys, grid):
    argv = ["optimize", "--N", "3", "--restarts", "1"]
    if grid is not None:
        argv += ["--grid", str(grid)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    uniform = EntangledState.uniform(3)
    assert report["uniform_entropy_bits"] == posterior_entropy(uniform, grid)
    state = EntangledState(np.array(report["coefficients"]))
    assert report["entropy_bits"] == posterior_entropy(state, grid)


def test_optimize_requires_n(capsys):
    code, _, err = run_cli(capsys, "optimize")
    assert code == 2 and "--N" in err


def test_two_seed_trials(capsys):
    code, out, _ = run_cli(
        capsys, "two-seed", "--trials", "8", "--seed", "9"
    )
    assert code == 0
    log = json.loads(out)
    assert len(log["trials"]) == 8
    summary = log["summary"]
    assert summary["n_trials"] == 8
    assert summary["always_violations"] == 0
    assert summary["fromconv_violations"] == 0
    assert summary["wonder_satisfied"] == 0
    for trial in log["trials"]:
        assert trial["n_calls"] in (2, 3, 4)
        assert trial["mi_merged"] <= trial["mi_single"] + 1e-9


def test_two_seed_rejects_nonpositive_trials(capsys, tmp_path):
    out_file = tmp_path / "log.json"
    code, _, err = run_cli(
        capsys, "two-seed", "--trials", "-1", "--out", str(out_file)
    )
    assert code == 2
    assert "trials" in err
    assert not out_file.exists()


def test_two_seed_validation(capsys):
    code, _, _ = run_cli(
        capsys, "two-seed", "--trials", "2", "--n-min", "5", "--n-max", "3"
    )
    assert code == 2


def test_config_file_merge(capsys, tmp_path):
    cfg = tmp_path / "fig.cfg"
    cfg.write_text(
        "# figure settings\nM_max = 2\nn-eta = 7\n", encoding="utf-8"
    )
    code, out, _ = run_cli(
        capsys, "figure", "chi_qpe", "--config", str(cfg),
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "chi_qpe.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4 + 2 * 7  # config supplied both knobs


def test_config_flag_wins_over_file(capsys, tmp_path):
    cfg = tmp_path / "fig.cfg"
    cfg.write_text("n_eta = 7\nM_max = 2\n", encoding="utf-8")
    code, _, _ = run_cli(
        capsys, "figure", "chi_qpe", "--config", str(cfg),
        "--n-eta", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "chi_qpe.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4 + 2 * 3


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "fig.cfg"
    cfg.write_text("no_such_option = 1\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "figure", "chi_qpe", "--config", str(cfg)
    )
    assert code == 2 and "no_such_option" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mibounds", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_bound_and_check_channels_do_not_import_scipy():
    """Only the optimizer needs scipy; bound and check channels skip it."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        import mibounds
        from mibounds import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["bound", "--channel", "dephasing", "--M", "2",
                               "--eta", "0.5"]),
                     cli.main(["check", "channels"])]
        print(codes, sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy.")))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


def test_every_command_runs_with_scipy_blocked():
    """scipy is only a test extra (the L-BFGS-B oracle): with its import
    blocked, each command ends with its usual exit code."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys, tempfile
        sys.modules["scipy"] = None  # every import of scipy now fails
        from mibounds import cli
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \\
                contextlib.redirect_stdout(out):
            codes = [cli.main(argv) for argv in (
                ["optimize", "--N", "7"],
                ["figure", "entropy2", "--N", "7", "--svg", "--out-dir", tmp],
                ["check", "protocols"],
                ["check", "all"],
                ["two-seed", "--trials", "3"],
                ["bound", "--channel", "dephasing", "--M", "2", "--eta",
                 "0.5"],
            )]
        failed = [line.split()[1] for line in out.getvalue().splitlines()
                  if line.startswith("FAIL")]
        print(json.dumps([codes, failed]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    codes, failed = json.loads(proc.stdout)
    assert codes == [0, 0, 0, 1, 0, 0]
    assert failed == ["numerics.entropy_vs_bound_scan"]  # criterion 03
