"""Command-line interface: subcommands, exit codes, file formats."""

import contextlib
import functools
import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import mibounds
from mibounds import checks, cli, figures, protocols
from mibounds.bounds import fourier_bound_from_overlap
from mibounds.channels import (
    CHANNEL_KINDS,
    MAX_QUBITS,
    NoisyQpeModel,
    chi_closed_form,
    overlap_function,
)
from mibounds.cli import main
from mibounds.numerics import MAX_POINTS, entropy_bits_of_weights
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


def write_two_outcome_model(path, p1):
    """A --model file of p1 and 1 - p1 on the uniform grid phi = i / len(p1)."""
    phis = np.arange(len(p1)) / len(p1)
    lines = ["phi,p1,p2"]
    for phi, a in zip(phis, p1):
        lines.append(f"{float(phi)!r},{float(a)!r},{float(1.0 - a)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_cosine_model(path, n_grid=512):
    write_two_outcome_model(path, np.cos(np.pi * np.arange(n_grid) / n_grid) ** 2)


def write_overlap(path, values):
    """An --overlap file of values on the uniform grid phi = i / len."""
    phis = np.arange(len(values)) / len(values)
    path.write_text("phi,re,im\n" + "".join(
        f"{float(p)!r},{float(v.real)!r},{float(v.imag)!r}\n"
        for p, v in zip(phis, values)), encoding="utf-8")


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
    assert report["flags"] == []


def test_bound_fisher_flags_curve_below_max_entropy_envelope(capsys):
    """sigma^2 = 2.5e-4: the curve gives 0.0030735 bits, but an integer
    spectrum with that second moment can carry 0.0036 bits. The bound is
    still the curve, and the flag says it is too low to trust. The printed
    value is the curve to the last digit (0.00307350099265754852...)."""
    code, out, _ = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "1", "--eta", "1e-3",
        "--method", "fisher",
    )
    assert code == 0
    report = json.loads(out)
    assert report["sigma2"] == 2.5e-4
    assert report["bound_bits"] == 0.0030735009926575485
    assert report["flags"] == ["below_max_entropy_envelope"]


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


@pytest.mark.parametrize("source", [["--overlap", "@overlap"],
                                    ["--model", "@model", "--method", "fisher"]])
@pytest.mark.parametrize("flag", ["--M", "--eta"])
def test_bound_file_source_rejects_channel_parameters(capsys, tmp_path,
                                                      source, flag):
    """--M and --eta were ignored with exit 0 when a file was the source."""
    write_cosine_model(tmp_path / "model", 64)
    phis = np.arange(64) / 64
    (tmp_path / "overlap").write_text("phi,re\n" + "".join(
        f"{float(p)!r},1.0\n" for p in phis), encoding="utf-8")
    argv = ["bound", *[a.replace("@", f"{tmp_path}/") for a in source]]
    code, out, err = run_cli(capsys, *argv, flag, "1")
    assert code == 2 and out == ""
    assert err == f"error: {source[0]} takes no {flag}\n"


@pytest.mark.parametrize("argv,message", [
    (["--overlap", "@missing", "--method", "fisher"],
     "an overlap file implies --method fourier"),
    (["--model", "@missing", "--method", "fourier"],
     "a conditional model implies --method fisher"),
])
def test_bound_method_is_checked_before_the_file_is_read(
        capsys, tmp_path, monkeypatch, argv, message):
    def read(*args, **kwargs):
        raise AssertionError("the file was read before --method was checked")

    monkeypatch.setattr(cli, "_read_table", read)
    argv = [a.replace("@", f"{tmp_path}/") for a in argv]
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv", [
    ["bound", "--channel", "dephasing", "--M", "2", "--eta", "1",
     "--grid", "8"],
    ["bound", "--channel", "dephasing", "--M", "2", "--eta", "1",
     "--seed", "1"],
    ["bound", "--channel", "dephasing", "--M", "2", "--eta", "1",
     "--prior", "uniform"],
    ["optimize", "--N", "3", "--emit-csv", "d"],
    ["bound", "--channel", "dephasing", "--M", "2", "--eta", "1",
     "--config", "F"],
    ["figure", "chi_qpe", "--config", "F"],
    ["check", "all", "--config", "F"],
    ["optimize", "--N", "7", "--config", "F"],
    ["two-seed", "--config", "F"],
])
def test_removed_options_exit_two_at_argparse(capsys, tmp_path, monkeypatch,
                                              argv):
    """bound --grid/--seed/--prior changed no report, optimize --emit-csv
    repeated figure entropy2, and --config set every option a second way,
    beside its flag."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {argv[-2]}" in captured.err
    assert "Traceback" not in captured.err and list(tmp_path.iterdir()) == []


def test_bound_rejects_bad_channel_parameters(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "99", "--eta", "0.5"
    )
    assert code == 2 and "n_qubits" in err
    code, _, err = run_cli(
        capsys, "bound", "--channel", "dephasing", "--M", "2", "--eta", "1.5"
    )
    assert code == 2


@settings(max_examples=150, deadline=None)
@given(kind=hst.sampled_from(CHANNEL_KINDS), m=hst.integers(1, MAX_QUBITS),
       eta=hst.floats(0.0, 1.0))
def test_bound_channel_fourier_is_the_closed_form(kind, m, eta):
    """Every M up to MAX_QUBITS gets sum_j h(x_j), with no grid to alias
    the spectrum into a low bound."""
    code, out, err = run_quiet("bound", "--channel", kind, "--M", str(m),
                               "--eta", repr(eta))
    assert code == 0, err
    report = json.loads(out)
    want = chi_closed_form(NoisyQpeModel(kind, m, eta))
    assert abs(report["bound_bits"] - want) <= 1e-12
    assert report["tail_mass_bound"] == 0.0 and report["flags"] == []
    if m <= 10:
        overlap = overlap_function(NoisyQpeModel(kind, m, eta))
        assert abs(want - fourier_bound_from_overlap(overlap).bound_bits) <= 1e-10


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
    trial = ("two-seed", "--trials", "1", "--n-min", "3", "--n-max", "3")
    code, out, _ = run_cli(capsys, *trial, "--grid", "32", "--seed", "5")
    assert code == 0 and json.loads(out)["seed"] == 5
    # a leaked --grid 32 or --seed 5 would change this run's trial
    code, out, err = run_cli(capsys, *trial)
    assert code == 0, err
    code, want, _ = run_cli(capsys, *trial, "--grid", "256", "--seed", "0")
    assert code == 0

    def payload(text):
        report = json.loads(text)
        del report["command"], report["timestamp"]
        return report

    assert payload(out) == payload(want)
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
    """A model file's kind sets the method: it needs no --method, and a
    contradicting one is bad input."""
    model = tmp_path / "model.csv"
    write_cosine_model(model, 64)
    code, out, _ = run_cli(capsys, "bound", "--model", str(model))
    assert code == 0 and json.loads(out)["method"] == "fisher"
    code, _, err = run_cli(capsys, "bound", "--model", str(model),
                           "--method", "fourier")
    assert code == 2
    assert err == "error: a conditional model implies --method fisher\n"


def test_bound_overlap_csv(capsys, tmp_path):
    phis = np.arange(128) / 128.0
    overlap = tmp_path / "overlap.csv"
    write_overlap(overlap, 0.5 + 0.5 * np.exp(2j * np.pi * phis))
    code, out, _ = run_cli(capsys, "bound", "--overlap", str(overlap))
    assert code == 0
    assert abs(json.loads(out)["bound_bits"] - 1.0) < 1e-9


def test_bound_overlap_reports_its_second_moment(capsys, tmp_path):
    """An overlap report's sigma2 is sum k^2 f_k over its window (it printed
    null); the channel closed form has no sigma2 yet."""
    ks, w = np.arange(-2, 3), np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    overlap = tmp_path / "overlap.csv"
    write_overlap(overlap, np.exp(2j * np.pi * np.outer(np.arange(64) / 64, ks)) @ w)
    code, out, _ = run_cli(capsys, "bound", "--overlap", str(overlap))
    report = json.loads(out)
    assert code == 0 and abs(report["sigma2"] - 1.2) < 1e-12
    assert abs(report["bound_bits"] - entropy_bits_of_weights(w)) < 1e-12
    code, out, _ = run_cli(capsys, "bound", "--channel", "erasure", "--M", "3",
                           "--eta", "0.5", "--method", "fourier")
    assert code == 0 and json.loads(out)["sigma2"] is None


def test_bound_step_model_exits_three(capsys, tmp_path):
    """A grid-scale discontinuity is reported as a numerical failure."""
    model = tmp_path / "step.csv"
    write_two_outcome_model(model, np.where(np.arange(256) < 128, 0.8, 0.2))
    code, out, _ = run_cli(
        capsys, "bound", "--model", str(model), "--method", "fisher"
    )
    assert code == 3

    def reject(name):  # RFC 8259 has no Infinity or NaN
        raise ValueError(f"non-JSON constant {name}")

    report = json.loads(out, parse_constant=reject)
    assert report["bound_bits"] is None
    assert report["sigma2"] is None
    assert "divergent" in report["flags"]


@pytest.mark.parametrize("p1", [[0.8, 0.2], [0.95, 0.05]],
                         ids=["step", "cosine"])
def test_bound_two_row_model_exits_two(capsys, tmp_path, p1):
    """On 2 rows every central difference was 0, so a 0.8/0.2 step and the
    cosine p1 = (1 + 0.9 cos 2 pi phi)/2 both gave sigma^2 0 and a 0-bit
    "upper bound" with exit 0 and no flag."""
    model = tmp_path / "two.csv"
    write_two_outcome_model(model, p1)
    code, out, err = run_cli(
        capsys, "bound", "--model", str(model), "--method", "fisher"
    )
    assert code == 2 and out == ""
    assert err == "error: a Fisher integral needs at least 4 grid rows, got 2\n"


def _spike(n_grid):
    p1 = np.full(n_grid, 0.5)
    p1[n_grid // 4] = 0.9
    return p1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("p1,exact", [
    # k = 1, v = 0.9: exact sigma^2 = (1 - sqrt(1 - v^2)) / 4; central
    # differences on 8 rows give 0.110002
    (0.5 * (1.0 + 0.9 * np.cos(2.0 * np.pi * np.arange(8) / 8)),
     (1.0 - math.sqrt(1.0 - 0.81)) / 4.0),
    # a one-sample spike is a grid-scale feature, divergent from 256 rows
    # up; 16, 64 and 128 rows give sigma^2 0.0324, 0.1297 and 0.2594
    (_spike(16), math.inf),
    (_spike(64), math.inf),
    (_spike(128), math.inf),
], ids=["cosine-8", "spike-16", "spike-64", "spike-128"])
def test_bound_model_is_not_silently_under_resolved(capsys, tmp_path, p1,
                                                    exact):
    """A --model report is flagged, divergent, or has sigma^2 no more than
    1e-9 relative below the exact value. Today each of these exits 0 with
    empty flags and too small a sigma^2."""
    model = tmp_path / "model.csv"
    write_two_outcome_model(model, p1)
    code, out, err = run_cli(
        capsys, "bound", "--model", str(model), "--method", "fisher"
    )
    assert code in (0, 3), err
    report = json.loads(out)
    assert report["flags"] or report["sigma2"] >= exact * (1.0 - 1e-9)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_bound_model_with_non_finite_cell_exits_two(capsys, tmp_path, cell):
    """A NaN passes both the sign and the row-sum test, so the model
    refuses non-finite cells by name: one error line, no traceback."""
    model = tmp_path / "bad.csv"
    write_cosine_model(model, 64)
    lines = model.read_text(encoding="utf-8").splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + cell
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "bound", "--model", str(model), "--method", "fisher"
    )
    assert code == 2 and out == ""
    assert err == "error: conditional probabilities must be finite\n"


def test_bound_overflowing_overlap_exits_three_with_one_line(capsys,
                                                             tmp_path):
    """Samples of +-1e308 overflow the FFT: one message line and exit 3, no
    numpy warning (pytest turns warnings into errors)."""
    lines = ["phi,re", "0.0,1.0"]
    lines += [f"{i / 64!r},{(-1.0) ** i * 1e308!r}" for i in range(1, 64)]
    overlap = tmp_path / "huge.csv"
    overlap.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "bound", "--overlap", str(overlap))
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("coeffs,code,message", [
    ([0.9], 2, "error: overlap must satisfy f(0) = 1 within 1e-8"),
    ([0.5 - 0.1j, 0.5 + 0.1j], 3,
     "numerical failure: overlap spectrum has non-real coefficients"),
    ([0.6, 0.6, -0.2], 3,
     "numerical failure: overlap spectrum has negative weights beyond"
     " tolerance"),
], ids=["f0-not-1", "non-real", "negative"])
def test_bound_overlap_refusals(capsys, tmp_path, coeffs, code, message):
    """f = sum_k c_k e^(i 2 pi k phi) on 64 rows: a constant 0.9 is not an
    overlap, and complex or negative c_k are no spectral weights."""
    phis = np.arange(64) / 64
    overlap = tmp_path / "overlap.csv"
    write_overlap(overlap, sum(c * np.exp(2j * np.pi * k * phis)
                               for k, c in enumerate(coeffs)))
    got, out, err = run_cli(capsys, "bound", "--overlap", str(overlap))
    assert (got, out, err) == (code, "", message + "\n")


HUGE_PHIS = ("0", "1e308", "2e308", "3e308")  # 2e308 reads as inf
TINY_PHIS = tuple(repr(i * 1e-320) for i in range(4))


@pytest.mark.parametrize("source,phis,message", [
    ("overlap", HUGE_PHIS, "period must be finite and positive"),
    ("model", HUGE_PHIS, "period must be finite and positive"),
    ("model", TINY_PHIS, "values must be finite"),
], ids=["overlap-huge", "model-huge", "model-subnormal-step"])
def test_bound_file_grid_past_float_range_exits_two(capsys, tmp_path, source,
                                                     phis, message):
    """A phi grid whose period overflows, or a subnormal step whose uniform
    prior 1 / period overflows, is bad input: one message line and no numpy
    warning (pytest turns warnings into errors)."""
    cells = "phi,re" if source == "overlap" else "phi,p1,p2"
    row = ",1.0" if source == "overlap" else ",0.5,0.5"
    path = tmp_path / "grid.csv"
    path.write_text("\n".join([cells] + [phi + row for phi in phis]) + "\n",
                    encoding="utf-8")
    got = run_cli(capsys, "bound", f"--{source}", str(path))
    assert got == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("source", ["overlap", "model"])
@pytest.mark.parametrize("phis", [("0", "0.25", "0.5", "nan"),
                                  ("0", "0.25", "nan", "0.75")],
                         ids=["last", "interior"])
def test_bound_file_with_a_nan_phi_exits_two(capsys, tmp_path, source, phis):
    """A NaN phi cell is off every uniform grid: one message line and no
    numpy warning (pytest turns warnings into errors)."""
    cells = "phi,re" if source == "overlap" else "phi,p1,p2"
    row = ",1.0" if source == "overlap" else ",0.5,0.5"
    path = tmp_path / "nan.csv"
    path.write_text("\n".join([cells] + [phi + row for phi in phis]) + "\n",
                    encoding="utf-8")
    got = run_cli(capsys, "bound", f"--{source}", str(path))
    assert got == (2, "", f"error: {path}: phi values must form a uniform "
                          "grid\n")


@pytest.mark.parametrize("step", [1e300, 1e200, 1e160, 1e-160, 1e-300])
def test_bound_model_on_an_extreme_phi_step_is_the_period_one_bound(
        capsys, tmp_path, step):
    """The Fisher bound does not depend on the period, so a 4-row model on
    phi = i * step has the period-1 file's sigma^2. On these steps the
    grid step or the slopes overflowed: numpy warnings and a false
    divergent, or a traceback under -W error (pytest turns warnings into
    errors)."""
    path = tmp_path / "model.csv"
    path.write_text("phi,p1,p2\n" + "".join(
        f"{i * step!r},{p1!r},{1.0 - p1!r}\n"
        for i, p1 in enumerate([0.5, 0.6, 0.5, 0.4])), encoding="utf-8")
    code, out, err = run_cli(capsys, "bound", "--model", str(path))
    assert (code, err) == (0, "")
    want = 0.0020264236728467543  # the period-1 file, phi = i
    assert abs(json.loads(out)["sigma2"] - want) <= 1e-12 * want


def test_bound_overlap_with_a_fourth_column_exits_two(capsys, tmp_path):
    """An overlap file is phi, re and an optional im: a fourth column is
    refused, not ignored."""
    path = tmp_path / "wide.csv"
    path.write_text("phi,re,im,junk\n" + "".join(
        f"{i / 64!r},1.0,0.0,7\n" for i in range(64)), encoding="utf-8")
    got = run_cli(capsys, "bound", "--overlap", str(path))
    assert got == (2, "", "error: overlap file needs phi and re[,im] columns\n")


def test_bound_overlap_on_a_subnormal_step_is_a_bound(capsys, tmp_path):
    """A constant overlap on phi = i * 1e-320 has period 4e-320: the bound is
    0 bits and the prior term log2(4e-320), with no warning."""
    path = tmp_path / "tiny.csv"
    path.write_text("phi,re\n" + "".join(f"{phi},1.0\n" for phi in TINY_PHIS),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "bound", "--overlap", str(path))
    report = json.loads(out)
    assert (code, err, report["flags"]) == (0, "", [])
    assert report["bound_bits"] == 0.0
    assert report["prior_entropy_bits"] == pytest.approx(math.log2(4e-320))


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
    """The same invocation writes byte-identical CSV and SVG files, with
    no warning (pytest turns warnings into errors), also on the range
    from sigma^2 = 0 (1e-200 squares to 0) to the edge of the support cap."""
    for flags in (["--n-sigma", "20"],
                  ["--sigma-min", "1e-200", "--sigma-max", "2.09e5",
                   "--n-sigma", "4"]):
        args = ("figure", "b_sigma", *flags,
                "--out-dir", str(tmp_path), "--svg", "--seed", "0")
        code, _, err = run_cli(capsys, *args)
        assert (code, err) == (0, "")
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


@pytest.mark.parametrize("argv,message", [
    *(pytest.param(["chi_qpe", "--M-max=1", "--n-eta=3", f"{end}={value}"],
                   "eta must lie in [0, 1]", id=f"chi_qpe{end}={value}")
      for end in ("--eta-min", "--eta-max") for value in ("inf", "-inf", "nan")),
    pytest.param(["b_sigma", "--n-sigma=3", "--sigma-max=inf"],
                 "need 0 < sigma_min < sigma_max < inf",
                 id="b_sigma--sigma-max=inf"),
])
def test_figure_nonfinite_range_end_exits_two_without_a_warning(
        capsys, tmp_path, argv, message):
    """A non-finite sweep end is refused before np.linspace or logspace,
    which warn on an infinite one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "figure", *argv,
                                 "--out-dir", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


def test_figure_with_no_finite_value_draws_empty_axes(capsys, tmp_path):
    """At eta = 5e-324 the Fisher information underflows and every
    enhancement term is -inf: the CSV says so and the SVG has axes and a
    legend but no curve."""
    code, _, err = run_cli(capsys, "figure", "transition", "--eta-min",
                           "5e-324", "--eta-max", "1", "--n-eta", "1",
                           "--svg", "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    rows = (tmp_path / "transition.csv").read_text().splitlines()[4:]
    assert rows and all(row.endswith(",-inf") for row in rows)
    svg = (tmp_path / "transition.svg").read_text()
    assert "<polyline" not in svg and "M=1" in svg


def test_figure_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "no_such_plot"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument name: invalid choice: 'no_such_plot'" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["figure", "b_sigma", "--kind", "erasure"], "--kind"),
    (["figure", "chi_qpe", "--grid", "64"], "--grid"),
    (["figure", "transition", "--N", "7"], "--N"),
    (["figure", "entropy2", "--sigma-max", "2"], "--sigma-max"),
])
def test_figure_rejects_flags_the_dataset_does_not_take(capsys, tmp_path,
                                                        argv, flag):
    """These flags used to be dropped silently with exit 0."""
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2 and flag in err and argv[1] in err
    assert out == "" and not list(tmp_path.iterdir())


def test_figure_options_and_check_context_follow_functools_wraps(
        capsys, tmp_path, monkeypatch):
    """A profiler may rebind the figure builders and the registered checks
    to functools.wraps wrappers (as bench/tracer.py does): the options a
    figure takes and the run values a check gets are read through the
    wrapper, from the wrapped signature."""
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setitem(figures.FIGURES, "b_sigma",
                        wrap(figures.FIGURES["b_sigma"]))
    code, _, _ = run_cli(capsys, "figure", "b_sigma", "--n-sigma", "5",
                         "--out-dir", str(tmp_path / "ok"))
    assert code == 0
    code, _, err = run_cli(capsys, "figure", "b_sigma", "--n-sigma", "5",
                           "--N", "3", "--out-dir", str(tmp_path / "no"))
    assert code == 2 and "takes no --N" in err

    # parseval_tail takes the suite's rng, which only its signature names
    parseval = next(check for check in checks.SUITES["numerics"]
                    if check.__name__ == "parseval_tail")
    monkeypatch.setitem(checks.SUITES, "channels",
                        [wrap(check) for check in checks.SUITES["channels"]]
                        + [wrap(parseval)])
    rows = checks.run_suite("channels")
    assert rows[-1].name == "parseval_tail"
    assert len(rows) >= 2 and all(row.passed for row in rows), rows


def test_figure_common_flags_apply_to_every_dataset(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "figure", "b_sigma", "--n-sigma", "3", "--seed", "4",
        "--svg", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b_sigma.csv",
                                                          "b_sigma.svg"]


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


def test_figure_entropy2_grid_is_the_optimizer_grid(capsys, tmp_path,
                                                    monkeypatch):
    """figure entropy2 --grid G optimizes on G as optimize --grid G does,
    once per start, and writes the squared coefficients optimize reports."""
    calls = []
    original = protocols.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocols, "minimize", counting)
    common = ("--N", "3", "--grid", "8", "--restarts", "2", "--seed", "0")
    code, _, _ = run_cli(capsys, "figure", "entropy2", *common,
                         "--out-dir", str(tmp_path))
    assert code == 0 and len(calls) == 2
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "optimize", *common, "--out", str(report_path))
    assert code == 0 and len(calls) == 4
    report = json.loads(report_path.read_text(encoding="utf-8"))
    weights = cli._read_table(tmp_path / "entropy2_weights.csv")[:, 2]
    want = np.array(report["coefficients"]) ** 2
    assert np.max(np.abs(weights - want)) <= 1e-15
    assert abs(weights[0] - 0.1777706) < 1e-6
    assert cli._read_table(tmp_path / "entropy2.csv").shape == (8, 3)


def test_figure_entropy2_records_the_seed_it_ran_with(capsys, tmp_path):
    """Without --seed the CSVs said `# seed: none`, yet held the rows of
    the builder's default seed 7."""
    for name, seed in (("default", ()), ("seven", ("--seed", "7")),
                       ("zero", ("--seed", "0"))):
        code, _, _ = run_cli(capsys, "figure", "entropy2", "--N", "7", *seed,
                             "--out-dir", str(tmp_path / name))
        assert code == 0
    for dataset in ("entropy2", "entropy2_weights"):
        default, seven, zero = (
            (tmp_path / name / f"{dataset}.csv").read_text(
                encoding="utf-8").splitlines()
            for name in ("default", "seven", "zero"))
        assert default[1] == seven[1] == "# seed: 7" and zero[1] == "# seed: 0"
        assert default[3:] == seven[3:]
    assert zero[3:] != seven[3:]


def test_figure_entropy2_odd_grid_exits_two(capsys, tmp_path):
    out_dir = tmp_path / "figure"
    code, _, err = run_cli(
        capsys, "figure", "entropy2", "--N", "3", "--grid", "9",
        "--restarts", "1", "--out-dir", str(out_dir),
    )
    assert code == 2 and "even" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("name,flags", [("entropy2", ["--N", "7"]),
                                        ("b_sigma", ["--n-sigma", "3"])])
def test_figure_out_dir_under_a_file_exits_two_before_building(
        capsys, tmp_path, monkeypatch, name, flags):
    """--out-dir FILE/sub ran the whole figure before mkdir failed; it is
    now rejected up front, and nothing is created."""
    (tmp_path / "file").write_text("x\n", encoding="utf-8")
    calls = []
    builder = cli.FIGURES[name]

    @functools.wraps(builder)
    def spy(*args, **kwargs):
        calls.append(1)
        return builder(*args, **kwargs)

    monkeypatch.setitem(cli.FIGURES, name, spy)
    code, out, err = run_cli(capsys, "figure", name, *flags,
                             "--out-dir", str(tmp_path / "file" / "sub"))
    assert code == 2 and out == "" and "is not a directory" in err
    assert calls == [] and [p.name for p in tmp_path.iterdir()] == ["file"]
    code, _, _ = run_cli(capsys, "figure", name, *flags,
                         "--out-dir", str(tmp_path / "new" / "sub"))
    assert code == 0 and calls == [1]
    assert (tmp_path / "new" / "sub" / f"{name}.csv").is_file()


def test_odd_plot_grid_is_rejected_before_optimizing(capsys, tmp_path,
                                                    monkeypatch):
    """An odd --grid that must be plotted exits 2 without one optimizer
    call; optimize, which plots nothing, still runs on it."""
    calls = []
    original = protocols.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocols, "minimize", counting)
    code, _, err = run_cli(capsys, "figure", "entropy2", "--N", "3",
                           "--grid", "9", "--restarts", "2",
                           "--out-dir", str(tmp_path / "fig"))
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


def refuse_to_draw(*args, **kwargs):
    raise AssertionError("a two-seed trial ran before the grid was checked")


def test_two_seed_grid_too_coarse_for_n_max_exits_two_for_every_seed(
        capsys, tmp_path, monkeypatch):
    """--n-max 40 needs a grid of 8*(40+1) = 328 points. The check used to
    run only when a trial drew a large N, so --seed 1 exited 0 on the
    default 256 points while --seed 0 exited 2 after running trials; it
    now runs before the first draw."""
    monkeypatch.setattr(cli, "random_seed_pair", refuse_to_draw)
    out_file = tmp_path / "log.json"
    for seed in range(6):
        code, out, err = run_cli(
            capsys, "two-seed", "--n-min", "2", "--n-max", "40", "--trials",
            "3", "--seed", str(seed), "--out", str(out_file))
        assert code == 2 and out == "", seed
        assert "at least 8*(N+1) = 328" in err
        assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["bound", "--overlap", "@missing"],
    ["bound", "--overlap", "@dir"],
    ["bound", "--overlap", "@binary"],
    ["bound", "--overlap", "@file"],
    ["bound", "--model", "@missing", "--method", "fisher"],
    ["bound", "--model", "@dir", "--method", "fisher"],
    ["bound", "--model", "@binary", "--method", "fisher"],
    ["bound", "--model", "@file", "--method", "fisher"],
    ["check", "channels", "--out", "@missing/x.csv"],
    ["bound", "--channel", "dephasing", "--M", "2", "--eta", "1",
     "--out", "@missing/x.json"],
    ["figure", "b_sigma", "--n-sigma", "3", "--out-dir", "@file"],
    ["figure", "b_sigma", "--sigma-min", "1e8", "--sigma-max", "1e9",
     "--out-dir", "@dir"],
])
def test_bad_paths_and_values_exit_two(capsys, tmp_path, argv):
    """Missing, directory, non-UTF-8 and non-numeric input files, an output
    in a missing directory, an output directory that is a file, and a
    b_sigma scan asking for a 136 GiB support exit 2 with one error line;
    most of them once ended in a traceback with exit 1. A non-UTF-8 input
    is named in the message."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00phi,re\n\x80\n")
    (tmp_path / "file").write_text("x\n", encoding="utf-8")
    binary = "@binary" in argv
    argv = [a.replace("@", f"{tmp_path}/") for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("error: ")
    assert not binary or f"{tmp_path}/binary: not UTF-8 text" in err
    assert (tmp_path / "dir").is_dir() and not list((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("argv", [
    ["check", "all", "--out", "missing/x.csv"],
    ["optimize", "--N", "7", "--out", "missing/r.json"],
])
def test_missing_output_directory_exits_two_before_the_work(
        capsys, tmp_path, monkeypatch, argv):
    """check all printed its 21 result lines and optimize ran to the end
    before the write failed; the output directory is now checked first."""
    def work(*args, **kwargs):
        raise AssertionError("the command ran before its output was checked")

    monkeypatch.setattr(cli, "run_suite", work)
    monkeypatch.setattr(cli, "optimize_en_state", work)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "no directory missing" in err
    assert list(tmp_path.iterdir()) == []


@contextlib.contextmanager
def address_space_headroom(n_bytes):
    """Let this process map at most n_bytes more while the block runs, so
    an array the grid cap should have refused raises MemoryError instead
    of taking the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * resource.getpagesize()
    limit = mapped + n_bytes
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("argv", [
    ["two-seed", "--trials", "1", "--grid", "1000000000"],
    ["two-seed", "--trials", "1", "--n-max", "1000000000"],
    ["optimize", "--N", "3", "--grid", "1000000000"],
    ["optimize", "--N", "1000000000"],
    ["figure", "entropy2", "--grid", "1000000000"],
    ["figure", "entropy2", "--N", "1000000000"],
    ["figure", "chi_qpe", "--n-eta", "1000000000"],
    ["figure", "chi_qpe", "--M-max", "30", "--n-eta", "200000"],
    ["figure", "transition", "--n-eta", "1000000000"],
    ["figure", "b_sigma", "--n-sigma", "1000000000"],
])
def test_grid_over_the_cap_exits_two_before_allocating(capsys, tmp_path,
                                                       monkeypatch, argv):
    """These asked numpy for 6 GiB or more and ended in a MemoryError
    traceback (exit 1); a grid above MAX_POINTS, given or implied by --N
    or --n-max, is bad input, refused before any grid-sized array exists
    (for two-seed, before the first draw), and a figure so refused writes
    no file."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "random_seed_pair", refuse_to_draw)
    with address_space_headroom(1 << 30):
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"exceeds the {MAX_POINTS}-point cap" in err
    assert list(tmp_path.iterdir()) == []


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


def test_channel_bounds_version_and_refusals_do_not_load_numpy(tmp_path):
    """numpy loads on first use: --version, the channel Fourier bounds (a
    sum of scalar binary entropies), a channel Fisher bound above the
    solver's range (sigma^2 >= 1), the chi_qpe and transition figures
    (scalar closed forms on a list of etas) and inputs refused before any
    array exists run without it; optimize loads it on demand. The import
    and those commands load no dataclasses, inspect or typing either;
    figure loads inspect to read its builder's options. The modules are
    counted against those loaded before the import, since site may
    preload some."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        base = set(sys.modules)
        from mibounds import cli

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    return cli.main(argv)
                except SystemExit as exc:  # --version
                    return exc.code

        def added():
            return sorted(set(sys.modules) - base)

        lean = [["--version"]]
        lean += [["bound", "--channel", kind, "--M", m, "--eta", "0.37"]
                 for kind in ("dephasing", "amplitude-damping", "erasure")
                 for m in ("2", "16")]
        lean += [["bound", "--channel", "dephasing", "--M", "3", "--eta", "0.9",
                  "--method", "fisher"]]
        lean += [["bound", "--channel", "dephasing", "--M", "0", "--eta", "0.5"],
                 ["bound", "--channel", "dephasing", "--M", "3", "--eta", "1.5"],
                 ["bound", "--channel", "erasure", "--M", "3", "--eta", "0.5",
                  "--method", "fisher"],
                 ["bound", "--M", "3", "--eta", "0.5"],
                 ["figure", "nosuch"]]
        codes = [run(argv) for argv in lean]
        after_lean = added()
        figs = [["figure", "chi_qpe", "--svg"], ["figure", "transition", "--svg"]]
        codes += [run(argv) for argv in figs]
        after_figures = added()
        before = "numpy._core" in sys.modules
        code = run(["optimize", "--N", "7"])
        print(json.dumps([codes, before, code, "numpy._core" in sys.modules,
                          after_lean, after_figures, "inspect" in base]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes, before, code, after, after_lean, after_figures, preloaded = (
        json.loads(proc.stdout))
    assert codes == [0] * 8 + [2] * 5 + [0] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chi_qpe.csv", "chi_qpe.svg", "transition.csv", "transition.svg"]
    assert not before
    assert code == 0 and after
    heavy = {"dataclasses", "inspect", "typing"}
    assert not heavy & set(after_lean), after_lean
    assert "inspect" in after_figures or preloaded
    assert "dataclasses" not in after_figures and "typing" not in after_figures


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


# Fuzzing: every subcommand with arguments drawn from its option table.
# Caps keep each run cheap; the table itself declares no maximums.
FUZZ_CAPS = {"M_max": 3, "n_eta": 4, "n_sigma": 4, "N": 7, "restarts": 2,
             "trials": 3, "n_max": 6, "grid": 96}
# one value above MAX_POINTS per grid-sizing row (an even grid, so only
# the cap can refuse it), drawn like the in-range values
FUZZ_OVER_CAP = {"grid": MAX_POINTS + 2, "N": MAX_POINTS}
# appended before the drawn flags (the last occurrence of a flag wins), so
# a run left at its defaults is capped as well
FUZZ_BASE = {"chi_qpe": ["--M-max=3", "--n-eta=4"],
             "transition": ["--M-max=3", "--n-eta=4"],
             "b_sigma": ["--n-sigma=4"],
             "entropy2": ["--N=7", "--restarts=2"],
             "check": ["--trials=3"], "optimize": ["--restarts=2"],
             "two-seed": ["--trials=3"]}
FUZZ_FLOATS = ("nan", "inf", "-inf", "-1.0", "0.0", "0.3", "1.0", "2.0", "1e9")
# path stand-ins, made real in a fresh directory for every example
FUZZ_PATHS = ("@missing", "@dir", "@binary", "@text", "@overlap", "@model",
              "@file", "@new", "@new/sub", "@missing/out")
# "all" and "numerics" are left out: fixed 0.25-0.4 s suites, run by
# test_check_failing_suite_exits_one and the scipy-blocked test above
FUZZ_SUITES = ("bounds", "channels", "protocols", "nosuch")


def fuzz_value(param):
    if isinstance(param.cast, tuple):
        return hst.sampled_from(param.cast + ("nosuch",))
    if param.cast is int:  # every int row declares a minimum
        low, cap = param.minimum, FUZZ_CAPS.get(param.name, 64)
        over = ([str(FUZZ_OVER_CAP[param.name])]
                if param.name in FUZZ_OVER_CAP else [])
        return hst.one_of(hst.sampled_from([low - 1, low]),
                          hst.integers(low, cap)).map(str) | \
            hst.sampled_from(["nan", "1.5", *over])
    if param.cast is float:
        return hst.sampled_from(FUZZ_FLOATS)
    return hst.sampled_from(FUZZ_PATHS)


@hst.composite
def fuzz_argv(draw):
    cmd = draw(hst.sampled_from(sorted(cli.COMMANDS)))
    _, _, positional, params = cli.COMMANDS[cmd]
    argv = [cmd]
    base = FUZZ_BASE.get(cmd, [])
    if cmd == "figure":
        argv.append(draw(hst.sampled_from(sorted(figures.FIGURES)
                                          + ["nosuch"])))
        base = FUZZ_BASE.get(argv[1], [])
    elif positional is not None:
        argv.append(draw(hst.sampled_from(FUZZ_SUITES)))
    argv += base
    for param in draw(hst.lists(hst.sampled_from(params), max_size=4,
                                unique_by=lambda p: p.name)):
        flag = "--" + param.name.replace("_", "-")
        if param.cast is bool:
            argv.append(flag)
        else:
            argv.append(f"{flag}={draw(fuzz_value(param))}")
    return argv


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    inputs = root / "inputs"
    (inputs / "dir").mkdir(parents=True)
    (inputs / "binary").write_bytes(b"\xff\xfe\x00\x80phi=1\n")
    (inputs / "text").write_text("grid = abc\nno key here\n", encoding="utf-8")
    phis = np.arange(64) / 64
    f = 0.6 + 0.8 * np.exp(2j * np.pi * phis)
    (inputs / "overlap").write_text("phi,re,im\n" + "".join(
        f"{p!r},{v.real!r},{v.imag!r}\n" for p, v in zip(phis, f)),
        encoding="utf-8")
    write_cosine_model(inputs / "model", 64)
    (inputs / "file").write_text("x", encoding="utf-8")
    return root


def file_bytes(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@settings(max_examples=150, deadline=None)
@given(argv=fuzz_argv())
@example(argv=["figure", "chi_qpe", "--M-max=1", "--n-eta=3", "--eta-min=inf"])
@example(argv=["figure", "b_sigma", "--n-sigma=4", "--sigma-max=inf"])
def test_fuzz_every_subcommand(fuzz_inputs, argv):
    """Exit 0, 2 or 3 (1 only from a failing check), no other exception,
    and a successful run leaves output on stdout or in a file."""
    work = Path(tempfile.mkdtemp(dir=fuzz_inputs))
    shutil.copytree(fuzz_inputs / "inputs", work, dirs_exist_ok=True)
    before = file_bytes(work)
    argv = [re.sub(r"@(\w+)", lambda m: str(work / m.group(1)), a)
            for a in argv]
    cwd = os.getcwd()
    os.chdir(work)  # figure writes to "." by default
    try:
        code, out, _ = run_quiet(*argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code, out = exc.code, ""
    finally:
        os.chdir(cwd)
    assert code in ((0, 1, 2, 3) if argv[0] == "check" else (0, 2, 3)), argv
    assert code != 0 or out.strip() or file_bytes(work) != before, argv
