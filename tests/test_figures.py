"""Figure datasets, the SVG renderer, and the named check suites."""

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from mibounds.checks import SUITES, run_suite
from mibounds.errors import ValidationError
from mibounds.figures import (
    FIGURES,
    figure_b_sigma,
    figure_chi_qpe,
    figure_entropy2,
    figure_transition,
)
from mibounds.svgplot import _el, render_line_plot

SVG = "{http://www.w3.org/2000/svg}"


def test_figures_registry():
    assert set(FIGURES) == {"chi_qpe", "transition", "b_sigma", "entropy2"}


def test_chi_qpe_dataset():
    (fig,) = figure_chi_qpe(M_max=4, n_eta=11)
    assert fig.name == "chi_qpe"
    assert fig.columns == ("eta", "M", "value_bits")
    assert len(fig.rows) == 44
    for eta, m, value in fig.rows:
        if eta == 1.0:
            assert value == float(m)  # noiseless saturation
        if eta == 0.0:
            assert value == 0.0
    assert len(fig.series) == 4


@settings(max_examples=300, deadline=None)
@given(eta_min=hst.floats(0.0, 1.0), eta_max=hst.floats(0.0, 1.0),
       n_eta=hst.integers(1, 40))
@example(eta_min=0.2, eta_max=0.7, n_eta=1)
@example(eta_min=0.3, eta_max=0.3, n_eta=5)
@example(eta_min=-0.0, eta_max=0.0, n_eta=3)
@example(eta_min=0.9, eta_max=0.1, n_eta=7)
@example(eta_min=0.0, eta_max=5e-324, n_eta=4)  # the step underflows to 0
def test_eta_grid_is_linspace_bit_for_bit(eta_min, eta_max, n_eta):
    """chi_qpe and transition sweep eta on np.linspace's values, built
    without numpy: every eta has the same bits."""
    (fig,) = figure_chi_qpe(M_max=1, eta_min=eta_min, eta_max=eta_max,
                            n_eta=n_eta)
    want = np.linspace(eta_min, eta_max, n_eta).tolist()
    assert [eta.hex() for eta, _, _ in fig.rows] == [e.hex() for e in want]
    assert all(type(eta) is float for eta, _, _ in fig.rows)


def test_transition_dataset():
    (fig,) = figure_transition(eta_min=0.4, M_max=5, n_eta=51)
    assert fig.columns == ("eta", "M", "value_bits")
    at_one = sorted((m, v) for eta, m, v in fig.rows if eta == 1.0)
    vals = [v for _, v in at_one]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    # below the first crossing (eta = 1/2) the single-qubit block leads
    eta_lo = min(r[0] for r in fig.rows)
    assert eta_lo < 0.5
    by_m = {m: v for eta, m, v in fig.rows if eta == eta_lo}
    assert max(by_m, key=by_m.get) == 1


def test_b_sigma_dataset():
    (fig,) = figure_b_sigma(n_sigma=60)
    assert fig.columns == ("sigma", "entropy_bits", "bound_bits", "margin_bits")
    assert fig.log_x
    assert len(fig.rows) == 60
    for sigma, entropy, bound, margin in fig.rows:
        assert abs((bound - entropy) - margin) < 1e-12
        if sigma >= 0.05:
            assert margin > 0.0
    # the documented dip of the reference curve at small sigma
    worst = min(r[3] for r in fig.rows)
    assert -7e-4 < worst < -1e-4


def test_entropy2_dataset():
    curve, weights = figure_entropy2(N=7, restarts=4, seed=0)
    assert curve.name == "entropy2"
    assert curve.columns == ("theta", "p_uniform", "p_optimal")
    assert weights.name == "entropy2_weights"
    assert weights.columns == ("k", "weight_uniform", "weight_optimal")
    assert len(weights.rows) == 8
    entropies = {}
    for col in (1, 2):
        assert abs(sum(r[col] for r in weights.rows) - 1.0) < 1e-9
        dens = np.array([r[col] for r in curve.rows])
        assert abs(dens.mean() - 1.0) < 1e-9  # integrates to 1 on [0, 1)
        pos = dens[dens > 0.0]
        entropies[col] = -np.sum(pos * np.log2(pos)) / dens.size
    # the optimized profile trades peak height for a lower error entropy
    assert entropies[2] < entropies[1] - 1e-3


def test_svg_renderer_wellformed_and_deterministic():
    series = [
        ("first", [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]),
        ("second", [0.0, 1.0, 2.0], [2.0, 0.5, 1.5]),
    ]
    svg = render_line_plot(series, title="demo", x_label="x", y_label="y")
    assert svg == render_line_plot(
        series, title="demo", x_label="x", y_label="y"
    )
    assert svg.startswith("<svg")
    root = ET.fromstring(svg)
    tags = {el.tag.split("}")[-1] for el in root.iter()}
    assert "polyline" in tags and "text" in tags
    assert "first" in svg and "second" in svg


def test_svg_handles_log_and_flat_data():
    svg = render_line_plot(
        [("curve", [0.1, 1.0, 10.0], [5.0, 5.0, 5.0])], log_x=True
    )
    ET.fromstring(svg)
    assert "0.1" in svg and "10" in svg  # decade tick labels


def test_svg_with_no_finite_value_draws_empty_axes():
    """No finite y gives the flat-data range, 0 +- 0.5, and no curve."""
    svg = render_line_plot([("curve", [0.1, 1.0], [-np.inf, np.nan])])
    ET.fromstring(svg)
    assert "<polyline" not in svg and ">0</text>" in svg
    with pytest.raises(ValidationError, match="at least one series"):
        render_line_plot([])


def test_svg_escapes_markup_in_labels():
    """&, < and > in a label or title, and a double quote, come back as
    written from a parser; an attribute value escapes its quote too."""
    labels = ["a<b & c", 't "q"', "x > 0", "y's"]
    svg = render_line_plot([(labels[0], [0, 1], [0, 1])], title=labels[1],
                           x_label=labels[2], y_label=labels[3])
    texts = [el.text for el in ET.fromstring(svg).iter(SVG + "text")]
    assert all(label in texts for label in labels)
    el = ET.fromstring(_el("text", "<&>", data_label='say "a<b" & go'))
    assert (el.text, el.get("data-label")) == ("<&>", 'say "a<b" & go')


SVG_DIGESTS = {
    "linear-labelled": (
        [("first", [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]),
         ("second", [0.0, 1.0, 2.0], [2.0, 0.5, 1.5])],
        dict(title="demo", x_label="x", y_label="y"),
        "376766a5de5b70e1eb75008ee55181164d73e44fc4ac5a9e4d2df9955ba3e398"),
    "log-x-flat-y": (
        [("curve", [0.1, 1.0, 10.0], [5.0, 5.0, 5.0])], dict(log_x=True),
        "7833c052e6f5a5461c3c6ddec954a6c1bdbca41ee83db417f995cb8da56b4915"),
    "no-finite-y": (
        [("curve", [0.1, 1.0], [-np.inf, np.nan])], {},
        "7a157c57ba32a21d576922d2ed6583b390ffd1a257262ce1db999a7f5ae17339"),
    # seven series: the six-colour palette wraps
    "palette-wraps": (
        [(f"M={i}", [0, 1, 2, 3], [i, i + 0.5, 2 * i, 1.0]) for i in range(7)],
        dict(title="seven"),
        "0fb224450918dfd8c5ca1143a23524dc51567596304be3eac6a4362529b0306e"),
    # x <= 0 has no place on a log axis and inf y none on any axis
    "log-x-nonpositive-x-inf-y": (
        [("a", [-1.0, 0.0, 0.01, 1.0, 100.0], [1.0, 2.0, np.inf, 3.0, 4.0]),
         ("b", [0.5, 5.0], [0.0, -2.5])],
        dict(x_label="eta", log_x=True),
        "8f903b34ddfc7ba69fdd78aa11459bf356ba21b79a89b7addda84eec7c6154f9"),
}


@pytest.mark.parametrize("name", sorted(SVG_DIGESTS))
def test_svg_bytes_are_pinned(name):
    """The rendered document is byte for byte the one these digests record."""
    series, options, digest = SVG_DIGESTS[name]
    svg = render_line_plot(series, **options)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest


def test_check_suite_names():
    assert set(SUITES) == {"numerics", "bounds", "channels", "protocols"}
    with pytest.raises(ValidationError):
        run_suite("nonsense")


def test_bounds_suite_passes():
    results = run_suite("bounds")
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "fisher_closed_form" in names
    assert "nonperiodic_window_doubling" in names


def test_channels_suite_passes():
    results = run_suite("channels")
    assert len(results) == 4
    assert all(r.passed for r in results)


def test_protocols_suite_passes():
    results = run_suite("protocols", seed=0, trials=40)
    assert all(r.passed for r in results)
    assert {r.suite for r in results} == {"protocols"}


def test_numerics_suite_reports_reference_dip():
    """Every numerics check passes except the documented small-sigma dip."""
    results = run_suite("numerics")
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["entropy_vs_bound_scan"]
    assert "sigma" in failed[0].detail


def test_run_all_aggregates():
    results = run_suite("all", trials=10)
    assert {r.suite for r in results} == set(SUITES)
