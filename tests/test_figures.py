"""Figure datasets, the SVG renderer, and the named check suites."""

import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from mibounds import __version__, svgplot
from mibounds.checks import SUITES, run_suite
from mibounds.cli import _write_csv
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


# every cell kind a figure or check report writes: Python and numpy
# floats (signed zero, non-finite, subnormal, huge), ints, bools, strings
CSV_ROWS = [
    (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1),
    (np.float64(0.1), np.float64(-0.0), np.float64(math.nan),
     np.float64(-math.inf), np.float64(1e-310), 1.0, 2.5e-7),
    (0, -3, 2**70, np.int64(-7), np.int64(0), True, False),
    ("theta", "a;b c", "", 3, 0.5, np.float64(123456789.0), "x"),
]
CSV_DIGEST = "8b728cda7c8da0780eec17f231cf546f800bccdcb775c72aac99d2bda0e5893b"


def test_csv_bytes_are_pinned(tmp_path):
    """_write_csv's file is byte for byte the one this digest records (the
    version line aside, so a release does not move it)."""
    path = tmp_path / "rows.csv"
    _write_csv(path, "mibounds figure demo", 5, ("a", "b", "c", "d", "e", "f", "g"),
               CSV_ROWS)
    text = path.read_bytes().decode("utf-8")
    text = text.replace(f"# version: {__version__}\n", "# version: V\n")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CSV_DIGEST


def _old_fmt(x):
    """svgplot's earlier two-branch number rule, kept as the oracle."""
    if x == 0.0:
        return "0"
    return f"{x:.6g}"


def _old_data_range(values, log_scale):
    vals = [v for v in map(float, values) if math.isfinite(v)]
    if log_scale:
        vals = [math.log10(v) for v in vals if v > 0.0]
    lo, hi = (min(vals), max(vals)) if vals else (0.0, 0.0)
    if hi - lo < 1e-12:
        lo -= 0.5
        hi += 0.5
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _old_polylines(series, log_x):
    """Each non-empty polyline's points, formatted point by point with
    _old_fmt on the renderer's axis transform."""
    x_lo, x_hi = _old_data_range([x for _, xs, _ in series for x in xs], log_x)
    y_lo, y_hi = _old_data_range([y for _, _, ys in series for y in ys], False)
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B
    out = []
    for _, xs, ys in series:
        pts = []
        for x, y in zip(map(float, xs), map(float, ys)):
            if not (math.isfinite(x) and math.isfinite(y)) or log_x and x <= 0.0:
                continue
            t = math.log10(x) if log_x else x
            px = svgplot._MARGIN_L + (t - x_lo) / (x_hi - x_lo) * plot_w
            py = svgplot._MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h
            pts.append(f"{_old_fmt(px)},{_old_fmt(py)}")
        if pts:
            out.append(" ".join(pts))
    return out


# all floats, so non-finite, signed-zero, subnormal and huge values come up
_any_float = hst.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_special = hst.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
                             1.7e308, math.nan, math.inf, -math.inf, 1.0, -1.0])
_value = hst.one_of(_any_float, _special, hst.integers(-10**6, 10**6))


@settings(max_examples=500, deadline=None)
@given(x=hst.one_of(_any_float, _special, hst.integers(-2**80, 2**80)))
@example(x=-0.0)
@example(x=0)
@example(x=True)
@example(x=1e16)
@example(x=12345678)
def test_fmt_matches_the_two_branch_rule(x):
    assert svgplot._fmt(x) == _old_fmt(x)


@settings(max_examples=300, deadline=None)
@given(series=hst.lists(
           hst.integers(0, 12).flatmap(lambda n: hst.tuples(
               hst.just("s"), hst.lists(_value, min_size=n, max_size=n),
               hst.lists(_value, min_size=n, max_size=n))),
           min_size=1, max_size=3),
       log_x=hst.booleans())
@example(series=[("s", [-1.0, 0.0, 5e-324, 1e308], [-0.0, 0.0, 1e-310, -2.0])],
         log_x=True)
@example(series=[("s", [0.0, 1.0], [1e20, 1.0000000000000002e20])],
         log_x=False)
def test_polyline_points_match_per_point_formatting(series, log_x):
    """Every polyline point is f"{old_fmt(px)},{old_fmt(py)}" on the same
    axis transform; data whose padded range is zero or overflows is
    refused (it used to raise ValueError or OverflowError)."""
    x_lo, x_hi = _old_data_range([x for _, xs, _ in series for x in xs], log_x)
    y_lo, y_hi = _old_data_range([y for _, _, ys in series for y in ys], False)
    if not (0.0 < x_hi - x_lo < math.inf and 0.0 < y_hi - y_lo < math.inf):
        with pytest.raises(ValidationError, match="finite, nonzero span"):
            render_line_plot(series, log_x=log_x)
        return
    svg = render_line_plot(series, log_x=log_x)
    got = [el.get("points") for el in ET.fromstring(svg).iter(SVG + "polyline")]
    assert got == _old_polylines(series, log_x)


@pytest.mark.parametrize("ys", [[1e20, 1e20], [-1e308, 1e308],
                                [0.5 * 1.797e308, 0.999 * 1.797e308]])
def test_svg_refuses_a_range_floats_cannot_span(ys):
    """Flat data beyond 2^53 has a zero padded range, and a range past
    1.8e308 overflows: both raised from the tick arithmetic before."""
    with pytest.raises(ValidationError, match="finite, nonzero span"):
        render_line_plot([("a", [0.0, 1.0], ys)])


@pytest.mark.parametrize("xs,ys,log_x", [
    # 1e20 and the next float span 16384, so ticks step by 5000, which
    # adding to 1e20 does not change: the tick loop never ended
    ([0.0, 1.0], [1e20, 1.0000000000000002e20], False),
    # the padded log range reaches decade 333: 10.0 ** 309 overflowed
    ([5e-324, 1e308], [0.0, 1.0], True),
])
def test_svg_ticks_at_the_ends_of_the_float_range(xs, ys, log_x):
    svg = render_line_plot([("a", xs, ys)], log_x=log_x)
    assert len(list(ET.fromstring(svg).iter(SVG + "polyline"))) == 1


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
