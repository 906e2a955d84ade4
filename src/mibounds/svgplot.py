"""Minimal self-contained SVG line plots.

Deterministic text output: no timestamps, no randomness, fixed float
formatting. Only polylines, axes, ticks and a legend are supported;
anything fancier belongs in a real plotting package.
"""

from __future__ import annotations

import math

from .errors import ValidationError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L = 64.0
_MARGIN_R = 16.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0
_WIDTH, _HEIGHT = 720, 480


def _fmt(x) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.6g}"


def _tick_values(lo, hi, log_scale):
    if log_scale:
        first = int(math.ceil(lo - 1e-9))
        last = int(math.floor(hi + 1e-9))
        ticks = [float(d) for d in range(first, last + 1)]
        if len(ticks) >= 2:
            return ticks
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= 5.5:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _data_range(series, index, log_scale):
    vals = []
    for _, xs, ys in series:
        seq = xs if index == 0 else ys
        for v in seq:
            v = float(v)
            if not math.isfinite(v):
                continue
            if log_scale:
                if v <= 0.0:
                    continue
                v = math.log10(v)
            vals.append(v)
    lo, hi = (min(vals), max(vals)) if vals else (0.0, 0.0)
    if hi - lo < 1e-12:
        lo -= 0.5
        hi += 0.5
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def render_line_plot(series, title="", x_label="", y_label="",
                     log_x=False) -> str:
    """Render (label, xs, ys) triples as a 720 x 480 SVG document string,
    with a linear y axis."""
    series = [(str(lab), list(xs), list(ys)) for lab, xs, ys in series]
    if not series:
        raise ValidationError("at least one series is required")
    x_lo, x_hi = _data_range(series, 0, log_x)
    y_lo, y_hi = _data_range(series, 1, False)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v):
        t = math.log10(v) if log_x else v
        return _MARGIN_L + (t - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )

    for t in _tick_values(x_lo, x_hi, log_x):
        px = _MARGIN_L + (t - x_lo) / (x_hi - x_lo) * plot_w
        label = _fmt(10.0 ** t) if log_x else _fmt(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_MARGIN_T)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(_MARGIN_T + plot_h)}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_MARGIN_T + plot_h + 16)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{label}</text>"
        )
    for t in _tick_values(y_lo, y_hi, False):
        py = sy(t)
        label = _fmt(t)
        out.append(
            f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(_MARGIN_L + plot_w)}" y2="{_fmt(py)}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{_fmt(_MARGIN_L - 6)}" y="{_fmt(py + 4)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{label}</text>"
        )

    frame = (
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        f'fill="none" stroke="black"/>'
    )
    out.append(frame)
    if x_label:
        out.append(
            f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(_HEIGHT - 10)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{x_label}</text>"
        )
    if y_label:
        cx, cy = 16.0, _MARGIN_T + plot_h / 2
        out.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">{y_label}</text>'
        )

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = []
        for x, y in zip(xs, ys):
            x, y = float(x), float(y)
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if log_x and x <= 0.0:
                continue
            pts.append(f"{_fmt(sx(x))},{_fmt(sy(y))}")
        if pts:
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(pts)}"/>'
            )
        ly = _MARGIN_T + 14 + 16 * i
        lx = _MARGIN_L + plot_w - 120
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
