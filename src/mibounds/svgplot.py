"""Minimal self-contained SVG line plots.

Deterministic text output: no timestamps, no randomness, fixed float
formatting ('%.6g', with -0.0 written as 0). Only polylines, axes,
ticks and a legend are supported; anything fancier belongs in a real
plotting package.
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
_LOG10_MAX = 308.25471555991675  # log10 of the largest float


def _fmt(x) -> str:
    """x to 6 significant digits; + 0.0 folds -0.0 (and int 0) into "0"."""
    return "%.6g" % (x + 0.0)


def _escape(text) -> str:
    """Text as XML character data or a quoted attribute value."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _el(tag, body=None, **attrs) -> str:
    """One SVG element: `_` in a name becomes `-`; a string value is
    escaped, a number goes through _fmt, None is left out; the body is
    escaped, and no body self-closes."""
    head = tag + "".join(
        f' {name.replace("_", "-")}="'
        f'{_escape(v) if isinstance(v, str) else _fmt(v)}"'
        for name, v in attrs.items() if v is not None)
    return f"<{head}/>" if body is None else f"<{head}>{_escape(body)}</{tag}>"


def _text(body, x, y, size, anchor="middle", **attrs) -> str:
    """A sans-serif label; anchor=None keeps SVG's default, start."""
    return _el("text", body, x=x, y=y, text_anchor=anchor,
               font_family="sans-serif", font_size=size, **attrs)


def _tick_values(lo, hi, log_scale):
    if log_scale:
        decades = range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)
        ticks = [float(d) for d in decades]
        if len(ticks) >= 2:
            return ticks
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= 5.5:
            step *= mult
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        if t + step == t:  # step below the spacing of floats at t
            break
        t += step
    return ticks


def _data_range(values, log_scale):
    vals = list(filter(math.isfinite, map(float, values)))
    if log_scale:
        vals = [math.log10(v) for v in vals if v > 0.0]
    lo, hi = (min(vals), max(vals)) if vals else (0.0, 0.0)
    if hi - lo < 1e-12:
        lo -= 0.5
        hi += 0.5
    pad = 0.04 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if not 0.0 < hi - lo < math.inf:  # flat beyond 2^53 or past float range
        raise ValidationError("data range is not a finite, nonzero span")
    return lo, hi


def render_line_plot(series, title="", x_label="", y_label="",
                     log_x=False) -> str:
    """Render (label, xs, ys) triples as a 720 x 480 SVG document string,
    with a linear y axis. Raises ValidationError when an axis's padded
    data range is zero in floats (flat data beyond 2^53) or overflows."""
    series = [(str(lab), list(xs), list(ys)) for lab, xs, ys in series]
    if not series:
        raise ValidationError("at least one series is required")
    x_lo, x_hi = _data_range((x for _, xs, _ in series for x in xs), log_x)
    y_lo, y_hi = _data_range((y for _, _, ys in series for y in ys), False)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    right, bottom = _MARGIN_L + plot_w, _MARGIN_T + plot_h

    def px(t):  # t is log10(x) on a log axis
        return _MARGIN_L + (t - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(_text(title, _WIDTH / 2, 20, 14))
    for t in _tick_values(x_lo, x_hi, log_x):
        if log_x and t >= _LOG10_MAX:
            break  # 10.0 ** t overflows: no label past the largest float
        x = px(t)
        out.append(_el("line", x1=x, y1=_MARGIN_T, x2=x, y2=bottom,
                       stroke="#dddddd"))
        out.append(_text(_fmt(10.0 ** t if log_x else t), x, bottom + 16, 11))
    for t in _tick_values(y_lo, y_hi, False):
        y = py(t)
        out.append(_el("line", x1=_MARGIN_L, y1=y, x2=right, y2=y,
                       stroke="#dddddd"))
        out.append(_text(_fmt(t), _MARGIN_L - 6, y + 4, 11, anchor="end"))
    out.append(_el("rect", x=_MARGIN_L, y=_MARGIN_T, width=plot_w,
                   height=plot_h, fill="none", stroke="black"))
    if x_label:
        out.append(_text(x_label, _MARGIN_L + plot_w / 2, _HEIGHT - 10, 12))
    if y_label:
        cx, cy = 16.0, _MARGIN_T + plot_h / 2
        out.append(_text(y_label, cx, cy, 12,
                         transform=f"rotate(-90 {_fmt(cx)} {_fmt(cy)})"))

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        # each point is "_fmt(x),_fmt(y)", formatted in one % operation
        pts = ["%.6g,%.6g" % (px(math.log10(x) if log_x else x) + 0.0,
                              py(y) + 0.0)
               for x, y in zip(map(float, xs), map(float, ys))
               if math.isfinite(x) and math.isfinite(y)
               and not (log_x and x <= 0.0)]
        if pts:
            out.append(_el("polyline", fill="none", stroke=color,
                           stroke_width=1.5, points=" ".join(pts)))
        ly = _MARGIN_T + 14 + 16 * i
        lx = right - 120
        out.append(_el("line", x1=lx, y1=ly - 4, x2=lx + 22, y2=ly - 4,
                       stroke=color, stroke_width=1.5))
        out.append(_text(label, lx + 28, ly, 11, anchor=None))

    out.append("</svg>")
    return "\n".join(out) + "\n"
