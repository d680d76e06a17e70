"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: output must be diffable and byte-stable across
runs, with no rendering toolchain behind it.  Every data series becomes
exactly one <polyline>; axes, ticks and grid use <line> elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_W, _H = 640.0, 440.0
_ML, _MR, _MT, _MB = 80.0, 26.0, 46.0, 58.0


@dataclass
class PlotSeries:
    label: str
    color: str
    xs: list[float]
    ys: list[float]
    dash: str | None = None


def format_si(value: float) -> str:
    """Compact SI-prefixed label: 12500000 -> '12.5M'."""
    if value == 0:
        return "0"
    mag = abs(value)
    for unit, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if mag >= unit:
            return _trim("%.3g" % (value / unit)) + suffix
    return _trim("%.3g" % value)


def _trim(text: str) -> str:
    if "." in text and "e" not in text and "E" not in text:
        text = text.rstrip("0").rstrip(".")
    return text


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    # ticks are rounded to 12 decimals, so a narrower span is drawn as a
    # point with padding around it
    if hi - lo <= 1e-9 * max(abs(lo), abs(hi), 1.0):
        pad = max(abs(lo), 1.0) * 0.5
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag + 1e-12)
    # the axis spans the last tick <= lo to the first tick >= hi, so every
    # data point lies inside the plot area
    t = math.floor(lo / step) * step
    ticks = [round(t, 12)]
    while t < hi - step * 1e-9:
        t += step
        ticks.append(round(t, 12))
    return ticks


def line_plot(
    series: list[PlotSeries],
    title: str,
    xlabel: str,
    ylabel: str,
    y_si: bool = False,
) -> str:
    """Render the series to an SVG document string."""
    xs_all = [x for s in series for x, y in zip(s.xs, s.ys) if y is not None]
    ys_all = [y for s in series for y in s.ys if y is not None]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]

    xt = _nice_ticks(min(xs_all), max(xs_all))
    yt = _nice_ticks(min(ys_all), max(ys_all))
    x0, x1 = xt[0], xt[-1]
    y0, y1 = yt[0], yt[-1]

    def px(x: float) -> float:
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_W, _H, _W, _H)
    )
    out.append('<rect width="%d" height="%d" fill="white"/>' % (_W, _H))
    out.append(
        '<text x="%.2f" y="24" text-anchor="middle" font-family="Helvetica,Arial,'
        'sans-serif" font-size="15" fill="#222">%s</text>' % (_W / 2, _esc(title))
    )

    for t in xt:
        x = px(t)
        out.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#dddddd" '
            'stroke-width="1"/>' % (x, _MT, x, _H - _MB)
        )
        out.append(
            '<text x="%.2f" y="%.2f" text-anchor="middle" font-family="Helvetica,'
            'Arial,sans-serif" font-size="12" fill="#444">%s</text>'
            % (x, _H - _MB + 18, _trim("%g" % t))
        )
    for t in yt:
        y = py(t)
        label = format_si(t) if y_si else _trim("%g" % t)
        out.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#dddddd" '
            'stroke-width="1"/>' % (_ML, y, _W - _MR, y)
        )
        out.append(
            '<text x="%.2f" y="%.2f" text-anchor="end" font-family="Helvetica,'
            'Arial,sans-serif" font-size="12" fill="#444">%s</text>'
            % (_ML - 8, y + 4, label)
        )

    out.append(
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#222222" '
        'stroke-width="1.5"/>' % (_ML, _H - _MB, _W - _MR, _H - _MB)
    )
    out.append(
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#222222" '
        'stroke-width="1.5"/>' % (_ML, _MT, _ML, _H - _MB)
    )
    out.append(
        '<text x="%.2f" y="%.2f" text-anchor="middle" font-family="Helvetica,Arial,'
        'sans-serif" font-size="13" fill="#222">%s</text>'
        % ((_ML + _W - _MR) / 2, _H - 14, _esc(xlabel))
    )
    out.append(
        '<text x="20" y="%.2f" text-anchor="middle" font-family="Helvetica,Arial,'
        'sans-serif" font-size="13" fill="#222" transform="rotate(-90 20 %.2f)">'
        "%s</text>" % ((_MT + _H - _MB) / 2, (_MT + _H - _MB) / 2, _esc(ylabel))
    )

    for s in series:
        pts = [
            "%.2f,%.2f" % (px(x), py(y))
            for x, y in zip(s.xs, s.ys)
            if y is not None
        ]
        dash = ' stroke-dasharray="%s"' % s.dash if s.dash else ""
        out.append(
            '<polyline fill="none" stroke="%s" stroke-width="2"%s points="%s"/>'
            % (s.color, dash, " ".join(pts))
        )

    for i, s in enumerate(series):
        ly = _MT + 16 + 17 * i
        lx = _W - _MR - 130
        dash = ' stroke-dasharray="%s"' % s.dash if s.dash else ""
        out.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" '
            'stroke-width="2"%s/>' % (lx, ly - 4, lx + 22, ly - 4, s.color, dash)
        )
        out.append(
            '<text x="%.2f" y="%.2f" font-family="Helvetica,Arial,sans-serif" '
            'font-size="12" fill="#222">%s</text>' % (lx + 28, ly, _esc(s.label))
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
