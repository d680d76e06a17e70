"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: output must be diffable and byte-stable across
runs, with no rendering toolchain behind it.  Every data series becomes
exactly one <polyline>; axes, ticks and grid use <line> elements.  Each
element kind has one template; `_esc` uses `str.replace`, as `import html`
would slow every CLI start.  `format_si` takes its SI unit from the value
rounded to its printed digits, so 999600 reads "1M", not "1e+03k"; an SI
axis prints more than three digits only where ticks would share a label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_W, _H = 640.0, 440.0
_ML, _MR, _MT, _MB = 80.0, 26.0, 46.0, 58.0

_LINE = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%s"%s/>'
_TEXT = (
    '<text x="%.2f" y="%.2f"%s font-family="Helvetica,Arial,sans-serif" '
    'font-size="%d" fill="%s">%s</text>'
)
_DASH = ' stroke-dasharray="%s"'


@dataclass
class PlotSeries:
    label: str
    color: str
    xs: list[float]
    ys: list[float]
    dash: str | None = None


def format_si(value: float, digits: int = 3) -> str:
    """Compact SI-prefixed label with ``digits`` significant digits:
    12500000 -> '12.5M', 999600 -> '1M'."""
    if value == 0:
        return "0"
    mag = abs(float("%.*g" % (digits, value)))
    for unit, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if mag >= unit:
            return "%.*g" % (digits, value / unit) + suffix
    return "%.*g" % (digits, value)


def _si_labels(ticks: list[float]) -> list[str]:
    """format_si of each tick, with more than three significant digits
    only where two distinct ticks would otherwise share a label."""
    for digits in range(3, 18):
        labels = [format_si(t, digits) for t in ticks]
        if len(set(labels)) == len(ticks):
            break
    return labels


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
    # data point lies inside the plot area; + 0.0 turns a tick rounded to
    # -0.0 into 0.0, which %g prints as 0
    t = math.floor(lo / step) * step
    ticks = [round(t, 12) + 0.0]
    while t < hi - step * 1e-9:
        t += step
        ticks.append(round(t, 12) + 0.0)
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
        out.append(_LINE % (x, _MT, x, _H - _MB, "#dddddd", "1", ""))
        out.append(_TEXT % (x, _H - _MB + 18, ' text-anchor="middle"', 12, "#444", "%g" % t))
    for t, label in zip(yt, _si_labels(yt) if y_si else ["%g" % t for t in yt]):
        y = py(t)
        out.append(_LINE % (_ML, y, _W - _MR, y, "#dddddd", "1", ""))
        out.append(_TEXT % (_ML - 8, y + 4, ' text-anchor="end"', 12, "#444", label))

    out.append(_LINE % (_ML, _H - _MB, _W - _MR, _H - _MB, "#222222", "1.5", ""))
    out.append(_LINE % (_ML, _MT, _ML, _H - _MB, "#222222", "1.5", ""))
    out.append(
        _TEXT % ((_ML + _W - _MR) / 2, _H - 14, ' text-anchor="middle"', 13, "#222", _esc(xlabel))
    )
    out.append(
        '<text x="20" y="%.2f" text-anchor="middle" font-family="Helvetica,Arial,'
        'sans-serif" font-size="13" fill="#222" transform="rotate(-90 20 %.2f)">'
        "%s</text>" % ((_MT + _H - _MB) / 2, (_MT + _H - _MB) / 2, _esc(ylabel))
    )

    lx = _W - _MR - 130
    legend = []
    for i, s in enumerate(series):
        dash = _DASH % s.dash if s.dash else ""
        pts = [
            "%.2f,%.2f" % (px(x), py(y))
            for x, y in zip(s.xs, s.ys)
            if y is not None
        ]
        out.append(
            '<polyline fill="none" stroke="%s" stroke-width="2"%s points="%s"/>'
            % (s.color, dash, " ".join(pts))
        )
        ly = _MT + 16 + 17 * i
        legend.append(_LINE % (lx, ly - 4, lx + 22, ly - 4, s.color, "2", dash))
        legend.append(_TEXT % (lx + 28, ly, "", 12, "#222", _esc(s.label)))
    return "\n".join(out + legend + ["</svg>"]) + "\n"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
