import math
import re
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from plcsim.svgplot import PlotSeries, _nice_ticks, format_si, line_plot

# the plot area: left/right and top/bottom margins inside the 640 x 440 canvas
X_MIN, X_MAX, Y_MIN, Y_MAX = 80.0, 614.0, 46.0, 382.0


def test_no_tick_is_negative_zero():
    # the running sum from -0.8 by 0.2 ends at -5.6e-17, which rounds to -0.0
    ticks = _nice_ticks(-0.7, 0.2)
    assert ticks == [-0.8, -0.6, -0.4, -0.2, 0.0, 0.2]
    assert all(math.copysign(1.0, t) > 0 for t in ticks if t == 0)
    plots = [PlotSeries("s", "red", [-0.7, 0.2], [-0.7, 0.2])]
    svg = line_plot(plots, "t", "x", "y")
    for anchor in ("middle", "end"):
        assert _tick_labels(svg, anchor) == ["-0.8", "-0.6", "-0.4", "-0.2", "0", "0.2"]


def test_nice_ticks_end_at_or_above_the_top():
    assert _nice_ticks(32.79, 41.80) == [32.0, 34.0, 36.0, 38.0, 40.0, 42.0]
    assert _nice_ticks(0.0, 40.0) == [0.0, 10.0, 20.0, 30.0, 40.0]


def _points(svg: str) -> list[tuple[float, float]]:
    return [
        tuple(map(float, point.split(",")))
        for points in re.findall(r'<polyline[^>]* points="([^"]*)"', svg)
        for point in points.split()
    ]


_value = st.one_of(
    st.none(),
    st.floats(-1e9, 1e9, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(1e5, 1e8, allow_nan=False),
)
_series = st.lists(
    st.tuples(st.floats(0.0, 10.0, allow_nan=False), _value), min_size=1, max_size=6
)


@given(st.lists(_series, min_size=1, max_size=4), st.booleans())
@settings(max_examples=300, deadline=None)
def test_every_point_lies_inside_the_plot_area(series, y_si):
    plots = [
        PlotSeries("s%d" % i, "blue", [x for x, _ in s], [y for _, y in s])
        for i, s in enumerate(series)
    ]
    for x, y in _points(line_plot(plots, "title", "x", "y", y_si=y_si)):
        assert X_MIN <= x <= X_MAX and Y_MIN <= y <= Y_MAX


_NS = "{http://www.w3.org/2000/svg}"
_UNITS = {"k": 1e3, "M": 1e6, "G": 1e9}


def _check_label(label: str, si: bool) -> None:
    """A tick label has no trailing zero after its point and no bare point;
    it has an exponent only beyond 1e6 (plain) or 1e12 (SI), or below 1e-4."""
    unit = _UNITS.get(label[-1], 1.0) if si else 1.0
    mantissa = label[:-1] if unit != 1.0 else label
    digits = mantissa.split("e")[0]
    assert not ("." in digits and digits.endswith(("0", "."))), label
    value = abs(float(mantissa)) * unit
    if value == 0 or 1e-4 <= value < (1e12 if si else 1e6):
        assert "e" not in mantissa, label


def _tick_labels(svg: str, anchor: str) -> list[str]:
    """Tick labels of one axis: "middle" for x, "end" for y."""
    return [
        t.text
        for t in ET.fromstring(svg).iter(_NS + "text")
        if t.get("fill") == "#444" and t.get("text-anchor") == anchor
    ]


def test_format_si_takes_its_unit_from_the_rounded_value():
    assert format_si(999_600) == "1M"
    assert format_si(999.6) == "1k"
    explicit = {
        0: "0",
        999.4: "999",
        1000: "1k",
        1234: "1.23k",
        12.5e6: "12.5M",
        -2.5e9: "-2.5G",
        0.25: "0.25",
    }
    for value, label in explicit.items():
        assert format_si(value) == label
        _check_label(label, si=True)
        _check_label("%g" % value, si=False)
    # ticks 999,200 .. 999,800: at three digits the upper two would round
    # to 1,000,000 and the lower two to 999,000, so the axis gets a fourth
    plots = [PlotSeries("s", "red", [0.0, 1.0], [999_200.0, 999_800.0])]
    labels = _tick_labels(line_plot(plots, "t", "x", "y", y_si=True), "end")
    assert labels == ["999.2k", "999.4k", "999.6k", "999.8k"]
    for label in labels:
        _check_label(label, si=True)


@given(st.lists(_series, min_size=1, max_size=4), st.booleans())
@settings(max_examples=300, deadline=None)
def test_tick_labels_are_trimmed(series, y_si):
    plots = [
        PlotSeries("s%d" % i, "blue", [x for x, _ in s], [y for _, y in s])
        for i, s in enumerate(series)
    ]
    svg = line_plot(plots, "title", "x", "y", y_si=y_si)
    for label in _tick_labels(svg, "middle"):
        _check_label(label, si=False)
    for label in _tick_labels(svg, "end"):
        _check_label(label, si=y_si)


def test_text_is_escaped_exactly_once():
    names = ["R&D", "<bus>", "a > b & c < d"]
    plots = [PlotSeries(n, "red", [0.0, 1.0], [1.0, 2.0]) for n in names]
    svg = line_plot(plots, "A & B <C>", "x < 1 & y > 2", "<&>", y_si=True)
    for twice in ("&amp;amp;", "&amp;lt;", "&amp;gt;"):
        assert twice not in svg
    texts = [t.text for t in ET.fromstring(svg).iter(_NS + "text")]
    for text in ["A & B <C>", "x < 1 & y > 2", "<&>", *names]:
        assert text in texts


_label = st.text("ab &<>", max_size=6)


@given(
    st.lists(st.tuples(_series, _label, st.booleans()), min_size=1, max_size=4),
    _label,
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_every_document_parses_with_one_polyline_and_legend_entry_per_series(
    series, title, y_si
):
    plots = [
        PlotSeries(label, "blue", [x for x, _ in s], [y for _, y in s], "6,4" if dashed else None)
        for s, label, dashed in series
    ]
    root = ET.fromstring(line_plot(plots, title, title, title, y_si=y_si))
    assert len(root.findall(_NS + "polyline")) == len(plots)
    legend_lines = [e for e in root.iter(_NS + "line") if e.get("stroke-width") == "2"]
    legend_texts = [e for e in root.iter(_NS + "text") if e.get("text-anchor") is None]
    assert len(legend_lines) == len(legend_texts) == len(plots)
    assert [e.text or "" for e in legend_texts] == [p.label for p in plots]
    for polyline, line, p in zip(root.findall(_NS + "polyline"), legend_lines, plots):
        assert polyline.get("stroke-dasharray") == line.get("stroke-dasharray") == p.dash


def test_si_labels_get_digits_only_where_ticks_would_share_one():
    for lo, hi, expected in (
        (1_000_200, 1_000_900, ["1.0002M", "1.0004M", "1.0006M", "1.0008M", "1.001M"]),
        (0.0, 8e6, ["0", "2M", "4M", "6M", "8M"]),
        (3.1e6, 7.4e6, ["3M", "4M", "5M", "6M", "7M", "8M"]),
    ):
        plots = [PlotSeries("s", "red", [0.0, 1.0], [lo, hi])]
        assert _tick_labels(line_plot(plots, "t", "x", "y", y_si=True), "end") == expected


@given(st.floats(-1e9, 1e9, allow_nan=False), st.floats(1e-3, 1e7, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_si_labels_are_distinct_and_three_digit_where_that_suffices(lo, span):
    plots = [PlotSeries("s", "red", [0.0, 1.0], [lo, lo + span])]
    labels = _tick_labels(line_plot(plots, "t", "x", "y", y_si=True), "end")
    ticks = _nice_ticks(lo, lo + span)
    assert len(set(labels)) == len(labels) == len(ticks)
    three = [format_si(t) for t in ticks]
    if len(set(three)) == len(three):
        assert labels == three
    for label in labels:
        _check_label(label, si=True)
