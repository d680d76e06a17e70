import re

from hypothesis import given, settings
from hypothesis import strategies as st

from plcsim.svgplot import PlotSeries, _nice_ticks, line_plot

# the plot area: left/right and top/bottom margins inside the 640 x 440 canvas
X_MIN, X_MAX, Y_MIN, Y_MAX = 80.0, 614.0, 46.0, 382.0


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
