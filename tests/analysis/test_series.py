"""Unit tests for figure-result containers and rendering."""

import pytest

from repro.analysis import FigureResult, render_table


@pytest.fixture
def result():
    figure = FigureResult(
        figure_id="figX",
        title="Example panel",
        x_label="n",
        xs=[50.0, 100.0],
        metadata={"profile": "fast"},
    )
    figure.add_series("alpha", [1.5, 2.5])
    figure.add_series("beta", [3, 4])
    return figure


class TestFigureResult:
    def test_add_series_length_checked(self, result):
        with pytest.raises(ValueError):
            result.add_series("bad", [1.0])

    def test_series_by_label(self, result):
        assert result.series_by_label("alpha").values == [1.5, 2.5]
        with pytest.raises(KeyError):
            result.series_by_label("missing")


class TestRenderTable:
    def test_contains_headers_and_values(self, result):
        text = render_table(result)
        assert "figX" in text
        assert "Example panel" in text
        assert "alpha" in text and "beta" in text
        assert "1.500" in text
        assert "profile=fast" in text

    def test_integers_render_without_decimals(self, result):
        text = render_table(result)
        # x values and the integer-valued beta column print as ints
        assert " 50 " in text or "| 50" in text or "50 |" in text
        assert "3" in text

    def test_empty_series_table(self):
        figure = FigureResult(
            figure_id="figY", title="empty", x_label="n", xs=[]
        )
        text = render_table(figure)
        assert "figY" in text
