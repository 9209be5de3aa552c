"""Series/figure/table container tests."""

import pytest

from repro.experiments import FigureData, Series, TableData


class TestSeries:
    def test_xs_sorted(self):
        s = Series("a", {8: 1.0, 2: 3.0, 4: 2.0})
        assert s.xs() == [2, 4, 8]
        assert s.ys() == [3.0, 2.0, 1.0]

    def test_at(self):
        s = Series("a", {2: 5.0})
        assert s.at(2) == 5.0
        with pytest.raises(KeyError):
            s.at(99)


class TestFigureData:
    def _fig(self):
        fig = FigureData("T", "x", "y")
        fig.series.append(Series("a", {1: 10.0, 2: 20.0}))
        fig.series.append(Series("b", {1: 11.0, 3: 33.0}))
        return fig

    def test_get_by_name(self):
        assert self._fig().get("a").at(1) == 10.0

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            self._fig().get("z")

    def test_xs_union(self):
        assert self._fig().xs() == [1, 2, 3]

    def test_render_fills_gaps_with_dash(self):
        text = self._fig().render()
        assert "T" in text
        lines = [l for l in text.splitlines() if l.strip().startswith("2")]
        assert any("-" in l for l in lines)

    def test_render_custom_format(self):
        text = self._fig().render(fmt="{:.1f}%")
        assert "10.0%" in text


class TestTableData:
    def _table(self):
        t = TableData("Tbl", ["k", "v"])
        t.rows.append(["alpha", 1])
        t.rows.append(["beta", 22])
        return t

    def test_render_aligned(self):
        text = self._table().render()
        assert "Tbl" in text and "alpha" in text and "22" in text
