"""Qualitative tests for the per-figure experiment harnesses.

Each test runs an experiment (scaled down where the defaults are slow)
and asserts the *shape* of the paper's result — who wins, where the
crossovers and knees are — rather than absolute numbers.
"""

import pytest

from repro.experiments import fig5, fig6, fig7, fig8, fig9, fig10, fig11, table2
from repro.experiments.runner import EXPERIMENTS, main


class TestTable2:
    def test_four_level_trees(self):
        result = table2.run()
        assert isinstance(result, table2.Table2Result)
        for size, counts in result.counts.items():
            assert len(counts) == 4, f"{size} points should give 4 levels"
            assert counts[0] == 1

    def test_paper_quoted_pin_counts(self):
        result = table2.run()
        assert result.counts[250_000] == (1, 16, 400, 10000)
        assert result.pinned_pages(250_000, 3) == 417  # paper §5.5
        assert result.pinned_pages(80_000, 3) == 135  # paper §5.5

    def test_to_text(self):
        text = table2.run().to_text()
        assert "level 0" in text and "250000" in text


class TestFig5:
    def test_skew_statistics(self):
        result = fig5.run()
        assert isinstance(result, fig5.Fig5Result)
        assert result.n_points == 52_510
        # Most of the data crowds a small window around the wing.
        assert result.center_fraction > 5 * result.center_area_fraction
        assert result.gini > 0.5
        assert result.empty_cell_fraction >= 0.0

    def test_to_text_renders_plot(self):
        text = fig5.run().to_text()
        assert "Fig. 5" in text
        assert "|" in text  # the ASCII density plot


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        # Skip TAT here: it dominates runtime and is covered by the
        # benches; the crossover story needs NX and HS.
        return fig6.run(loaders=("nx", "hs"), buffer_sizes=(10, 100, 300, 500))

    def test_hs_beats_nx_everywhere(self, result):
        assert isinstance(result, fig6.Fig6Result)
        for curves in (result.point_curves, result.region_curves):
            for nx, hs in zip(curves["nx"], curves["hs"]):
                assert hs <= nx + 1e-9

    def test_disk_accesses_decrease_with_buffer(self, result):
        for curves in (result.point_curves, result.region_curves):
            for loader in curves:
                values = list(curves[loader])
                assert values == sorted(values, reverse=True)

    def test_bufferless_upper_bounds_buffered(self, result):
        for loader in ("nx", "hs"):
            assert result.point_curves[loader][0] <= (
                result.point_node_accesses[loader] + 1e-9
            )

    def test_crossover_helper(self, result):
        # HS beats NX from the start.
        assert result.crossover_buffer("nx", "hs", region=True) == 10
        # NX never beats HS.
        assert result.crossover_buffer("hs", "nx", region=True) is None

    def test_to_text(self, result):
        text = result.to_text()
        assert "point queries" in text and "region queries" in text


class TestFig7And8:
    @pytest.fixture(scope="class")
    def tiger(self):
        return fig7.run(buffer_sizes=(10, 100, 500))

    @pytest.fixture(scope="class")
    def cfd(self):
        return fig8.run(buffer_sizes=(10, 100, 500))

    def test_data_driven_costs_more(self, tiger, cfd):
        """Both data sets: data-driven queries always land on data, so
        they need more disk accesses than uniform queries."""
        for result in (tiger, cfd):
            for u, d in zip(result.uniform, result.data_driven):
                assert d > u

    def test_uniform_benefits_more_from_buffer(self, tiger, cfd):
        """The right-panel claim: buffer speedup is larger under the
        uniform model (hot nodes) than the data-driven model."""
        for result in (tiger, cfd):
            assert result.uniform_speedup[-1] > result.data_driven_speedup[-1]

    def test_tiger_speedups_near_paper_anchors(self, tiger):
        """Paper: 3.91x (uniform) vs 2.86x (data-driven) from B=10 to
        B=500 on Long Beach.  Generous tolerance: the data set is a
        synthetic substitute."""
        assert 2.0 < tiger.uniform_speedup[-1] < 8.0
        assert 1.5 < tiger.data_driven_speedup[-1] < 5.0

    def test_cfd_uniform_ratio_exceeds_20(self, cfd):
        """Paper: 'the ratios in excess of 20' on the CFD data."""
        assert cfd.uniform_speedup[-1] > 20

    def test_to_text(self, tiger):
        assert "uniform" in tiger.to_text()


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9.run(sizes=(25_000, 100_000, 300_000))

    def test_bufferless_hs_looks_flat(self, result):
        """25k -> 300k rectangles: the bufferless HS cost grows by far
        less than the buffered cost does (the paper's trap for query
        optimisers)."""
        assert isinstance(result, fig9.Fig9Result)
        hs_flat_growth = result.growth(result.node_accesses["hs"])
        hs_buffered_growth = result.growth(result.disk_accesses[("hs", 300)])
        assert hs_flat_growth < 2.0
        assert hs_buffered_growth > 2 * hs_flat_growth

    def test_buffered_costs_increase_with_size(self, result):
        for key, curve in result.disk_accesses.items():
            assert list(curve) == sorted(curve)

    def test_to_text(self, result):
        text = result.to_text()
        assert "no buffer" in text and "buffer size = 300" in text


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(sizes=(80_000, 250_000))

    def test_pinning_up_to_two_levels_is_noise(self, result):
        """Pinning 0, 1 or 2 levels performs identically (LRU keeps
        those pages resident anyway)."""
        assert isinstance(result, fig10.Fig10Result)
        for b in result.buffers:
            for i, _ in enumerate(result.sizes):
                base = result.disk_accesses[(b, 0)][i]
                for p in (1, 2):
                    assert result.disk_accesses[(b, p)][i] == pytest.approx(
                        base, rel=1e-3
                    )

    def test_pinning_three_levels_helps_when_pinned_near_buffer(self, result):
        """250k points / B=500 pins 417 pages (>= B/2): big win.
        80k points / B=500 pins 135 pages (< B/3): marginal."""
        big = result.improvement(500, 250_000)
        small = result.improvement(500, 80_000)
        assert big > 0.2
        assert small < 0.1
        assert big > 3 * small

    def test_large_buffer_kills_the_benefit(self, result):
        """B=2000: pinned pages are < 1/4 of the buffer; paper says
        'almost no difference'."""
        assert result.improvement(2000, 250_000) < 0.05

    def test_to_text(self, result):
        assert "buffer = 500" in result.to_text()


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11.run(
            buffer_sizes=(50, 100, 500, 2000),
            query_sides=(0.0, 0.05, 0.15),
        )

    def test_pin3_infeasible_below_its_page_count(self, result):
        """Long Beach at node size 25 has 91 pages in the top three
        levels; the paper: below ~100 pages it cannot be pinned."""
        assert isinstance(result, fig11.Fig11Result)
        i50 = result.buffer_sizes.index(50)
        assert result.left_curves[3][i50] is None
        i100 = result.buffer_sizes.index(100)
        assert result.left_curves[3][i100] is not None

    def test_pinning_012_identical(self, result):
        for i in range(len(result.buffer_sizes)):
            a = result.left_curves[0][i]
            b = result.left_curves[1][i]
            assert b == pytest.approx(a, rel=1e-3)

    def test_point_query_improvement_near_paper_35_percent(self, result):
        """Paper: pinning 3 levels on the 250k tree with B=500 gives a
        35% improvement for point queries; pinning 2 gives none."""
        pin3_at_zero = result.right_curves[3][0]
        pin2_at_zero = result.right_curves[2][0]
        assert 20 < pin3_at_zero < 60
        assert pin2_at_zero < 1

    def test_benefit_decays_with_query_size(self, result):
        curve = result.right_curves[3]
        assert curve[0] > curve[1] > curve[2]

    def test_to_text(self, result):
        text = result.to_text()
        assert "Fig. 11 (left)" in text and "QX" in text


class TestRunner:
    def test_registry_covers_all_experiments(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11",
        }

    def test_main_runs_named_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "completed in" in out

    def test_main_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_main_returns_nonzero_on_experiment_failure(self, monkeypatch, capsys):
        def boom():
            raise RuntimeError("simulated crash")

        monkeypatch.setitem(EXPERIMENTS, "fig5", boom)
        assert main(["fig5"]) == 1
        err = capsys.readouterr().err
        assert "fig5 FAILED" in err
        assert "simulated crash" in err
        assert "1 of 1 experiment(s) failed" in err

    def test_main_failure_does_not_abort_later_experiments(
        self, monkeypatch, capsys
    ):
        def boom():
            raise ValueError("bad input")

        monkeypatch.setitem(EXPERIMENTS, "fig5", boom)
        assert main(["fig5", "table2"]) == 1
        captured = capsys.readouterr()
        assert "fig5 FAILED" in captured.err
        assert "table2 completed" in captured.out
