"""Smoke tests for the per-table job entry points (tiny parameters)."""
import pytest

from jobs import fig8_static_runtime, fig9_incremental, table1_quality, table2_dataset


class TestTable2:
    def test_rows(self):
        rows = table2_dataset.rows(n=1000, avg_degree=8, seed=0)
        stats = {name: ours for name, _, ours in rows}
        assert stats["# nodes"] <= 1000
        assert stats["# edges"] == pytest.approx(4000, rel=0.05)

    def test_main_prints(self, capsys):
        table2_dataset.main(["x", "500", "6", "0"])
        out = capsys.readouterr().out
        assert "Table II" in out and "avg. degree" in out


class TestTable1:
    def test_point(self):
        scores = table1_quality.run_point(
            runs=1, t_slpa=20, t_rslpa=40, n=200, k=10, maxk=25,
            mu=0.1, on=20, om=2, min_c=20, max_c=50,
        )
        assert 0.0 <= scores["slpa"] <= 1.0
        assert 0.0 <= scores["rslpa"] <= 1.0

    def test_sweep_names(self):
        names = set()
        for sweep, _, _ in table1_quality.sweeps(
            n_base=200, runs=1, t_slpa=10, t_rslpa=20
        ):
            names.add(sweep.split(":")[0])
        assert names == {"7a", "7b", "7c", "7d", "7e", "7f"}


class TestFig8:
    def test_run_and_print(self, spark, capsys):
        r = fig8_static_runtime.run(spark, n=150, t_slpa=2, seed=0)
        assert r["rslpa_iters"] == 2 * r["slpa_iters"]
        assert r["slpa_total_s"] > 0 and r["rslpa_total_s"] > 0
        fig8_static_runtime.print_table(r)
        out = capsys.readouterr().out
        assert "label prop" in out
        counts = f"{r['n_slpa_comms']:>12d}{r['n_rslpa_comms']:>12d}"
        assert f"{'communities':<18}{counts}" in out


class TestFig9:
    def test_run_and_print(self, spark, capsys):
        rows = fig9_incremental.run(
            spark, n=150, n_iters=4, seed=0, batch_sizes=[10]
        )
        assert rows[0]["eta_measured"] >= 0
        assert rows[0]["eta_lower"] <= rows[0]["eta_upper"]
        fig9_incremental.print_table(rows)
        assert "batch" in capsys.readouterr().out
