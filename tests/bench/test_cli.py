"""Unit tests for the jigsaw-bench CLI."""

import pytest

from repro.cli import _config_for, _parse_value, main
from repro.bench.experiments import fig10_inmemory


class TestParsing:
    def test_parse_literals(self):
        assert _parse_value("3") == 3
        assert _parse_value("0.5") == 0.5
        assert _parse_value("(1, 2)") == (1, 2)
        assert _parse_value("balos") == "balos"

    def test_config_overrides(self):
        config = _config_for(fig10_inmemory, ["n_tuples=123", "selectivities=(0.5,)"])
        assert config.n_tuples == 123
        assert config.selectivities == (0.5,)

    def test_bad_override_key_rejected(self):
        with pytest.raises(SystemExit):
            _config_for(fig10_inmemory, ["nope=1"])

    def test_bad_override_syntax_rejected(self):
        with pytest.raises(SystemExit):
            _config_for(fig10_inmemory, ["justakey"])


class TestMain:
    def test_runs_fig10_quickly(self, capsys):
        exit_code = main(
            ["fig10", "--set", "n_tuples=5000", "--set", "n_attrs=4",
             "--set", "n_summed=3", "--set", "selectivities=(0.5,)"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "Jigsaw-Mem" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_flag_of_another_command_is_a_usage_error(self):
        # `serve` never reads --as-of and `all` runs default configs:
        # neither flag may be silently dropped.
        for argv in (["serve", "--as-of", "3"], ["all", "--set", "n_train=5"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2


class TestExplainCommand:
    SQL = "SELECT a1, a2 FROM oracle WHERE a1 BETWEEN 100 AND 400"

    def test_explain_prints_a_plan(self, capsys):
        exit_code = main(["explain", self.SQL])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN SELECT a1, a2" in out
        assert "logical plan:" in out
        assert "physical plan:" in out
        assert "actual:" not in out

    def test_explain_run_appends_actuals(self, capsys):
        exit_code = main(["explain", "--run", self.SQL])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "actual:" in out
        assert "partition reads" in out

    def test_explain_threaded_engine(self, capsys):
        exit_code = main(["explain", "--engine", "jigsaw-s", "--run", self.SQL])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "engine: jigsaw-s" in out
        assert "actual:" in out

    def test_explain_accepts_explain_keyword_in_sql(self, capsys):
        assert main(["explain", "EXPLAIN " + self.SQL]) == 0
        assert "EXPLAIN SELECT" in capsys.readouterr().out

    def test_explain_other_layouts(self, capsys):
        for layout in ("natural", "replicated"):
            assert main(["explain", "--layout", layout, self.SQL]) == 0
            assert f"layout {layout!r}" in capsys.readouterr().out

    def test_explain_requires_sql(self):
        with pytest.raises(SystemExit):
            main(["explain"])

    def test_sql_rejected_without_explain(self):
        with pytest.raises(SystemExit):
            main(["fig10", self.SQL])

    def test_unknown_layout_rejected(self):
        with pytest.raises(SystemExit):
            main(["explain", "--layout", "nope", self.SQL])

    def test_explain_analyze_flag_appends_tree(self, capsys):
        exit_code = main(["explain", "--analyze", self.SQL])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "analyze (per-operator actuals" in out
        assert "(unattributed)" in out
        assert "actual:" in out

    def test_explain_analyze_keyword_in_sql(self, capsys):
        exit_code = main(["explain", "EXPLAIN ANALYZE " + self.SQL])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "analyze (per-operator actuals" in out


class TestProfileCommand:
    def test_profile_writes_trace_and_summary(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        exit_code = main(
            ["profile", "--n-tuples", "200", "--trace-out", str(trace_path),
             "--top", "5"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "hotspots over" in out
        assert "exec.query" in out
        lines = trace_path.read_text().splitlines()
        assert lines, "profile wrote no spans"
        record = json.loads(lines[0])
        assert {"name", "span_id", "sim_io_s", "attrs"} <= set(record)

    def test_profile_metrics_flag_prints_exposition(self, tmp_path, capsys):
        exit_code = main(
            ["profile", "--n-tuples", "200",
             "--trace-out", str(tmp_path / "t.jsonl"), "--metrics"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "jigsaw_queries_total" in out
        assert "# TYPE" in out

    def test_profile_rejects_sql(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["profile", "SELECT a1 FROM oracle"])
