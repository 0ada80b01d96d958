"""Tests for table rendering and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.eval.report import render_series, render_table


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["xyz", 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "2.500" in lines[2]
        assert "0.125" in lines[3]

    def test_render_table_floats_formatted(self):
        out = render_table(["v"], [[0.123456]])
        assert "0.123" in out
        assert "0.1234" not in out

    def test_render_series(self):
        out = render_series(
            "Fig X", "sparseness", [100, 200], {"KAMEL": [0.9, 0.8], "Linear": [0.5, 0.4]}
        )
        assert out.startswith("Fig X")
        assert "KAMEL" in out and "Linear" in out
        assert "0.800" in out


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_figures(self, capsys):
        assert main(["list-figures"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "fig12-ablation" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2

    def test_compare_parser_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.dataset == "porto"
        assert args.sparseness == 800.0
        assert "KAMEL" in args.methods

    def test_compare_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--methods", "Oracle"])

    def test_figure_parser(self):
        args = build_parser().parse_args(["figure", "fig9", "--full"])
        assert args.name == "fig9" and args.full

    def test_trace_parser_collects_remainder(self):
        args = build_parser().parse_args(
            ["trace", "--export", "jsonl", "--", "compare", "--dataset", "porto"]
        )
        assert args.export == "jsonl"
        assert args.rest == ["--", "compare", "--dataset", "porto"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench"],
            ["bench", "counting"],
            ["loadtest", "-o", "snapshot.json"],
            ["loadtest"],
            ["chaos", "--json"],
        ],
    )
    def test_the_retired_bench_surface_is_a_usage_error(self, argv):
        """Timings and load are driven by ``perf/run.py``; the ``bench`` and
        ``loadtest`` verbs went with the harnesses they duplicated, and
        ``chaos`` with its copy of ``examples/chaos_streaming.py``."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_the_retired_serve_metrics_verb_is_a_usage_error(self):
        """The live endpoint is ``kamel serve --demo --metrics-port``."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve-metrics", "--demo"])
        assert exc.value.code == 2

    def test_trace_requires_a_subcommand(self, capsys):
        assert main(["trace", "--export", "chrome"]) == 2

    def test_trace_exports_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--export", "chrome", "-o", str(out), "--", "stats"]) == 0
        doc = json.loads(out.read_text())
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"


class TestMarkdownReport:
    def test_markdown_table(self):
        from repro.eval.report import render_markdown_table

        out = render_markdown_table(["a", "b"], [[1, 0.5]])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "0.500" in lines[2]

    def test_figure_to_markdown_series(self):
        from repro.eval.report import figure_to_markdown

        result = {
            "cell_sizes_m": [25.0, 75.0],
            "series": {"recall": [0.5, 0.8], "precision": [0.6, 0.7]},
        }
        md = figure_to_markdown("fig3-cell-size", result)
        assert "### fig3-cell-size" in md
        assert "| 75.000 | 0.800 | 0.700 |" in md

    def test_figure_to_markdown_variants(self):
        from repro.eval.report import figure_to_markdown

        result = {
            "sparseness_m": [400.0],
            "variants": {
                "KAMEL": {"recall": [0.9]},
                "No Multi.": {"recall": [0.5]},
            },
        }
        md = figure_to_markdown("fig12-ablation", result)
        assert "KAMEL" in md and "No Multi." in md
        assert "0.900" in md

    def test_figure_to_markdown_label_scores(self):
        from repro.eval.report import figure_to_markdown

        result = {"series": {"100%": {"recall": 0.8}, "25%": {"recall": 0.5}}}
        md = figure_to_markdown("fig12-training-size", result)
        assert "| 100% | 0.800 |" in md

    def test_report_parser(self):
        args = build_parser().parse_args(["report", "--figures", "fig9", "--output", "x.md"])
        assert args.figures == ["fig9"]
        assert args.output == "x.md"
