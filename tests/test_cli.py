"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(EXPERIMENTS)


def test_run_single_experiment(capsys):
    assert main(["run", "table1", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "[table1]" in out


def test_run_unknown_experiment_fails(capsys):
    assert main(["run", "fig99"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_scale_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig9", "--scale", "enormous"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


class TestTraceCommands:
    def test_trace_gen_csv_then_info(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert (
            main(
                [
                    "trace-gen",
                    "--preset",
                    "homes",
                    "--requests",
                    "500",
                    "--blocks",
                    "64",
                    "--pages-per-block",
                    "16",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert out.exists()
        assert main(["trace-info", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "write ratio" in printed
        assert "refcount distribution" in printed

    def test_trace_gen_fiu_format(self, tmp_path):
        out = tmp_path / "t.blk"
        assert (
            main(
                [
                    "trace-gen",
                    "--preset",
                    "mail",
                    "--requests",
                    "200",
                    "--blocks",
                    "64",
                    "--pages-per-block",
                    "16",
                    "--format",
                    "fiu",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert main(["trace-info", str(out), "--format", "fiu"]) == 0

    def test_trace_info_missing_file(self, capsys):
        assert main(["trace-info", "/nonexistent/file.csv"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestSimulateCommand:
    def test_simulate_preset(self, capsys):
        rc = main(
            [
                "simulate",
                "--scheme",
                "cagc",
                "--preset",
                "homes",
                "--blocks",
                "64",
                "--pages-per-block",
                "16",
                "--fill-factor",
                "2.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "blocks erased" in out
        assert "write amplification" in out

    def test_simulate_trace_file_preemptive(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(
            [
                "trace-gen",
                "--preset",
                "mail",
                "--requests",
                "400",
                "--blocks",
                "64",
                "--pages-per-block",
                "16",
                "--out",
                str(out),
            ]
        )
        rc = main(
            [
                "simulate",
                "--scheme",
                "baseline",
                "--replay",
                str(out),
                "--blocks",
                "64",
                "--pages-per-block",
                "16",
                "--gc-mode",
                "preemptive",
                "--wear-aware",
                "--policy",
                "cost-benefit",
            ]
        )
        assert rc == 0
        assert "preemptive" in capsys.readouterr().out

    def test_simulate_writes_valid_chrome_trace(self, tmp_path, capsys):
        # ISSUE acceptance criterion: a cagc run with --trace/--trace-format
        # chrome yields a schema-valid file with distinct tracks for
        # foreground I/O, GC phases, and hash lanes.
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "run.json"
        rc = main(
            [
                "simulate",
                "--scheme",
                "cagc",
                "--preset",
                "homes",
                "--blocks",
                "64",
                "--pages-per-block",
                "16",
                "--fill-factor",
                "2.0",
                # The per-request io track is reference-path span
                # structure; the vectorized kernel replaces it with
                # batch spans on the kernel track.
                "--kernel",
                "reference",
                "--trace",
                str(out),
                "--trace-format",
                "chrome",
            ]
        )
        assert rc == 0
        tracks = validate_chrome_trace(json.loads(out.read_text()))
        assert "io" in tracks
        assert "gc" in tracks
        assert "gc.read" in tracks and "gc.write" in tracks
        assert any(t.startswith("hash-lane-") for t in tracks)
        assert "wrote" in capsys.readouterr().err

    def test_simulate_vectorized_kernel_trace_and_attribution(self, tmp_path, capsys):
        # On the vectorized path the tracer records batch/fallback
        # spans on the kernel track instead of per-request io spans,
        # and the summary table folds them into attribution rows.
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "run.json"
        rc = main(
            [
                "simulate",
                "--scheme",
                "cagc",
                "--preset",
                "homes",
                "--blocks",
                "64",
                "--pages-per-block",
                "16",
                "--fill-factor",
                "2.0",
                "--kernel",
                "vectorized",
                "--trace",
                str(out),
                "--trace-format",
                "chrome",
            ]
        )
        assert rc == 0
        tracks = validate_chrome_trace(json.loads(out.read_text()))
        assert "kernel" in tracks
        assert "io" not in tracks
        table = capsys.readouterr().out
        assert "kernel batches" in table
        assert "kernel fallback rate" in table
        # A traced run collects every CAGC victim on the reference loop.
        assert re.search(
            r"^kernel GC collects\s+fallback\[traced-pipeline\]=\d+\s*$",
            table,
            re.MULTILINE,
        )

    def test_simulate_writes_jsonl_trace(self, tmp_path):
        import json

        out = tmp_path / "run.jsonl"
        rc = main(
            [
                "simulate",
                "--scheme",
                "baseline",
                "--preset",
                "homes",
                "--blocks",
                "64",
                "--pages-per-block",
                "16",
                "--fill-factor",
                "2.0",
                "--trace",
                str(out),
                "--trace-format",
                "jsonl",
                "--quiet",
            ]
        )
        assert rc == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert events
        assert {"kind", "track", "name", "ts_us"} <= set(events[0])

    def test_simulate_trace_folds_metrics_series_into_timeline(self, tmp_path):
        import json

        out = tmp_path / "run.jsonl"
        rc = main(
            [
                "simulate", "--scheme", "cagc", "--preset", "homes",
                "--blocks", "64", "--pages-per-block", "16",
                "--fill-factor", "2.0",
                "--trace", str(out), "--trace-format", "jsonl", "-q",
            ]
        )
        assert rc == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        counters = {}
        for event in events:
            if event["track"] == "timeline":
                counters.setdefault(event["name"], []).append(event)
        assert set(counters) == {
            "free_fraction", "blocks_erased", "pages_migrated", "gc_busy_us",
        }
        erased = [e["value"] for e in counters["blocks_erased"]]
        assert erased[-1] > 0  # fill_factor 2.0 triggers GC
        assert erased == sorted(erased)  # cumulative counter

    def test_quiet_flag_suppresses_status(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(
            [
                "simulate",
                "--scheme",
                "baseline",
                "--preset",
                "homes",
                "--blocks",
                "64",
                "--pages-per-block",
                "16",
                "--fill-factor",
                "2.0",
                "--trace",
                str(out),
                "-q",
            ]
        )
        captured = capsys.readouterr()
        assert "wrote" not in captured.err
        assert "blocks erased" in captured.out  # results stay on stdout


class TestReportCommand:
    def test_report_renders_telemetry_table(self, capsys):
        rc = main(
            ["report", "--workload", "homes", "--scheme", "cagc", "--scale", "quick"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for key in (
            "write amplification",
            "GC dedup ratio",
            "p95 / p99 / p999",
            "GC read busy",
            "GC erase busy",
        ):
            assert key in out, key

    def test_report_json_out(self, tmp_path):
        import json

        out = tmp_path / "report.json"
        rc = main(
            [
                "report",
                "--workload",
                "homes",
                "--scheme",
                "baseline",
                "--scale",
                "quick",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["run"].startswith("homes/baseline/")
        assert "blocks erased" in doc["metrics"]


def _table(text):
    """``{metric: value}`` from a two-column ``format_table`` print."""
    rows = {}
    for line in text.splitlines():
        match = re.match(r"^(\S.*?)\s{2,}(\S.*?)\s*$", line)
        if match:
            rows[match.group(1)] = match.group(2)
    return rows


_SMALL = ["--preset", "homes", "--blocks", "64", "--pages-per-block", "16",
          "--fill-factor", "2.0"]


def _small_spec(scheme="cagc", config=(), **fields):
    from repro.runner import RunSpec, freeze_overrides

    overrides = {"geometry.blocks": 64, "geometry.pages_per_block": 16}
    overrides.update(config)
    return RunSpec(
        workload="homes",
        scheme=scheme,
        scale="bench",
        config_overrides=freeze_overrides(overrides),
        trace_overrides=freeze_overrides(fill_factor=2.0),
        **fields,
    )


class TestSimulateRunsASpec:
    @pytest.mark.parametrize(
        "flags, config, fields",
        [
            ([], {}, {}),
            (
                ["--gc-mode", "preemptive", "--wear-aware", "--policy", "cost-benefit"],
                {"gc_mode": "preemptive", "wear_aware_allocation": True},
                {"policy": "cost-benefit"},
            ),
            (
                ["--write-buffer", "64", "--policy", "random", "--channels", "2"],
                {"write_buffer_pages": 64, "geometry.channels": 2},
                {"policy": "random"},
            ),
            (["--device", "parallel"], {}, {"device": "parallel"}),
            (
                ["--device", "parallel", "--write-buffer", "64"],
                {"write_buffer_pages": 64},
                {"device": "parallel"},
            ),
            (
                ["--array-devices", "4", "--tenants", "2", "--gc-coord", "staggered"],
                {},
                {"array_devices": 4, "tenants": 2, "gc_coord": "staggered"},
            ),
        ],
        ids=[
            "cagc",
            "preemptive-wear-cb",
            "buffer-random-2ch",
            "parallel",
            "parallel-buffer",
            "array",
        ],
    )
    def test_simulate_matches_spec(self, flags, config, fields, capsys):
        assert main(["simulate", "--scheme", "cagc", *_SMALL, *flags, "-q"]) == 0
        rows = _table(capsys.readouterr().out)
        result = _small_spec(config=config, **fields).execute(metrics=None)
        if fields.get("array_devices"):
            expected = {
                "requests": result.requests_completed,
                "blocks erased": sum(r.blocks_erased for r in result.devices),
                "pages migrated": sum(r.pages_migrated for r in result.devices),
            }
        else:
            expected = {
                "requests": result.latency.count,
                "blocks erased": result.blocks_erased,
                "pages migrated": result.pages_migrated,
                "write amplification": f"{result.write_amplification():.3f}",
            }
        assert expected["blocks erased"] > 0
        for metric, value in expected.items():
            assert rows[metric].replace(",", "") == str(value), metric

    def test_parallel_preemptive_is_an_error(self, capsys):
        argv = ["simulate", *_SMALL, "--device", "parallel", "--gc-mode", "preemptive"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "preemptive" in err

    def test_parallel_run_is_metered(self, capsys, monkeypatch, tmp_path):
        from repro.runner.cache import ENV_CACHE_DIR

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        argv = ["metrics", "--workload", "homes", "--scale", "quick",
                "--device", "parallel", "-q"]
        assert main(argv) == 0
        assert "cagc_requests_total" in capsys.readouterr().out

    def test_replay_streamed_npz(self, tmp_path, capsys):
        from repro.workloads.stream import open_trace

        path = tmp_path / "t.npz"
        assert main(
            ["trace-gen", "--preset", "homes", "--requests", "600", "--blocks",
             "64", "--pages-per-block", "16", "--format", "npz", "--out",
             str(path), "-q"]
        ) == 0
        capsys.readouterr()
        flags = ["--replay", str(path), "--blocks", "64", "--pages-per-block", "16"]
        assert main(["simulate", *flags, "--stream", "-q"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("cagc / t / greedy / blocking")
        rows = _table(out)
        result = _small_spec().replay(
            open_trace(str(path), stream=True), keep_samples=False
        )
        assert rows["requests"] == "600"
        assert rows["blocks erased"] == str(result.blocks_erased)
        assert rows["pages migrated"] == str(result.pages_migrated)
        # A streamed run keeps no samples; the row reads its own histogram.
        p99 = result.metrics.values["cagc_request_latency_us_p99"]
        assert rows["p99 (histogram)"] == f"{p99:.0f}us (600 samples)"
        # An array replays its own multiplexed tenant traces, not a file.
        assert main(["simulate", *flags, "--array-devices", "2", "-q"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("stream", [[], ["--stream"]])
    def test_replay_of_a_malformed_trace_is_an_error(self, tmp_path, capsys, stream):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time_us,op,lpn,npages,fingerprints\n0.0,1,0,1,a\n1.0,1,1,1,-3\n"
        )
        flags = ["--replay", str(path), "--blocks", "64", "--pages-per-block", "16"]
        assert main(["simulate", *flags, *stream, "-q"]) == 2
        assert "error: request 1: fps_flat holds negative" in capsys.readouterr().err

    @pytest.mark.parametrize("stream", [[], ["--stream"]])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,1,0,1,a\n1.0,257,1,1,\n", "request 1: ops unknown opcode 257"),
            ("0.0,1,0,1,a\n1.0,1,1,1,zz\n", "request 1: fps_flat does not parse"),
            (
                "0.0,1,0,1,a\n10.0,1,1,1,b\n5.0,1,2,1,c\n",
                "request 2: times_us decreases from 10 to 5",
            ),
        ],
    )
    def test_replay_of_an_unparseable_or_unordered_csv_is_an_error(
        self, tmp_path, capsys, stream, rows, message
    ):
        path = tmp_path / "bad.csv"
        path.write_text("time_us,op,lpn,npages,fingerprints\n" + rows)
        flags = ["--replay", str(path), "--blocks", "64", "--pages-per-block", "16"]
        assert main(["simulate", *flags, *stream, "-q"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_compare_runs_every_scheme(self, capsys):
        assert main(["compare", *_SMALL]) == 0
        out = capsys.readouterr().out
        erases = {}
        for line in out.splitlines():
            cells = line.split()
            if cells and cells[0] in ("baseline", "inline-dedupe", "cagc", "lba-hotcold"):
                erases[cells[0]] = int(cells[1])
        assert len(erases) == 4
        for scheme, erased in erases.items():
            spec = _small_spec(scheme=scheme)
            assert erased == spec.execute(metrics=None).blocks_erased, scheme


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--array-devices", "2", "--tenants", "0"], "tenants"),
        (["--array-devices", "-1"], "array_devices"),
        (["--array-devices", "2", "--ncq-depth", "0"], "ncq_depth"),
    ],
    ids=["no-tenants", "negative-devices", "zero-ncq-depth"],
)
def test_bad_array_shape_is_an_error_not_a_traceback(flags, field, capsys):
    for argv in (
        ["simulate", *_SMALL],
        ["report", "--scale", "quick"],
        ["metrics", "--scale", "quick"],
    ):
        assert main([*argv, *flags]) == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err and field in err, argv
