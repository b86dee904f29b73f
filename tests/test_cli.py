"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_size_parsing(self):
        args = build_parser().parse_args(
            ["info", "--size", "640x480"]
        )
        assert args.size == (480, 640)  # (height, width)

    def test_bad_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--size", "foo"])

    def test_device_choices_documented(self):
        args = build_parser().parse_args(
            ["info", "--device", "geforce_8800_gtx"]
        )
        assert args.device == "geforce_8800_gtx"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--template", "edge", "--size", "256x256"]) == 0
        out = capsys.readouterr().out
        assert "operators      : 5" in out
        assert "I/O lower bound" in out

    def test_info_cnn(self, capsys):
        assert main(["info", "--template", "small-cnn", "--size", "96x96"]) == 0
        out = capsys.readouterr().out
        assert "operators      : 1632" in out

    def test_compile(self, capsys):
        rc = main(
            [
                "compile",
                "--template", "edge",
                "--size", "512x512",
                "--device", "geforce_8800_gtx",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "transfer_floats" in out
        assert "simulated time" in out

    def test_compile_timeline_and_save(self, capsys, tmp_path):
        path = os.fspath(tmp_path / "plan.json")
        rc = main(
            [
                "compile",
                "--size", "128x128",
                "--timeline",
                "--save", path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "exec" in out  # timeline printed
        raw = json.load(open(path))
        assert raw["format_version"] == 1
        assert raw["plan"]["steps"]

    def test_run_with_verify(self, capsys):
        rc = main(
            [
                "run",
                "--template", "edge",
                "--size", "96x96",
                "--kernel", "5",
                "--verify",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_codegen_python_stdout(self, capsys):
        rc = main(["codegen", "--size", "64x64", "--kernel", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Generated hybrid CPU/GPU program" in out

    def test_codegen_cuda_to_file(self, capsys, tmp_path):
        path = os.fspath(tmp_path / "out.cu")
        rc = main(
            [
                "codegen",
                "--size", "64x64",
                "--kernel", "3",
                "--lang", "cuda",
                "-o", path,
            ]
        )
        assert rc == 0
        src = open(path).read()
        assert "__global__" in src

    def test_scheduler_and_eviction_flags(self, capsys):
        rc = main(
            [
                "compile",
                "--size", "128x128",
                "--scheduler", "bfs",
                "--eviction", "lru",
                "--headroom", "2",
            ]
        )
        assert rc == 0


class TestNewCommands:
    def test_pyramid_template(self, capsys):
        assert main(["info", "--template", "pyramid", "--size", "128x128",
                     "--octaves", "2"]) == 0
        out = capsys.readouterr().out
        assert "operators      : 9" in out

    def test_dot(self, capsys):
        assert main(["dot", "--size", "64x64", "--kernel", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_dot_to_file(self, capsys, tmp_path):
        import os

        path = os.fspath(tmp_path / "g.dot")
        assert main(["dot", "--size", "64x64", "--kernel", "3", "-o", path]) == 0
        assert open(path).read().startswith("digraph")

    def test_opb_export(self, capsys):
        # Tiny template so the Figure-5 instance stays small.
        assert main([
            "opb", "--size", "4x4", "--kernel", "3", "--orientations", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "* Figure-5 formulation" in out
        assert "min:" in out

    def test_run_pyramid_verify(self, capsys):
        rc = main([
            "run", "--template", "pyramid", "--size", "128x128",
            "--octaves", "2", "--verify",
        ])
        assert rc == 0
        assert "verified" in capsys.readouterr().out


class TestObservability:
    def test_explain(self, capsys):
        rc = main(["explain", "--template", "edge", "--size", "128x128",
                   "--kernel", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reason" in out
        assert "upload: input of" in out
        assert "launch: scheduled position" in out

    def test_explain_json_covers_every_step(self, capsys):
        rc = main(["explain", "--size", "128x128", "--kernel", "5", "--json"])
        assert rc == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["steps"]
        assert all(r["reason"] for r in raw["steps"])
        assert [r["index"] for r in raw["steps"]] == list(
            range(len(raw["steps"]))
        )

    def test_compile_json(self, capsys):
        rc = main(["compile", "--size", "128x128", "--json"])
        assert rc == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["summary"]["transfer_floats"] > 0
        assert "counters" in raw["metrics"]
        assert raw["simulated_seconds"] > 0

    def test_run_json_exposes_metrics(self, capsys):
        rc = main(["run", "--size", "96x96", "--kernel", "5", "--json"])
        assert rc == 0
        raw = json.loads(capsys.readouterr().out)
        counters = raw["metrics"]["execution"]["counters"]
        assert counters["gpu.bytes_h2d"] == raw["h2d_floats"] * 4
        assert raw["metrics"]["compile"]["counters"]["compile.candidates"] >= 1

    def test_run_trace_out(self, capsys, tmp_path):
        path = os.fspath(tmp_path / "trace.json")
        rc = main(["run", "--size", "96x96", "--kernel", "5",
                   "--trace-out", path])
        assert rc == 0
        raw = json.load(open(path))
        evs = raw["traceEvents"]
        assert all({"ph", "ts", "pid", "tid"} <= set(e) for e in evs)
        # both compile-phase spans and simulated device events present
        assert any(e["pid"] == 1 and e["ph"] == "X" for e in evs)
        assert any(e["pid"] == 2 and e["ph"] == "X" for e in evs)
        ts = [e["ts"] for e in evs if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_compile_trace_out_has_simulated_timeline(self, capsys, tmp_path):
        path = os.fspath(tmp_path / "trace.json")
        rc = main(["compile", "--size", "128x128", "--trace-out", path])
        assert rc == 0
        raw = json.load(open(path))
        assert any(
            e["pid"] == 2 and e["ph"] == "X" for e in raw["traceEvents"]
        )


class TestReportCommand:
    def _report_json(self, capsys, extra=()):
        rc = main(["report", "--size", "96x96", "--kernel", "5",
                   "--format", "json", *extra])
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_edge_single_device(self, capsys):
        raw = self._report_json(capsys)
        assert raw["num_devices"] == 1
        dev = raw["devices"][0]
        assert dev["residency"]["peak_bytes"] > 0
        assert dev["residency"]["curve"], "occupancy curve must be present"
        assert dev["timeline"]["busy"] > 0
        # byte-exact attribution: per-buffer totals sum to host bytes
        attr = raw["attribution"]
        assert sum(attr["by_buffer"].values()) == attr["host_bytes"]
        assert sum(r["nbytes"] for r in attr["records"]
                   if r["direction"] != "p2p") == attr["host_bytes"]

    def test_edge_two_devices(self, capsys):
        raw = self._report_json(
            capsys, ["--num-devices", "2", "--device", "tesla_c870"]
        )
        assert raw["num_devices"] == 2
        assert len(raw["devices"]) == 2
        assert len(raw["imbalance"]["busy"]) == 2
        attr = raw["attribution"]
        assert sum(attr["by_buffer"].values()) == attr["host_bytes"]

    def test_cnn_single_device(self, capsys):
        raw = self._report_json(capsys, ["--template", "small-cnn"])
        attr = raw["attribution"]
        assert attr["host_bytes"] > 0
        assert sum(attr["by_buffer"].values()) == attr["host_bytes"]

    def test_cnn_two_devices(self, capsys):
        raw = self._report_json(
            capsys, ["--template", "small-cnn", "--num-devices", "2"]
        )
        assert raw["num_devices"] == 2
        attr = raw["attribution"]
        assert sum(attr["by_buffer"].values()) == attr["host_bytes"]

    def test_markdown_output(self, capsys):
        rc = main(["report", "--size", "96x96", "--kernel", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Residency & device occupancy" in out
        assert "Transfer attribution" in out

    def test_html_to_file(self, capsys, tmp_path):
        path = os.fspath(tmp_path / "report.html")
        rc = main(["report", "--size", "96x96", "--kernel", "5",
                   "--format", "html", "-o", path])
        assert rc == 0
        text = open(path).read()
        assert "<html" in text and "Transfer attribution" in text


class TestBenchCompareCommand:
    def _record(self, directory, metrics):
        from repro.obs.bench import BenchRecorder

        BenchRecorder(os.fspath(directory)).record("t1", metrics)

    def test_identical_dirs_exit_zero(self, capsys, tmp_path):
        base, cand = tmp_path / "b", tmp_path / "c"
        self._record(base, {"transfer_floats": 1000})
        self._record(cand, {"transfer_floats": 1000})
        rc = main(["bench-compare", os.fspath(base), os.fspath(cand)])
        assert rc == 0
        assert "[ok]" in capsys.readouterr().out

    def test_ten_percent_regression_exits_nonzero(self, capsys, tmp_path):
        base, cand = tmp_path / "b", tmp_path / "c"
        self._record(base, {"transfer_floats": 1000, "wall_seconds": 1.0})
        self._record(cand, {"transfer_floats": 1100, "wall_seconds": 50.0})
        rc = main(["bench-compare", os.fspath(base), os.fspath(cand)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "info" in out

    def test_threshold_flag(self, capsys, tmp_path):
        base, cand = tmp_path / "b", tmp_path / "c"
        self._record(base, {"transfer_floats": 1000})
        self._record(cand, {"transfer_floats": 1100})
        rc = main(["bench-compare", os.fspath(base), os.fspath(cand),
                   "--threshold", "0.2"])
        assert rc == 0

    def test_file_pair_and_json(self, capsys, tmp_path):
        base, cand = tmp_path / "b", tmp_path / "c"
        self._record(base, {"transfer_floats": 1000})
        self._record(cand, {"transfer_floats": 2000})
        rc = main(["bench-compare",
                   os.fspath(base / "BENCH_t1.json"),
                   os.fspath(cand / "BENCH_t1.json"), "--json"])
        assert rc == 1
        raw = json.loads(capsys.readouterr().out)
        assert raw["regressed"] is True


class TestMultiDeviceExplain:
    def test_explain_two_devices(self, capsys):
        rc = main(["explain", "--size", "96x96", "--kernel", "5",
                   "--num-devices", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dev" in out.splitlines()[0] or "dev" in out.splitlines()[1]
        assert "gpu0" in out and "gpu1" in out

    def test_explain_two_devices_json(self, capsys):
        rc = main(["explain", "--size", "96x96", "--kernel", "5",
                   "--num-devices", "2", "--json"])
        assert rc == 0
        raw = json.loads(capsys.readouterr().out)
        assert {r["device"] for r in raw["steps"]} == {0, 1}


class TestExitCodes:
    def test_constants_distinct(self):
        from repro.cli import EXIT_FAILURE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE

        assert len({EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_INTERNAL}) == 4
        assert EXIT_OK == 0

    def test_user_error_exits_2_on_stderr(self, capsys):
        rc = main(["serve", "does-not-exist.json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "repro: error" in captured.err
        assert captured.out == ""

    def test_malformed_jobs_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text("{not json")
        assert main(["serve", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_internal_error_exits_70_on_stderr(self, capsys, monkeypatch):
        import repro.cli as cli

        def explode(args):
            raise RuntimeError("synthetic bug")

        monkeypatch.setattr(cli, "cmd_info", explode)
        parser = cli.build_parser()
        args = parser.parse_args(["info"])
        # re-resolve func through the monkeypatched module
        monkeypatch.setattr(args, "func", cli.cmd_info)
        monkeypatch.setattr(cli, "build_parser", lambda: _Stub(args))
        rc = cli.main(["info"])
        assert rc == 70
        err = capsys.readouterr().err
        assert "internal error" in err and "synthetic bug" in err


class _Stub:
    def __init__(self, args):
        self._args = args

    def parse_args(self, argv=None):
        return self._args


@pytest.mark.timeout(120)
class TestServiceCommands:
    def test_submit_repeat_dedupes(self, capsys):
        rc = main([
            "submit", "--template", "edge", "--size", "128x128",
            "--repeat", "6", "--workers", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compiles: 1" in out
        assert "dedupe hits: 5" in out

    def test_submit_json_output(self, capsys):
        rc = main([
            "submit", "--template", "edge", "--size", "128x128",
            "--mode", "simulate", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["responses"][0]["status"] == "ok"
        assert "service.submitted" in payload["metrics"]["counters"]

    def test_submit_expired_deadline_fails_nonzero(self, capsys):
        rc = main([
            "submit", "--template", "edge", "--size", "128x128",
            "--deadline", "0.0",
        ])
        assert rc == 1
        assert "expired" in capsys.readouterr().out

    def test_serve_jobs_file(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"template": "edge", "size": "128x128", "count": 3,
             "label": "edge-c"},
            {"template": "edge", "size": "96x96", "mode": "execute"},
        ]))
        rc = main(["serve", str(jobs), "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "edge-c" in out
        assert "compiles: 2" in out

    def test_serve_with_faults_retries(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"template": "edge", "size": "96x96", "mode": "execute",
             "count": 2},
        ]))
        rc = main([
            "serve", str(jobs), "--fault-rate", "0.2", "--fault-seed", "3",
            "--max-attempts", "8", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(r["status"] == "ok" for r in payload["responses"])
        assert payload["metrics"]["counters"]["service.retries"] > 0

    @pytest.mark.parametrize(
        "job", [{"scheduler": "bogus"}, {"eviction": "nope"}]
    )
    def test_serve_rejects_bad_option_values(self, capsys, tmp_path, job):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"size": "32x32", **job}]))
        assert main(["serve", str(jobs)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: job #0:")
        assert repr(next(iter(job.values()))) in captured.err
        assert captured.out == ""

    def test_serve_rejects_unknown_job_keys(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"templte": "edge"}]))
        assert main(["serve", str(jobs)]) == 2
        assert "unknown keys" in capsys.readouterr().err


@pytest.mark.timeout(120)
class TestTopCommand:
    def _serving(self):
        """A live service with a status endpoint and one finished request."""
        from repro.gpusim import XEON_WORKSTATION, GpuDevice
        from repro.service import (
            ExecutionService,
            ServiceConfig,
            ServiceRequest,
        )
        from repro.templates import find_edges_graph

        svc = ExecutionService(ServiceConfig(workers=2))
        server = svc.serve_status()
        req = ServiceRequest(
            template=find_edges_graph(48, 48, 8, 2),
            device=GpuDevice(name="top-dev", memory_bytes=8 * 1024 * 1024),
            host=XEON_WORKSTATION,
            label="top-req",
        )
        svc.submit(req).result(timeout=60)
        return svc, server

    def test_top_renders_live_state(self, capsys):
        svc, server = self._serving()
        try:
            rc = main(["top", f"127.0.0.1:{server.port}"])
        finally:
            svc.close()
        assert rc == 0
        out = capsys.readouterr().out
        assert "queue depth:" in out
        assert "p99" in out
        assert "plan cache:" in out
        assert "hit-rate" in out
        assert "slo availability" in out
        assert "shard local/0" in out

    def test_top_json_dumps_snapshot(self, capsys):
        svc, server = self._serving()
        try:
            rc = main(["top", server.url, "--json"])
        finally:
            svc.close()
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["service.completed"] == 1
        assert snap["window"]["count"] == 1

    def test_top_dead_endpoint_exits_1_no_traceback(self, capsys):
        """A dead endpoint is an operational failure: exit 1, message on
        stderr, no traceback (main() must not map it onto exit 2)."""
        rc = main(["top", "127.0.0.1:1", "--timeout", "0.5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "cannot reach" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_top_dead_endpoint_honors_repro_debug(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        rc = main(["top", "127.0.0.1:1", "--timeout", "0.5"])
        assert rc == 1
        assert "Traceback" in capsys.readouterr().err

    def test_submit_status_port_announces_endpoint(self, capsys):
        rc = main([
            "submit", "--template", "edge", "--size", "96x96",
            "--status-port", "0",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "status endpoint: http://127.0.0.1:" in err
        assert "/metrics" in err


class TestOneTargetPath:
    """``compile``/``run`` are one body for one to N devices."""

    @pytest.mark.parametrize("flag", ["--save", "--timeline", "--incremental"])
    def test_multi_compile_rejects_single_device_flags(
        self, capsys, tmp_path, flag
    ):
        path = tmp_path / "plan.json"
        extra = [flag, os.fspath(path)] if flag == "--save" else [flag]
        rc = main(["compile", "--size", "64x64", "--num-devices", "2",
                   *extra])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert flag in captured.err
        assert captured.out == ""
        assert not path.exists()

    def test_multi_compile_rejects_pb(self, capsys):
        rc = main(["compile", "--size", "64x64", "--num-devices", "2",
                   "--scheduler", "pb"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert "plans one device" in captured.err
        assert captured.out == ""

    def test_pb_compile_stats(self, capsys):
        argv = ["compile", "--size", "64x64", "--scheduler", "pb", "--stats"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pb_or_heuristic" in out and "validate" in out

    @pytest.mark.parametrize("devices", ["1", "2"])
    def test_compile_stats(self, capsys, devices):
        argv = ["compile", "--size", "64x64", "--num-devices", devices,
                "--stats"]
        assert main(argv) == 0
        assert main(argv) == 0
        first, second = capsys.readouterr().out.split("compile stats:")[1:]
        assert "transfer_scheduling" in first
        assert "plan cache          : miss" in first
        assert "plan cache          : hit" in second

    @pytest.mark.parametrize("command", ["codegen", "submit"])
    def test_device_group_flags_only_where_they_apply(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--size", "64x64", "--num-devices", "2"])
        assert exc.value.code == 2
        assert "--num-devices" in capsys.readouterr().err

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: conv2d accumulation order depends on "
               "band shape",
    )
    def test_cnn_verify_is_exact_on_two_devices(self, capsys):
        rc = main(["run", "--template", "small-cnn", "--size", "256x256",
                   "--num-devices", "2", "--verify"])
        assert rc == 0, capsys.readouterr().out


#: ``/slo`` snapshots for ``repro top``: a fleet with a dead shard, firing
#: alerts and a flight recorder, and a closed in-process service
FLEET_SNAPSHOT = {
    "closed": False,
    "queue_depth": 3,
    "in_flight": 2,
    "workers": 4,
    "shard_count": 2,
    "live_shards": 1,
    "counters": {
        "service.submitted": 12,
        "service.completed": 9,
        "service.batches": 2,
        "service.batch_joins": 5,
    },
    "window": {"window_seconds": 60.0, "count": 9, "rate": 0.15,
               "p50": 0.0012, "p95": 0.0105, "p99": 0.02345},
    "plan_cache": {"hits": 5, "disk_hits": 1, "misses": 3, "entries": 4},
    "slo": {"objectives": [
        {"name": "availability", "compliance": 0.99871, "target": 0.999,
         "budget_remaining_fraction": 0.0, "breached": True},
        {"name": "latency", "compliance": 1.0, "target": 0.99,
         "budget_remaining_fraction": 0.873},
    ]},
    "alerts": {"rules": 2, "active": [
        {"rule": "p99_latency", "description": "p99 23.45ms > 10ms"},
        {"rule": "slo_burn", "rule_kind": "burn_rate"},
    ], "fired_total": 2, "resolved_total": 0},
    "shards": [
        {"shard": "proc/0", "alive": True, "in_flight": 2, "workers": 4,
         "plan_cache": {"entries": 4}},
        {"shard": "proc/1", "alive": False,
         "exit_detail": "killed by SIGKILL (-9)", "in_flight_at_death": 2},
        {"shard": "proc/2", "alive": False},
    ],
    "events": {"emitted": 120, "dropped": 3, "capacity": 4096},
    "flight": {"appended": 118, "rotated": 1, "evicted": 0,
               "dir": "flight/proc-0"},
}
LOCAL_SNAPSHOT = {
    "closed": True,
    "counters": {},
    "alerts": {"rules": 3, "active": [], "fired_total": 4,
               "resolved_total": 4},
    "events": {"emitted": 0, "dropped": 0, "capacity": 1024},
}
FLEET_TOP = (
    "repro top — http://127.0.0.1:8321  (serving)\n"
    "  queue depth: 3   in flight: 2   workers: 4   submitted: 12   "
    "completed: 9   shards: 1/2 live\n"
    "  batching: 2 batches, 5 joined requests\n"
    "  window (60s): 9 done, 0.15 req/s, latency p50 1.20ms p95 10.50ms "
    "p99 23.45ms\n"
    "  plan cache: 5 mem + 1 disk hits, 3 misses (67% hit-rate), "
    "4 entries\n"
    "  slo availability: compliance 0.9987 (target 0.999), budget "
    "remaining 0%  ** BREACHED **\n"
    "  slo latency: compliance 1.0000 (target 0.99), budget remaining 87%\n"
    "  ALERT p99_latency: p99 23.45ms > 10ms\n"
    "  ALERT slo_burn: burn_rate\n"
    "  shard proc/0: in_flight=2 workers=4 cache_entries=4\n"
    "  shard proc/1: DEAD — killed by SIGKILL (-9), 2 in flight at death\n"
    "  shard proc/2: DEAD — exit status unknown\n"
    "  events: 120 emitted, 3 dropped (ring 4096)\n"
    "  flight recorder: 118 journaled, 1 rotations, 0 evicted -> "
    "flight/proc-0\n"
)
LOCAL_TOP = (
    "repro top — http://127.0.0.1:8321  (closed)\n"
    "  queue depth: 0   in flight: 0   workers: 0   submitted: 0   "
    "completed: 0\n"
    "  window (0s): 0 done, 0.00 req/s, latency p50 0.00ms p95 0.00ms "
    "p99 0.00ms\n"
    "  plan cache: 0 mem + 0 disk hits, 0 misses (0% hit-rate), 0 entries\n"
    "  alerts: 3 rules, none firing (fired 4, resolved 4)\n"
    "  events: 0 emitted, 0 dropped (ring 1024)\n"
)

CRASH_POSTMORTEM = {
    "shard": "proc/1",
    "journal_dir": "flight/proc-1",
    "clean_shutdown": False,
    "exit_detail": "killed by SIGKILL (-9)",
    "records": 7,
    "segments": ["segment-000000.flight", "segment-000001.flight"],
    "window": {"window_seconds": 60.0, "count": 4, "ok": 3, "failed": 1,
               "p50": 0.0021, "p99": 0.0345},
    "in_flight": [{"request_id": 5, "last_kind": "compile.start"},
                  {"request_id": 6, "last_kind": "service.admit"}],
    "alerts_active": [{"rule": "p99_latency"}],
    "timeline": [
        {"ts": 100.0, "seq": 1, "kind": "service.admit", "request_id": 5,
         "fields": {"label": "r5", "mode": "compile"}},
        {"ts": 100.25, "seq": 2, "kind": "compile.start", "request_id": 5,
         "fields": {}},
        {"ts": 101.5, "seq": 3, "kind": "worker.heartbeat"},
    ],
}
CRASH_TEXT = (
    "post-mortem — proc/1 (crash, killed by SIGKILL (-9))\n"
    "  journal: 7 records in 2 segments\n"
    "  final window (60s): 4 done (3 ok, 1 failed), p50 2.10ms p99 34.50ms\n"
    "  in flight at death: 5, 6\n"
    "  ALERT at death: p99_latency\n"
    "  final timeline (3 events):\n"
    "    +  0.000s service.admit               #5 label=r5 mode=compile\n"
    "    +  0.250s compile.start               #5 \n"
    "    +  1.500s worker.heartbeat               \n"
)
CLEAN_POSTMORTEM = {
    "journal_dir": "flight/proc-0",
    "clean_shutdown": True,
    "exit_detail": "exited 0",
}
CLEAN_TEXT = (
    "post-mortem — flight/proc-0 (clean shutdown, exited 0)\n"
    "  journal: 0 records\n"
    "  final window (0s): 0 done (0 ok, 0 failed), p50 0.00ms p99 0.00ms\n"
)
EMPTY_TEXT = (
    "post-mortem — shard (crash, exit status unknown)\n"
    "  journal: 0 records\n"
    "  final window (0s): 0 done (0 ok, 0 failed), p50 0.00ms p99 0.00ms\n"
)


class TestRenderedText:
    """``top`` and ``postmortem`` text, byte for byte as before the
    renderers moved into ``repro.obs.report``."""

    @pytest.mark.parametrize("snap, expected", [
        (FLEET_SNAPSHOT, FLEET_TOP),
        (LOCAL_SNAPSHOT, LOCAL_TOP),
    ], ids=["fleet", "local"])
    def test_top(self, capsys, monkeypatch, snap, expected):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_fetch_status", lambda *_: snap)
        assert main(["top", "127.0.0.1:8321"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("pm, expected", [
        (CRASH_POSTMORTEM, CRASH_TEXT),
        (CLEAN_POSTMORTEM, CLEAN_TEXT),
        ({}, EMPTY_TEXT),
    ], ids=["crash", "clean", "empty"])
    def test_postmortem_text(self, pm, expected):
        from repro.obs import render_postmortem

        assert render_postmortem(pm, fmt="text") + "\n" == expected

    def test_postmortem_command_prints_the_text_rendering(
        self, capsys, tmp_path
    ):
        from repro.obs import EventLog, FlightRecorder, render_postmortem

        journal = os.fspath(tmp_path / "proc-0")
        log = EventLog(capacity=16, clock=lambda: 100.0)
        with FlightRecorder(journal) as rec:
            rec.attach(log)
            log.emit("service.admit", request_id=1, label="r0")
            log.emit("service.start", request_id=1)
        assert main(["postmortem", journal, "--json"]) == 0
        pm = json.loads(capsys.readouterr().out)
        assert main(["postmortem", journal]) == 0
        assert capsys.readouterr().out == (
            render_postmortem(pm, fmt="text") + "\n"
        )
