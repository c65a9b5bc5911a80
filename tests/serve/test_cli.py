"""`repro serve` command line: run, replay, stats."""

import json

import pytest

from repro.serve.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_summary_output(self, capsys):
        code, out, err = _run(
            capsys, "run", "--duration", "0.2", "--rate", "100",
            "--size", "64",
        )
        assert code == 0
        assert err == ""
        assert "serving report" in out.lower() or "tenant" in out.lower()
        assert "report fingerprint:" in out

    def test_json_output_is_report_payload(self, capsys):
        code, out, _ = _run(
            capsys, "run", "--duration", "0.2", "--rate", "100",
            "--size", "64", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scheduler"] == "dmda-slo"
        assert payload["totals"]["completed"] > 0

    def test_output_file_round_trips_through_stats(self, capsys, tmp_path):
        report_path = str(tmp_path / "report.json")
        code, _, _ = _run(
            capsys, "run", "--duration", "0.2", "--rate", "100",
            "--size", "64", "-o", report_path,
        )
        assert code == 0
        code, out, err = _run(capsys, "stats", report_path)
        assert code == 0
        assert err == ""
        assert "tenant" in out.lower()

    def test_scheduler_and_fleet_flags(self, capsys):
        code, out, _ = _run(
            capsys, "run", "--duration", "0.2", "--rate", "100",
            "--size", "64", "--scheduler", "dmda", "--no-autoscale",
            "--min-workers", "2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scheduler"] == "dmda"
        assert payload["autoscaler"]["max_active"] == 2
        assert payload["autoscaler"]["spawned"] == 0

    def test_online_tuning_merges_database(self, capsys, tmp_path):
        from repro.tune.database import TuningDatabase

        db_path = str(tmp_path / "tuning.json")
        code, out, _ = _run(
            capsys, "run", "--duration", "0.2", "--rate", "100",
            "--size", "64", "--online-tuning", "--tuning", db_path,
        )
        assert code == 0
        assert f"merged tuning samples into {db_path}" in out
        assert TuningDatabase.load(db_path).sample_count() > 0

    def test_bad_platform_exits_2(self, capsys):
        code, _, err = _run(
            capsys, "run", "--duration", "0.1", "--platform", "no_such",
        )
        assert code == 2
        assert "repro serve:" in err

    def test_bad_tenant_count_exits_2(self, capsys):
        code, _, err = _run(capsys, "run", "--tenants", "0")
        assert code == 2
        assert "--tenants" in err

    def test_negative_rate_limit_exits_2(self, capsys):
        code, out, err = _run(capsys, "run", "--rate-limit", "-5")
        assert code == 2
        assert out == ""
        assert err.startswith("repro serve: tenant_rate_per_s")
        assert "Traceback" not in err


class TestReplay:
    def test_replay_trace_file(self, capsys, tmp_path):
        # record a small run, dump its trace, replay it as a stream
        from repro.experiments.workloads import submit_tiled_dgemm
        from repro.pdl.catalog import load_platform
        from repro.runtime.engine import RuntimeEngine

        engine = RuntimeEngine(
            load_platform("xeon_x5550_2gpu"), scheduler="dmda"
        )
        submit_tiled_dgemm(engine, 1024, 256)
        result = engine.run()
        trace_path = str(tmp_path / "trace.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(result.trace.to_payload(), handle)

        code, out, _ = _run(
            capsys, "replay", trace_path, "--size", "64",
            "--time-scale", "2.0", "--tenants", "a,b,c", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["totals"]["offered"] == len(result.trace.tasks)
        assert set(payload["tenants"]) == {"a", "b", "c"}

    def test_missing_trace_exits_2(self, capsys):
        code, _, err = _run(capsys, "replay", "/nonexistent/trace.json")
        assert code == 2
        assert "cannot read trace" in err


class TestStats:
    def test_rejects_non_report_json(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": "world"}')
        code, _, err = _run(capsys, "stats", str(bogus))
        assert code == 2
        assert "not a serving report" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = _run(capsys, "stats", "/nonexistent/report.json")
        assert code == 2
        assert "cannot read report" in err


class TestTopLevelDispatch:
    def test_repro_cli_routes_serve(self, capsys):
        from repro.cli import main as repro_main

        code = repro_main(
            ["serve", "run", "--duration", "0.1", "--rate", "50",
             "--size", "64"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "report fingerprint:" in out
