"""The umbrella ``repro`` command."""

import json

import pytest

from repro.cli import main


class TestDispatch:
    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "usage: repro" in out
        for command in ("pdl", "lint", "registry", "tune", "cascabel", "trace"):
            assert command in out

    def test_help_flag(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: repro" in capsys.readouterr().out

    def test_version(self, capsys):
        import repro

        assert main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err
        assert "frobnicate" in err

    def test_pdl_subcommand_delegates(self, capsys):
        assert main(["pdl", "list"]) == 0
        assert "xeon_x5550_2gpu" in capsys.readouterr().out

    def test_lint_subcommand_delegates(self, capsys, tmp_path):
        from repro.pdl import load_platform, write_pdl

        path = tmp_path / "machine.xml"
        path.write_text(write_pdl(load_platform("xeon_x5550_dual")))
        rc = main(["lint", str(path)])
        assert rc in (0, 1)  # findings are fine; crashes are not

    def test_sub_help_stays_with_subtool(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pdl", "--help"])
        assert excinfo.value.code == 0
        assert "list" in capsys.readouterr().out


class TestTraceView:
    def _payload_file(self, tmp_path):
        from repro.obs import Tracer, trace_payload

        t = Tracer()
        with t.span("root", k="v"):
            with t.span("leaf"):
                pass
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_payload(t)))
        return path

    def test_view_payload(self, capsys, tmp_path):
        path = self._payload_file(tmp_path)
        assert main(["trace", "view", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("root")
        assert "  leaf" in out

    def test_view_chrome_document(self, capsys, tmp_path):
        from repro.obs import Tracer, chrome_trace

        t = Tracer()
        with t.span("root"):
            with t.span("leaf"):
                pass
        path = tmp_path / "chrome.json"
        path.write_text(json.dumps(chrome_trace(t)))
        assert main(["trace", "view", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("root")
        assert "  leaf" in out

    def test_view_missing_file(self, capsys, tmp_path):
        assert main(["trace", "view", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_view_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        assert main(["trace", "view", str(path)]) == 2
        assert "neither" in capsys.readouterr().err

    def test_trace_usage(self, capsys):
        assert main(["trace"]) == 0
        assert "repro trace view" in capsys.readouterr().out
        assert main(["trace", "bogus"]) == 2

