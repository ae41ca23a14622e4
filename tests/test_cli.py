"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--iterations", "3", "--seed", "2"],
            ["table4"],
            ["lmbench", "--reps", "2"],
            ["litmus"],
            ["ofence"],
            ["bugs"],
            ["throughput", "--iterations", "2"],
            ["lint", "--subsystem", "vlan"],
            ["fuzz", "--iterations", "2", "--static-hints"],
            ["fuzz", "--shard-timeout", "5", "--checkpoint-dir", "d",
             "--checkpoint-every", "3", "--max-retries", "1"],
            ["fuzz", "--resume", "ckpt"],
            ["docs", "--check"],
            ["serve", "--port", "0", "--state-dir", "d",
             "--max-concurrent", "1"],
        ],
        ids=lambda a: a[0],
    )
    def test_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.fn)


class TestExecution:
    def test_bugs_lists_registry(self, capsys):
        assert main(["bugs"]) == 0
        out = capsys.readouterr().out
        assert "t3_rds_xmit" in out and "t4_unix" in out

    def test_fuzz_small_campaign(self, capsys):
        assert main(["fuzz", "--iterations", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "tests in" in out

    def test_fuzz_with_patches(self, capsys):
        code = main([
            "fuzz", "--iterations", "2", "--seed", "1",
            "--patch", "t4_watch_queue", "--patch", "t3_wq_find_first_bit",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipe_read" not in out  # the patched bug stayed silent

    def test_ofence_matches_paper(self, capsys):
        assert main(["ofence"]) == 0
        assert "8/11" in capsys.readouterr().out

    def test_lmbench_small(self, capsys):
        assert main(["lmbench", "--reps", "1"]) == 0
        assert "Overhead" in capsys.readouterr().out


class TestLint:
    def test_lint_finds_seeded_bugs_and_exits_1(self, capsys):
        # The built-in kernel is deliberately buggy: findings => exit 1.
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "missing-barrier" in out

    def test_lint_subsystem_filter(self, capsys):
        assert main(["lint", "--subsystem", "vlan"]) == 1
        out = capsys.readouterr().out
        assert "sys_vlan_add" in out
        assert "sys_nbd_ioctl" not in out

    def test_lint_unknown_subsystem_is_usage_error(self, capsys):
        assert main(["lint", "--subsystem", "nope"]) == 2
        assert "unknown subsystem" in capsys.readouterr().err

    def test_lint_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "lint.json"
        assert main(["lint", "--subsystem", "vlan", "--json", str(path)]) == 1
        import json

        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert payload["counts"]["missing-barrier"] > 0
        assert payload["counts"]["race-candidate"] > 0
        assert all(f["subsystem"] == "vlan" for f in payload["findings"])

    def test_lint_explain_prints_witness(self, capsys):
        assert main(["lint", "--subsystem", "vlan", "--explain"]) == 1
        out = capsys.readouterr().out
        assert "race-candidate" in out
        assert "writer:" in out and "other:" in out
        assert " -> " in out or "sys_vlan" in out

    def test_lint_format_json_stdout(self, capsys):
        import json

        assert main(["lint", "--subsystem", "vlan",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2

    def test_lint_format_sarif_stdout(self, capsys):
        import json

        assert main(["lint", "--subsystem", "vlan",
                     "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "kira"

    def test_lint_no_races_skips_engine(self, capsys):
        assert main(["lint", "--subsystem", "vlan", "--no-races"]) == 1
        out = capsys.readouterr().out
        assert "race-candidate" not in out

    def test_fuzz_static_hints_campaign(self, capsys):
        assert main(["fuzz", "--iterations", "2", "--seed", "1",
                     "--static-hints"]) == 0
        assert "tests in" in capsys.readouterr().out


class TestReplay:
    def test_replay_parses(self):
        args = build_parser().parse_args(["replay", "crash.json"])
        assert callable(args.fn) and args.artifact == "crash.json"

    def test_fuzz_artifacts_then_replay_ok(self, tmp_path, capsys):
        outdir = tmp_path / "artifacts"
        assert main(["fuzz", "--iterations", "4", "--seed", "1",
                     "--artifacts", str(outdir)]) == 0
        paths = sorted(outdir.glob("*.json"))
        assert paths, "fuzz --artifacts wrote nothing"
        capsys.readouterr()
        assert main(["replay", str(paths[0])]) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out and "byte-for-byte" in out

    def test_replay_detects_forged_artifact(self, tmp_path, capsys):
        import json

        outdir = tmp_path / "artifacts"
        assert main(["fuzz", "--iterations", "4", "--seed", "1",
                     "--artifacts", str(outdir)]) == 0
        path = sorted(outdir.glob("*.json"))[0]
        payload = json.loads(path.read_text())
        payload["crash"]["oracle"] = "never-this-oracle"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["replay", str(path)]) == 1
        assert "replay FAILED" in capsys.readouterr().out

    def test_replay_rejects_non_artifact(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text('{"kind": "not-an-artifact"}')
        assert main(["replay", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_garbage_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json at all")
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "invalid JSON" in err

    def test_replay_future_schema_exits_2_with_hint(self, tmp_path, capsys):
        import json

        path = tmp_path / "future.json"
        path.write_text(json.dumps(
            {"kind": "ozz-crash-artifact", "version": 99}
        ))
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert "schema version 99" in err
        assert "newer than this tool" in err

    def test_replay_missing_file_is_io_error(self, tmp_path):
        assert main(["replay", str(tmp_path / "missing.json")]) == 2


class TestSupervisedFuzz:
    def test_fuzz_supervised_flags(self, capsys):
        assert main(["fuzz", "--iterations", "4", "--jobs", "2",
                     "--shard-timeout", "10"]) == 0
        out = capsys.readouterr().out
        assert "tests in" in out and "shard 1" in out

    def test_fuzz_checkpoint_then_resume(self, tmp_path, capsys):
        d = str(tmp_path / "ckpt")
        assert main(["fuzz", "--iterations", "4", "--jobs", "2",
                     "--checkpoint-dir", d]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--resume", d]) == 0
        resumed = capsys.readouterr().out
        # Both runs report the same crash summary (resume loads all
        # completed shards from disk instead of re-fuzzing).
        assert first.splitlines()[0] == resumed.splitlines()[0]

    def test_fuzz_resume_missing_checkpoint_is_error(self, tmp_path, capsys):
        assert main(["fuzz", "--resume", str(tmp_path / "nope")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_fuzz_resume_truncated_manifest_is_error(self, tmp_path, capsys):
        (tmp_path / "campaign.json").write_text('{"version": 2, "kind": "ozz')
        assert main(["fuzz", "--resume", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "campaign.json" in err

    def test_fuzz_injected_death_recovers(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "die:1:1")
        assert main(["fuzz", "--iterations", "4", "--jobs", "2",
                     "--shard-timeout", "10"]) == 0
        out = capsys.readouterr().out
        assert "retry: shard 1" in out

    def test_fuzz_abandoned_shard_exits_1(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "error:1:0:persistent")
        assert main(["fuzz", "--iterations", "4", "--jobs", "2",
                     "--max-retries", "0", "--shard-timeout", "10"]) == 1
        captured = capsys.readouterr()
        assert "FAILED: shard 1" in captured.err
        assert "tests in" in captured.out  # survivors still merged


def seeded_service_md(tmp_path):
    """A minimal service doc with the generated-section markers."""
    from repro.docsgen import REST_BEGIN, REST_END

    path = tmp_path / "service.md"
    path.write_text(f"# service\n\nprose\n\n{REST_BEGIN}\n{REST_END}\n\nmore\n")
    return str(path)


class TestDocs:
    def test_docs_writes_and_checks(self, tmp_path, capsys):
        path = str(tmp_path / "cli.md")
        svc = seeded_service_md(tmp_path)
        assert main(["docs", "--out", path, "--service-out", svc]) == 0
        assert main(["docs", "--out", path, "--service-out", svc,
                     "--check"]) == 0
        text = open(path).read()
        assert "repro fuzz" in text and "--resume" in text
        assert "repro serve" in text

    def test_docs_fills_rest_section_between_markers(self, tmp_path):
        path = str(tmp_path / "cli.md")
        svc = seeded_service_md(tmp_path)
        assert main(["docs", "--out", path, "--service-out", svc]) == 0
        text = open(svc).read()
        assert "GET /api/health" in text
        assert "POST /api/campaigns" in text
        # hand-written prose around the markers is preserved
        assert text.startswith("# service\n\nprose\n")
        assert text.rstrip().endswith("more")

    def test_docs_check_detects_staleness(self, tmp_path, capsys):
        path = str(tmp_path / "cli.md")
        svc = seeded_service_md(tmp_path)
        assert main(["docs", "--out", path, "--service-out", svc]) == 0
        with open(path, "a") as fh:
            fh.write("drift\n")
        capsys.readouterr()
        assert main(["docs", "--out", path, "--service-out", svc,
                     "--check"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_docs_check_detects_stale_rest_section(self, tmp_path, capsys):
        path = str(tmp_path / "cli.md")
        svc = seeded_service_md(tmp_path)
        assert main(["docs", "--out", path, "--service-out", svc]) == 0
        # un-fill the generated section: markers intact, content gone
        seeded_service_md(tmp_path)
        capsys.readouterr()
        assert main(["docs", "--out", path, "--service-out", svc,
                     "--check"]) == 1
        assert "route table changed" in capsys.readouterr().err

    def test_docs_check_missing_markers(self, tmp_path, capsys):
        path = str(tmp_path / "cli.md")
        good = seeded_service_md(tmp_path)
        assert main(["docs", "--out", path, "--service-out", good]) == 0
        bad = tmp_path / "bad.md"
        bad.write_text("# no markers here\n")
        capsys.readouterr()
        assert main(["docs", "--out", path, "--service-out", str(bad),
                     "--check"]) == 1
        assert "markers" in capsys.readouterr().err

    def test_docs_check_missing_file(self, tmp_path, capsys):
        svc = seeded_service_md(tmp_path)
        assert main(["docs", "--out", str(tmp_path / "no.md"),
                     "--service-out", svc, "--check"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_committed_docs_are_current(self):
        # The repo's docs/cli.md must match the live argparse tree and
        # docs/service.md's generated section must match the route
        # table; CI enforces this, but catch it locally first.
        import os

        from repro.docsgen import check_cli_markdown, check_service_markdown

        docs = os.path.join(os.path.dirname(__file__), "..", "docs")
        assert check_cli_markdown(
            build_parser(), os.path.join(docs, "cli.md")
        ) is None
        assert check_service_markdown(os.path.join(docs, "service.md")) is None
