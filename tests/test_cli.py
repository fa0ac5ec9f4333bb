"""Tests for the ``lightor`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command_parsed(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig7"])
        assert args.command == "run"
        assert args.experiment == "fig7"
        assert args.scale == "small"

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig7", "--scale", "huge"])


class TestMain:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("fig2", "fig7", "table1"):
            assert experiment_id in output

    def test_run_fig2(self, capsys):
        assert main(["run", "fig2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_demo_runs_end_to_end(self, capsys):
        assert main(["demo", "--k", "3"]) == 0
        output = capsys.readouterr().out
        assert "red dots" in output
        assert "extracted highlights" in output


class TestStreamCommand:
    def test_stream_flags_parsed(self):
        args = build_parser().parse_args(
            ["stream", "--backend", "sqlite", "--db-path", "x.db", "--shards", "4"]
        )
        assert (args.backend, args.db_path, args.shards) == ("sqlite", "x.db", 4)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--backend", "cassandra"])

    def test_db_path_requires_sqlite(self, capsys):
        assert main(["stream", "--db-path", "x.db"]) == 1
        assert "--backend sqlite" in capsys.readouterr().out

    def test_invalid_counts_rejected(self, capsys):
        assert main(["stream", "--shards", "0"]) == 1
        assert main(["stream", "--channels", "0"]) == 1
        assert main(["stream", "--k", "0"]) == 1

    def test_resume_requires_sqlite_file(self, capsys):
        assert main(["stream", "--resume"]) == 1
        assert "--resume requires" in capsys.readouterr().out

    def test_invalid_checkpoint_cadence_rejected(self, capsys):
        assert main(["stream", "--checkpoint-every", "0"]) == 1
        assert "--checkpoint-every" in capsys.readouterr().out

    def test_unopenable_db_path_fails_cleanly(self, capsys, tmp_path):
        missing = tmp_path / "no_such_dir" / "x.db"
        assert main(["stream", "--backend", "sqlite", "--db-path", str(missing)]) == 1
        assert "cannot build the service tier" in capsys.readouterr().out

    def test_stream_help_documents_platform_flags(self, capsys):
        """The PR 2 flags must show up in --help (README mirrors this text)."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--help"])
        out = capsys.readouterr().out
        for flag in ("--backend", "--shards", "--db-path"):
            assert flag in out

    def test_sharded_sqlite_stream_end_to_end(self, capsys, tmp_path):
        db = tmp_path / "stream.db"
        argv = [
            "stream", "--channels", "1", "--shards", "2", "--quiet",
            "--backend", "sqlite", "--db-path", str(db),
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "batch parity OK" in output
        assert "persisted durably" in output
        assert (tmp_path / "stream.shard0.db").exists()
        assert (tmp_path / "stream.shard1.db").exists()
        # Reusing the files with a different shard count is refused.
        assert main(argv[:4] + ["4"] + argv[5:]) == 1
        assert "2-shard deployment" in capsys.readouterr().out


class TestLoadCommand:
    def test_load_flags_parsed(self):
        args = build_parser().parse_args(
            [
                "load", "--channels", "6", "--viewers", "300", "--duration", "1800",
                "--shards", "4", "--batch-size", "256", "--workers", "3",
                "--zipf", "0.5", "--stretch", "--backend", "sqlite", "--db-path", "x.db",
            ]
        )
        assert (args.channels, args.viewers, args.duration) == (6, 300, 1800.0)
        assert (args.shards, args.batch_size, args.workers) == (4, 256, 3)
        assert (args.zipf, args.stretch, args.backend, args.db_path) == (
            0.5, True, "sqlite", "x.db",
        )

    def test_load_db_path_requires_sqlite(self, capsys):
        assert main(["load", "--db-path", "x.db"]) == 1
        assert "--backend sqlite" in capsys.readouterr().out

    def test_load_rejects_invalid_workload(self, capsys):
        assert main(["load", "--channels", "0"]) == 1
        assert "invalid workload" in capsys.readouterr().out

    def test_load_smoke_runs_end_to_end(self, capsys):
        assert main(["load", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "events/s" in out
        assert "0 divergences" in out

    def test_load_transport_parsed_and_validated(self):
        args = build_parser().parse_args(["load", "--transport", "http"])
        assert args.transport == "http"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "--transport", "carrier-pigeon"])

    def test_load_http_transport_end_to_end(self, capsys):
        argv = [
            "load", "--transport", "http", "--channels", "2", "--viewers", "20",
            "--duration", "600", "--shards", "2", "--workers", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "transport http" in out
        assert "0 divergences" in out

    def test_load_wire_codec_parsed_and_validated(self):
        args = build_parser().parse_args(["load", "--wire-codec", "binary"])
        assert args.wire_codec == "binary"
        assert build_parser().parse_args(["load"]).wire_codec == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "--wire-codec", "msgpack"])

    def test_load_wire_codec_rejects_inproc_transport(self, capsys):
        assert main(["load", "--smoke", "--wire-codec", "binary"]) == 1
        assert "wire transports" in capsys.readouterr().out

    def test_load_binary_http_smoke_end_to_end(self, capsys):
        argv = ["load", "--smoke", "--transport", "http", "--wire-codec", "binary"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "codec binary" in out
        assert "0 divergences" in out

    def test_chaos_mode_rejects_cluster_transport(self, capsys, tmp_path):
        argv = [
            "load", "--smoke", "--kill-after", "5", "--recover", "--backend", "sqlite",
            "--db-path", str(tmp_path / "x.db"), "--transport", "cluster",
        ]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "kill/recover run failed" in out and "transport='cluster'" in out

    def test_chaos_smoke_kill_after_reshard_over_http(self, capsys, tmp_path):
        argv = [
            "load", "--smoke", "--backend", "sqlite",
            "--db-path", str(tmp_path / "chaos.db"), "--transport", "http",
            "--reshard-at", "4", "--reshard-to", "3",
            "--kill-after", "20", "--recover", "--checkpoint-every", "64",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resharded 2 -> 3 shard(s) after 4/49" in out
        assert "killed after 20/49" in out
        assert "byte-identical" in out

    def test_load_refuses_a_bad_checkpoint_cadence_without_a_kill(self, capsys):
        for cadence in ("0", "-3"):
            argv = ["load", "--smoke", "--no-oracle", "--checkpoint-every", cadence]
            assert main(argv) == 1
            assert "--checkpoint-every must be at least 1" in capsys.readouterr().out

    def test_chaos_flags_must_be_used_together(self, capsys):
        assert main(["load", "--kill-after", "5"]) == 1
        assert "--recover" in capsys.readouterr().out
        assert main(["load", "--recover"]) == 1
        assert "--kill-after" in capsys.readouterr().out

    def test_chaos_mode_requires_sqlite_file(self, capsys):
        assert main(["load", "--kill-after", "5", "--recover"]) == 1
        assert "--backend sqlite" in capsys.readouterr().out

    def test_chaos_smoke_kill_and_recover(self, capsys, tmp_path):
        argv = [
            "load", "--smoke", "--backend", "sqlite",
            "--db-path", str(tmp_path / "chaos.db"),
            "--kill-after", "15", "--recover", "--checkpoint-every", "64",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "killed after 15" in out
        assert "byte-identical" in out

    def test_chaos_mode_refuses_a_previous_runs_shard_files(self, capsys, tmp_path):
        (tmp_path / "chaos.shard0.db").write_bytes(b"")
        argv = [
            "load", "--smoke", "--backend", "sqlite",
            "--db-path", str(tmp_path / "chaos.db"),
            "--kill-after", "20", "--recover", "--checkpoint-every", "64",
        ]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "kill/recover run failed" in out
        assert "chaos.shard0.db" in out


class TestTraceAndScenarioCLI:
    SMALL = [
        "--channels", "2", "--viewers", "10", "--duration", "300",
        "--batch-size", "16", "--workers", "2",
    ]

    def test_trace_flags_parsed(self):
        args = build_parser().parse_args(
            [
                "load", "--scenario", "flash-crowd", "--record", "x.trace",
                "--max-pending-per-channel", "2",
            ]
        )
        assert (args.scenario, args.record) == ("flash-crowd", "x.trace")
        assert args.max_pending_per_channel == 2
        args = build_parser().parse_args(["load", "--replay", "y.trace"])
        assert args.replay == "y.trace"
        defaults = build_parser().parse_args(["load"])
        assert (defaults.scenario, defaults.record, defaults.replay) == (
            None, None, None,
        )
        assert defaults.max_pending_per_channel is None

    def test_per_channel_flag_parsed_on_serve_and_cluster(self):
        for command in ("serve", "cluster"):
            args = build_parser().parse_args(
                [command, "--max-pending-per-channel", "4"]
            )
            assert args.max_pending_per_channel == 4

    def test_replay_excludes_scenario_and_record(self, capsys):
        assert main(["load", "--replay", "x.trace", "--record", "y.trace"]) == 1
        assert "--replay drives a recorded workload" in capsys.readouterr().out
        assert main(["load", "--replay", "x.trace", "--scenario", "flash-crowd"]) == 1
        assert "--replay drives a recorded workload" in capsys.readouterr().out

    def test_chaos_excludes_trace_and_scenario_modes(self, capsys):
        base = [
            "load", "--kill-after", "5", "--recover", "--backend", "sqlite",
            "--db-path", "x.db",
        ]
        for extra in (
            ["--scenario", "flash-crowd"], ["--record", "x.trace"],
            ["--replay", "x.trace"],
        ):
            assert main(base + extra) == 1
            assert "chaos mode cannot be combined" in capsys.readouterr().out

    def test_per_channel_budget_validated(self, capsys):
        assert main(["load", "--smoke", "--transport", "http",
                     "--max-pending-per-channel", "0"]) == 1
        assert "at least 1" in capsys.readouterr().out
        assert main(["load", "--smoke", "--max-pending-per-channel", "1"]) == 1
        assert "wire transports" in capsys.readouterr().out
        assert main(["serve", "--max-pending-per-channel", "0"]) == 1
        assert "at least 1" in capsys.readouterr().out

    def test_unknown_scenario_lists_the_library(self, capsys):
        assert main(["load", "--scenario", "meteor-strike"] + self.SMALL) == 1
        out = capsys.readouterr().out
        assert "unknown scenario" in out
        for name in ("flash-crowd", "chat-flood", "reconnect-storm", "fairness"):
            assert name in out

    def test_scenario_knob_flags_parsed(self):
        args = build_parser().parse_args(
            [
                "load", "--scenario", "flash-crowd",
                "--scenario-surge-factor", "3",
                "--scenario-flood-factor", "7",
                "--scenario-outage-start", "0.1",
                "--scenario-outage-length", "0.5",
            ]
        )
        assert args.scenario_surge_factor == 3
        assert args.scenario_flood_factor == 7
        assert args.scenario_outage_start == 0.1
        assert args.scenario_outage_length == 0.5
        defaults = build_parser().parse_args(["load"])
        assert defaults.scenario_surge_factor is None
        assert defaults.scenario_flood_factor is None
        assert defaults.scenario_outage_start is None
        assert defaults.scenario_outage_length is None

    def test_scenario_knobs_require_scenario(self, capsys):
        assert main(["load", "--scenario-surge-factor", "3"] + self.SMALL) == 1
        assert "require --scenario" in capsys.readouterr().out

    def test_scenario_knobs_validated(self, capsys):
        argv = [
            "load", "--scenario", "flash-crowd", "--scenario-surge-factor", "0",
        ] + self.SMALL
        assert main(argv) == 1
        assert "invalid scenario knobs" in capsys.readouterr().out
        argv = [
            "load", "--scenario", "reconnect-storm",
            "--scenario-outage-start", "0.8", "--scenario-outage-length", "0.8",
        ] + self.SMALL
        assert main(argv) == 1
        assert "invalid scenario knobs" in capsys.readouterr().out

    def test_scenario_knob_drives_a_milder_surge(self, capsys):
        argv = [
            "load", "--scenario", "flash-crowd", "--scenario-surge-factor", "2",
        ] + self.SMALL
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "scenario flash-crowd" in out
        assert "0 divergences" in out

    def test_unreadable_trace_fails_cleanly(self, capsys, tmp_path):
        missing = tmp_path / "nope.trace"
        assert main(["load", "--replay", str(missing)]) == 1
        assert "cannot read trace" in capsys.readouterr().out
        garbage = tmp_path / "garbage.trace"
        garbage.write_bytes(b"NOT A TRACE AT ALL")
        assert main(["load", "--replay", str(garbage)]) == 1
        assert "cannot read trace" in capsys.readouterr().out

    def test_record_then_replay_end_to_end(self, capsys, tmp_path):
        """The tentpole loop: record a run, replay it, gate on fingerprints."""
        trace = tmp_path / "run.trace"
        assert main(["load", "--record", str(trace)] + self.SMALL) == 0
        out = capsys.readouterr().out
        assert "recorded trace:" in out
        assert "0 divergences" in out
        assert trace.exists()
        # Replay on a different topology — and a different --seed, which
        # must not matter: the model retrains from the recorded spec.
        argv = ["load", "--replay", str(trace), "--shards", "2", "--seed", "999"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "byte-identical to the recording" in out

    def test_scenario_smoke_with_recording(self, capsys, tmp_path):
        trace = tmp_path / "surge.trace"
        argv = [
            "load", "--scenario", "flash-crowd", "--record", str(trace),
        ] + self.SMALL
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "scenario flash-crowd" in out
        assert "recorded trace:" in out
        assert "0 divergences" in out
        # The recorded scenario replays like any other trace.
        assert main(["load", "--replay", str(trace)]) == 0
        assert "byte-identical to the recording" in capsys.readouterr().out

    def test_load_help_documents_trace_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "--help"])
        out = capsys.readouterr().out
        for flag in ("--scenario", "--record", "--replay", "--max-pending-per-channel"):
            assert flag in out


class TestServeCommand:
    def test_serve_flags_parsed(self):
        args = build_parser().parse_args(
            [
                "serve", "--host", "0.0.0.0", "--port", "9001", "--shards", "2",
                "--backend", "sqlite", "--db-path", "x.db", "--max-pending", "16",
                "--worker-threads", "4", "--checkpoint-every", "64",
            ]
        )
        assert (args.host, args.port, args.shards) == ("0.0.0.0", 9001, 2)
        assert (args.backend, args.db_path) == ("sqlite", "x.db")
        assert (args.max_pending, args.worker_threads, args.checkpoint_every) == (16, 4, 64)

    def test_serve_db_path_requires_sqlite(self, capsys):
        assert main(["serve", "--db-path", "x.db"]) == 1
        assert "--backend sqlite" in capsys.readouterr().out

    def test_serve_invalid_knobs_rejected(self, capsys):
        assert main(["serve", "--shards", "0"]) == 1
        assert main(["serve", "--checkpoint-every", "0"]) == 1
        assert main(["serve", "--max-pending", "0"]) == 1
        assert main(["serve", "--port", "-1"]) == 1
        assert main(["serve", "--k", "0"]) == 1

    def test_zero_k_is_refused_before_anything_binds(self, capsys):
        assert main(["serve", "--k", "0", "--port", "0"]) == 1
        out = capsys.readouterr().out
        assert "--k must be at least 1" in out and "listening on" not in out
        assert main(["cluster", "--k", "0", "--base-port", "0"]) == 1
        out = capsys.readouterr().out
        assert "--k must be at least 1" in out and "listening on" not in out

    def test_serve_unopenable_db_path_fails_cleanly(self, capsys, tmp_path):
        missing = tmp_path / "no_such_dir" / "x.db"
        assert main(["serve", "--backend", "sqlite", "--db-path", str(missing)]) == 1
        assert "cannot build the service tier" in capsys.readouterr().out

    def test_serve_help_documents_gateway_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        out = capsys.readouterr().out
        for flag in (
            "--max-pending", "--checkpoint-every", "--backend", "--port",
            "--wire-codec",
        ):
            assert flag in out

    def test_serve_wire_codec_parsed_and_validated(self):
        args = build_parser().parse_args(["serve", "--wire-codec", "binary"])
        assert args.wire_codec == "binary"
        assert build_parser().parse_args(["serve"]).wire_codec == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--wire-codec", "msgpack"])
        args = build_parser().parse_args(["cluster", "--wire-codec", "binary"])
        assert args.wire_codec == "binary"


class TestRecoverCommand:
    def test_recover_requires_db_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recover"])

    def test_recover_reports_empty_database(self, capsys, tmp_path):
        assert main(["recover", "--db-path", str(tmp_path / "empty.db")]) == 0
        assert "no checkpointed live sessions" in capsys.readouterr().out

    def test_recover_reports_and_ends_a_killed_run(self, capsys, tmp_path):
        from repro import LightorConfig
        from repro.core.initializer.initializer import HighlightInitializer
        from repro.datasets import DatasetSpec, build_dataset
        from repro.platform.sharding import ShardedLightorService

        # A "killed" run: drive live chat into a durable tier, then drop the
        # file handles without any shutdown.
        db_path = tmp_path / "killed.db"
        dataset = build_dataset(DatasetSpec.dota2(size=2, seed=2020))
        initializer = HighlightInitializer(config=LightorConfig())
        initializer.fit([dataset[0].training_pair])
        service = ShardedLightorService.create(
            1, initializer, backend="sqlite", db_path=db_path, checkpoint_every=100
        )
        target = dataset[1]
        service.start_live(target.video)
        service.ingest_chat_batch(
            target.video.video_id, list(target.chat_log.messages[:500]), persist=True
        )
        for shard in service.shards:
            shard.store.close()

        assert main(["recover", "--db-path", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert "recovered 1 live session(s)" in out
        assert "500 messages" in out

        assert main(["recover", "--db-path", str(db_path), "--end"]) == 0
        out = capsys.readouterr().out
        assert "finalized with" in out

        assert main(["recover", "--db-path", str(db_path)]) == 0
        assert "no checkpointed live sessions" in capsys.readouterr().out


def _flag_table(parser):
    """``{subcommand: {flag: (dest, default, type, choices, required)}}``."""
    import argparse

    (subparsers,) = (
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {
            (action.option_strings[-1] if action.option_strings else action.dest): (
                action.dest,
                action.default,
                getattr(action.type, "__name__", None),
                None if action.choices is None else tuple(action.choices),
                action.required,
            )
            for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for name, subparser in subparsers.choices.items()
    }


_BACKENDS = ("memory", "sqlite")
_CODECS = ("json", "binary")

# Every subcommand's flags as the parser declares them: dest, default, type,
# choices and whether the flag is required.  Scripts, CI steps and the docs
# call these; a consolidation of the parser must leave every row as is.
PARSER_CONTRACT = {
    "list": {},
    "run": {
        "experiment": ("experiment", None, None, None, True),
        "--scale": ("scale", "small", None, ("small", "medium", "paper"), False),
    },
    "run-all": {
        "--scale": ("scale", "small", None, ("small", "medium", "paper"), False),
    },
    "demo": {
        "--k": ("k", 5, "int", None, False),
        "--seed": ("seed", 2020, "int", None, False),
    },
    "stream": {
        "--channels": ("channels", 2, "int", None, False),
        "--k": ("k", 5, "int", None, False),
        "--seed": ("seed", 2020, "int", None, False),
        "--emit-every-messages": ("emit_every_messages", 50, "int", None, False),
        "--emit-every-seconds": ("emit_every_seconds", 30.0, "float", None, False),
        "--quiet": ("quiet", False, None, None, False),
        "--backend": ("backend", "memory", None, _BACKENDS, False),
        "--db-path": ("db_path", None, None, None, False),
        "--shards": ("shards", 1, "int", None, False),
        "--checkpoint-every": ("checkpoint_every", None, "int", None, False),
        "--resume": ("resume", False, None, None, False),
    },
    "recover": {
        "--db-path": ("db_path", None, None, None, True),
        "--shards": ("shards", 1, "int", None, False),
        "--seed": ("seed", 2020, "int", None, False),
        "--end": ("end", False, None, None, False),
    },
    "serve": {
        "--host": ("host", "127.0.0.1", None, None, False),
        "--port": ("port", 8765, "int", None, False),
        "--shards": ("shards", 1, "int", None, False),
        "--backend": ("backend", "memory", None, _BACKENDS, False),
        "--db-path": ("db_path", None, None, None, False),
        "--checkpoint-every": ("checkpoint_every", None, "int", None, False),
        "--max-pending": ("max_pending", 64, "int", None, False),
        "--worker-threads": ("worker_threads", 8, "int", None, False),
        "--max-pending-per-channel": ("max_pending_per_channel", None, "int", None, False),
        "--k": ("k", None, "int", None, False),
        "--max-live-sessions": ("max_live_sessions", 64, "int", None, False),
        "--seed": ("seed", 2020, "int", None, False),
        "--wire-codec": ("wire_codec", "json", None, _CODECS, False),
        "--shard-index": ("shard_index", None, "int", None, False),
    },
    "cluster": {
        "--shards": ("shards", 2, "int", None, False),
        "--host": ("host", "127.0.0.1", None, None, False),
        "--base-port": ("base_port", 8765, "int", None, False),
        "--backend": ("backend", "memory", None, _BACKENDS, False),
        "--db-path": ("db_path", None, None, None, False),
        "--seed": ("seed", 2020, "int", None, False),
        "--k": ("k", None, "int", None, False),
        "--max-live-sessions": ("max_live_sessions", 64, "int", None, False),
        "--checkpoint-every": ("checkpoint_every", None, "int", None, False),
        "--max-pending": ("max_pending", 64, "int", None, False),
        "--worker-threads": ("worker_threads", 8, "int", None, False),
        "--max-pending-per-channel": ("max_pending_per_channel", None, "int", None, False),
        "--boot-timeout": ("boot_timeout", 60.0, "float", None, False),
        "--wire-codec": ("wire_codec", "json", None, _CODECS, False),
    },
    "load": {
        "--channels": ("channels", 8, "int", None, False),
        "--viewers": ("viewers", 400, "int", None, False),
        "--duration": ("duration", 3600.0, "float", None, False),
        "--shards": ("shards", 2, "int", None, False),
        "--backend": ("backend", "memory", None, _BACKENDS, False),
        "--db-path": ("db_path", None, None, None, False),
        "--batch-size": ("batch_size", 64, "int", None, False),
        "--workers": ("workers", 4, "int", None, False),
        "--transport": ("transport", "inproc", None, ("inproc", "http", "cluster"), False),
        "--wire-codec": ("wire_codec", "json", None, _CODECS, False),
        "--zipf": ("zipf", 1.0, "float", None, False),
        "--seed": ("seed", 2020, "int", None, False),
        "--stretch": ("stretch", False, None, None, False),
        "--no-oracle": ("no_oracle", False, None, None, False),
        "--smoke": ("smoke", False, None, None, False),
        "--kill-after": ("kill_after", None, "int", None, False),
        "--recover": ("recover", False, None, None, False),
        "--checkpoint-every": ("checkpoint_every", 256, "int", None, False),
        "--scenario": ("scenario", None, None, None, False),
        "--scenario-surge-factor": ("scenario_surge_factor", None, "int", None, False),
        "--scenario-flood-factor": ("scenario_flood_factor", None, "int", None, False),
        "--scenario-outage-start": ("scenario_outage_start", None, "float", None, False),
        "--scenario-outage-length": ("scenario_outage_length", None, "float", None, False),
        "--record": ("record", None, None, None, False),
        "--replay": ("replay", None, None, None, False),
        "--max-pending-per-channel": ("max_pending_per_channel", None, "int", None, False),
        "--reshard-at": ("reshard_at", None, "int", None, False),
        "--reshard-to": ("reshard_to", None, "int", None, False),
    },
    "reshard": {
        "--db-path": ("db_path", None, None, None, True),
        "--shards": ("shards", None, "int", None, True),
        "--to": ("to", None, "int", None, True),
        "--seed": ("seed", 2020, "int", None, False),
    },
    "lint": {
        "paths": ("paths", [], None, None, False),
        "--baseline": ("baseline", None, None, None, False),
        "--write-baseline": ("write_baseline", None, None, None, False),
        "--rules": ("rules", False, None, None, False),
    },
}


class TestParserContract:
    @pytest.mark.parametrize("command", sorted(PARSER_CONTRACT))
    def test_subcommand_flags(self, command):
        assert _flag_table(build_parser())[command] == PARSER_CONTRACT[command]

    def test_no_subcommand_is_undeclared(self):
        assert set(_flag_table(build_parser())) == set(PARSER_CONTRACT)

    @pytest.mark.parametrize(
        "argv",
        [
            ["recover"],
            ["reshard", "--shards", "2", "--to", "3"],
            ["reshard", "--db-path", "x.db", "--to", "3"],
            ["reshard", "--db-path", "x.db", "--shards", "2"],
        ],
    )
    def test_required_flags_are_enforced(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
