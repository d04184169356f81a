"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out and "repro.core" in out


def test_zipf(capsys):
    assert main(["zipf", "--groups", "5000", "--beta", "1.0", "--top", "500"]) == 0
    out = capsys.readouterr().out
    assert "top-500" in out
    # The Figure 2 anchor: ~70% coverage.
    assert any(token.endswith("%") for token in out.split())


def test_zipf_top_clipped(capsys):
    assert main(["zipf", "--groups", "10", "--top", "99"]) == 0
    assert "top-10" in capsys.readouterr().out


def test_partition_from_file(tmp_path, capsys):
    path = tmp_path / "intervals.txt"
    path.write_text("# comment\n0 10\n2 8\n50 60\n\n")
    assert main(["partition", str(path), "--alpha", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "tau = 2" in out
    assert "HOTSPOT" in out


def test_partition_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("\n")
    assert main(["partition", str(path)]) == 1


def test_partition_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(SystemExit):
        main(["partition", str(path)])


def test_verb_set_is_explicit():
    """A verb can neither vanish nor come back unnoticed."""
    (verbs,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(verbs) == [
        "fuzz", "info", "lint", "partition", "recover",
        "replay", "serve", "stats", "top", "zipf",
    ]


@pytest.mark.parametrize("verb", ["bench", "validate", "racecheck"])
def test_removed_verbs_are_usage_errors(verb, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([verb])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_lint_concurrency_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", "--concurrency"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --concurrency" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_info_lists_runtime(capsys):
    assert main(["info"]) == 0
    assert "repro.runtime" in capsys.readouterr().out


def test_replay_small_stream(capsys):
    assert main([
        "replay", "--events", "300", "--queries", "30", "--shards", "3",
        "--batch-size", "16", "--seed", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT" in out
    assert "router:" in out


def test_replay_churn_verbose(capsys):
    assert main([
        "replay", "--events", "300", "--queries", "30", "--churn", "0.5",
        "--delete-fraction", "0.4", "--verbose",
    ]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT" in out
    assert "pipeline/events_applied" in out


def test_fuzz_clean_run(capsys):
    assert main(["fuzz", "--ops", "200", "--seed", "0", "--check-every", "16"]) == 0
    out = capsys.readouterr().out
    assert "zero divergences" in out
    assert "200 ops applied" in out


def test_fuzz_target_subset(capsys):
    assert main(["fuzz", "--ops", "150", "--targets", "lazy,tracker"]) == 0
    out = capsys.readouterr().out
    assert "lazy, tracker" in out


def test_fuzz_help_names_every_target(capsys):
    from repro.check import TARGET_FACTORIES

    with pytest.raises(SystemExit):
        main(["fuzz", "--help"])
    # Wrapping may break a line at any space or after a hyphen.
    text = "".join(capsys.readouterr().out.split())
    for name in TARGET_FACTORIES:
        assert name in text


def test_fuzz_unknown_target_rejected():
    with pytest.raises(ValueError):
        main(["fuzz", "--ops", "10", "--targets", "quantum"])


def test_fuzz_replay_clean_reproducer(tmp_path, capsys):
    from repro.check import reproducer_dict, save_reproducer
    from repro.check.ops import FuzzConfig, generate_ops
    from repro.check.runner import DivergenceRecord

    ops = generate_ops(FuzzConfig(seed=1, n_ops=60))
    path = tmp_path / "repro.json"
    # A reproducer whose recorded divergence no longer fires (e.g. after the
    # bug it convicted was fixed) replays clean and exits 0.
    save_reproducer(
        str(path),
        reproducer_dict(
            ops, DivergenceRecord(0, "lazy", "stale"), targets=["lazy"], seed=1
        ),
    )
    assert main(["fuzz", "--replay", str(path)]) == 0
    assert "no longer diverges" in capsys.readouterr().out


def test_serve_reports_metrics(capsys):
    assert main([
        "serve", "--events", "400", "--queries", "20", "--shards", "2",
        "--report-every", "200",
    ]) == 0
    out = capsys.readouterr().out
    assert "events/s" in out
    assert "pipeline/events_applied" in out


def test_info_lists_durability(capsys):
    assert main(["info"]) == 0
    assert "repro.durability" in capsys.readouterr().out


def test_serve_wal_then_recover_round_trip(tmp_path, capsys):
    wal_dir = tmp_path / "wal"
    assert main([
        "serve", "--events", "400", "--queries", "20", "--shards", "2",
        "--report-every", "200", "--wal-dir", str(wal_dir),
        "--checkpoint-every", "150", "--fsync", "never",
    ]) == 0
    out = capsys.readouterr().out
    assert "recovery: no checkpoint" in out          # fresh directory
    assert "durability/wal_append_seconds" in out

    assert main(["recover", "--wal-dir", str(wal_dir)]) == 0
    out = capsys.readouterr().out
    assert "checkpoint@" in out
    assert "recovered state:" in out


def test_serve_wal_resumes_completed_stream(tmp_path, capsys):
    wal_dir = tmp_path / "wal"
    args = [
        "serve", "--events", "300", "--queries", "15", "--shards", "2",
        "--report-every", "200", "--wal-dir", str(wal_dir), "--fsync", "never",
    ]
    assert main(args) == 0
    capsys.readouterr()
    # Second run recovers everything and has nothing left to serve.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "resuming the deterministic stream" in out
    assert "served 0 events" in out


@pytest.mark.parametrize(
    "flag", [["--policy", "block"], ["--queue-capacity", "8"], ["--max-delay", "0.5"]],
    ids=["--policy", "--queue-capacity", "--max-delay"],
)
def test_removed_runtime_flags_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--events", "10", *flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,bound",
    [
        (["replay", "--batch-size", "0"], ">= 1"),
        (["serve", "--batch-size", "0"], ">= 1"),
        (["replay", "--shards", "0"], ">= 1"),
        (["serve", "--shards", "-1"], ">= 1"),
        (["serve", "--report-every", "0"], ">= 1"),
        (["serve", "--checkpoint-every", "-1"], ">= 0"),
        (["serve", "--snapshot-max-bytes", "-5"], ">= 1"),
        (["serve", "--metrics-port", "70000"], "<= 65535"),
        (["serve", "--metrics-port", "-1"], ">= 0"),
    ],
    ids=["replay-batch-size", "serve-batch-size", "replay-shards", "serve-shards",
         "serve-report-every", "serve-checkpoint-every", "serve-snapshot-max-bytes",
         "serve-metrics-port", "serve-metrics-port-negative"],
)
def test_out_of_range_runtime_arguments_are_usage_errors(argv, bound, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--events", "10"])
    assert exit_info.value.code == 2
    assert f"argument {argv[1]}: must be {bound}, got {argv[2]}" in capsys.readouterr().err


def test_recover_empty_directory(tmp_path, capsys):
    assert main(["recover", "--wal-dir", str(tmp_path / "nothing")]) == 0
    out = capsys.readouterr().out
    assert "no checkpoint" in out
    assert "0 subscription(s)" in out


def test_fuzz_durability_target(capsys):
    assert main([
        "fuzz", "--ops", "120", "--targets", "pipeline/inline/24/durable",
        "--check-every", "24",
    ]) == 0
    assert "zero divergences" in capsys.readouterr().out
