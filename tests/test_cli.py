"""Command-line interface."""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.cli import _COMMANDS, build_parser, main
from repro.flow import ReproConfig
from repro.flow.session import resolve_circuit


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "figure1" in out and "s27" in out


def test_stats(capsys):
    assert main(["stats", "figure1"]) == 0
    assert "'ffs': 6" in capsys.readouterr().out


def test_learn_verbose_validate(capsys):
    assert main(["learn", "figure1", "-v", "--validate", "10"]) == 0
    out = capsys.readouterr().out
    assert "G15" in out
    assert "0 violations" in out


def test_learn_flags(capsys):
    assert main(["learn", "figure1", "--no-multi", "--no-equiv"]) == 0
    out = capsys.readouterr().out
    assert "'ties': 2" in out  # G15 needs the multi phase


def test_analyze(capsys):
    assert main(["analyze", "figure1"]) == 0
    assert "density of encoding" in capsys.readouterr().out


def test_untestable(capsys):
    assert main(["untestable", "figure1"]) == 0
    assert "tie_gates" in capsys.readouterr().out


def test_atpg_small(capsys):
    assert main(["atpg", "s27", "--backtrack-limit", "100",
                 "--window", "8"]) == 0
    out = capsys.readouterr().out
    assert "mode=none" in out and "mode=known" in out


def test_resolve_like_profile():
    circuit = resolve_circuit("like:s382@0.5")
    assert circuit.num_ffs == 10


def test_resolve_retime():
    base = resolve_circuit("s27")
    retimed = resolve_circuit("s27", retime=2)
    assert retimed.num_ffs > base.num_ffs


def test_resolve_bench_file(tmp_path):
    from repro.circuit import bench_text, figure2

    path = tmp_path / "fig2.bench"
    path.write_text(bench_text(figure2()))
    circuit = resolve_circuit(str(path))
    assert circuit.num_ffs == 5


@pytest.mark.parametrize("argv", [
    ["learn", "s27"],
    ["atpg", "s27"],
    ["faultsim", "s27"],
    ["compare", "s27"],
    ["suite", "s27"],
], ids=lambda argv: argv[0])
def test_flagless_command_builds_the_default_config(argv):
    """With no knob flags the request carries exactly the dataclass
    defaults, so ``repro atpg s27`` and ``ATPGRequest(spec="s27")``
    compute the same thing (the ATPG window is
    ``ATPGConfig.max_frames``)."""
    args = build_parser().parse_args(argv)
    build_request, _ = _COMMANDS[args.command]
    assert build_request(args).config == ReproConfig()


def test_knob_flags_reach_the_config():
    args = build_parser().parse_args(
        ["suite", "s27", "--window", "3", "--backtrack-limit", "7",
         "--max-frames", "9", "--max-faults", "5", "--retime", "1",
         "--jobs", "2"])
    config = _COMMANDS["suite"][0](args).config
    assert (config.atpg.max_frames, config.atpg.backtrack_limit,
            config.atpg.max_faults) == (3, 7, 5)
    assert (config.learn.max_frames, config.retime, config.jobs) == (9, 1, 2)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_atpg_rejects_removed_array_backend(capsys):
    """Schema version 6 removed the 'array' backend; argparse rejects
    it with its usage-error exit code."""
    with pytest.raises(SystemExit) as exc:
        main(["atpg", "s27", "--backend", "array"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_selector_flags_are_usage_errors(capsys):
    """Schema version 9 removed the backend and engine selectors and
    the daemon's streaming switches: tests reach the oracles through
    the library factories, and /v1/stream is always on."""
    for argv in (["atpg", "s27", "--backend", "reference"],
                 ["atpg", "s27", "--atpg-engine", "reference"],
                 ["learn", "s27", "--backend", "compiled"],
                 ["compare", "s27", "--atpg-engine", "incremental"],
                 ["serve", "--no-stream"],
                 ["serve", "--stream"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_resolve_missing_bench_path_clear_error():
    with pytest.raises(SystemExit, match="cannot read bench file"):
        main(["stats", "/no/such/path.bench"])


def test_resolve_unknown_profile_clear_error():
    with pytest.raises(SystemExit, match="unknown profile"):
        main(["stats", "like:not_a_real_profile"])


def test_list_and_stats_json(capsys):
    assert main(["list", "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert "figure1" in listed["circuits"]

    assert main(["stats", "figure1", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["ffs"] == 6 and len(stats["fingerprint"]) == 64


def test_learn_json_output(capsys):
    assert main(["learn", "figure1", "--json", "--validate", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "learn"
    assert payload["learn"]["ties"] == 3
    assert payload["validation"]["violations"] == []


def test_learn_save_then_atpg_learned(tmp_path, capsys):
    artifact = str(tmp_path / "figure1.learn.json")
    assert main(["learn", "figure1", "--save", artifact]) == 0
    assert os.path.exists(artifact)
    capsys.readouterr()

    assert main(["atpg", "figure1", "--learned", artifact,
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "atpg"
    assert payload["artifact"] == artifact
    # Learning was loaded from the artifact, not re-run.
    learn_stages = [s for s in payload["stages"]
                    if s["stage"] == "learn"]
    assert learn_stages[0]["artifact"] == artifact
    assert set(payload["atpg"]) == {"none", "forbidden", "known"}
    for row in payload["atpg"].values():
        assert row["total"] == row["det"] + row["untest"] + row["aborted"]


def test_atpg_learned_stale_artifact(tmp_path, capsys):
    artifact = str(tmp_path / "figure1.learn.json")
    assert main(["learn", "figure1", "--save", artifact]) == 0
    with pytest.raises(SystemExit, match="does not match"):
        main(["atpg", "s27", "--learned", artifact])


def test_atpg_single_mode(capsys):
    assert main(["atpg", "figure1", "--mode", "known", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["atpg"]) == {"known"}


def test_atpg_mode_none_skips_learning(capsys):
    assert main(["atpg", "figure1", "--mode", "none", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["atpg"]) == {"none"}
    assert all(s["stage"] != "learn" for s in payload["stages"])


def test_atpg_mode_none_still_validates_explicit_artifact(tmp_path):
    artifact = str(tmp_path / "figure1.learn.json")
    assert main(["learn", "figure1", "--save", artifact]) == 0
    # A stale artifact must fail loudly even for the no-learning baseline.
    with pytest.raises(SystemExit, match="does not match"):
        main(["atpg", "s27", "--learned", artifact, "--mode", "none"])


def test_suite_command(tmp_path, capsys):
    out = str(tmp_path / "suite.json")
    assert main(["suite", "figure1", "s27", "--mode", "known",
                 "--max-faults", "20", "--json", "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "suite"
    assert payload["circuits"] == 2 and payload["errors"] == []
    with open(out) as handle:
        saved = json.load(handle)
    assert saved["format"] == "repro/suite-report"
    assert {r["circuit"] for r in saved["reports"]} == {"figure1", "s27"}


def test_suite_jobs_report_identical_to_serial(capsys):
    argv = ["suite", "figure1", "s27", "--mode", "known",
            "--max-faults", "20", "--json", "--canonical"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_suite_bad_spec_exits_nonzero_and_keeps_going(capsys):
    assert main(["suite", "figure1", "like:nope", "--mode", "known",
                 "--max-faults", "10", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["circuits"] == 1
    assert payload["errors"][0]["stage"] == "resolve"


@pytest.mark.parametrize("argv", (["list"], ["stats", "figure1", "--json"],
                                  ["suite", "figure1", "s27", "--mode",
                                   "known", "--max-faults", "10"]))
def test_closed_stdout_exits_quietly(argv):
    """`repro ... | head`: the reader goes away before the output is
    written, and the CLI ends with the SIGPIPE status and no traceback."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")
           + (os.pathsep + path if path else "")}
    proc = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 128 + signal.SIGPIPE
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
