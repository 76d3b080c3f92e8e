"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands
--------
learn CIRCUIT        run sequential learning; ``--save FILE`` persists it
atpg CIRCUIT         ATPG comparison; ``--learned FILE`` skips relearning
faultsim CIRCUIT     grade generated tests against the full fault list
compare CIRCUIT      the paper's Table-5 protocol over backtrack limits
suite CIRCUIT...     batch pipeline over many circuits (JSON report);
                     ``--jobs N`` shards them over N worker processes
untestable CIRCUIT   tie-gate vs FIRES untestability comparison
analyze CIRCUIT      density of encoding (small circuits)
stats CIRCUIT        structural statistics
list                 list built-in circuit names
serve                run the warm JSON-over-HTTP daemon
coordinator C...     serve one suite to workers, one circuit per unit
worker               lease and execute units from a coordinator

Every command takes ``--json`` for machine-readable output on stdout.
CIRCUIT is a built-in name (``figure1``, ``s27``, ...), a profile name
prefixed with ``like:`` (``like:s382`` or ``like:s382@0.5``), or a path
to an ISCAS-89 ``.bench`` file.

This module is a pure adapter: argv parses into a typed
:mod:`repro.api` request, :func:`repro.api.execute` runs it, and the
response envelope renders as text or JSON.  ``--json`` output *is* the
versioned envelope (``schema_version``, ``command``, ``ok``, result
fields inlined) -- byte-identical to what ``repro serve`` answers for
the same request document.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional

from .api import (
    ArtifactStore,
    ATPGRequest,
    AnalyzeRequest,
    CompareRequest,
    FaultSimRequest,
    LearnRequest,
    ListRequest,
    ProgressEvent,
    Request,
    Response,
    StatsRequest,
    SuiteRequest,
    UntestableRequest,
    execute,
)
from .core import LearnConfig
from .flow import (
    ATPG_ENGINES,
    ATPG_MODES,
    SIM_BACKENDS,
    ATPGConfig,
    ReproConfig,
)


# ----------------------------------------------------------------------
# argv -> request
# ----------------------------------------------------------------------
def _given(**flags) -> dict:
    """The flags given on the command line (argparse leaves the rest
    ``None``), so the dataclass defaults fill in everything else."""
    return {name: value for name, value in flags.items()
            if value is not None}


def _config(args) -> ReproConfig:
    """The request config: each knob flag the command line gave, the
    :mod:`repro.flow.config` default for every other knob."""
    flag = vars(args).get
    return ReproConfig(
        learn=LearnConfig(**_given(
            max_frames=flag("max_frames"),
            use_multi_node=False if flag("no_multi") else None,
            use_equivalence=False if flag("no_equiv") else None)),
        atpg=ATPGConfig(**_given(
            backtrack_limit=flag("backtrack_limit"),
            max_frames=flag("window"),
            max_faults=flag("max_faults"),
            sim_backend=flag("backend"),
            atpg_engine=flag("atpg_engine"))),
        **_given(retime=flag("retime"), jobs=flag("jobs")))


def _req_list(args) -> Request:
    return ListRequest()


def _req_stats(args) -> Request:
    return StatsRequest(spec=args.circuit, config=_config(args))


def _req_learn(args) -> Request:
    return LearnRequest(
        spec=args.circuit,
        config=_config(args),
        save=args.save,
        canonical=getattr(args, "canonical", False),
        # Tie/relation listings ride on the payload only when the text
        # renderer needs them; the historical --json shape stays lean.
        details=args.verbose and not args.json,
        **_given(validate_sequences=args.validate))


def _req_atpg(args) -> Request:
    modes = tuple(ATPG_MODES) if args.mode == "all" else (args.mode,)
    return ATPGRequest(
        spec=args.circuit,
        config=_config(args),
        modes=modes,
        learned=args.learned,
        canonical=getattr(args, "canonical", False))


def _req_faultsim(args) -> Request:
    modes = tuple(ATPG_MODES) if args.mode == "all" else (args.mode,)
    return FaultSimRequest(
        spec=args.circuit,
        config=_config(args),
        modes=modes,
        canonical=getattr(args, "canonical", False))


def _req_compare(args) -> Request:
    return CompareRequest(
        spec=args.circuit,
        config=_config(args),
        canonical=getattr(args, "canonical", False),
        **_given(backtrack_limits=args.backtrack_limits))


def _req_suite(args) -> Request:
    modes = tuple(ATPG_MODES) if args.mode == "all" else (args.mode,)
    return SuiteRequest(
        specs=tuple(args.circuits),
        config=_config(args),
        modes=modes,
        out=args.out,
        canonical=args.canonical)


def _req_untestable(args) -> Request:
    return UntestableRequest(spec=args.circuit, config=_config(args),
                             canonical=getattr(args, "canonical", False))


def _req_analyze(args) -> Request:
    return AnalyzeRequest(spec=args.circuit, config=_config(args),
                          **_given(max_ffs=args.max_ffs))


# ----------------------------------------------------------------------
# response -> text
# ----------------------------------------------------------------------
def _render_learn(args, result) -> None:
    print("summary:", result["learn"])
    if args.save:
        print(f"saved learning artifact to {args.save}")
    if args.verbose:
        details = result.get("details", {})
        print("\nties:")
        for tie in details.get("ties", ()):
            print(f"  {tie['node']} = {tie['value']} "
                  f"[{tie['kind']}, {tie['phase']}]")
        print("\nrelations:")
        for line in details.get("relations", ()):
            print(f"  {line}")
    validation = result.get("validation")
    if validation is not None:
        violations = validation["violations"]
        print(f"\nvalidation: {len(violations)} violations")
        for violation in violations[:10]:
            print(f"  {violation}")


def _render_atpg(args, result) -> None:
    if "learn" in result:
        source = f" (from {args.learned})" if args.learned else ""
        print(f"learning: {result['learn']}{source}\n")
    for mode, row in result.get("atpg", {}).items():
        print(f"mode={mode:9s} {row}")


def _render_faultsim(args, result) -> None:
    if "learn" in result:
        print(f"learning: {result['learn']}\n")
    for mode, grade in result.get("fault_sim", {}).items():
        print(f"mode={mode:9s} {grade}")


def _render_compare(args, result) -> None:
    if "learn" in result:
        print(f"learning: {result['learn']}\n")
    for row in result["compare"]["rows"]:
        print(f"limit={row['backtrack_limit']:<5d} "
              f"mode={row['mode']:9s} {row}")


def _render_suite(args, result) -> None:
    print("\nsuite results:")
    for report in result["reports"]:
        for mode, stats in sorted(report.get("atpg", {}).items()):
            row = {"circuit": report["circuit"], "mode": mode, **stats}
            print(f"  {row}")
    for error in result["errors"]:
        print(f"  error: {error['spec']}: {error['error']}",
              file=sys.stderr)
    if args.out:
        print(f"saved suite report to {args.out}")


def _render_untestable(args, result) -> None:
    print(result["untestable"])


def _render_analyze(args, result) -> None:
    print(f"{result['circuit']}: {result['ffs']} FFs, "
          f"{result['valid_states']} valid states, "
          f"density of encoding {result['density_of_encoding']:.4f}")


def _render_stats(args, result) -> None:
    stats = {key: value for key, value in result.items()
             if key not in ("circuit", "fingerprint")}
    print(f"{result['circuit']}: {stats}")


def _render_list(args, result) -> None:
    for name in result["circuits"]:
        print(name)


#: command -> (argv -> Request, text renderer).
_COMMANDS = {
    "list": (_req_list, _render_list),
    "stats": (_req_stats, _render_stats),
    "learn": (_req_learn, _render_learn),
    "atpg": (_req_atpg, _render_atpg),
    "faultsim": (_req_faultsim, _render_faultsim),
    "compare": (_req_compare, _render_compare),
    "suite": (_req_suite, _render_suite),
    "untestable": (_req_untestable, _render_untestable),
    "analyze": (_req_analyze, _render_analyze),
}


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sequential learning for real circuits (DAC 1998 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output (the versioned "
                            "repro.api response envelope)")

    def add_circuit(p):
        p.add_argument("circuit",
                       help="builtin name, like:<profile>[@scale], or "
                            ".bench path")
        p.add_argument("--retime", type=int, metavar="MOVES",
                       help="apply N backward-retiming moves first")
        add_json(p)

    def add_canonical(p):
        p.add_argument("--canonical", action="store_true",
                       help="zero volatile wall-clock fields so the "
                            "response is byte-identical across runs "
                            "(and to a repro serve answer)")

    def add_backend(p):
        p.add_argument("--backend", choices=SIM_BACKENDS,
                       help="simulation backend (compiled straight-line "
                            "kernels or the reference interpreters; "
                            "identical results)")

    p = sub.add_parser("list", help="list built-in circuits")
    add_json(p)

    p = sub.add_parser("stats", help="structural statistics")
    add_circuit(p)

    p = sub.add_parser("learn", help="run sequential learning")
    add_circuit(p)
    add_backend(p)
    p.add_argument("--max-frames", type=int,
                   help="learning simulation depth")
    p.add_argument("--no-multi", action="store_true",
                   help="disable multiple-node learning")
    p.add_argument("--no-equiv", action="store_true",
                   help="disable gate-equivalence identification")
    p.add_argument("--verbose", "-v", action="store_true")
    p.add_argument("--validate", type=int, metavar="N",
                   help="Monte-Carlo check with N random sequences")
    p.add_argument("--save", metavar="FILE",
                   help="write the learning artifact as JSON")
    add_canonical(p)

    def add_atpg_knobs(p):
        add_backend(p)
        p.add_argument("--atpg-engine", choices=ATPG_ENGINES,
                       help="PODEM engine (incremental event-driven "
                            "search or the reference re-simulating "
                            "loop; identical results)")
        p.add_argument("--backtrack-limit", type=int)
        p.add_argument("--window", type=int,
                       help="maximum time-frame window")
        p.add_argument("--max-frames", type=int,
                       help="learning simulation depth")
        p.add_argument("--max-faults", type=int)
        p.add_argument("--mode", default="all",
                       choices=("all",) + ATPG_MODES,
                       help="implication mode(s) to run")

    p = sub.add_parser("atpg", help="ATPG with learned implications")
    add_circuit(p)
    add_atpg_knobs(p)
    p.add_argument("--learned", metavar="FILE",
                   help="load a saved learning artifact instead of "
                        "relearning")
    add_canonical(p)

    p = sub.add_parser("faultsim",
                       help="fault-grade the generated test sets")
    add_circuit(p)
    add_atpg_knobs(p)
    add_canonical(p)

    p = sub.add_parser("compare",
                       help="Table-5 protocol: every mode at every "
                            "backtrack limit")
    add_circuit(p)
    add_backend(p)
    p.add_argument("--atpg-engine", choices=ATPG_ENGINES)
    p.add_argument("--backtrack-limits", type=int, nargs="+",
                   metavar="N",
                   help="backtrack limits to sweep (paper: 30 and 1000)")
    p.add_argument("--window", type=int,
                   help="maximum time-frame window")
    p.add_argument("--max-frames", type=int,
                   help="learning simulation depth")
    p.add_argument("--max-faults", type=int)
    add_canonical(p)

    p = sub.add_parser("suite", help="batch pipeline over many circuits")
    p.add_argument("circuits", nargs="+",
                   help="circuit specs (builtin, like:<profile>, .bench)")
    p.add_argument("--retime", type=int, metavar="MOVES")
    add_json(p)
    add_atpg_knobs(p)
    p.add_argument("--out", metavar="FILE",
                   help="also write the suite report JSON to FILE "
                        "(atomic write)")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="shard circuits over N worker processes "
                        "(0 = one per CPU core; default 1 = serial; "
                        "the report is identical for every N -- CLI "
                        "specs are strings, which always shard safely)")
    p.add_argument("--canonical", action="store_true",
                   help="zero volatile wall-clock fields so the report "
                        "is byte-identical across runs and --jobs "
                        "values")

    p = sub.add_parser("untestable", help="tie gates vs FIRES")
    add_circuit(p)
    add_backend(p)
    add_canonical(p)

    p = sub.add_parser("analyze", help="density of encoding")
    add_circuit(p)
    p.add_argument("--max-ffs", type=int)

    p = sub.add_parser("serve",
                       help="run the warm JSON-over-HTTP daemon "
                            "(POST /v1/execute)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8451)
    p.add_argument("--store", metavar="DIR", default=None,
                   help="persist learn artifacts content-addressed "
                        "under DIR (default: in-memory only)")
    p.add_argument("--allow-file-requests", action="store_true",
                   help="accept requests that name server-side file "
                        "paths (save/out/learned); off by default -- "
                        "network clients would get file access as the "
                        "daemon user")
    p.add_argument("--queue-depth", type=int, default=16, metavar="N",
                   help="waiting requests accepted per priority class "
                        "before answering 429 + Retry-After "
                        "(default: 16)")
    p.add_argument("--max-active", type=int, default=None, metavar="N",
                   help="concurrent execution slots (default: from "
                        "cpu count, 2..8)")
    p.add_argument("--deadline-cap", type=float, default=None,
                   metavar="S",
                   help="server-wide ceiling on request deadlines in "
                        "seconds; also applied to requests naming no "
                        "deadline (default: none)")
    p.add_argument("--stream", action="store_true", default=True,
                   dest="stream",
                   help="enable POST /v1/stream and NDJSON/SSE "
                        "responses (default)")
    p.add_argument("--no-stream", action="store_false", dest="stream",
                   help="disable the streaming endpoints")

    p = sub.add_parser("coordinator",
                       help="serve one suite to workers, one whole "
                            "circuit (every mode) per unit; prints the "
                            "merged suite report when the worker fleet "
                            "drains (byte-identical to repro suite "
                            "--canonical)")
    p.add_argument("circuits", nargs="+",
                   help="circuit specs (builtin, like:<profile>, .bench)")
    p.add_argument("--retime", type=int, metavar="MOVES")
    add_json(p)
    add_atpg_knobs(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8452)
    p.add_argument("--journal", metavar="DIR", default=None,
                   help="journal completed units under DIR so a "
                        "restarted coordinator resumes from partial "
                        "results")
    p.add_argument("--lease-timeout", type=float, default=60.0,
                   metavar="S",
                   help="seconds before an unheartbeated lease expires "
                        "and its unit is re-issued")
    p.add_argument("--out", metavar="FILE",
                   help="also write the merged suite envelope to FILE "
                        "(atomic write)")
    p.add_argument("--canonical", action="store_true",
                   help="zero volatile wall-clock fields so the merged "
                        "report is byte-identical to a serial run")

    p = sub.add_parser("worker",
                       help="lease circuit units from a coordinator "
                            "and run each through the suite pipeline "
                            "until the job drains (SIGTERM finishes "
                            "the current unit, then exits)")
    p.add_argument("--coordinator", required=True, metavar="URL",
                   help="coordinator base URL, e.g. "
                        "http://127.0.0.1:8452")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes to run (0 = one per CPU "
                        "core; default 1 = in this process)")

    p = sub.add_parser("devtool",
                       help="project static analysis (determinism & "
                            "concurrency lint, schema manifests)")
    dev_sub = p.add_subparsers(dest="devtool_command", required=True)
    dp = dev_sub.add_parser("lint",
                            help="run the repro-lint rules (R001..R006) "
                                 "over source paths")
    dp.add_argument("paths", nargs="*", metavar="PATH",
                    help="files or directories to lint (default: the "
                         "installed repro package)")
    dp.add_argument("--strict", action="store_true",
                    help="warnings also fail the run (the CI gate)")
    dp.add_argument("--json", action="store_true",
                    help="emit diagnostics as a JSON array")
    dp = dev_sub.add_parser("manifest",
                            help="regenerate the R004 schema manifest "
                                 "for SCHEMA_VERSION modules")
    dp.add_argument("paths", nargs="*", metavar="PATH",
                    help="files or directories to scan (default: the "
                         "installed repro package)")
    dp.add_argument("--write", action="store_true",
                    help="write schema_manifest.json next to each "
                         "module (default: print to stdout)")
    return parser


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _suite_progress_sink(event) -> None:
    """Mirror the historical suite progress lines (stage ends only)."""
    if isinstance(event, ProgressEvent) and event.status == "end":
        print(f"  {event.stage}: {event.payload}")


def _dispatch(args) -> int:
    """One command through the API: build request, execute, render."""
    build_request, render = _COMMANDS[args.command]
    request = build_request(args)
    events = None
    if args.command == "suite" and not args.json:
        events = _suite_progress_sink
    # `stats` always reports the artifact-store counters, so its
    # payload has the same shape one-shot and under the daemon (where
    # the long-lived store makes them interesting).
    store = ArtifactStore() if args.command == "stats" else None
    response: Response = execute(request, events=events, store=store)
    if args.json:
        sys.stdout.write(response.to_json())
        return response.exit_code
    if not response.ok:
        raise SystemExit(
            f"repro: error: {(response.error or {}).get('message')}")
    render(args, response.result)
    return response.exit_code


def _run_coordinator_command(args) -> int:
    from .dist import run_coordinator

    modes = tuple(ATPG_MODES) if args.mode == "all" else (args.mode,)
    config = _config(args)
    announce = None if args.json else (
        lambda message: print(message, file=sys.stderr))
    try:
        response = run_coordinator(
            list(args.circuits), config=config, modes=modes,
            host=args.host, port=args.port, journal_dir=args.journal,
            lease_timeout_s=args.lease_timeout,
            canonical=args.canonical, out=args.out, announce=announce)
    except OSError as exc:  # e.g. port already in use
        raise SystemExit(f"repro: error: {exc}") from exc
    if args.json:
        sys.stdout.write(response.to_json())
    else:
        _render_suite(args, response.result)
    return response.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        from .serve.daemon import serve

        try:
            serve(host=args.host, port=args.port, store_dir=args.store,
                  allow_file_requests=args.allow_file_requests,
                  queue_depth=args.queue_depth,
                  max_active=args.max_active,
                  deadline_cap=args.deadline_cap,
                  allow_streaming=args.stream)
        except OSError as exc:  # e.g. port already in use
            raise SystemExit(f"repro: error: {exc}") from exc
        return 0
    if args.command == "coordinator":
        return _run_coordinator_command(args)
    if args.command == "devtool":
        from .devtools.cli import run_devtool

        return run_devtool(args)
    if args.command == "worker":
        from .dist import run_worker

        return run_worker(args.coordinator, jobs=args.jobs,
                          announce=lambda message:
                              print(message, file=sys.stderr))
    # Request faults come back as error envelopes from execute().
    try:
        code = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`repro ... | head`): exit quietly with
        # the shell's status for a SIGPIPE death, and point stdout at
        # /dev/null so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
