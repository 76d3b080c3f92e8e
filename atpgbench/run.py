#!/usr/bin/env python3
"""End-to-end ATPG benchmark: real requests through ``repro.api.execute``.

Usage (from the repository root)::

    PYTHONHASHSEED=0 python3 atpgbench/run.py --workload atpg_learned \
        --seed 1 --seconds 20 --trace 0

One process runs one workload: set-up (import, resolve and warm every
corpus netlist), an untimed warm-up pass, then the corpus in whole rounds
until ``--seconds`` have been measured, checking every output.  Each
request's wall time is divided by the mean time of a fixed calibration
kernel run before, during and after it, and reported in nominal seconds
(see README.md).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".atpgbench_work")

import checks  # noqa: E402  (the benchmark's own modules sit beside it)
import corpus  # noqa: E402
from layers import Layers  # noqa: E402

WORKLOADS = ("atpg_learned", "atpg_none", "learn_large")

#: Calibration-kernel time, in seconds, of the nominal host.  A request
#: whose wall time was ``wall`` while the kernel averaged ``cal`` seconds
#: is reported as ``wall * NOMINAL_CAL_S / cal`` nominal seconds.
NOMINAL_CAL_S = 0.0002

#: Kernel runs in each calibration block before and after a request.
CAL_BLOCK = 9
#: Seconds between kernel runs taken while the request is in progress.
CAL_INTERVAL_S = 0.01

#: Whole rounds every run measures, however short ``--seconds`` is.
MIN_ROUNDS = 2

#: Random sequences behind the untestability check: a block that is the
#: same in every run plus a block drawn from ``--seed``.
FIXED_SEQUENCES, SEEDED_SEQUENCES, SEQUENCE_LENGTH = 8, 8, 10
#: Random two-valued traces behind the tie check, and the frames they
#: run past the largest warm-up.
TIE_TRACES, TIE_EXTRA_FRAMES = 64, 12



def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
_CAL_TABLE = tuple((i * 2654435761) & 0xFFFF for i in range(256))
_CAL_KEYS = list(range(1024))
_CAL_MAP = {i: i * 7 for i in range(1024)}


def _cal_kernel() -> int:
    """Integer arithmetic, list indexing and dict lookups; allocates
    nothing, so the program's heap cannot change its speed."""
    acc, table, keys, mapping = 1, _CAL_TABLE, _CAL_KEYS, _CAL_MAP
    for i in range(500):
        acc = (acc * 1103515245 + table[i & 255]) & 0xFFFFFFFF
        acc ^= mapping[keys[i & 1023]]
    return acc


class Calibration:
    """Samples the calibration kernel around and during a timed region.

    A block of kernel runs precedes and follows the region, and a
    ``SIGALRM`` interval timer runs the kernel every
    :data:`CAL_INTERVAL_S` while it is in progress.  The program is
    paused while the kernel runs and the cyclic collector is paused only
    for each kernel run.  :meth:`clock`, which the region and its
    layers are timed with, leaves out the time of the in-region runs.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _cal_kernel()
        self.samples.append(time.perf_counter() - start)
        if enabled:
            gc.enable()

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Calibration":
        for _ in range(CAL_BLOCK):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S,
                         CAL_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(CAL_BLOCK):
            self._sample()

    def clock(self) -> float:
        """``perf_counter`` minus the in-region kernel time so far: a
        clock of the program's own time."""
        return time.perf_counter() - self.spent

    def scale(self) -> float:
        """Nominal seconds per wall second over the region."""
        return NOMINAL_CAL_S / statistics.mean(self.samples)


def _fail(message: str) -> None:
    print(f"atpgbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ``repro`` from the checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
        import repro.api  # noqa: F401
    except ImportError as exc:
        _fail(f"cannot import repro from {src}: {exc}")
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(src, "repro"):
        _fail(f"repro was imported from {where}, not from {src}")
    return repro


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class Checker:
    """Checks responses against the benchmark's own simulators.

    Verdicts are memoized by a digest of the checked output, so a
    deterministic program pays for each check once per run.
    """

    def __init__(self, paths: Dict[str, str], seed: int):
        from repro.atpg.driver import prepare_fault_list, \
            tie_untestable_indices

        # Bound before any wrapper is installed: the checks call the
        # program's own definitions, never the timed ones.
        self._prepare = prepare_fault_list
        self._declared = tie_untestable_indices
        self.paths = paths
        self.seed = seed
        self._nets: Dict[str, checks.Netlist] = {}
        self._faults: Dict[str, Tuple[list, dict, list]] = {}
        self._random: Dict[str, list] = {}
        self._memo: Dict[str, object] = {}

    def net(self, entry: str) -> checks.Netlist:
        if entry not in self._nets:
            self._nets[entry] = checks.Netlist.from_file(self.paths[entry])
        return self._nets[entry]

    def faults(self, entry: str, circuit):
        """The program's prepared fault list, and its check form."""
        if entry not in self._faults:
            faults, classes = self._prepare(circuit)
            specs = [(circuit.nodes[f.node].name, f.pin, f.value)
                     for f in faults]
            self._faults[entry] = (faults, classes, specs)
        return self._faults[entry]

    def random_sequences(self, entry: str) -> list:
        if entry not in self._random:
            net = self.net(entry)
            fixed = checks.random_sequences(
                net, FIXED_SEQUENCES, SEQUENCE_LENGTH,
                random.Random(f"fixed:{entry}"))
            seeded = checks.random_sequences(
                net, SEEDED_SEQUENCES, SEQUENCE_LENGTH,
                random.Random(f"{self.seed}:{entry}"))
            self._random[entry] = fixed + seeded
        return self._random[entry]

    def _memoized(self, key_parts, compute):
        key = hashlib.sha256(json.dumps(key_parts, sort_keys=True)
                             .encode()).hexdigest()
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def untestable_problems(self, entry: str, circuit, learned,
                            sequences) -> Tuple[List[str], int]:
        """Faults the learned ties declare untestable but that the test
        set or random sequences detect; also the declared count."""
        faults, classes, specs = self.faults(entry, circuit)
        declared = sorted(self._declared(circuit, learned, faults,
                                         classes))
        if not declared:
            return [], 0
        subset = [specs[i] for i in declared]
        hits = checks.detected_faults(
            self.net(entry), subset,
            list(sequences) + self.random_sequences(entry))
        return ([f"{entry}: {subset[i][0]}"
                 f"{'' if subset[i][1] is None else '.in%d' % subset[i][1]}"
                 f" s-a-{subset[i][2]} is declared untestable by the "
                 f"learned ties but is detected" for i in sorted(hits)],
                len(declared))

    def atpg(self, entry: str, response, layers: Layers) -> List[str]:
        """Check an ATPG response: det covered, declared faults real."""
        if not response.ok:
            return [f"{entry}: envelope not ok: {response.error}"]
        if not layers.circuits:
            return [f"{entry}: no resolved circuit was captured"]
        circuit = layers.circuits[0]
        learned = layers.learned[0] if layers.learned else None
        runs = {stats.mode: stats for stats in layers.atpg_runs}
        rows = response.result["atpg"]
        ties = ([(t.nid, t.value, t.warmup) for t in learned.ties.all()]
                if learned is not None else [])

        def compute() -> List[str]:
            problems: List[str] = []
            _faults, _classes, specs = self.faults(entry, circuit)
            for mode, row in sorted(rows.items()):
                stats = runs.get(mode)
                if stats is None:
                    problems.append(f"{entry}[{mode}]: no test set was "
                                    f"captured")
                    continue
                if len(stats.sequences) != row["sequences"]:
                    problems.append(f"{entry}[{mode}]: kept "
                                    f"{len(stats.sequences)} sequences, "
                                    f"reported {row['sequences']}")
                hit = checks.detected_faults(self.net(entry), specs,
                                             stats.sequences)
                if len(hit) < row["det"]:
                    problems.append(
                        f"{entry}[{mode}]: the kept test set detects "
                        f"{len(hit)} faults, reported det={row['det']}")
                if mode != "none" and learned is not None:
                    found, _count = self.untestable_problems(
                        entry, circuit, learned, stats.sequences)
                    problems += [f"{p} [{mode}]" for p in found]
            return problems

        return self._memoized(
            [entry, {m: _row_key(r) for m, r in rows.items()},
             {m: s.sequences for m, s in runs.items()}, ties], compute)

    def learn(self, entry: str, response, layers: Layers
              ) -> Tuple[List[str], int]:
        """Check a learn response: ties sound, declared faults real."""
        if not response.ok:
            return [f"{entry}: envelope not ok: {response.error}"], 0
        if not layers.circuits or not layers.learned:
            return [f"{entry}: no learning result was captured"], 0
        circuit = layers.circuits[0]
        learned = layers.learned[0]
        ties = [(circuit.nodes[t.nid].name, t.value, t.warmup)
                for t in learned.ties.all()]

        def compute() -> Tuple[List[str], int]:
            problems = [f"{entry}: {p}" for p in checks.tie_violations(
                self.net(entry), ties, TIE_TRACES, TIE_EXTRA_FRAMES,
                random.Random(f"{self.seed}:ties:{entry}"))]
            found, count = self.untestable_problems(entry, circuit,
                                                    learned, [])
            return problems + found, count

        return self._memoized([entry, ties], compute)


def _row_key(row: Dict[str, object]) -> Dict[str, object]:
    """A result row without its wall-clock field."""
    return {k: v for k, v in row.items() if k != "cpu_s"}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One request of a workload's corpus."""

    label: str
    request: object
    #: "atpg", "learn" or "suite": which check applies.
    kind: str
    #: The corpus netlists the request names.
    entries: Tuple[str, ...]
    warm_up: bool = False


def build_ops(workload: str, paths: Dict[str, str], jobs: int = 2,
              warm_up: bool = False) -> List[Op]:
    """A workload's requests, or with ``workload="suites"`` the
    ``atpg_learned`` corpus as :data:`corpus.SUITE_GROUPS` suites of
    ``jobs`` workers.  ``warm_up`` shrinks each request's problem (a few
    faults, a shallow learning depth) but keeps its circuit and code
    path, so a pass of them fills the program's per-circuit caches at a
    fraction of a round's cost."""
    from repro.api import ATPGRequest, LearnRequest, SuiteRequest
    from repro.flow.config import ReproConfig

    base = ReproConfig()
    if warm_up:
        base = replace(base, learn=replace(base.learn, max_frames=3),
                       atpg=replace(base.atpg, max_faults=6))
    keep = replace(base, atpg=replace(base.atpg, keep_sequences=True))
    if workload in ("atpg_learned", "atpg_none"):
        modes = (("forbidden", "known") if workload == "atpg_learned"
                 else ("none",))
        return [Op(entry, ATPGRequest(spec=paths[entry], modes=modes,
                                      config=keep), "atpg", (entry,),
                   warm_up)
                for entry in corpus.ATPG_CORPUS]
    if workload == "learn_large":
        return [Op(entry, LearnRequest(spec=paths[entry], config=base),
                   "learn", (entry,), warm_up)
                for entry in corpus.LEARN_CORPUS]
    config = replace(keep, jobs=jobs)
    return [Op("+".join(group),
               SuiteRequest(specs=tuple(paths[e] for e in group),
                            modes=("forbidden", "known"), config=config),
               "suite", group)
            for group in corpus.SUITE_GROUPS]


class Runner:
    """Runs ops with calibration, capture and checks."""

    def __init__(self, checker: Checker, paths: Dict[str, str]):
        from repro.api import execute

        self.execute = execute
        self.checker = checker
        self.paths = paths
        #: entry -> (rows by mode, problems) from checked ATPG runs;
        #: the reference suite reports are compared against.
        self.reference: Dict[str, Tuple[dict, List[str]]] = {}
        self._reported: set = set()

    def run(self, op: Op, layers: Layers) -> Dict[str, object]:
        gc.collect()
        layers.clear_outputs()
        layers.take()
        with Calibration() as cal:
            layers.clock = cal.clock
            start = cal.clock()
            response = self.execute(op.request)
            body = response.to_json()
            wall = cal.clock() - start
        layers.clock = time.perf_counter
        scale = cal.scale()
        raw = layers.take()
        learned = _learn_counts(layers)
        problems, detected, outcome = self.check(op, response, layers)
        layers.clear_outputs()
        if problems and op.label not in self._reported:
            self._reported.add(op.label)
            for problem in problems:
                print(f"atpgbench: check failed: {problem}",
                      file=sys.stderr)
        return {"label": op.label, "wall": wall, "norm": wall * scale,
                "scale": scale, "raw": raw, "bytes": len(body),
                "failed": bool(problems), "detected": detected,
                "outcome": outcome, "learned": learned}

    def check(self, op: Op, response, layers: Layers):
        """(problems, faults_detected, deterministic outcome digest)."""
        checker = self.checker
        if op.kind == "atpg":
            entry = op.entries[0]
            problems = checker.atpg(entry, response, layers)
            rows = response.result.get("atpg", {}) if response.ok else {}
            detected = sum(row["det"] for row in rows.values())
            if response.ok and not op.warm_up:
                self.reference.setdefault(
                    entry, ({m: _row_key(r) for m, r in rows.items()},
                            problems))
            return problems, detected, {
                "rows": {m: _row_key(r) for m, r in rows.items()},
                "learned": _learn_counts(layers)}
        if op.kind == "learn":
            problems, declared = checker.learn(op.entries[0], response,
                                               layers)
            return problems, declared, {"learned": _learn_counts(layers),
                                        "declared": declared}
        return self._check_suite(op, response)

    def _check_suite(self, op: Op, response):
        if not response.ok:
            return [f"{op.label}: envelope not ok: {response.error}"], 0, {}
        problems: List[str] = []
        result = response.result
        if result.get("errors"):
            problems.append(f"{op.label}: suite errors {result['errors']}")
        by_path = {report["circuit"]: report
                   for report in result.get("reports", [])}
        detected = 0
        rows_out = {}
        for entry in op.entries:
            report = by_path.get(self.paths[entry])
            if report is None or entry not in self.reference:
                problems.append(f"{op.label}: no report or no checked "
                                f"reference for {entry}")
                continue
            rows, checked = self.reference[entry]
            got = {m: _row_key(r) for m, r in report["atpg"].items()}
            rows_out[entry] = got
            detected += sum(row["det"] for row in got.values())
            if got != rows:
                problems.append(f"{op.label}: {entry} rows {got} differ "
                                f"from the checked single-request rows "
                                f"{rows}")
            problems += checked
        return problems, detected, {"rows": rows_out}


def _learn_counts(layers: Layers) -> Dict[str, int]:
    """Relations, ties and equivalent gates of every captured learning
    result of the request."""
    counts = {"core.relations": 0, "core.ties": 0, "core.equiv_gates": 0}
    for learned in layers.learned:
        summary = learned.summary()
        counts["core.relations"] += (summary["ff_ff_relations"]
                                     + summary["gate_ff_relations"])
        counts["core.ties"] += summary["ties"]
        counts["core.equiv_gates"] += summary["equiv_gates"]
    return counts


# ----------------------------------------------------------------------
# rounds and metrics
# ----------------------------------------------------------------------
def run_round(runner: Runner, ops: List[Op], traced: bool
              ) -> List[Dict[str, object]]:
    layers = Layers(traced).install()
    try:
        return [runner.run(op, layers) for op in ops]
    finally:
        layers.uninstall()


def corpus_seconds(rounds: List[List[Dict[str, object]]],
                   key: str = "norm") -> float:
    """Sum over requests of each request's median across rounds."""
    return sum(statistics.median(r[i][key] for r in rounds)
               for i in range(len(rounds[0])))


def layer_metrics(rounds: List[List[Dict[str, object]]], names
                  ) -> Dict[str, float]:
    """Per-layer figures: per round sums, median over rounds."""
    per_round: List[Dict[str, float]] = []
    for records in rounds:
        sums: Dict[str, float] = {name: 0.0 for name in names}
        for rec in records:
            scale = rec["scale"]
            raw = rec["raw"]
            for key, value in raw.items():
                if key in sums:
                    sums[key] += value * scale if key.endswith("_s") \
                        else value
            child = raw.get("learn_s", 0.0) + raw.get("atpg_s", 0.0)
            sums["api.self_s"] += (rec["wall"] - child) * scale
            sums["api.envelope_bytes"] += rec["bytes"]
            for key, value in rec["learned"].items():
                sums[key] += value
        podem_s = sums["atpg.podem_s"]
        sums["atpg.decisions_per_s"] = (sums["atpg.decisions"] / podem_s
                                        if podem_s else 0.0)
        targeted = sums["atpg.faults_targeted"]
        resolved = sum(rec["raw"].get("atpg.detected", 0)
                       for rec in records) + sums["atpg.untestable"]
        sums["atpg.resolved_per_targeted"] = (resolved / targeted
                                              if targeted else 0.0)
        per_round.append(sums)
    return {name: statistics.median(s[name] for s in per_round)
            for name in names}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=0,
                        help="seed offset of the generated netlists "
                             "(0 = today's like: profiles)")
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    entries = (corpus.LEARN_CORPUS if args.workload == "learn_large"
               else corpus.ATPG_CORPUS)
    paths = corpus.write_corpus(entries, WORK_DIR, args.corpus_seed)

    # Set-up: one cold pass from the first import of the program to the
    # end of resolving and warming every corpus netlist.
    with Calibration() as cal:
        start = cal.clock()
        import_program()
        from repro.flow import session
        from repro.sim import compiled

        setup_layers = Layers(traced).install()
        setup_layers.clock = cal.clock
        try:
            for entry in entries:
                compiled.warm_cache(session.resolve_circuit(paths[entry]))
        finally:
            setup_layers.uninstall()
        setup_wall = cal.clock() - start
    setup_scale = cal.scale()
    setup_raw = setup_layers.take()

    checker = Checker(paths, args.seed)
    runner = Runner(checker, paths)
    ops = build_ops(args.workload, paths)
    # Untimed warm-up pass, so the kernel caches a long-lived process
    # keeps are filled before timing.
    run_round(runner, build_ops(args.workload, paths, warm_up=True),
              traced=False)
    # The traced run of atpg_learned also times the same corpus as
    # suites with jobs=2 and jobs=1 (suite.speedup).  These rounds are
    # reference figures: they are not in corpus_s nor in the counts.
    suites = (build_ops("suites", paths, jobs=2),
              build_ops("suites", paths, jobs=1)) \
        if traced and args.workload == "atpg_learned" else None

    rounds: List[List[Dict[str, object]]] = []
    traced_rounds: List[List[Dict[str, object]]] = []
    suite_rounds: List[List[Dict[str, object]]] = []
    serial_rounds: List[List[Dict[str, object]]] = []
    begin = time.perf_counter()
    while True:
        rounds.append(run_round(runner, ops, traced=False))
        if traced:
            traced_rounds.append(run_round(runner, ops, traced=True))
        if suites:
            suite_rounds.append(run_round(runner, suites[0], False))
            serial_rounds.append(run_round(runner, suites[1], False))
        elapsed = time.perf_counter() - begin
        done = len(rounds)
        if done >= MIN_ROUNDS and elapsed + 0.5 * elapsed / done \
                >= args.seconds:
            break

    records = [rec for rnd in rounds + traced_rounds for rec in rnd]
    attempted = len(records)
    failed = sum(1 for rec in records if rec["failed"])
    completed = attempted - failed
    # The program is deterministic: every round must report the same
    # outcome for the same request.
    correct = all(
        len({json.dumps(rnd[i]["outcome"], sort_keys=True)
             for rnd in rounds}) == 1
        for i in range(len(ops)))

    corpus_s = corpus_seconds(rounds)
    print(f"raw wall medians: corpus {corpus_seconds(rounds, 'wall'):.4f}"
          f" s; setup {setup_wall:.4f} s; rounds {len(rounds)}; "
          f"per request (raw/normalized) " + ", ".join(
              f"{op.label}="
              f"{statistics.median(r[i]['wall'] for r in rounds):.3f}/"
              f"{statistics.median(r[i]['norm'] for r in rounds):.3f}"
              for i, op in enumerate(ops)))
    if traced:
        units = declared_metrics("per_layer")
        metrics = layer_metrics(traced_rounds, units)
        for key in ("circuit.resolve_s", "sim.warm_s"):
            metrics[key] = setup_raw.get(key, 0.0) * setup_scale
        metrics["trace.overhead"] = (corpus_seconds(traced_rounds)
                                     / corpus_s)
        if suites:
            # jobs=2 keeps both cores busy, so a kernel run in the
            # waiting parent times contention with its own workers, not
            # the host: the speed-up is a ratio of raw wall times taken
            # side by side.
            metrics["suite.serial_s"] = corpus_seconds(serial_rounds)
            metrics["suite.speedup"] = (
                corpus_seconds(serial_rounds, "wall")
                / corpus_seconds(suite_rounds, "wall"))
            print(f"suites raw wall medians: jobs=2 "
                  f"{corpus_seconds(suite_rounds, 'wall'):.4f} s, jobs=1 "
                  f"{corpus_seconds(serial_rounds, 'wall'):.4f} s")
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in units.items()}
    else:
        detected = sum(rec["detected"] for rec in rounds[-1])
        out = {
            "corpus_s": {"value": corpus_s, "unit": "s"},
            "setup_s": {"value": setup_wall * setup_scale, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "faults_detected": {"value": detected, "unit": "count"},
        }
    if completed == 0:
        _fail(f"workload {args.workload} completed no request")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
