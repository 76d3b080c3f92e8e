"""R001 -- no nondeterminism sources reachable from canonical paths.

The canonical-report contract (byte-identical suite envelopes across
backends, worker counts and dist fleets) dies the moment a wall-clock
read or an unseeded global-``random`` draw lands in a code path that
feeds :meth:`SuiteReport.canonical_dict`, the coordinator's suite merge
(:meth:`~repro.dist.coordinator.DistJob.merge_suite`) or any config
digest.  Volatile timing
*fields* are fine -- canonicalization zeroes them -- which is why
``time.perf_counter`` / ``time.monotonic`` are allowed; absolute time
and global randomness are not, because they leak into values the
canonicalizer keeps.

The walk is the conservative name-based call graph of
:mod:`repro.devtools.callgraph`, rooted at every definition named in
:data:`ROOTS`; banned leaf calls are matched against import-resolved
dotted names, so ``from datetime import datetime; datetime.now()`` is
caught the same as ``datetime.datetime.now()``.
"""

from __future__ import annotations

import ast

from ..callgraph import collect_functions, reachable_from
from ..core import LintContext, dotted_name

CODE = "R001"

#: Simple names whose definitions root the reachability walk.
ROOTS = ("canonical_dict", "merge_suite", "config_digest")

#: Canonical dotted names that must never be reachable from a root.
BANNED = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.ctime": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "uuid.uuid1": "host/clock-derived identifier",
    "uuid.uuid4": "random identifier",
    "os.urandom": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.token_bytes": "OS entropy",
}

#: Module-level ``random.*`` draws (the unseeded process-global PRNG).
#: Seeded instances (``random.Random(seed).shuffle``) stay legal: the
#: banned form is specifically the shared global generator.
_GLOBAL_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "betavariate",
    "expovariate", "normalvariate",
}
BANNED.update({f"random.{name}": "unseeded global random"
               for name in _GLOBAL_RANDOM})

HINT = ("compute the value outside the canonical path, or use a "
        "seeded random.Random / monotonic timer whose field is "
        "canonicalized away")


def check(ctx: LintContext) -> None:
    functions = collect_functions(ctx.modules)
    reached = reachable_from(functions, ROOTS)
    for root, fn in reached.values():
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            target = fn.module.resolve(dotted_name(node.func))
            verdict = BANNED.get(target) if target else None
            if verdict is None:
                continue
            ctx.add(
                CODE, fn.module, node,
                f"{verdict} `{target}` is reachable from canonical "
                f"root `{root}` (via `{fn.simple_name}`)",
                hint=HINT)
