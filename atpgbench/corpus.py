"""The benchmark's circuit corpus, written as ``.bench`` files it owns.

Three netlists ship as text (``netlists/``): ISCAS-89 s27 and the
paper's Figure 1 and Figure 2 circuits.  The rest are random sequential
circuits with a published benchmark's FF/gate counts, built here by a
copy of the program's ``iscas_like``/``random_circuit`` construction and
written out at set-up.  Requests name only these files, so a later
change to the program's generator or circuit library cannot change what
the benchmark measures.

At the default corpus seed (0) every generated netlist has the same
``Circuit.fingerprint()`` as the program's ``like:<name>@<scale>`` spec
of today; ``EXPECTED_FINGERPRINTS`` records them and the benchmark's
tests hold the files to them.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SHIPPED_DIR = os.path.join(HERE, "netlists")

#: (inputs, outputs, ffs, gates) of the published benchmarks the corpus
#: imitates.
PROFILES: Dict[str, Tuple[int, int, int, int]] = {
    "s382": (3, 6, 21, 158),
    "s386": (7, 7, 6, 159),
    "s641": (35, 24, 19, 377),
    "s953": (16, 23, 29, 424),
    "s967": (16, 23, 29, 395),
    "s1196": (14, 14, 18, 529),
    "s1238": (14, 14, 18, 508),
    "s1423": (17, 5, 74, 657),
    "s3384": (43, 26, 183, 1685),
    "s5378": (35, 49, 179, 2779),
}

_GATE_TYPES = ("and", "nand", "or", "nor", "and", "or", "nand", "nor",
               "not", "buf", "xor", "xnor")

#: Netlists of the two ATPG workloads: the shipped circuits plus small
#: profiles.  ``s967@0.1`` carries the
#: known fault-collapsing defect (see README), so its requests fail
#: the untestability check on every run until that defect is mended.
ATPG_CORPUS = ("s27", "figure1", "figure2", "s641@0.1", "s967@0.1",
               "s1196@0.03", "s382@0.05", "s386@0.05")

#: Netlists of ``learn_large``: larger profiles where learning is the
#: whole request.
LEARN_CORPUS = ("s1423@1", "s1238@1", "s953@1", "s3384@0.5",
                "s5378@0.5")

#: The ATPG corpus as the two suites the traced ``atpg_learned`` run
#: times with ``jobs=2`` and ``jobs=1``.  ``s967@0.1`` and ``s641@0.1``
#: take about two thirds of the corpus time, so they share one pool and
#: the small circuits fill the other; within a suite the longest circuit
#: comes first so the pool's two workers stay busy.
SUITE_GROUPS = (("s967@0.1", "s641@0.1"),
                ("s386@0.05", "s1196@0.03", "figure1", "s382@0.05",
                 "figure2", "s27"))

#: ``Circuit.fingerprint()`` of every corpus netlist at corpus seed 0.
EXPECTED_FINGERPRINTS = {
    "figure1": "81ee860b1ea5076dacb2030bc52a69f6a896e2004ae4cd92c72e1a7b6b1da1b7",
    "figure2": "05ec8e811ce72c4d92f399ae80794ba4c076b1eaaf5af286d160846e35a13b59",
    "s27": "b3439f8c342a3883d98e5279b4035513d8f58b5b26ae40836587a37f3f326b98",
    "s1196@0.03": "a95ba1eacb7ab37c3acd1d1e1790ba3709717a255daa953fe089fe341785df5d",
    "s1238@1": "85b802d43542611f1ae5415dfa03c477b51f534de7c8f0c9136086da372f27e8",
    "s1423@1": "adbee7026ce600b2aa52b0b2f9c2e2b56982ac800027ea140a7c6487f91f00a6",
    "s3384@0.5": "51682cbddd441fb102a573f877a3bd80b5a9dc43a8ebc9de0a3f68e1dff270a0",
    "s382@0.05": "f1554095f1c10f74be3e81e2df0e50a5f3958c54ab2fff825a28187e3f18a9dc",
    "s386@0.05": "6ecb58da59b5f0e2a46d13388b55829d75e782e4eddfd59aee85bbb653ff7244",
    "s5378@0.5": "573121d9bfc44202f82c4f2dc7a617d2746fe16897f9ba4f50301838c5a25764",
    "s641@0.1": "4fb64061ac55e5521e91b1d8d197b63519ee9e05fa64e616fe37b1a68d39e357",
    "s953@1": "fc904c7caf6b676b64561392f56f73109ef1c2678c691f5b5518e17cbfbb5219",
    "s967@0.1": "08e67a861baff82ebed310807e14192895a4d8bc657e247c724e3f4235431ff6",
}


def _random_bench(name: str, *, n_inputs: int, n_outputs: int,
                  n_ffs: int, n_gates: int, seed: int, fanin_max: int = 3,
                  depth: int = 8, feedback_fraction: float = 0.6) -> str:
    """``.bench`` text of a random levelized sequential circuit.

    A line-for-line copy of the program's ``random_circuit`` draw
    sequence; gates are written in creation order so a reader that
    numbers nodes inputs-FFs-gates assigns the same ids.
    """
    rng = random.Random(seed)
    pi_names = [f"I{i}" for i in range(n_inputs)]
    ff_names = [f"F{i}" for i in range(n_ffs)]
    levels: List[List[str]] = [list(pi_names) + list(ff_names)]
    gates: List[Tuple[str, str, List[str]]] = []
    per_level = max(1, n_gates // depth)
    gate_index = 0
    while gate_index < n_gates:
        level_gates: List[str] = []
        target = min(per_level, n_gates - gate_index)
        for _ in range(target):
            gtype = rng.choice(_GATE_TYPES)
            arity = 1 if gtype in ("not", "buf") else rng.randint(
                2, fanin_max)
            pool = list(levels[-1])
            extra_src = [s for lvl in levels[:-1] for s in lvl]
            fanins: List[str] = []
            while len(fanins) < arity and (pool or extra_src):
                if extra_src and (not pool or rng.random() < 0.25):
                    pick = extra_src.pop(rng.randrange(len(extra_src)))
                else:
                    pick = pool.pop(rng.randrange(len(pool)))
                if pick not in fanins:
                    fanins.append(pick)
            if len(fanins) < arity:
                gtype = "not" if not fanins else gtype
                if not fanins:
                    fanins = [rng.choice(levels[0])]
            gname = f"G{gate_index}"
            gates.append((gname, gtype, fanins))
            level_gates.append(gname)
            gate_index += 1
        levels.append(level_gates)
    gate_names = [g for g, _t, _f in gates]
    upper = [g for lvl in levels[max(1, len(levels) - 3):] for g in lvl]
    ff_data = []
    for _ff in ff_names:
        if rng.random() < feedback_fraction:
            ff_data.append(rng.choice(upper))
        else:
            ff_data.append(rng.choice(gate_names))
    outputs: List[str] = []
    pool = list(upper)
    rng.shuffle(pool)
    for gname in pool:
        if len(outputs) >= n_outputs:
            break
        outputs.append(gname)
    for gname in gate_names:
        if len(outputs) >= n_outputs:
            break
        if gname not in outputs:
            outputs.append(gname)
    lines = [f"# {name} (random, seed {seed})"]
    lines += [f"INPUT({pi})" for pi in pi_names]
    lines += [f"OUTPUT({po})" for po in outputs]
    lines += [f"{ff} = DFF({data})" for ff, data in zip(ff_names, ff_data)]
    lines += [f"{g} = {t.upper()}({', '.join(f)})" for g, t, f in gates]
    return "\n".join(lines) + "\n"


def profile_bench(entry: str, corpus_seed: int = 0) -> str:
    """``.bench`` text of a corpus entry ``<profile>@<scale>``.

    Sizes follow the program's ``iscas_like`` scaling rule; the
    circuit seed is the profile's name checksum plus ``corpus_seed``.
    """
    name, _, scale_text = entry.partition("@")
    scale = float(scale_text)
    n_in, n_out, n_ff, n_gate = PROFILES[name]
    shrink = max(scale, 4.0 / max(n_gate, 4))
    return _random_bench(
        f"{name}_like@{scale:g}",
        n_inputs=max(2, round(n_in * min(1.0, shrink * 2))),
        n_outputs=max(1, round(n_out * shrink)),
        n_ffs=max(2, round(n_ff * shrink)),
        n_gates=max(4, round(n_gate * shrink)),
        seed=sum(ord(c) for c in name) + corpus_seed)


def bench_path(entry: str, work_dir: str) -> str:
    """Where a corpus entry's ``.bench`` file lives."""
    if "@" not in entry:
        return os.path.join(SHIPPED_DIR, f"{entry}.bench")
    return os.path.join(work_dir, f"{entry.replace('@', '_at_')}.bench")


def write_corpus(entries, work_dir: str, corpus_seed: int = 0
                 ) -> Dict[str, str]:
    """Write every generated entry's netlist; map entry -> file path.

    Files are replaced atomically, so a reader never sees half a file.
    """
    os.makedirs(work_dir, exist_ok=True)
    paths: Dict[str, str] = {}
    for entry in entries:
        path = bench_path(entry, work_dir)
        if "@" in entry:
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w") as handle:
                handle.write(profile_bench(entry, corpus_seed))
            os.replace(tmp, path)
        paths[entry] = path
    return paths
