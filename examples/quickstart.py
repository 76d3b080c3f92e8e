"""Quickstart: learn invariants on the paper's Figure 1 circuit and use
them to speed up sequential ATPG.

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro import figure1, learn, run_atpg
from repro.api import ATPGRequest, LearnRequest, execute


def main() -> None:
    circuit = figure1()
    print(f"circuit: {circuit.name}  {circuit.stats()}")

    # --- Sequential learning (the paper's contribution) ---------------
    learned = learn(circuit)
    print("\nlearning summary:", learned.summary())

    print("\ntied gates (section 3.2):")
    for tie in learned.ties.all():
        kind = "sequential" if tie.sequential else "combinational"
        print(f"  {circuit.nodes[tie.nid].name} tied to {tie.value}"
              f"  [{kind}, found by {tie.phase}]")

    print("\ninvalid-state relations (FF-FF, canonical orientation):")
    for relation in learned.relations.invalid_state_relations():
        a = circuit.nodes[relation.a].name
        b = circuit.nodes[relation.b].name
        print(f"  {a}={relation.va} -> {b}={relation.vb}"
              f"  [{relation.source}]")

    # Every learned fact is checked against random real executions.
    violations = learned.validate(n_sequences=50, seq_len=12)
    print(f"\nMonte-Carlo validation: {len(violations)} violations")

    # --- ATPG with and without the learned knowledge ------------------
    print("\nATPG (backtrack limit 30):")
    for mode, use in (("none", None), ("forbidden", learned),
                      ("known", learned)):
        stats = run_atpg(circuit, learned=use, mode=mode,
                         backtrack_limit=30, max_frames=8)
        print(f"  mode={mode:9s} detected={stats.detected:3d}"
              f"  untestable={stats.untestable:2d}"
              f"  aborted={stats.aborted:2d}"
              f"  test-coverage={100 * stats.test_coverage:5.1f}%"
              f"  cpu={stats.cpu_s:5.2f}s")

    # --- The same pipeline via the request API ------------------------
    # Learn once, save the artifact, reuse it without relearning: this
    # is the canonical flow (and what `repro learn --save` / `repro atpg
    # --learned` run under the hood).
    print("\nRequest API (learn once, reuse the artifact):")
    with tempfile.TemporaryDirectory() as tmp:
        artifact = os.path.join(tmp, "figure1.learn.json")
        learned_run = execute(LearnRequest(spec="figure1", save=artifact))
        print(f"  learn: {learned_run.result['learn']}")

        rerun = execute(ATPGRequest(spec="figure1", modes=("known",),
                                    learned=artifact))  # no relearning
        print(f"  atpg:  {rerun.result['atpg']['known']}")

if __name__ == "__main__":
    main()
