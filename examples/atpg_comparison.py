"""Table-5 style experiment: ATPG with/without learned implications.

Runs the full three-mode comparison (no learning, forbidden-value,
known-value) at two backtrack limits on a benchmark-profile circuit and
on the paper's Figure 2 decision-pruning example.

Run:  python examples/atpg_comparison.py
"""

from repro import ATPGConfig, figure2, iscas_like, learn
from repro.atpg import Fault, SequentialATPG, run_atpg


def table5_style(circuit, max_faults=60) -> None:
    print(f"\n=== {circuit.name}: {circuit.stats()} ===")
    learned = learn(circuit)
    print(f"learning: {learned.summary()}")
    header = (f"{'limit':>6} {'mode':>10} {'det':>5} {'untest':>6} "
              f"{'abort':>5} {'cov%':>6} {'cpu_s':>7}")
    print(header)
    for limit in (30, 300):
        for mode, use in (("none", None), ("forbidden", learned),
                          ("known", learned)):
            config = ATPGConfig(mode=mode, backtrack_limit=limit,
                                max_frames=8, max_faults=max_faults)
            stats = run_atpg(circuit, learned=use, config=config)
            print(f"{limit:>6} {mode:>10} {stats.detected:>5} "
                  f"{stats.untestable:>6} {stats.aborted:>5} "
                  f"{100 * stats.test_coverage:>6.1f} "
                  f"{stats.cpu_s:>7.2f}")


def figure2_decision_nodes() -> None:
    """The paper's section 4 example: detecting G9 s-a-1.

    Justifying G9=0 makes G6 and G7 decision nodes (two solutions each);
    the learned relation G9=0 -> F2=0 picks the shared solution F2=0.
    """
    circuit = figure2()
    learned = learn(circuit)
    print("\n=== Figure 2: G9 stuck-at-1, decision-node pruning ===")
    print("learned relation present:",
          learned.relations.has("G9", 0, "F2", 0))
    fault = Fault(circuit.nid("G9"), None, 1)
    for mode, relations in (("none", None),
                            ("forbidden", learned.relations),
                            ("known", learned.relations)):
        atpg = SequentialATPG(circuit, relations=relations, mode=mode,
                              backtrack_limit=1000, max_frames=6)
        result = atpg.generate(fault)
        print(f"  mode={mode:9s} status={result.status:9s} "
              f"decisions={result.decisions:3d} "
              f"backtracks={result.backtracks:3d}")
        if result.status == "detected":
            print(f"    test sequence: {result.sequence}")


def main() -> None:
    figure2_decision_nodes()
    table5_style(iscas_like("s382", scale=0.4))


if __name__ == "__main__":
    main()
