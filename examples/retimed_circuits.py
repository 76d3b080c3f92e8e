"""Retimed circuits: density of encoding and the learning advantage.

Reference [9] of the paper showed that retiming lowers the density of
encoding (valid states / all states) and that sequential ATPG complexity
tracks this ratio; the paper's Table 5 shows the biggest learning wins
on retimed circuits.  This example reproduces the whole mechanism:

1. retime a circuit backward a few moves,
2. measure the density drop exactly (explicit state-space analysis),
3. show learning extracting more invalid-state relations,
4. show the ATPG benefiting.

Run:  python examples/retimed_circuits.py
"""

from repro import ATPGConfig, figure2, learn, retime_circuit, run_atpg
from repro.analysis import analyze_state_space


def main() -> None:
    base = figure2()
    print(f"base circuit {base.name}: {base.stats()}")

    print(f"\n{'moves':>5} {'FFs':>4} {'density':>8} {'FF-FF rels':>10}")
    circuits = []
    for moves in range(4):
        circuit = base if moves == 0 else retime_circuit(
            base, moves=moves, name=f"fig2_retimed_{moves}")
        space = analyze_state_space(circuit)
        learned = learn(circuit)
        circuits.append((circuit, learned))
        print(f"{moves:>5} {circuit.num_ffs:>4} "
              f"{space.density_of_encoding:>8.4f} "
              f"{len(learned.relations.invalid_state_relations()):>10}")

    most_retimed, learned = circuits[-1]
    print(f"\nATPG on {most_retimed.name} (backtrack limit 30):")
    for mode, use in (("none", None), ("forbidden", learned),
                      ("known", learned)):
        stats = run_atpg(most_retimed, learned=use,
                         config=ATPGConfig(mode=mode, backtrack_limit=30,
                                           max_frames=8))
        print(f"  mode={mode:9s} det={stats.detected:3d} "
              f"untest={stats.untestable:3d} abort={stats.aborted:3d} "
              f"cpu={stats.cpu_s:.2f}s")

    print("\nAll learned relations on the retimed circuit validate:",
          learned.validate(40, 10) == [])


if __name__ == "__main__":
    main()
