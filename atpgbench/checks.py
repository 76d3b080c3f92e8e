"""Independent output checks over the benchmark's own simulator.

Nothing here imports the program: the netlist reader, the three-valued
sequential fault simulator and the two-valued trace simulator are the
benchmark's, so a fault in the program's simulators cannot hide a wrong
answer.  Semantics follow the paper's hard detection criterion: every
machine starts in the all-X state, and a fault is detected when, at some
primary output in some frame, the good and the faulty values are both
binary and differ.

Values are carried bit-parallel in Python integers.  In the fault
simulator bit 0 is the good machine and bit ``i + 1`` the machine with
fault ``i``; a signal is a pair of planes ``(zero, one)``, neither bit
set meaning X.  In the trace simulator bit ``t`` is trace ``t`` and a
signal is one binary plane.
"""

from __future__ import annotations

import random
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: A fault as the checks see it: (node name, fanin pin or None, value).
FaultSpec = Tuple[str, Optional[int], int]

_LINE = re.compile(r"^\s*(\S+)\s*=\s*(\w+)\s*\(([^)]*)\)\s*$")
_IO = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*(\S+?)\s*\)\s*$", re.I)
_OPS = ("AND", "NAND", "OR", "NOR", "NOT", "BUF", "XOR", "XNOR")


class Netlist:
    """A ``.bench`` netlist of DFFs and combinational gates."""

    def __init__(self, text: str):
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.ffs: List[Tuple[str, str]] = []
        gates: Dict[str, Tuple[str, List[str]]] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            io = _IO.match(line)
            if io:
                kind = io.group(1).upper()
                (self.inputs if kind == "INPUT"
                 else self.outputs).append(io.group(2))
                continue
            m = _LINE.match(line)
            if not m:
                raise ValueError(f"unparsable bench line {raw!r}")
            name, op = m.group(1), m.group(2).upper()
            args = [a.strip() for a in m.group(3).split(",") if a.strip()]
            if op == "DFF":
                self.ffs.append((name, args[0]))
            elif op in _OPS:
                gates[name] = (op, args)
            else:
                raise ValueError(f"unsupported cell {op} in {raw!r}")
        # Levelize: a gate follows all of its fanins.
        known = set(self.inputs) | {name for name, _d in self.ffs}
        order: List[str] = []
        pending = list(gates)
        while pending:
            ready = [g for g in pending
                     if all(f in known for f in gates[g][1])]
            if not ready:
                raise ValueError(f"combinational cycle among {pending[:5]}")
            known.update(ready)
            order += ready
            pending = [g for g in pending if g not in known]
        self.order: List[Tuple[str, str, List[str]]] = [
            (g, gates[g][0], gates[g][1]) for g in order]

    @classmethod
    def from_file(cls, path: str) -> "Netlist":
        with open(path) as handle:
            return cls(handle.read())


# ----------------------------------------------------------------------
# three-valued fault simulation
# ----------------------------------------------------------------------
def _force(plane, bits):
    zero, one = plane
    b0, b1 = bits
    return ((zero | b0) & ~b1, (one | b1) & ~b0)


def _gate3(op: str, planes, full: int):
    if op in ("AND", "NAND"):
        zero, one = 0, full
        for z, o in planes:
            zero |= z
            one &= o
    elif op in ("OR", "NOR"):
        zero, one = full, 0
        for z, o in planes:
            zero &= z
            one |= o
    elif op in ("XOR", "XNOR"):
        zero, one = full, 0
        for z, o in planes:
            zero, one = (zero & z) | (one & o), (zero & o) | (one & z)
    else:  # NOT, BUF
        zero, one = planes[0]
    if op in ("NAND", "NOR", "XNOR", "NOT"):
        return one, zero
    return zero, one


def detected_faults(net: Netlist, faults: Sequence[FaultSpec],
                    sequences: Iterable[Sequence[Dict[str, int]]]
                    ) -> Set[int]:
    """Indices of ``faults`` that some sequence detects from all-X."""
    faults = list(faults)
    if not faults:
        return set()
    full = (1 << (len(faults) + 1)) - 1
    out_force: Dict[str, List[int]] = {}
    pin_force: Dict[Tuple[str, int], List[int]] = {}
    for index, (node, pin, value) in enumerate(faults):
        table = (out_force.setdefault(node, [0, 0]) if pin is None
                 else pin_force.setdefault((node, pin), [0, 0]))
        table[value] |= 1 << (index + 1)
    hit = 0
    for sequence in sequences:
        state = {name: (0, 0) for name, _d in net.ffs}
        for vector in sequence:
            values: Dict[str, Tuple[int, int]] = {}
            for name in net.inputs:
                bit = vector.get(name)
                values[name] = ((full, 0) if bit == 0 else
                                (0, full) if bit == 1 else (0, 0))
            values.update(state)
            for name in out_force:
                if name in values:
                    values[name] = _force(values[name], out_force[name])
            for name, op, fanins in net.order:
                planes = [values[f] for f in fanins]
                for pin in range(len(fanins)):
                    bits = pin_force.get((name, pin))
                    if bits is not None:
                        planes[pin] = _force(planes[pin], bits)
                plane = _gate3(op, planes, full)
                bits = out_force.get(name)
                values[name] = plane if bits is None else _force(plane,
                                                                 bits)
            for name in net.outputs:
                zero, one = values[name]
                if zero & 1:
                    hit |= one
                elif one & 1:
                    hit |= zero
            state = {}
            for name, data in net.ffs:
                bits = pin_force.get((name, 0))
                plane = values[data]
                state[name] = plane if bits is None else _force(plane, bits)
    hit &= ~1
    return {index for index in range(len(faults)) if hit >> (index + 1) & 1}


def random_sequences(net: Netlist, count: int, length: int,
                     rng: random.Random) -> List[List[Dict[str, int]]]:
    """``count`` fully specified random input sequences."""
    return [[{name: rng.randint(0, 1) for name in net.inputs}
             for _ in range(length)] for _ in range(count)]


# ----------------------------------------------------------------------
# two-valued trace simulation (tie soundness)
# ----------------------------------------------------------------------
def _gate2(op: str, words: List[int], full: int) -> int:
    if op in ("AND", "NAND"):
        out = full
        for w in words:
            out &= w
    elif op in ("OR", "NOR"):
        out = 0
        for w in words:
            out |= w
    elif op in ("XOR", "XNOR"):
        out = 0
        for w in words:
            out ^= w
    else:  # NOT, BUF
        out = words[0]
    return out ^ full if op in ("NAND", "NOR", "XNOR", "NOT") else out


def tie_violations(net: Netlist, ties: Sequence[Tuple[str, int, int]],
                   traces: int, extra_frames: int, rng: random.Random
                   ) -> List[str]:
    """Ties ``(node, value, warmup)`` that some random trace violates.

    Every trace starts from a random binary state and applies random
    binary inputs; from frame ``warmup`` on, a tied node must never
    carry the opposite value.
    """
    if not ties:
        return []
    full = (1 << traces) - 1
    frames = max(warmup for _n, _v, warmup in ties) + extra_frames
    state = {name: rng.getrandbits(traces) for name, _d in net.ffs}
    problems: List[str] = []
    for frame in range(frames):
        values = {name: rng.getrandbits(traces) for name in net.inputs}
        values.update(state)
        for name, op, fanins in net.order:
            values[name] = _gate2(op, [values[f] for f in fanins], full)
        for node, value, warmup in ties:
            if frame < warmup:
                continue
            wrong = values[node] ^ (full if value == 1 else 0)
            if wrong:
                problems.append(
                    f"tie {node}={value} (warm-up {warmup}) reads "
                    f"{1 - value} in frame {frame}")
        if problems:
            return problems
        state = {name: values[data] for name, data in net.ffs}
    return problems
