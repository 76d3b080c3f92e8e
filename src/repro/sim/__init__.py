"""Simulation substrates: event-driven 3-valued, bit-parallel, fault sim."""

from .compiled import (
    SIM_BACKENDS,
    CompiledCircuit,
    CompiledFaultSimulator,
    clear_compile_cache,
    compile_cache_stats,
    compile_circuit,
    make_fault_simulator,
    warm_cache,
)
from .eventsim import (
    Assignment,
    Conflict,
    Coupling,
    FrameSimulator,
    InjectionResult,
    simulate_sequence,
)
from .faultsim import FaultSimulator, fault_coverage, fault_simulate
from .parallel import (
    exhaustive_masks,
    pack_patterns,
    random_source_masks,
    signatures,
    simulate_patterns,
)
from .resident import SubsetResidentDropper, make_resident_dropper
from .values import (
    V0,
    V1,
    VD,
    VDBAR,
    VX,
    composite_name,
    is_fault_effect,
)

__all__ = [
    "SubsetResidentDropper", "make_resident_dropper",
    "SIM_BACKENDS", "CompiledCircuit", "CompiledFaultSimulator",
    "clear_compile_cache", "compile_cache_stats", "compile_circuit",
    "make_fault_simulator",
    "warm_cache",
    "Assignment", "Conflict", "Coupling", "FrameSimulator",
    "InjectionResult", "simulate_sequence",
    "FaultSimulator", "fault_coverage", "fault_simulate",
    "exhaustive_masks", "pack_patterns", "random_source_masks",
    "signatures", "simulate_patterns",
    "V0", "V1", "VD", "VDBAR", "VX", "composite_name", "is_fault_effect",
]
