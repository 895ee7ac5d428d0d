"""Pulse compilation and simulation in the single-excitation subspace.

An array of n fully coupled qubits restricted to single-excitation states
behaves as one n-level system whose Hamiltonian is directly programmable.
This package compiles arbitrary n x n unitaries, state preparations and
observable measurements into at most a handful of standard-form pulses
``g_max * K`` and simulates them exactly.
"""
from .decompose import (
    ABADecomposition,
    KAKDecomposition,
    aba_decompose,
    compile_hamiltonian,
    compile_unitary,
    kak_decompose,
    schedule_unitary,
)
from .errors import (
    AlreadyUniform,
    CommutatorViolation,
    ConvergenceError,
    DecompositionError,
    DimensionMismatch,
    InvalidDensityMatrix,
    InvalidState,
    IterationOverflow,
    NonUniformWeights,
    NotHermitian,
    NotUnitary,
    OrthogonalityViolation,
    SesqcError,
)
from .linalg import (
    expm_generator,
    global_phase_fidelity,
    hermitian_eig,
    random_unitary,
    simultaneous_diag,
    symmetric_eig,
    unitary_diagonalize,
)
from .observables import (
    ExpectationEstimate,
    Observable,
    expectation_exact,
    expectation_protocol,
    spectral_decompose,
    std_error_bound,
)
from .pulses import (
    DeviceParams,
    PulseSchedule,
    PulseStep,
    compile_symmetric_generator,
    optimal_shift,
    rotation_angle,
    schedule_duration_ns,
)
from .simulator import (
    DensityMatrixState,
    MeasurementRecord,
    evolve_density,
    evolve_pure,
    measure,
    occupations,
    run_schedule,
)
from .stateprep import (
    PrepPlan,
    SESState,
    compiled_prep_unitary,
    prepare_state_schedule,
    reduce_to_uniform,
    reduction_step,
    star_uniform_step,
    uniform_state,
    uniform_weight_phases_step,
)

__version__ = "0.1.0"

__all__ = [
    "ABADecomposition",
    "AlreadyUniform",
    "CommutatorViolation",
    "ConvergenceError",
    "DecompositionError",
    "DensityMatrixState",
    "DeviceParams",
    "DimensionMismatch",
    "ExpectationEstimate",
    "InvalidDensityMatrix",
    "InvalidState",
    "IterationOverflow",
    "KAKDecomposition",
    "MeasurementRecord",
    "NonUniformWeights",
    "NotHermitian",
    "NotUnitary",
    "Observable",
    "OrthogonalityViolation",
    "PrepPlan",
    "PulseSchedule",
    "PulseStep",
    "SESState",
    "SesqcError",
    "aba_decompose",
    "compile_hamiltonian",
    "compile_symmetric_generator",
    "compile_unitary",
    "compiled_prep_unitary",
    "evolve_density",
    "evolve_pure",
    "expectation_exact",
    "expectation_protocol",
    "expm_generator",
    "global_phase_fidelity",
    "hermitian_eig",
    "kak_decompose",
    "measure",
    "occupations",
    "optimal_shift",
    "prepare_state_schedule",
    "random_unitary",
    "reduce_to_uniform",
    "reduction_step",
    "rotation_angle",
    "run_schedule",
    "schedule_duration_ns",
    "schedule_unitary",
    "simultaneous_diag",
    "spectral_decompose",
    "star_uniform_step",
    "std_error_bound",
    "symmetric_eig",
    "uniform_state",
    "uniform_weight_phases_step",
    "unitary_diagonalize",
]
