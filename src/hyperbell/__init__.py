"""Two-photon polarization-path all-versus-nothing Bell test, simulated exactly.

The package builds the doubly entangled state, machine-checks its nine
perfect-correlation relations, proves by exhaustive enumeration that no
local-realistic assignment reproduces them (Bell-Mermin value at most 7
against the quantum 9), and simulates the six linear-optics apparatuses that
measure every quantity in the argument, with a white-noise visibility model
reproducing the 7/9 violation threshold.
"""

from .hilbert import (
    ATOL,
    BasisIndex,
    Operator,
    StateVector,
    apply,
    commutator_norm,
    expectation,
    matmul,
)
from .observables import (
    CONSTRAINT_ROWS,
    ConstraintRow,
    MerminOperator,
    bell_mermin_operator,
    build_bell_states,
    doubly_entangled_state,
    qudit_relabel,
    verify_eigenequations,
)
from .lhv import (
    CONSTRAINTS,
    ELEMENTS,
    LHV_BOUND,
    QUANTUM_VALUE,
    ContradictionCertificate,
    LhvAssignment,
    check,
    contradiction_certificate,
    enumerate_assignments,
    mermin_value,
    parity_argument,
)
from .optics import (
    ApparatusSpec,
    bell_histogram,
    bell_probabilities,
    build_apparatus,
    element_unitary,
    joint_distribution,
    pattern_distribution,
    readout_table,
)
from .experiment import (
    DEFAULT_SEED,
    DEFAULT_SHOTS,
    CorrelationEstimate,
    estimate_mermin,
    estimate_pair,
    estimate_rows,
    exact_expectation,
    noisy_state,
    visibility_sweep,
)

__version__ = "0.1.0"
