"""Average Hamiltonian theory for bang-bang decoupling on encoded qubits.

Subpackages by concern:

- :mod:`aht.operators` -- dense n-qubit operator algebra (n <= 5);
- :mod:`aht.decoupling` -- pulse cycles, toggling frames, averages,
  first-order corrections and the named sequence library;
- :mod:`aht.codes` -- the dfs2 / dfs2x2 / ns3 codes, logical
  observables, restrictions and closed-form logical Hamiltonians;
- :mod:`aht.universality` -- Lie closures, symmetric splits and
  transformer-group reachability;
- :mod:`aht.noise` -- stochastic dephasing ensembles with classical
  Ornstein-Uhlenbeck noise;
- :mod:`aht.scenario` -- scenario files and the table of kinds that
  checks and runs them;
- :mod:`aht.cli` -- the ``aht`` command line (``run``, ``list``, ``verify``).
"""
from .config import DEFAULT_TOL, BranchCutError, Tolerances, ToleranceError, ValidationError
from .operators import (
    Operator,
    PauliString,
    collective,
    commutator,
    conjugate,
    exchange,
    expm,
    inner_product,
    logm_effective,
    pauli_decompose,
    pauli_sum,
    single_qubit,
)
from .decoupling import (
    DecouplingScheme,
    DecouplingSet,
    average_zeroth,
    builtin_groups,
    cycle_propagator,
    effective_defect,
    first_order_correction,
    frames_from_scheme,
    named_sequence,
    project_group,
)
from .codes import (
    Code,
    LogicalAction,
    build_code,
    dfs2x2_logical_hamiltonian,
    logical_action,
    nmr_hamiltonian,
    ns3_hamiltonian,
    ns3_logical_hamiltonian,
    verify_pulse_correspondence,
    weak_coupling_truncation,
)
from .universality import (
    LieBasis,
    cp_split,
    generate_group,
    lie_closure,
    transformer_generators,
    transformer_reach,
)
from .noise import (
    DecayCurve,
    DephasingChannel,
    NoiseScenario,
    build_scenario,
    ensemble_coherence,
    final_error,
    propagate_trajectory,
    trajectory_propagator,
)

__version__ = "0.1.0"
