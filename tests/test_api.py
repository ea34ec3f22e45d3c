"""Package-wide API rules."""
import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import aht
from aht.codes import build_code, logical_action
from aht.config import ValidationError
from aht.decoupling import (
    DecouplingScheme,
    DecouplingSet,
    average_zeroth,
    close_group,
    cycle_propagator,
    effective_defect,
    first_order_correction,
    frames_from_scheme,
    named_sequence,
    project_group,
)
from aht.noise import DephasingChannel, build_scenario
from aht.operators import (
    SIGMA,
    Operator,
    PauliString,
    commutator,
    conjugate,
    equal_up_to_phase,
    exchange,
    expm,
    inner_product,
    logm_effective,
    pauli_decompose,
    pauli_sum,
    phase_insensitive_fidelity,
)
from aht.universality import cp_split, generate_group, lie_closure, transformer_reach

#: Every comparison reads ``aht.DEFAULT_TOL``; no callable takes its own
#: tolerance record or a construction-time assertion flag.
KNOBS = {"tol", "hermitian", "unitary", "traceless"}

SUBMODULES = (
    "operators", "decoupling", "codes", "universality", "noise", "scenario", "verify", "cli",
)


def public_callables() -> dict:
    """Every public callable of ``aht`` and of its submodules' ``__all__``,
    plus each public class's own methods and ``__init__``, by qualified name."""
    objects = {f"aht.{n}": getattr(aht, n) for n in dir(aht) if not n.startswith("_")}
    for mod_name in SUBMODULES:
        mod = importlib.import_module(f"aht.{mod_name}")
        objects.update({f"aht.{mod_name}.{n}": getattr(mod, n) for n in mod.__all__})
    for qualname, obj in list(objects.items()):
        if inspect.isclass(obj):
            for attr in vars(obj):
                if attr == "__init__" or not attr.startswith("_"):
                    objects[f"{qualname}.{attr}"] = getattr(obj, attr)
    return {q: o for q, o in objects.items() if callable(o)}


def test_no_tolerance_or_assertion_parameters():
    offenders = []
    for qualname, obj in public_callables().items():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        offenders += [f"{qualname}({p})" for p in params if p in KNOBS]
    assert not offenders


X = SIGMA["X"]
PI_X = -1j * X
CP_X = named_sequence("cp_x")
CP_X_GROUP = frames_from_scheme(CP_X)
DFS2 = build_code("dfs2")

#: Every public function that takes an operator argument, as a call on one bad
#: operand with the others valid, and the side of a square operand it refuses:
#: the side its other operands fix (a qubit, a two-qubit scheme, the dfs2 code),
#: or 3, no qubit count's side, where nothing else fixes one.
OPERATOR_CALLS = {
    "Operator": (Operator, 3),
    "Operator.__add__": (lambda m: Operator(X) + m, 4),
    "Operator.__sub__": (lambda m: Operator(X) - m, 4),
    "Operator.__matmul__": (lambda m: Operator(X) @ m, 4),
    "conjugate": (lambda m: conjugate(X, m), 4),
    "expm": (lambda m: expm(m, 1.0), 3),
    "logm_effective": (lambda m: logm_effective(m, 1.0), 3),
    "commutator": (lambda m: commutator(X, m), 4),
    "inner_product": (lambda m: inner_product(X, m), 4),
    "pauli_decompose": (pauli_decompose, 3),
    "phase_insensitive_fidelity": (lambda m: phase_insensitive_fidelity(X, m), 4),
    "equal_up_to_phase": (lambda m: equal_up_to_phase(X, m), 4),
    "close_group": (lambda m: close_group([PI_X, m]), 4),
    "DecouplingSet.group": (lambda m: DecouplingSet.group([PI_X, m]), 4),
    "average_zeroth": (lambda m: average_zeroth(m, CP_X_GROUP), 4),
    "project_group": (lambda m: project_group(m, CP_X_GROUP), 4),
    "first_order_correction": (lambda m: first_order_correction(m, CP_X), 4),
    "first_order_correction 2q": (
        lambda m: first_order_correction(m, named_sequence("cp_x", n_qubits=2)), 2),
    "cycle_propagator": (lambda m: cycle_propagator(m, CP_X), 4),
    "effective_defect": (lambda m: effective_defect(m, CP_X), 4),
    "lie_closure": (lambda m: lie_closure([1j * X, m]), 4),
    "cp_split": (lambda m: cp_split(m, PI_X), 4),
    "transformer_reach a": (lambda m: transformer_reach(CP_X_GROUP, m, X), 4),
    "transformer_reach target": (lambda m: transformer_reach(CP_X_GROUP, X, m), 4),
    "generate_group": (lambda m: generate_group([PI_X, m]), 4),
    "Code.restrict": (DFS2.restrict, 2),
    "Code.leakage": (DFS2.leakage, 2),
    "logical_action": (lambda m: logical_action(m, DFS2), 2),
}


@pytest.mark.parametrize("shape", ["non-square", "wrong side"])
@pytest.mark.parametrize("name", OPERATOR_CALLS)
def test_operator_arguments_of_the_wrong_shape_raise_validation_error(name, shape):
    call, side = OPERATOR_CALLS[name]
    with pytest.raises(ValidationError):
        call(np.ones((2, 4)) if shape == "non-square" else np.eye(side))


#: a dfs2 noise run (dimension 4), and a channel on a single qubit (dimension 2)
NOISE_RUN = build_scenario("hybrid_dephasing", repetitions=2, ensemble_size=1)
QUBIT_CHANNEL = DephasingChannel(Operator(SIGMA["Z"]), 1.0, 0.1, "independent_slow")
ZZ = PauliString(2, "ZZ")

#: Every boundary check of a public constructor or method that takes no operator
#: argument, as a call that breaks it and a word of the message it raises.
BOUNDARY_CALLS = {
    "NoiseScenario schedule": (
        lambda: dataclasses.replace(NOISE_RUN, schedule=named_sequence("cp_x")), "schedule"),
    "NoiseScenario coupling": (
        lambda: dataclasses.replace(NOISE_RUN, channels=(QUBIT_CHANNEL,)), "coupling"),
    "NoiseScenario observable": (
        lambda: dataclasses.replace(NOISE_RUN, observable=Operator(X)), "observable"),
    "NoiseScenario initial state": (
        lambda: dataclasses.replace(NOISE_RUN, initial_state=np.array([1, 0])), "initial state"),
    "DephasingChannel kind": (
        lambda: dataclasses.replace(QUBIT_CHANNEL, kind="telegraph"), "kind"),
    "DephasingChannel coupling": (
        lambda: dataclasses.replace(QUBIT_CHANNEL, coupling=Operator(PI_X)), "Hermitian"),
    "DecouplingScheme no pulses": (lambda: DecouplingScheme((), (1.0,)), "pulse"),
    "DecouplingScheme durations": (
        lambda: DecouplingScheme((Operator(PI_X), Operator(PI_X)), (1.0,)), "durations"),
    "DecouplingScheme mixed dimensions": (
        lambda: DecouplingScheme((Operator(PI_X), Operator(np.eye(4))), (0.5, 0.5)), "dimension"),
    "DecouplingScheme non-unitary pulse": (
        lambda: DecouplingScheme((Operator(2 * X), Operator(X / 2)), (0.5, 0.5)), "unitary"),
    "DecouplingSet misaligned": (
        lambda: DecouplingSet((Operator(X),), (0.5, 0.5)), "align"),
    "DecouplingSet empty": (lambda: DecouplingSet((), ()), "empty"),
    "DecouplingSet not normalized": (
        lambda: DecouplingSet((Operator(X), Operator(PI_X)), (0.5, 0.6)), "sum to 1"),
    "Code.observable": (lambda: DFS2.observable("x", 2), "observable"),
    "Code.logical_pi": (lambda: DFS2.logical_pi("xx"), "letters"),
    "Code.physical_pi letters": (lambda: DFS2.physical_pi(""), "letters"),
    "Code.physical_pi realization": (lambda: build_code("ns3").physical_pi("z"), "realization"),
    "Code.encode": (lambda: DFS2.encode([1, 0, 0]), "logical state"),
    "PauliString letter count": (lambda: PauliString(2, "Z"), "letters"),
    "PauliString letters": (lambda: PauliString(1, "Q"), "unknown"),
    "PauliString.from_word indices": (lambda: PauliString.from_word("ZZ", [1], 2), "indices"),
    "PauliString.from_word range": (lambda: PauliString.from_word("Z", [3], 2), "outside"),
    "PauliString.from_word twice": (lambda: PauliString.from_word("ZZ", [1, 1], 2), "twice"),
    "pauli_sum empty": (lambda: pauli_sum([]), "qubit count"),
    "pauli_sum mismatched": (lambda: pauli_sum([ZZ, PauliString(1, "Z")]), "mismatched"),
    "pauli_sum qubit count": (lambda: pauli_sum([ZZ], n=3), "expected 3"),
    "pauli_sum overflow": (
        lambda: pauli_sum([PauliString(1, "Z", 1e308), PauliString(1, "X", 1e308)]), "largest"),
    "exchange": (lambda: exchange(2, 2, 3), "distinct"),
}


@pytest.mark.parametrize("name", BOUNDARY_CALLS)
def test_bad_arguments_raise_validation_error(name):
    call, word = BOUNDARY_CALLS[name]
    with pytest.raises(ValidationError, match=word):
        call()
