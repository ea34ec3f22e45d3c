"""Package-wide API rules."""
import dataclasses
import importlib
import inspect
import re
import warnings

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
from aht.scenario import Scenario
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
        lambda: DecouplingScheme((Operator(PI_X), Operator(np.eye(4))), (0.5, 0.5)),
        re.escape("operator must be a square matrix of side 2, got shape (4, 4)")),
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


# One checker per operand rule: each table lists every site that applies the rule.

#: ||H - H^dag||_max = 2e-11 passes and 2e-9 fails DEFAULT_TOL.equality (1e-10)
NEAR_HERMITIAN, FAR_FROM_HERMITIAN = X + 1e-11j * np.eye(2), X + 1e-9j * np.eye(2)
#: Every site that checks a Hermitian operand (operators._hermitian), as a call on
#: a one-qubit H; lie_closure reads the anti-Hermitian i H.
HERMITIAN_SITES = {
    "expm": lambda h: expm(h, 0.3),
    "cycle_propagator": lambda h: cycle_propagator(h, CP_X),
    "effective_defect": lambda h: effective_defect(h, CP_X),
    "lie_closure": lambda h: lie_closure([1j * h, 1j * SIGMA["Y"]]),
    "DephasingChannel.coupling": lambda h: dataclasses.replace(QUBIT_CHANNEL, coupling=Operator(h)),
    "NoiseScenario.observable": lambda h: dataclasses.replace(
        NOISE_RUN, observable=Operator(np.kron(h, np.eye(2)))),
}


@pytest.mark.parametrize("name", HERMITIAN_SITES)
def test_hermitian_is_one_rule(name):
    HERMITIAN_SITES[name](NEAR_HERMITIAN)
    with pytest.raises(ValidationError, match="must be Hermitian"):
        HERMITIAN_SITES[name](FAR_FROM_HERMITIAN)


def test_is_hermitian_reads_the_same_rule():
    assert Operator(NEAR_HERMITIAN).is_hermitian() and not Operator(FAR_FROM_HERMITIAN).is_hermitian()


#: Every site that checks a finite operand (operators._finite), as a call on one
#: one-qubit operand and the name its message gives it.
FINITE_SITES = {
    "conjugate": (lambda m: conjugate(m, PI_X), "conjugated operator"),
    "lie_closure": (lambda m: lie_closure([1j * SIGMA["Y"], m]), "lie_closure generator"),
    "transformer_reach a": (lambda m: transformer_reach(CP_X_GROUP, m, X), "starting Hamiltonian"),
    "transformer_reach target": (lambda m: transformer_reach(CP_X_GROUP, X, m), "target"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", FINITE_SITES)
def test_finite_is_one_rule(name, value):
    call, what = FINITE_SITES[name]
    m = 1j * X
    m[0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{what} must be finite$"):
            call(m)


#: Every site that reads a non-empty list of operators of one side
#: (operators._operators), and the name its message gives the list.
OPERAND_LIST_SITES = {
    "close_group": (close_group, "generators"),
    "generate_group": (generate_group, "generators"),
    "lie_closure": (lie_closure, "generators"),
    "DecouplingScheme pulses": (lambda ops: DecouplingScheme(ops, (1.0,)), "pulses"),
    "DecouplingSet frames": (lambda ops: DecouplingSet(ops, (1.0,)), "frames"),
    "DecouplingSet.group": (DecouplingSet.group, "frames"),
}
#: (the value, the start of the message refusing it)
OPERAND_LISTS = {
    "empty": ([], "{what} must be a non-empty list, got []"),
    "not a list": (PI_X, "{what} must be a non-empty list, got array("),
    "mixed sides": ([PI_X, np.eye(4)], "operator must be a square matrix of side 2, got shape (4, 4)"),
}


@pytest.mark.parametrize("case", OPERAND_LISTS)
@pytest.mark.parametrize("name", OPERAND_LIST_SITES)
def test_operand_list_is_one_rule(name, case):
    call, what = OPERAND_LIST_SITES[name]
    value, message = OPERAND_LISTS[case]
    with pytest.raises(ValidationError, match=re.escape(message.format(what=what))):
        call(value)


#: Every site that looks a name up in a catalog (config._known), and the name
#: its message gives the catalog.
CATALOG_SITES = {
    "build_scenario": (build_scenario, "scenario"),
    "named_sequence": (named_sequence, "sequence"),
    "build_code": (build_code, "code"),
    "Scenario kind": (lambda name: Scenario(kind=name), "scenario kind"),
    "Scenario.from_dict kind": (lambda name: Scenario.from_dict({"kind": name}), "scenario kind"),
    "Scenario code": (lambda name: Scenario(kind="logical", code=name), "code"),
    "DephasingChannel kind": (lambda name: dataclasses.replace(QUBIT_CHANNEL, kind=name), "channel kind"),
}


@pytest.mark.parametrize("name", ["teleport", ["cp_x"]], ids=["unknown", "unhashable"])
@pytest.mark.parametrize("site", CATALOG_SITES)
def test_catalog_name_is_one_rule(site, name):
    # an unhashable name is refused, not a TypeError; Scenario's field type check
    # refuses a list code first, naming it too
    call, what = CATALOG_SITES[site]
    message = f"unknown {what} {name!r}; known: " if isinstance(name, str) else repr(name)
    with pytest.raises(ValidationError, match=re.escape(message)):
        call(name)
