"""Workload inputs for the aht benchmark, generated from a seed.

``generate(workload, seed)`` is a pure function of its arguments: it
returns the same operations, scenario files and expected values for the
same seed.  The program under test only ever sees the scenario files and
the CLI arguments; the ``expect`` data stays with the benchmark and feeds
the output checks in :mod:`perfbench.checks`.

Why each workload exists (see ``perfbench/README.md`` for the metric map):

- ``verify``: ``aht verify --ensemble 500``, the paper-claims suite users
  run.  About 90% of it is the diagonal noise path (``hybrid_dephasing``
  at 6400 and 12800 steps x 500 trajectories); it bypasses the ``eigh``
  path and large Lie closures.
- ``noise_eigh``: the only built-in noise scenarios whose drift or
  couplings are non-diagonal, so every step runs the batched ``eigh``
  path on a small noise tensor.
- ``algebra``: the non-noise scenario kinds, sized so that no single
  public function holds much more than half of a pass.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from aht.codes import build_code, dfs2x2_logical_hamiltonian
from aht.decoupling import frames_from_scheme, named_sequence

WORKLOADS = ("verify", "noise_eigh", "algebra")

#: Seed whose outputs are recorded under ``perfbench/reference``.
REFERENCE_SEED = 2024

VERIFY_ENSEMBLE = 500
NOISE_REPETITIONS = 64
NOISE_ENSEMBLE = 500
#: Operations of each light algebra kind per pass; with one 3-qubit Lie
#: closure (dimension 63) this keeps ``lie_closure`` near half a pass.
ALGEBRA_COPIES = 14
SCAN_SWEEP = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)
PROJECT_SEQUENCES = (
    # (sequence, code, n_qubits): group-valued encoded cycles, physical pulses
    ("s1_selective_x1", "dfs2x2", 4),
    ("s1_selective_x2", "dfs2x2", 4),
    ("zz_extractor", "dfs2x2", 4),
    ("gmax_cycle", "dfs2", 2),
)
DFS2X2_PAIRS = ("12", "13", "14", "23", "24", "34")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: an ``aht`` command line and its checks.

    ``scenario`` (if any) is written to ``<dir>/<name>.json`` and its path
    appended to ``argv``.  ``check`` selects the output check and
    ``expect`` holds what it compares against.
    """

    name: str
    check: str
    argv: tuple[str, ...]
    scenario: dict | None = None
    expect: dict[str, Any] = field(default_factory=dict)

    @property
    def is_reference(self) -> bool:
        """Ops whose output at ``REFERENCE_SEED`` is recorded (one per kind)."""
        return self.name.endswith("-0")


def generate(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """Operations of one pass of ``workload`` at ``seed``.

    ``tiny`` shrinks every size that does not decide pass/fail, for the
    benchmark's own tests; the benchmark itself never sets it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify":
        return [_verify_op(seed)]
    if workload == "noise_eigh":
        reps, ens = (4, 16) if tiny else (NOISE_REPETITIONS, NOISE_ENSEMBLE)
        return [_noise_op(name, rng, reps, ens) for name in ("encoded_spin_boson", "encoded_depolarizing")]
    return _algebra_ops(rng, copies=1 if tiny else ALGEBRA_COPIES, tiny=tiny)


def materialize(ops: list[Op], directory: Path) -> list[list[str]]:
    """Write each op's scenario file under ``directory``; return the argv lists."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for op in ops:
        argv = list(op.argv)
        if op.scenario is not None:
            path = directory / f"{op.name}.json"
            path.write_text(json.dumps(op.scenario, sort_keys=True, indent=2) + "\n")
            argv.append(str(path))
        argvs.append(argv)
    return argvs


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    # six decimals keep scenario files readable and exactly reproducible
    return round(float(rng.uniform(lo, hi)), 6)


def _verify_op(seed: int) -> Op:
    return Op(
        "verify-0", "verify",
        ("verify", "--seed", str(seed), "--ensemble", str(VERIFY_ENSEMBLE)),
    )


def _noise_op(name: str, rng: np.random.Generator, repetitions: int, ensemble: int) -> Op:
    knobs: dict[str, Any] = {"slow_amplitude": _u(rng, 0.05, 0.15)}
    if name == "encoded_spin_boson":
        knobs.update(delta_omega=_u(rng, 0.3, 0.7), j_drift=_u(rng, 0.15, 0.35))
    cycle_time = 1.0
    scenario = {
        "kind": "noise",
        "seed": int(rng.integers(0, 2**31 - 1)),
        "output": {"format": "csv"},
        "noise": {"name": name, "repetitions": repetitions, "ensemble_size": ensemble,
                  "cycle_time": cycle_time, **knobs},
    }
    expect = {"name": name, "n_traj": ensemble, "total_time": repetitions * cycle_time,
              "records": repetitions + 1}
    return Op(f"{name}-0", "noise", ("run",), scenario, expect)


def _terms(rng: np.random.Generator, words: list[str]) -> list[str]:
    return [f"{_u(rng, 0.2, 1.2)} {w}" for w in words]


def _algebra_ops(rng: np.random.Generator, copies: int, tiny: bool) -> list[Op]:
    n_univ = 2 if tiny else 3
    chain = [f"{_u(rng, 0.5, 1.5)} s{q}{q + 1}" for q in range(1, n_univ)]
    z_fields = [f"{_u(rng, 0.5, 1.5)} Z {q}" for q in range(1, n_univ + 1)]
    x_fields = [f"{_u(rng, 0.5, 1.5)} X {q}" for q in range(1, n_univ + 1)]
    ops = [Op(
        "universality-0", "universality", ("run",),
        {"kind": "universality", "n_qubits": n_univ, "generators": [chain, z_fields, x_fields]},
        {"dimension": 4**n_univ - 1, "n_generators": 3},
    )]
    for k in range(copies):
        ops += [
            _scan_op(rng, k), _propagate_op(rng, k, tiny), _logical_op(rng, k), _project_op(rng, k),
        ]
    return ops


def _scan_op(rng: np.random.Generator, k: int) -> Op:
    scenario = {
        "kind": "scan", "n_qubits": 3, "target": "magnus_defect",
        "hamiltonian": {"terms": _terms(rng, ["XX 1 2", "ZY 2 3", "Z 1", "Y 2", "X 3", "ZZ 1 3"])},
        "sequence": {"name": "cp_x" if k % 2 == 0 else "cp_x_symmetric"},
        "sweep": list(SCAN_SWEEP),
    }
    return Op(f"scan-{k}", "scan", ("run",), scenario, {"sweep": list(SCAN_SWEEP)})


def _propagate_op(rng: np.random.Generator, k: int, tiny: bool) -> Op:
    n = 3 if tiny else 5
    words = [f"s{q}{q + 1}" for q in range(1, n)] + [f"Z{q}" for q in range(1, n + 1)] + ["X 2"]
    cycle_time = _u(rng, 0.2, 0.6)
    scenario = {
        "kind": "propagate", "n_qubits": n, "cycle_time": cycle_time,
        "hamiltonian": {"terms": _terms(rng, words)},
        "sequence": {"name": "cp_x" if k % 2 == 0 else "cp_x_symmetric"},
    }
    return Op(f"propagate-{k}", "propagate", ("run",), scenario, {"cycle_time": cycle_time})


def _logical_op(rng: np.random.Generator, k: int) -> Op:
    nu = [_u(rng, -200.0, 200.0) for _ in range(4)]
    j = {pair: _u(rng, -2.0, 2.0) for pair in DFS2X2_PAIRS}
    scenario = {
        "kind": "logical", "n_qubits": 4, "code": "dfs2x2",
        "hamiltonian": {"nmr": {"nu": nu, "j": j, "species": ["H", "H", "C", "C"],
                                "weak_coupling": True}},
    }
    closed, _ = dfs2x2_logical_hamiltonian(nu, j)
    return Op(f"logical-{k}", "logical", ("run",), scenario, {"logical": closed.matrix})


def _project_op(rng: np.random.Generator, k: int) -> Op:
    sequence, code, n = PROJECT_SEQUENCES[k % len(PROJECT_SEQUENCES)]
    words = [f"s{q}{q + 1}" for q in range(1, n)] + [f"Z{q}" for q in range(1, n + 1)]
    words += ["X 1", f"ZZ 1 {n}"]
    scenario = {
        "kind": "project", "n_qubits": n,
        "hamiltonian": {"terms": _terms(rng, words)},
        "sequence": {"name": sequence, "code": code, "physical": True},
    }
    scheme = named_sequence(sequence, code=build_code(code), physical=True)
    frames = [f.matrix for f in frames_from_scheme(scheme).frames]
    return Op(f"project-{k}", "project", ("run",), scenario, {"frames": frames})
