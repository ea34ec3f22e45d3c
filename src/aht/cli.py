"""The ``aht`` command line: scenario runner, catalog and verification.

Usage::

    aht run scenario.json [--seed N] [--out PATH] [--format csv|json]
    aht list
    aht verify [--seed N] [--ensemble N] [--out PATH]

Exit codes: 0 success, 2 validation error (malformed file, unknown
names, dimension mismatches), 3 numerical-tolerance failure (e.g. a
branch-cut ambiguity in the effective Hamiltonian log).  Every error
path emits a single machine-parsable ``error: ...`` line on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .codes import CODE_NAMES, build_code, logical_action
from .config import ToleranceError, ValidationError
from .decoupling import (
    SEQUENCE_NAMES,
    average_zeroth,
    cycle_propagator,
    effective_defect,
    frames_from_scheme,
    project_group,
)
from .noise import SCENARIO_NAMES, build_scenario, ensemble_coherence
from .operators import logm_effective
from .scenario import Scenario, parse_hamiltonian
from .universality import lie_closure
from .verify import format_report, run_suite

__all__ = ["main", "run", "list_builtins"]


def _matrix_payload(m: np.ndarray) -> dict:
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"


def _run_average(sc: Scenario) -> str:
    h = sc.resolve_hamiltonian()
    frames = frames_from_scheme(sc.resolve_sequence())
    avg = average_zeroth(h, frames)
    payload = {"kind": sc.kind, "average": _matrix_payload(avg.matrix), "is_group": frames.is_group}
    return _dump_json(payload)


def _run_project(sc: Scenario) -> str:
    h = sc.resolve_hamiltonian()
    frames = frames_from_scheme(sc.resolve_sequence())
    proj = project_group(h, frames)
    return _dump_json({"kind": sc.kind, "average": _matrix_payload(proj.matrix)})


def _run_propagate(sc: Scenario) -> str:
    h = sc.resolve_hamiltonian()
    scheme = sc.resolve_sequence()
    u = cycle_propagator(h, scheme)
    h_eff = logm_effective(u.matrix, scheme.cycle_time)
    payload = {
        "kind": sc.kind,
        "cycle_time": scheme.cycle_time,
        "propagator": _matrix_payload(u.matrix),
        "effective_hamiltonian": _matrix_payload(h_eff.matrix),
    }
    return _dump_json(payload)


def _run_logical(sc: Scenario) -> str:
    if sc.code is None:
        raise ValidationError("kind 'logical' needs a code")
    code = build_code(sc.code)
    h = sc.resolve_hamiltonian()
    action = logical_action(h, code)
    payload = {"kind": sc.kind, "code": sc.code, "action": action.to_dict()}
    return _dump_json(payload)


def _run_universality(sc: Scenario) -> str:
    if not sc.generators:
        raise ValidationError("kind 'universality' needs 'generators' (lists of terms)")
    mats = [
        1j * parse_hamiltonian({"terms": terms}, sc.n_qubits).matrix for terms in sc.generators
    ]
    basis = lie_closure(mats)
    payload: dict = {
        "kind": sc.kind,
        "dimension": basis.dimension,
        "truncated": basis.truncated,
        "n_generators": len(mats),
    }
    return _dump_json(payload)


def _run_noise(sc: Scenario) -> str:
    if sc.noise is None:
        raise ValidationError("kind 'noise' needs a 'noise' block with a scenario name")
    block = dict(sc.noise)
    name = block.pop("name", None)
    if name is None:
        raise ValidationError("noise block needs a 'name'")
    block.setdefault("seed", sc.seed)
    scenario = build_scenario(name, **block)
    curve = ensemble_coherence(scenario)
    if sc.output_format == "csv":
        return curve.to_csv(scenario.describe())
    payload = {
        "kind": sc.kind,
        "scenario": scenario.describe(),
        "times": curve.times.tolist(),
        "mean_coherence": curve.mean.tolist(),
        "std_error": curve.std_error.tolist(),
        "n_traj": curve.n_traj,
    }
    return _dump_json(payload)


def _run_scan(sc: Scenario) -> str:
    if sc.target != "magnus_defect":
        raise ValidationError("kind 'scan' currently supports target 'magnus_defect'")
    if not sc.sweep:
        raise ValidationError("kind 'scan' needs a 'sweep' list of cycle times")
    h = sc.resolve_hamiltonian()
    rows = ["cycle_time,defect,defect_with_first_order"]
    for tc in sc.sweep:
        scheme = sc.resolve_sequence().with_cycle_time(float(tc))
        d0 = effective_defect(h, scheme, include_first_order=False)
        d1 = effective_defect(h, scheme, include_first_order=True)
        rows.append(f"{tc:.12g},{d0:.12g},{d1:.12g}")
    return "\n".join(rows) + "\n"


_DISPATCH = {
    "average": _run_average,
    "project": _run_project,
    "propagate": _run_propagate,
    "logical": _run_logical,
    "universality": _run_universality,
    "noise": _run_noise,
    "scan": _run_scan,
}


def run(path: str, seed: int | None = None, out: str | None = None, fmt: str | None = None) -> int:
    """Execute a scenario file; returns the process exit code."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
        return 2
    try:
        sc = Scenario.from_json(text)
        if seed is not None:
            sc = dataclasses.replace(sc, seed=seed)
        if fmt is not None:
            merged = dict(sc.output or {})
            merged["format"] = fmt
            sc = dataclasses.replace(sc, output=merged)
        payload = _DISPATCH[sc.kind](sc)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    destination = out or sc.output_path
    if destination:
        Path(destination).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def list_builtins() -> str:
    """Catalog of built-in codes, sequences and noise scenarios."""
    lines = ["codes:"]
    code_blurbs = {
        "ns3": "3 qubits; logical qubit on the spin-1/2 multiplicity space; immune to collective noise",
        "dfs2": "2 qubits; logical qubit on span{|01>,|10>}; immune to collective z dephasing",
        "dfs2x2": "4 qubits; two dfs2 blocks on pairs (1,2) and (3,4)",
    }
    for name in CODE_NAMES:
        lines.append(f"  {name.ljust(16)} {code_blurbs[name]}")
    lines.append("sequences:")
    seq_blurbs = {
        "cp_x": "two pi_x pulses, intervals 1/2 + 1/2",
        "cp_x_symmetric": "time-symmetric variant, 1/4 + 1/2 + 1/4 (odd orders vanish)",
        "cp_y": "two pi_y pulses, intervals 1/2 + 1/2",
        "whh4": "four half-pi pulses, 1/6 1/6 1/3 1/6 1/6; averages out dipolar couplings",
        "gmax_cycle": "x,z,x,z pi pulses; maximal averaging over {1,X,Y,Z}",
        "s1_selective_x1": "encoded: keeps only the first logical qubit's x coupling",
        "s1_selective_x2": "encoded: keeps only the second logical qubit's x coupling",
        "zz_extractor": "encoded: keeps only the logical zz coupling",
    }
    for name in SEQUENCE_NAMES:
        lines.append(f"  {name.ljust(16)} {seq_blurbs[name]}")
    lines.append("noise scenarios:")
    noise_blurbs = {
        "hybrid_dephasing": "fast collective + slow independent dephasing on two qubits",
        "encoded_spin_boson": "dfs2 qubit with logical drift under slow dephasing",
        "encoded_depolarizing": "dfs2 qubit with slow noise on both logical axes",
        "four_qubit_blockwise": "two dfs2 blocks under blockwise-correlated fast dephasing",
    }
    for name in SCENARIO_NAMES:
        lines.append(f"  {name.ljust(21)} {noise_blurbs[name]}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aht", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="write results here instead of stdout")
    p_run.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt")

    sub.add_parser("list", help="print built-in codes, sequences and noise scenarios")

    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.add_argument("--ensemble", type=int, default=500, help="trajectories per noise check")
    p_verify.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, seed=args.seed, out=args.out, fmt=args.fmt)
    if args.command == "list":
        sys.stdout.write(list_builtins())
        return 0
    try:
        checks = run_suite(seed=args.seed, ensemble=args.ensemble)
    except ValidationError as exc:  # e.g. --ensemble 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = format_report(checks, args.seed)
    if args.out:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
