"""The ``aht`` command line: scenario runner, catalog and verification.

Usage::

    aht run scenario.json [--seed N] [--out PATH] [--format csv|json]
    aht list
    aht verify [--seed N] [--ensemble N] [--out PATH]

This module holds only the command line: argument parsing, file input
and output, and exit codes.  ``aht run`` hands the file to
:class:`aht.scenario.Scenario`, whose kind table checks it (fields,
output format) and runs it; ``aht verify`` runs the suite of
:mod:`aht.verify`.

Exit codes: 0 success, 2 validation error (malformed file, unknown
names, unread fields, unsupported formats, dimension mismatches, an
output file that cannot be written -- its directory is checked before
the run), 3
numerical-tolerance failure (e.g. a branch-cut ambiguity in the
effective Hamiltonian log).  Every error path emits a single
machine-parsable ``error: ...`` line on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .codes import CODE_NAMES
from .config import ToleranceError, ValidationError
from .decoupling import SEQUENCE_NAMES
from .noise import SCENARIO_NAMES
from .scenario import Scenario
from .verify import format_report, run_suite

__all__ = ["main", "run", "list_builtins"]


def run(path: str, seed: int | None = None, out: str | None = None, fmt: str | None = None) -> int:
    """Execute a scenario file; returns the process exit code."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
        return 2
    try:
        sc = Scenario.from_json(text)
        if seed is not None:
            # the flag wins over a noise block's own seed too
            noise = sc.noise and {k: v for k, v in sc.noise.items() if k != "seed"}
            sc = dataclasses.replace(sc, seed=seed, noise=noise)
        if fmt is not None:
            sc = dataclasses.replace(sc, output={**(sc.output or {}), "format": fmt})
        destination = out or sc.output_path
        _check_destination(destination)
        payload = sc.run()
    except (ValidationError, ToleranceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    return _write(destination, payload)


def _check_destination(destination: str | None) -> None:
    """Refuse, before any computation, a file whose directory does not exist."""
    if destination and not Path(destination).parent.is_dir():
        raise ValidationError(f"output directory {str(Path(destination).parent)!r} does not exist")


def _write(destination: str | None, text: str) -> int:
    """Write ``text`` to ``destination`` (stdout if none); 0, or 2 if it cannot."""
    if not destination:
        sys.stdout.write(text)
        return 0
    try:
        Path(destination).write_text(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
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
    p_run.add_argument("--format", default=None, dest="fmt",
                       help="output format; each scenario kind writes only some")

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
        _check_destination(args.out)
        checks = run_suite(seed=args.seed, ensemble=args.ensemble)
    except ValidationError as exc:  # e.g. --ensemble 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = _write(args.out, format_report(checks, args.seed))
    return failed or (0 if all(c.passed for c in checks) else 1)


if __name__ == "__main__":
    raise SystemExit(main())
