"""Output checks for the aht benchmark.

Every check returns a list of problems; an empty list means the output is
correct.  An operation fails when ``aht`` exits non-zero, prints an
``error:`` line, or any check below reports a problem.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

#: Matrix identities (unitarity, Hermiticity, commutation, closed forms)
#: hold to rounding; this bound is relative to the operator's max entry.
MATRIX_TOL = 1e-9
#: Reference comparison: numbers may move by ``REF_ATOL + REF_RTOL * |ref|``
#: (summation-order changes move the last digits; residuals near 1e-16 may
#: change freely), and all non-numeric text must match exactly.
REF_ATOL = 1e-9
REF_RTOL = 1e-9

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def check_output(op, rc: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one operation's outcome (``op`` is a ``workloads.Op``)."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if any(line.startswith("error:") for line in stderr.splitlines()):
        problems.append("error line on stderr")
    if problems:
        return problems
    try:
        return _CHECKS[op.check](stdout, op.expect)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable output: {exc!r}"]


def compare_reference(reference: str, output: str) -> list[str]:
    """Problems with ``output`` against a recorded reference, within tolerance."""
    ref_text, ref_nums = _split_numbers(reference)
    out_text, out_nums = _split_numbers(output)
    if ref_text != out_text:
        return ["text differs from reference"]
    if len(ref_nums) != len(out_nums):
        return ["number count differs from reference"]
    worst = max(
        (abs(a - b) - REF_RTOL * abs(b) for a, b in zip(out_nums, ref_nums)), default=-1.0
    )
    if not worst <= REF_ATOL:
        return [f"numbers differ from reference by {worst:.3g} beyond tolerance"]
    return []


def _split_numbers(text: str) -> tuple[str, list[float]]:
    nums = [float(m) for m in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), nums


def _verify(stdout: str, expect: dict) -> list[str]:
    last = stdout.rstrip("\n").splitlines()[-1] if stdout.strip() else ""
    return [] if last == "9/9 checks passed" else [f"report ends {last!r}"]


def _noise(stdout: str, expect: dict) -> list[str]:
    lines = stdout.splitlines()
    if not lines[0].startswith("# "):
        return ["missing parameter header"]
    params = json.loads(lines[0][2:])
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    problems = []
    if params.get("name") != expect["name"]:
        problems.append(f"header names {params.get('name')!r}")
    if len(rows) != expect["records"]:
        problems.append(f"{len(rows)} records, expected {expect['records']}")
    for r in rows:
        t, m, s = float(r["time_s"]), float(r["mean_coherence"]), float(r["std_error"])
        if not all(math.isfinite(v) for v in (t, m, s)):
            problems.append(f"non-finite value at t={r['time_s']}")
        elif abs(m) > 1.0 or s < 0.0:
            problems.append(f"mean {m} or std_error {s} out of range at t={t}")
        if int(r["n_traj"]) != expect["n_traj"]:
            problems.append(f"n_traj {r['n_traj']} != {expect['n_traj']}")
    if rows and not math.isclose(float(rows[-1]["time_s"]), expect["total_time"], rel_tol=1e-9):
        problems.append(f"last record time {rows[-1]['time_s']} != {expect['total_time']}")
    return problems


def _matrix(payload: dict, key: str = "") -> np.ndarray:
    if key:
        return np.array(payload[f"{key}_real"]) + 1j * np.array(payload[f"{key}_imag"])
    return np.array(payload["real"]) + 1j * np.array(payload["imag"])


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(b))))
    return bool(np.max(np.abs(a - b)) <= MATRIX_TOL * scale)


def _universality(stdout: str, expect: dict) -> list[str]:
    out = json.loads(stdout)
    problems = []
    if out["dimension"] != expect["dimension"]:
        problems.append(f"closure dimension {out['dimension']} != {expect['dimension']}")
    if out["truncated"] or out["n_generators"] != expect["n_generators"]:
        problems.append("closure truncated or generator count wrong")
    return problems


def _scan(stdout: str, expect: dict) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    got = [float(r["cycle_time"]) for r in rows]
    if got != expect["sweep"]:
        return [f"sweep {got} != {expect['sweep']}"]
    values = [float(r[k]) for r in rows for k in ("defect", "defect_with_first_order")]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        return ["defect not finite and nonnegative"]
    return []


def _propagate(stdout: str, expect: dict) -> list[str]:
    out = json.loads(stdout)
    u = _matrix(out["propagator"])
    h = _matrix(out["effective_hamiltonian"])
    t = float(out["cycle_time"])
    eye = np.eye(u.shape[0])
    problems = []
    if t != expect["cycle_time"]:
        problems.append(f"cycle time {t} != {expect['cycle_time']}")
    if not _close(u @ u.conj().T, eye):
        problems.append("propagator not unitary")
    if not _close(h, h.conj().T):
        problems.append("effective Hamiltonian not Hermitian")
    evals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    if not _close((vecs * np.exp(-1j * evals * t)) @ vecs.conj().T, u):
        problems.append("exp(-i H_eff T) != propagator")
    return problems


def _logical(stdout: str, expect: dict) -> list[str]:
    action = json.loads(stdout)["action"]
    problems = []
    if not (action["preserves_code"] and action["factorizable"]):
        problems.append("action leaks or does not factorize")
    if not _close(_matrix(action, "logical_part"), expect["logical"]):
        problems.append("logical part != dfs2x2_logical_hamiltonian")
    return problems


def _project(stdout: str, expect: dict) -> list[str]:
    p = _matrix(json.loads(stdout)["average"])
    problems = []
    if not _close(p, p.conj().T):
        problems.append("projection not Hermitian")
    if not all(_close(p @ f, f @ p) for f in expect["frames"]):
        problems.append("projection does not commute with every group frame")
    return problems


_CHECKS = {
    "verify": _verify,
    "noise": _noise,
    "universality": _universality,
    "scan": _scan,
    "propagate": _propagate,
    "logical": _logical,
    "project": _project,
}
