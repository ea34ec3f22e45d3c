"""Self-verification suite: every closed-form identity the library rests on.

``aht verify`` runs these checks and prints one pass/fail row each.  All
randomness derives from the single seed argument, every reported number
uses a fixed format, and nothing time- or host-dependent enters the
report, so identical invocations produce byte-identical output.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codes import (
    build_code,
    dfs2x2_logical_hamiltonian,
    logical_action,
    nmr_hamiltonian,
    ns3_hamiltonian,
    ns3_logical_hamiltonian,
    verify_pulse_correspondence,
    weak_coupling_truncation,
)
from .config import _seed
from .decoupling import (
    average_zeroth,
    builtin_groups,
    effective_defect,
    frames_from_scheme,
    named_sequence,
    project_group,
)
from .noise import (
    build_scenario,
    ensemble_coherences,
    final_error,
    propagate_trajectory,
)
from .operators import (
    PauliString,
    commutator,
    exchange,
    pauli_decompose,
    pauli_sum,
    random_hermitian,
    random_traceless_hermitian,
)
from .universality import lie_closure, transformer_reach

__all__ = ["VerificationCheck", "run_suite", "format_report"]


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str


_Outcome = tuple[bool, str]
_Check = Callable[[np.random.Generator, int, int], _Outcome]


def _projector_laws(rng: np.random.Generator, seed: int, ensemble: int) -> _Outcome:
    groups = builtin_groups()
    per_group = -(-200 // len(groups))  # ceil: at least 200 draws overall
    worst_idem = 0.0
    worst_comm = 0.0
    for g in groups.values():
        n_qubits = g.dim.bit_length() - 1
        for _ in range(per_group):
            h = random_hermitian(n_qubits, rng)
            p = project_group(h, g)
            pp = project_group(p, g)
            worst_idem = max(worst_idem, float(np.max(np.abs(pp.matrix - p.matrix))))
            for u in g.frames:
                worst_comm = max(worst_comm, float(np.max(np.abs(commutator(p, u).matrix))))
    ok = worst_idem < 1e-10 and worst_comm < 1e-10
    return ok, f"idempotence {worst_idem:.2e}, commutant {worst_comm:.2e} over {len(groups)} groups"


def _whh4_averaging(rng: np.random.Generator, seed: int, ensemble: int) -> _Outcome:
    scheme = named_sequence("whh4", n_qubits=2)
    dipolar = 3 * PauliString.from_word("ZZ", [1, 2], 2).to_operator().matrix - exchange(1, 2, 2).matrix
    avg = average_zeroth(dipolar, frames_from_scheme(scheme))
    resid = float(np.max(np.abs(avg.matrix)))
    return resid < 1e-10, f"residual {resid:.2e}"


def _magnus_orders(rng: np.random.Generator, seed: int, ensemble: int) -> _Outcome:
    h = random_hermitian(2, rng, norm=1.0)
    tc = 0.05
    rows = []
    for name, order, lo, hi in (
        ("cp_x", 0, 1.7, 2.3),
        ("cp_x_symmetric", 0, 3.4, 4.6),
        ("cp_x", 1, 3.4, 4.6),
    ):
        d1 = effective_defect(h, named_sequence(name, n_qubits=2, cycle_time=tc))[order]
        d2 = effective_defect(h, named_sequence(name, n_qubits=2, cycle_time=tc / 2))[order]
        ratio = d1 / d2
        rows.append((ratio, lo <= ratio <= hi))
    ok = all(r[1] for r in rows)
    detail = ", ".join(f"{r[0]:.2f}" for r in rows) + " (asym, sym, asym+1st)"
    return ok, detail


def _ns_identity(rng: np.random.Generator, seed: int, ensemble: int) -> _Outcome:
    code = build_code("ns3")
    worst = 0.0
    for _ in range(100):
        omega, j12, j23, j31 = rng.uniform(-2, 2, size=4)
        brute = logical_action(ns3_hamiltonian(omega, j12, j23, j31), code)
        closed = ns3_logical_hamiltonian(omega, j12, j23, j31)
        worst = max(worst, float(np.max(np.abs(brute.logical_part.matrix - closed.matrix))))
    sym = logical_action(ns3_hamiltonian(1.3, 0.7, 0.7, 0.7), code)
    sym_norm = float(np.max(np.abs(sym.logical_part.matrix)))
    ok = worst < 1e-10 and sym_norm < 1e-10
    return ok, f"max dev {worst:.2e}, symmetric {sym_norm:.2e}"


def _dfs_identity(rng: np.random.Generator, seed: int, ensemble: int) -> _Outcome:
    code = build_code("dfs2x2")
    species = ("H", "H", "C", "C")
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    worst = 0.0
    for _ in range(100):
        nu = rng.uniform(-3, 3, size=4)
        j = {p: rng.uniform(-2, 2) for p in pairs}
        physical = pauli_sum(weak_coupling_truncation(nmr_hamiltonian(nu, j), species), 4)
        brute = logical_action(physical, code)
        closed, _ = dfs2x2_logical_hamiltonian(nu, j)
        worst = max(worst, float(np.max(np.abs(brute.logical_part.matrix - closed.matrix))))
    _, coeffs = dfs2x2_logical_hamiltonian([0, 0, 0, 0], {(1, 3): 1.0})
    ok = worst < 1e-10 and coeffs.d == 0.25
    return ok, f"max dev {worst:.2e}, J13-only d={coeffs.d}"


def _sequence_selectivity(rng: np.random.Generator, seed: int, ensemble: int) -> _Outcome:
    code = build_code("dfs2x2")
    h, _ = dfs2x2_logical_hamiltonian([2.2, 1.3, 0.8, 0.1], {
        (1, 2): 0.9, (3, 4): 0.7, (1, 3): 0.31, (1, 4): 0.11, (2, 3): 0.05, (2, 4): 0.17,
    })
    results = []
    for name, keep in (("s1_selective_x1", "XI"), ("zz_extractor", "ZZ")):
        avg = average_zeroth(h, frames_from_scheme(named_sequence(name, code=code)))
        comps = pauli_decompose(avg.matrix)
        stray = max(abs(v) for k, v in comps.items() if k not in (keep, "II"))
        kept = abs(comps[keep])
        results.append((name, stray, kept))
    ok = all(s < 1e-10 and k > 1e-3 for _, s, k in results)
    detail = ", ".join(f"{n}: stray {s:.1e}" for n, s, _ in results)
    return ok, detail


def _pulse_correspondence(rng: np.random.Generator, seed: int, ensemble: int) -> _Outcome:
    checks = verify_pulse_correspondence(build_code("dfs2x2"))
    worst = min(c.fidelity for c in checks)
    ok = all(c.passed for c in checks)
    return ok, f"{sum(c.passed for c in checks)}/{len(checks)} pairs, min fidelity 1-{1-worst:.1e}"


def _universality(rng: np.random.Generator, seed: int, ensemble: int) -> _Outcome:
    groups = builtin_groups()
    h_l = ns3_logical_hamiltonian(0.0, rng.uniform(0.5, 1.5), rng.uniform(-1.5, -0.5), rng.uniform(0.2, 1.0))
    projected = project_group(h_l, groups["cp_x"])
    dim = lie_closure([1j * h_l.matrix, 1j * projected.matrix]).dimension
    transformer = groups["transformer24"]
    reached = 0
    for _ in range(50):
        a = random_traceless_hermitian(1, rng, norm=1.0)
        t = random_traceless_hermitian(1, rng, norm=1.0)
        r = transformer_reach(transformer, a, t)
        reached += int(r.reachable and r.residual < 1e-8)
    ok = dim == 3 and reached == 50
    return ok, f"ns3 pair closure dim {dim}, transformer {reached}/50, |G|={len(transformer.frames)}"


def _noise_suppression(rng: np.random.Generator, seed: int, ensemble: int) -> _Outcome:
    # (a) exact collective invariance of the dfs2 code, per trajectory
    invariant = build_scenario(
        "hybrid_dephasing", encoded=True, fast_amplitude=1.0, slow_amplitude=0.0,
        omega1=0.8, omega2=0.8, repetitions=4, ensemble_size=4, seed=seed, pulses=False,
    )
    max_dev = 0.0
    for k in range(4):
        res = propagate_trajectory(invariant, trajectory=k)
        max_dev = max(max_dev, float(np.max(np.abs(res.final_state - invariant.initial_state))))

    # (b) quadratic suppression of the slow channel under encoded CP
    common = dict(
        encoded=True, fast_amplitude=0.0, slow_amplitude=0.3, tau_slow=20.0,
        omega1=1.0, omega2=0.6, ensemble_size=ensemble, seed=seed, max_step=1.0 / 40,
    )
    coarse = build_scenario("hybrid_dephasing", cycle_time=1.0, repetitions=16, **common)
    fine = build_scenario("hybrid_dephasing", cycle_time=0.5, repetitions=32, **common)

    # (c) physical decoupling at the slow rate loses to the encoded scheme
    hybrid = dict(
        cycle_time=1.0, repetitions=16, fast_amplitude=1.0, slow_amplitude=0.3,
        tau_fast=0.05, tau_slow=20.0, ensemble_size=ensemble, seed=seed,
    )
    pair = [build_scenario("hybrid_dephasing", encoded=encoded, **hybrid) for encoded in (True, False)]

    # one call: (b) and (c) share the seed, so each noise stream is drawn once
    curves = ensemble_coherences([coarse, fine, *pair])
    eps_coarse, eps_fine, eps_enc, eps_phys = map(final_error, curves)
    ratio = eps_coarse / eps_fine

    ok = max_dev == 0.0 and 3.0 <= ratio <= 5.0 and eps_phys > eps_enc
    detail = (
        f"invariance dev {max_dev:.1e}, suppression ratio {ratio:.2f}, "
        f"hybrid eps enc {eps_enc:.3f} < phys {eps_phys:.3f}"
    )
    return ok, detail


#: Every check of the suite, in report order.  A check maps its own generator
#: (see :func:`_run_check`), the suite seed and the noise ensemble size to
#: ``(passed, detail)``.
_CHECKS: tuple[tuple[str, _Check], ...] = (
    ("projector_laws", _projector_laws),
    ("whh4_averaging", _whh4_averaging),
    ("magnus_orders", _magnus_orders),
    ("ns_identity", _ns_identity),
    ("dfs_identity", _dfs_identity),
    ("sequence_selectivity", _sequence_selectivity),
    ("pulse_correspondence", _pulse_correspondence),
    ("universality", _universality),
    ("noise_suppression", _noise_suppression),
)


def _run_check(name: str, fn: _Check, seed: int, ensemble: int) -> VerificationCheck:
    """Run one entry of :data:`_CHECKS` on a generator seeded by ``seed`` and its name."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, hash_name(name)]))
    return VerificationCheck(name, *fn(rng, seed, ensemble))


def run_suite(seed: int = 2024, ensemble: int = 500) -> list[VerificationCheck]:
    """Run every identity check with randomness derived from ``seed`` (at least 0)."""
    seed = _seed("seed", seed)
    return [_run_check(name, fn, seed, ensemble) for name, fn in _CHECKS]


def hash_name(name: str) -> int:
    # stable across processes (unlike builtins.hash with PYTHONHASHSEED)
    acc = 0
    for ch in name:
        acc = (acc * 131 + ord(ch)) % (2**31 - 1)
    return acc


def format_report(checks: list[VerificationCheck], seed: int) -> str:
    width = max(len(c.name) for c in checks)
    lines = [f"verification suite (seed {seed})", ""]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name.ljust(width)}  {c.detail}")
    n_ok = sum(c.passed for c in checks)
    lines.append("")
    lines.append(f"{n_ok}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"
