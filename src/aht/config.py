"""Numerical tolerances, error types, input-value checks and the noise-run
size limit shared across the package.

Operator comparisons -- equality, also up to a global phase, unitarity,
Hermiticity, the log branch cut and rank decisions -- read the one fixed
tolerance record :data:`DEFAULT_TOL` directly; no function takes its own,
so "equal" or "unitary" means the same everywhere.  Each of these checks
is written so that a NaN defect fails it (``not defect <= limit``), since
``defect > limit`` is false for NaN.  A few fixed thresholds stay literal
where they are used: the checks that weights and durations sum to one
(1e-12), the equal-weight test of a decoupling group (1e-9), zero-norm
guards, the internal consistency checks of the ns3 basis construction
(1e-12), and the pass thresholds of the ``aht verify`` checks, which are
part of the claims those checks state.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """The package's numerical tolerances, fixed in :data:`DEFAULT_TOL`.

    Attributes
    ----------
    equality : float
        Max-norm tolerance for operator equality checks.
    unitarity : float
        Max-norm tolerance on ``V^dag V - 1`` for the isometry of a
        built-in code.
    hermiticity : float
        Max-norm tolerance on ``H - H.conj().T``.
    branch_cut : float
        Distance (in radians) of a unitary eigenphase from the log
        branch cut at +/- pi below which the effective Hamiltonian is
        considered ambiguous.
    rank : float
        Relative singular-value threshold used by rank decisions
        (Lie-closure novelty, syndrome factorization).
    """

    equality: float = 1e-10
    unitarity: float = 1e-12
    hermiticity: float = 1e-12
    branch_cut: float = 1e-8
    rank: float = 1e-8


#: The tolerances every module reads.
DEFAULT_TOL = Tolerances()

#: Largest noise-sample tensor (channels x trajectories x steps x 8 bytes)
#: a noise scenario may ask for, checked before any of it is allocated;
#: ``aht verify`` at its default ensemble of 500 needs about 154 MB.
_MAX_NOISE_BYTES = 2 * 1024**3


class ValidationError(ValueError):
    """Malformed input: wrong dimensions, broken invariants, unknown names."""


class ToleranceError(ArithmeticError):
    """A numerical contract could not be met at the configured tolerance."""


class BranchCutError(ToleranceError):
    """A unitary eigenphase sits too close to +/- pi for an unambiguous log."""


# Scalar input checks for values read from scenario files: each returns the
# value as a Python scalar or raises ValidationError naming the field.

def _integer(name: str, value) -> int:
    """A number with no fractional part (not a boolean), as an int."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """A finite real number (not a boolean), as a float."""
    # the range test fails for NaN, +-Infinity and integers too large for a float
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        -sys.float_info.max <= value <= sys.float_info.max
    ):
        return float(value)
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def _boolean(name: str, value) -> bool:
    """``True`` or ``False`` and nothing else."""
    if isinstance(value, bool):
        return value
    raise ValidationError(f"{name} must be true or false, got {value!r}")
