"""Numerical tolerances, error types, input-value checks and the noise-run
size limit shared across the package.

Each input rule is one checker, returning the value it accepts or raising
:class:`ValidationError` naming the field; every input field, knob and operand
reads it.  Here: ``_integer``, ``_seed`` (at least 0), ``_repetitions`` (0 to
``_MAX_NOISE_BYTES // 8``), ``_real``, ``_positive``, ``_nonnegative`` (all
finite, none a boolean), ``_boolean``, ``_entries`` (a non-empty list) and
``_known`` (a catalog name); in ``operators``: ``_unitary``, ``_hermitian``,
``_finite`` and ``_operators`` (a non-empty list of operands of one side).

Operator comparisons read the four values of :data:`DEFAULT_TOL`, and no
function takes its own: ``equality`` (1e-10; also unitarity and Hermiticity),
``unitarity`` (1e-12, a code's isometry), ``branch_cut`` and ``rank``.  Each
check is written so that a NaN defect fails it (``not defect <= limit``), since
``defect > limit`` is false for NaN.  A few fixed thresholds stay literal
where they are used: the checks that weights and durations sum to one
(1e-12), the equal-weight test of a decoupling group (1e-9), the match of
a noise run's ``total_time`` to repetitions x cycle time (1e-9, relative),
the guard that keeps a whole step count from rounding up (1e-12, in
``noise._intervals``), the overlap below which ``effective_defect`` gives
up (1e-6 per dimension), the internal consistency checks of the ns3 basis
construction (1e-12), and the pass thresholds of the ``aht verify``
checks, which are part of the claims those checks state.  There are no
zero-norm guards: ``lie_closure`` and ``transformer_reach`` scale their
inputs to a unit largest entry, so only an exactly zero input is
degenerate.  Two thresholds follow rounding instead:
``codes.logical_action`` counts a syndrome action only above
``DEFAULT_TOL.equality`` plus two ulps of ``max(1, max |R|)`` per
physical dimension, what rounding leaves in ``R - c 1`` at any identity
offset ``c``; and the nonnegative least squares of ``transformer_reach``
(``universality._nnls``) counts a gradient entry or coefficient as zero
up to ten ulps of ``||a||_1`` times the larger dimension of its design
``a``, what rounding leaves in the gradient ``a^T (b - a x)``.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class Tolerances:
    """The package's numerical tolerances, fixed in :data:`DEFAULT_TOL`.

    Attributes
    ----------
    equality : float
        Max-norm tolerance for operator equality checks, and for unitarity
        (``operators._unitary``) and Hermiticity (``operators._hermitian``).
    unitarity : float
        Max-norm tolerance on ``V^dag V - 1`` for the isometry of a
        built-in code.
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
    branch_cut: float = 1e-8
    rank: float = 1e-8


#: The tolerances every module reads.
DEFAULT_TOL = Tolerances()

#: Largest noise allocation a noise scenario, or a group of them sampled
#: together (diagonal-path runs of one seed and ensemble size), may ask for,
#: checked before any of it is allocated: the count is ``noise._noise_bytes``
#: of what ``noise._sampled`` holds (see its docstring).  ``aht verify`` at
#: its default ensemble of 500 counts at most 15 MB a run.
_MAX_NOISE_BYTES = 2 * 1024**3


class ValidationError(ValueError):
    """Malformed input: wrong dimensions, broken invariants, unknown names."""


class ToleranceError(ArithmeticError):
    """A numerical contract could not be met at the configured tolerance."""


class BranchCutError(ToleranceError):
    """A unitary eigenphase sits too close to +/- pi for an unambiguous log."""


def _integer(name: str, value) -> int:
    """A number with no fractional part (not a boolean), as an int."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _seed(name: str, value) -> int:
    """A whole number >= 0, as ``numpy.random.SeedSequence`` requires."""
    seed = _integer(name, value)
    if seed < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    return seed


def _repetitions(name: str, value) -> int:
    """A whole number of pulse cycles from 0 to ``_MAX_NOISE_BYTES // 8``, as an int;
    each cycle takes an 8-byte sample, and the count is checked before any float product."""
    count = _integer(name, value)
    if not 0 <= count <= _MAX_NOISE_BYTES // 8:
        raise ValidationError(f"{name} must be from 0 to {_MAX_NOISE_BYTES // 8}, each cycle "
                              f"taking 8 bytes of noise, got {value!r}")
    return count


def _real(name: str, value, low: float = -sys.float_info.max, rule: str = "a finite number") -> float:
    """A real number (not a boolean) from ``low`` to the largest float, as a float."""
    # the range test fails for NaN, +-Infinity and integers too large for a float
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        low <= value <= sys.float_info.max
    ):
        return float(value)
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


def _positive(name: str, value) -> float:
    """A finite number above 0, as a float (at least the least positive float, so never stored as 0)."""
    return _real(name, value, math.ulp(0.0), "positive and finite")


def _nonnegative(name: str, value) -> float:
    """A finite number of at least 0, as a float."""
    return _real(name, value, 0.0, "nonnegative and finite")


def _boolean(name: str, value) -> bool:
    """``True`` or ``False`` and nothing else."""
    if isinstance(value, bool):
        return value
    raise ValidationError(f"{name} must be true or false, got {value!r}")


def _entries(name: str, value) -> tuple:
    """A non-empty list or tuple, as a tuple."""
    if isinstance(value, (list, tuple)) and value:
        return tuple(value)
    raise ValidationError(f"{name} must be a non-empty list, got {value!r}")


def _known(what: str, name, table: Mapping):
    """The row of ``table`` under ``name``, looked up in a tuple: an unhashable name is unknown."""
    if name not in tuple(table):
        raise ValidationError(f"unknown {what} {name!r}; known: {', '.join(table)}")
    return table[name]


def _known_keys(what: str, block: Mapping, known: Iterable[str]) -> None:
    """Reject a key of ``block`` that is not in ``known``, naming it."""
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ValidationError(f"unknown {what} {unknown}; known: {', '.join(known)}")
