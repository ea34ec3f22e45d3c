"""Scenario files: a small JSON schema driving reproducible runs.

A scenario names one computation (``kind``), the operators it acts on,
and where results go.  :data:`KINDS` is the one table of kinds: the
function that runs each, the fields it needs, the other fields it reads
and the output formats it writes (the first is the default); every kind
also takes ``kind``, ``seed`` and ``output``.  Any other field, a needed
field missing or empty, or another format is a :class:`ValidationError`.

Hamiltonians are written as coefficient + Pauli word + 1-based qubit
indices (``"0.5 ZZ 1 2"``) or exchange couplings (``"1.0 s12"``);
coefficients are angular frequencies in rad/s.  NMR-style inputs use the
explicit ``nmr`` block instead, whose ``nu`` and ``j`` fields are in Hz
with the conventional pi factors applied internally -- the two spellings
are kept separate so no 2 pi ambiguity can creep in.

Example::

    {"kind": "project", "n_qubits": 1,
     "hamiltonian": {"terms": ["1.0 Z 1"]},
     "sequence": {"name": "cp_x"},
     "seed": 0}
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .codes import CODE_NAMES, build_code, logical_action, nmr_hamiltonian, weak_coupling_truncation
from .config import ValidationError, _boolean, _integer, _known_keys, _real, _seed
from .decoupling import (
    SEQUENCE_NAMES, DecouplingScheme, average_zeroth, cycle_propagator, effective_defect,
    frames_from_scheme, named_sequence, project_group,
)
from .noise import build_scenario, ensemble_coherence
from .operators import Operator, PauliString, expm, logm_effective, pauli_sum
from .universality import lie_closure

__all__ = ["Scenario", "parse_term", "parse_hamiltonian", "KINDS"]

_FUSED = re.compile(r"^([A-Za-z]+?)(\d+)$")


def parse_term(text: str, n_qubits: int) -> PauliString | list[PauliString]:
    """Parse one Hamiltonian term.

    Accepted forms: ``"0.5 ZZ 1 2"``, ``"Z 1"``, ``"Z1"``, ``"-2 X1"``,
    and exchange couplings ``"1.0 s 1 2"`` / ``"s12"`` (which expand to
    the three Pauli products).
    """
    tokens = text.split()
    if not tokens:
        raise ValidationError("empty Hamiltonian term")
    coeff = 1.0
    try:
        coeff = float(tokens[0])
        tokens = tokens[1:]
    except ValueError:
        pass
    coeff = _real(f"term {text!r} coefficient", coeff)
    if not tokens:
        raise ValidationError(f"term {text!r} has no operator part")

    head, *rest = tokens
    fused = _FUSED.match(head)
    if fused:
        head, digits = fused.group(1), fused.group(2)
        rest = list(digits) + rest
    if not all(r.isdecimal() for r in rest):
        raise ValidationError(f"term {text!r}: qubit indices must be whole numbers")
    qubits = [int(r) for r in rest]

    if head.lower() == "s":
        if len(qubits) != 2:
            raise ValidationError(f"exchange term {text!r} needs two qubit indices")
        return [
            PauliString.from_word(a + a, qubits, n_qubits, coefficient=coeff) for a in "XYZ"
        ]
    word = head.upper()
    if set(word) - set("IXYZ"):
        raise ValidationError(f"unknown operator {head!r} in term {text!r}")
    if len(qubits) != len(word):
        raise ValidationError(f"term {text!r}: word {word!r} needs {len(word)} qubit indices")
    return PauliString.from_word(word, qubits, n_qubits, coefficient=coeff)


def parse_hamiltonian(spec: Mapping[str, Any], n_qubits: int) -> Operator:
    """Build the operator described by a scenario ``hamiltonian`` block."""
    _known_keys("hamiltonian keys", spec, ("nmr",) if "nmr" in spec else ("terms",))
    if "nmr" in spec:
        block = spec["nmr"]
        if not isinstance(block, Mapping):
            raise ValidationError(f"nmr block must be an object, got {block!r}")
        _known_keys("nmr keys", block, ("nu", "j", "species", "weak_coupling"))
        nu = block.get("nu")
        if not isinstance(nu, (list, tuple)):
            raise ValidationError(f"nmr block needs a list of chemical shifts 'nu', got {nu!r}")
        nu = [_real("nmr shift", v) for v in nu]
        terms = nmr_hamiltonian(nu, block.get("j", {}), n=n_qubits)
        if _boolean("nmr weak_coupling", block.get("weak_coupling", False)):
            species = block.get("species")
            labels = species if isinstance(species, (list, tuple)) else ()
            if len(labels) != n_qubits or not all(isinstance(s, str) for s in labels):
                raise ValidationError(
                    f"weak_coupling truncation needs {n_qubits} 'species' labels, got {species!r}"
                )
            terms = weak_coupling_truncation(terms, species)
        return pauli_sum(terms, n=n_qubits)
    term_strings = spec.get("terms")
    if term_strings is None:
        raise ValidationError("hamiltonian block needs 'terms' or 'nmr'")
    if not isinstance(term_strings, (list, tuple)) or not all(isinstance(t, str) for t in term_strings):
        raise ValidationError(f"Hamiltonian terms must be a list of strings, got {term_strings!r}")
    terms: list[PauliString] = []
    for t in term_strings:
        parsed = parse_term(t, n_qubits)
        terms.extend(parsed if isinstance(parsed, list) else [parsed])
    return pauli_sum(terms, n=n_qubits)


#: Largest register a scenario may name; dense operators have side ``2**n``.
_MAX_QUBITS = 5

#: JSON types of the optional scenario fields (``None`` means absent).
_OPTIONAL_FIELD_TYPES = {
    "hamiltonian": Mapping, "code": str, "sequence": (str, Mapping), "sweep": (list, tuple),
    "generators": (list, tuple), "target": str, "noise": Mapping, "output": Mapping,
}


def _positive(name: str, value) -> float:
    """A positive finite number, as a float."""
    x = _real(name, value)
    if not x > 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")
    return x


@dataclass(frozen=True)
class Scenario:
    """One validated scenario file."""

    kind: str
    n_qubits: int = 1
    hamiltonian: Mapping[str, Any] | None = None
    code: str | None = None
    sequence: Mapping[str, Any] | None = None
    cycle_time: float = 1.0
    sweep: Sequence[float] | None = None
    generators: Sequence[Sequence[str]] | None = None
    target: str | None = None
    noise: Mapping[str, Any] | None = None
    seed: int = 0
    output: Mapping[str, Any] | None = None

    def __post_init__(self):
        row = _row(self.kind)
        for key, types in _OPTIONAL_FIELD_TYPES.items():
            value = getattr(self, key)
            if value is not None and not isinstance(value, types):
                raise ValidationError(f"scenario field {key!r} has the wrong type: {value!r}")
        n_qubits = _integer("n_qubits", self.n_qubits)
        if not 1 <= n_qubits <= _MAX_QUBITS:
            raise ValidationError(f"n_qubits must be in 1..{_MAX_QUBITS}, got {n_qubits}")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "seed", _seed("seed", self.seed))
        _positive("cycle_time", self.cycle_time)
        for tc in self.sweep or ():
            _positive("sweep entry", tc)
        if self.code is not None and self.code not in CODE_NAMES:
            raise ValidationError(f"unknown code {self.code!r}")
        _known_keys("output fields", self.output or {}, ("path", "format"))
        if self.output and "path" in self.output:
            path = self.output["path"]
            if not isinstance(path, str) or not path:
                raise ValidationError(f"output path must be a non-empty string, got {path!r}")
        if self.output_format not in row.formats:
            raise ValidationError(
                f"kind {self.kind!r} writes {' or '.join(row.formats)}, not {self.output_format!r}"
            )
        missing = [key for key in row.needs if not getattr(self, key)]
        if missing:
            raise ValidationError(f"kind {self.kind!r} needs {', '.join(missing)}")

    @property
    def output_format(self) -> str:
        if self.output and "format" in self.output:
            return str(self.output["format"])
        return KINDS[self.kind].formats[0]

    @property
    def output_path(self) -> str | None:
        return (self.output or {}).get("path")

    def run(self) -> str:
        """Run the scenario; returns the text it writes in its output format."""
        result = KINDS[self.kind].run(self)
        if isinstance(result, str):
            return result
        return json.dumps({"kind": self.kind, **result}, sort_keys=True, indent=2, default=str) + "\n"

    # -- parsing ---------------------------------------------------------
    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Scenario":
        if "kind" not in d:
            raise ValidationError("scenario needs a 'kind'")
        row = _row(d["kind"])
        _known_keys(f"fields for kind {d['kind']!r}", d, ("kind", "seed", "output", *row.needs, *row.reads))
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario file is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ValidationError("scenario file must hold a JSON object")
        return cls.from_dict(d)

    # -- resolution ------------------------------------------------------
    def resolve_hamiltonian(self) -> Operator:
        return parse_hamiltonian(self.hamiltonian, self.n_qubits)

    def resolve_sequence(self) -> DecouplingScheme:
        spec = self.sequence
        if isinstance(spec, str):
            spec = {"name": spec}
        cycle_time = _positive("sequence cycle_time", spec.get("cycle_time", self.cycle_time))
        if "name" in spec:
            _known_keys("named sequence keys", spec, ("name", "cycle_time", "code", "physical"))
            name = spec["name"]
            if name not in SEQUENCE_NAMES:
                raise ValidationError(f"unknown sequence {name!r}")
            # A sequence is encoded iff a code is named: either in the
            # sequence block itself or, for the sequences that cannot
            # exist unencoded, at the scenario level.
            needs_code = name in ("s1_selective_x1", "s1_selective_x2", "zz_extractor")
            code_name = spec.get("code") or (self.code if needs_code else None)
            if needs_code and code_name is None:
                raise ValidationError(f"sequence {name!r} needs a code")
            code = build_code(code_name) if code_name else None
            return named_sequence(
                name,
                n_qubits=self.n_qubits,
                code=code,
                cycle_time=cycle_time,
                physical=_boolean("sequence physical", spec.get("physical", False)),
            )
        if "pulses" in spec:
            _known_keys("explicit sequence keys", spec, ("pulses", "durations", "cycle_time"))
            pulse_specs, durations = spec["pulses"], spec.get("durations", ())
            if not isinstance(pulse_specs, (list, tuple)) or not isinstance(durations, (list, tuple)):
                raise ValidationError("explicit 'pulses' and 'durations' must be lists")
            pulses = []
            for p in pulse_specs:
                if not isinstance(p, Mapping):
                    raise ValidationError(f"an explicit pulse must be an object, got {p!r}")
                _known_keys("pulse keys", p, ("terms", "angle"))
                generator = parse_hamiltonian({"terms": p.get("terms", [])}, self.n_qubits)
                pulses.append(expm(generator, _real("pulse angle", p.get("angle", np.pi / 2))))
            durations = tuple(_real("sequence duration", x) for x in durations)
            return DecouplingScheme(tuple(pulses), durations, cycle_time, label="explicit")
        raise ValidationError("sequence block needs a 'name' or explicit 'pulses'")


# ---------------------------------------------------------------------------
# the kinds: each runner returns the text it writes, or a JSON payload
# ---------------------------------------------------------------------------

def _matrix_payload(m: np.ndarray) -> dict:
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def _run_average(sc: Scenario) -> dict:
    h = sc.resolve_hamiltonian()
    frames = frames_from_scheme(sc.resolve_sequence())
    return {"average": _matrix_payload(average_zeroth(h, frames).matrix), "is_group": frames.is_group}


def _run_project(sc: Scenario) -> dict:
    h = sc.resolve_hamiltonian()
    frames = frames_from_scheme(sc.resolve_sequence())
    return {"average": _matrix_payload(project_group(h, frames).matrix)}


def _run_propagate(sc: Scenario) -> dict:
    h = sc.resolve_hamiltonian()
    scheme = sc.resolve_sequence()
    u = cycle_propagator(h, scheme).matrix
    h_eff = logm_effective(u, scheme.cycle_time).matrix
    return {"cycle_time": scheme.cycle_time, "propagator": _matrix_payload(u),
            "effective_hamiltonian": _matrix_payload(h_eff)}


def _run_logical(sc: Scenario) -> dict:
    code = build_code(sc.code)
    return {"code": sc.code, "action": logical_action(sc.resolve_hamiltonian(), code).to_dict()}


def _run_universality(sc: Scenario) -> dict:
    mats = [1j * parse_hamiltonian({"terms": t}, sc.n_qubits).matrix for t in sc.generators]
    basis = lie_closure(mats)
    return {"dimension": basis.dimension, "truncated": basis.truncated, "n_generators": len(mats)}


def _run_noise(sc: Scenario) -> dict | str:
    block = dict(sc.noise)
    block.setdefault("seed", sc.seed)
    scenario = build_scenario(block.pop("name", None), **block)
    curve = ensemble_coherence(scenario)
    if sc.output_format == "csv":
        return curve.to_csv(scenario.describe())
    return {"scenario": scenario.describe(), "times": curve.times.tolist(), "n_traj": curve.n_traj,
            "mean_coherence": curve.mean.tolist(), "std_error": curve.std_error.tolist()}


def _run_scan(sc: Scenario) -> str:
    if sc.target != "magnus_defect":
        raise ValidationError("kind 'scan' currently supports target 'magnus_defect'")
    h = sc.resolve_hamiltonian()
    scheme = sc.resolve_sequence()
    rows = ["cycle_time,defect,defect_with_first_order"]
    for tc in sc.sweep:
        at = replace(scheme, cycle_time=float(tc))
        d0 = effective_defect(h, at, include_first_order=False)
        d1 = effective_defect(h, at, include_first_order=True)
        rows.append(f"{tc:.12g},{d0:.12g},{d1:.12g}")
    return "\n".join(rows) + "\n"


class _Kind(NamedTuple):
    run: Callable[[Scenario], dict | str]
    needs: tuple[str, ...]   # fields that must be given and not empty
    reads: tuple[str, ...]   # the other fields it reads, besides kind, seed, output
    formats: tuple[str, ...]  # output formats it writes; the first is the default


_SEQUENCE_KIND = (("hamiltonian", "sequence"), ("n_qubits", "code", "cycle_time"), ("json",))

#: The scenario kinds, in catalog order.
KINDS = {
    "average": _Kind(_run_average, *_SEQUENCE_KIND),
    "project": _Kind(_run_project, *_SEQUENCE_KIND),
    "propagate": _Kind(_run_propagate, *_SEQUENCE_KIND),
    "logical": _Kind(_run_logical, ("hamiltonian", "code"), ("n_qubits",), ("json",)),
    "universality": _Kind(_run_universality, ("generators",), ("n_qubits",), ("json",)),
    "noise": _Kind(_run_noise, ("noise",), (), ("json", "csv")),
    "scan": _Kind(
        _run_scan, ("hamiltonian", "sequence", "sweep", "target"), ("n_qubits", "code"), ("csv",)
    ),
}


def _row(kind) -> _Kind:
    """The table row of ``kind``, or a ValidationError naming the known kinds."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValidationError(f"unknown scenario kind {kind!r}; known: {', '.join(KINDS)}")
    return KINDS[kind]
