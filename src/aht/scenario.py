"""Scenario files: a small JSON schema driving reproducible runs.

A scenario names one computation (``kind``), the operators it acts on,
and where results go.  Hamiltonians are written as coefficient + Pauli
word + 1-based qubit indices (``"0.5 ZZ 1 2"``) or exchange couplings
(``"1.0 s12"``); coefficients are angular frequencies in rad/s.
NMR-style inputs use the explicit ``nmr`` block instead, whose ``nu``
and ``j`` fields are in Hz with the conventional pi factors applied
internally -- the two spellings are kept separate so no 2 pi ambiguity
can creep in.

Example::

    {"kind": "project", "n_qubits": 1,
     "hamiltonian": {"terms": ["1.0 Z 1"]},
     "sequence": {"name": "cp_x"},
     "seed": 0}

Parsed scenarios round-trip unchanged through ``to_dict``/``from_dict``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

import numpy as np

from .codes import CODE_NAMES, build_code, nmr_hamiltonian, weak_coupling_truncation
from .config import ValidationError, _boolean, _integer, _known_keys, _real, _seed
from .decoupling import SEQUENCE_NAMES, DecouplingScheme, named_sequence
from .operators import Operator, PauliString, expm, pauli_sum

__all__ = ["Scenario", "parse_term", "parse_hamiltonian", "KINDS"]

KINDS = ("average", "project", "propagate", "logical", "universality", "noise", "scan")

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
    "hamiltonian": Mapping,
    "code": str,
    "sequence": (str, Mapping),
    "sweep": (list, tuple),
    "generators": (list, tuple),
    "target": str,
    "noise": Mapping,
    "output": Mapping,
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
        if self.kind not in KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}; known: {', '.join(KINDS)}")
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
        if self.output_format not in ("json", "csv"):
            raise ValidationError(f"unknown output format {self.output_format!r}")

    @property
    def output_format(self) -> str:
        if self.output and "format" in self.output:
            return str(self.output["format"])
        return "json"

    @property
    def output_path(self) -> str | None:
        if self.output and "path" in self.output:
            return str(self.output["path"])
        return None

    # -- serialization ---------------------------------------------------
    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Scenario":
        _known_keys("scenario fields", d, [f.name for f in fields(cls)])
        if "kind" not in d:
            raise ValidationError("scenario needs a 'kind'")
        return cls(**{k: d[k] for k in d})

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind, "n_qubits": self.n_qubits, "seed": self.seed,
                               "cycle_time": self.cycle_time}
        for key in ("hamiltonian", "code", "sequence", "sweep", "generators", "target",
                    "noise", "output"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out

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
        if self.hamiltonian is None:
            raise ValidationError(f"kind {self.kind!r} needs a hamiltonian block")
        return parse_hamiltonian(self.hamiltonian, self.n_qubits)

    def resolve_sequence(self) -> DecouplingScheme:
        if self.sequence is None:
            raise ValidationError(f"kind {self.kind!r} needs a sequence")
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
