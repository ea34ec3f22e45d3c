"""Scenario files and the command-line front end."""
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aht.cli import list_builtins, main, run
from aht.config import ValidationError
from aht.operators import SIGMA, exchange
from aht.scenario import Scenario, parse_hamiltonian, parse_term


class TestTermGrammar:
    @pytest.mark.parametrize(
        "text,word,coeff",
        [
            ("1.0 Z 1", "ZI", 1.0),
            ("Z1", "ZI", 1.0),
            ("-2 X 2", "IX", -2.0),
            ("0.5 ZZ 1 2", "ZZ", 0.5),
            ("0.5 ZZ12", "ZZ", 0.5),
        ],
    )
    def test_pauli_forms(self, text, word, coeff):
        term = parse_term(text, 2)
        assert term.letters == word
        assert term.coefficient == coeff

    def test_exchange_forms(self):
        for text in ("1.0 s 1 2", "1.0 s12", "s12"):
            terms = parse_term(text, 2)
            total = sum(t.to_operator().matrix for t in terms)
            assert np.allclose(total, exchange(1, 2, 2).matrix)

    def test_rejects_garbage(self):
        for text in ("", "Q1", "ZZ 1", "1.0 s 1", "Z 9", "1.0 Z a", "1.0 Z 1.5", "1.0 s 1 a",
                     "nan Z 1", "1e400 Z 1"):
            with pytest.raises(ValidationError):
                parse_term(text, 2)

    def test_nmr_block(self):
        spec = {
            "nmr": {
                "nu": [1.0, 0.5, 0.2, 0.1],
                "j": {"13": 1.0},
                "species": ["H", "H", "C", "C"],
                "weak_coupling": True,
            }
        }
        op = parse_hamiltonian(spec, 4)
        assert op.is_hermitian()


class TestScenarioRoundTrip:
    def test_dict_round_trip_unchanged(self):
        doc = {
            "kind": "project",
            "n_qubits": 1,
            "seed": 3,
            "cycle_time": 1.0,
            "hamiltonian": {"terms": ["1.0 Z 1"]},
            "sequence": {"name": "cp_x"},
            "output": {"format": "json"},
        }
        sc = Scenario.from_dict(doc)
        assert sc.to_dict() == doc
        assert Scenario.from_dict(sc.to_dict()).to_dict() == doc

    def test_json_round_trip(self):
        sc = Scenario(kind="logical", n_qubits=3, code="ns3",
                      hamiltonian={"terms": ["1.0 s12"]})
        again = Scenario.from_json(json.dumps(sc.to_dict()))
        assert again == sc

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            Scenario.from_dict({"kind": "project", "pulse_power": 3})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            Scenario.from_dict({"kind": "teleport"})

    def test_register_size_bounded(self):
        # parsing alone must refuse a register the dense operators cannot hold
        assert Scenario.from_dict({"kind": "project", "n_qubits": 5}).n_qubits == 5
        for n in (0, 6, 40):
            with pytest.raises(ValidationError, match="n_qubits"):
                Scenario.from_dict({"kind": "project", "n_qubits": n})


def logical_nmr(**block):
    """A 4-qubit ``logical`` run on the dfs2x2 code reading an nmr block
    with four shifts, updated by ``block``."""
    return {"kind": "logical", "code": "dfs2x2", "n_qubits": 4,
            "hamiltonian": {"nmr": {"nu": [1.0, 0.5, 0.2, 0.1], **block}}}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestRunCommand:
    def test_project_zero_average(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "kind": "project", "n_qubits": 1,
            "hamiltonian": {"terms": ["1.0 Z 1"]},
            "sequence": {"name": "cp_x"},
        })
        assert run(path) == 0
        payload = json.loads(capsys.readouterr().out)
        avg = np.array(payload["average"]["real"]) + 1j * np.array(payload["average"]["imag"])
        assert np.max(np.abs(avg)) < 1e-10

    def test_logical_ns3_exchange(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "kind": "logical", "n_qubits": 3, "code": "ns3",
            "hamiltonian": {"terms": ["1.0 s12"]},
        })
        assert run(path) == 0
        payload = json.loads(capsys.readouterr().out)
        action = payload["action"]
        logical = np.array(action["logical_part_real"]) + 1j * np.array(action["logical_part_imag"])
        assert np.allclose(logical, 2 * SIGMA["X"], atol=1e-10)
        assert action["identity_offset"] == pytest.approx(-1.0, abs=1e-10)

    def test_scan_magnus_defect(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "kind": "scan", "n_qubits": 2, "target": "magnus_defect",
            "hamiltonian": {"terms": ["1.0 Z 1", "0.5 X 1", "0.25 ZZ 1 2"]},
            "sequence": {"name": "cp_x"},
            "sweep": [0.1, 0.05, 0.025],
        })
        assert run(path) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "cycle_time,defect,defect_with_first_order"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(rows) == 3
        for a, b in zip(rows, rows[1:]):
            assert 1.7 < a[1] / b[1] < 2.3

    def test_noise_csv_deterministic(self, tmp_path):
        doc = {
            "kind": "noise", "output": {"format": "csv"}, "seed": 12,
            "noise": {"name": "hybrid_dephasing", "ensemble_size": 40, "repetitions": 4},
        }
        p1 = write_scenario(tmp_path, doc, "n1.json")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(p1, out=str(out1)) == 0
        assert run(p1, out=str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        body = out1.read_text().splitlines()
        assert body[0].startswith("# {")
        assert body[1] == "time_s,mean_coherence,std_error,n_traj"

    def test_output_path_from_scenario_file(self, tmp_path, capsys):
        target = tmp_path / "from_scenario.json"
        path = write_scenario(tmp_path, {
            "kind": "project", "n_qubits": 1,
            "hamiltonian": {"terms": ["1.0 Z 1"]},
            "sequence": {"name": "cp_x"},
            "output": {"path": str(target), "format": "json"},
        })
        assert run(path) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["kind"] == "project"

    def test_universality_kind(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "kind": "universality", "n_qubits": 1,
            "generators": [["1.0 X 1"], ["1.0 Y 1"]],
        })
        assert run(path) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 3

    def test_validation_failures_exit_2(self, tmp_path, capsys):
        bad_kind = write_scenario(tmp_path, {"kind": "summon"}, "bad1.json")
        assert run(bad_kind) == 2
        bad_name = write_scenario(tmp_path, {
            "kind": "project", "hamiltonian": {"terms": ["Z1"]},
            "sequence": {"name": "nope"},
        }, "bad2.json")
        assert run(bad_name) == 2
        bad_json = tmp_path / "bad3.json"
        bad_json.write_text("{not json")
        assert run(str(bad_json)) == 2
        assert run(str(tmp_path / "missing.json")) == 2
        err = capsys.readouterr().err
        assert all(line.startswith("error:") for line in err.strip().splitlines())

    @pytest.mark.parametrize(
        "knobs",
        [
            {"ensemble_size": 0}, {"ensemble_size": -3}, {"slow_amplitud": 0.3},
            {"ensemble_size": "many"}, {"omega1": None}, {"repetitions": 2.7},
            {"ensemble_size": True}, {"pulses": "no"}, {"encoded": 0},
            {"slow_amplitude": float("nan")}, {"cycle_time": float("inf")}, {"omega1": 10**400},
            {"max_step": 0}, {"max_step": -1},
            # over the noise-size limit; allocating them would fail at once anyway
            {"ensemble_size": 10**12}, {"max_step": 1e-15},
        ],
    )
    def test_bad_noise_knobs_exit_2(self, tmp_path, capsys, knobs):
        path = write_scenario(tmp_path, {
            "kind": "noise", "output": {"format": "csv"},
            "noise": {"name": "hybrid_dephasing", "repetitions": 2, **knobs},
        })
        assert run(path) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "field",
        [
            {"n_qubits": "2"}, {"seed": "x"}, {"sweep": ["a"]}, {"cycle_time": 0},
            {"hamiltonian": {"terms": [5]}},
            {"sequence": {"name": "cp_x", "cycle_time": "x"}},
            {"sequence": {"pulses": [{"terms": ["1.0 X 1"], "angle": "a"}], "durations": [1.0]}},
            {"hamiltonian": {"nmr": {"nu": "abcd"}}},
            {"kind": "universality", "generators": [["1.0 X 1"], 5]},
            {"sequence": {"name": "cp_x", "physical": "no"}},
            {"sequence": {"name": "cp_x", "code": ["dfs2"]}},
            {"sequence": {"pulses": 5, "durations": [1.0]}},
            {"sequence": {"pulses": [5], "durations": [1.0]}},
            {"hamiltonian": {"nmr": 5}},
            {"n_qubits": 4, "hamiltonian": {"nmr": {
                "nu": [1, 2, 3, 4], "species": ["H", "H", "C", "C"], "weak_coupling": "no"}}},
            logical_nmr(j={"12": "x"}),
            logical_nmr(j={"ab": 1.0}),
            logical_nmr(j=[1, 2]),
            {"hamiltonian": {"terms": ["1.0 Z a"]}},
            logical_nmr(nu=[1.0, 0.5, 0.2]),
            logical_nmr(species=["H"], weak_coupling=True),
            logical_nmr(j={"19": 0.0}),
        ],
    )
    def test_bad_scenario_fields_exit_2(self, tmp_path, capsys, field):
        path = write_scenario(tmp_path, {
            "kind": "scan", "n_qubits": 1, "target": "magnus_defect",
            "hamiltonian": {"terms": ["1.0 Z 1"]}, "sequence": {"name": "cp_x"},
            "sweep": [0.1], **field,
        })
        assert run(path) == 2
        assert_one_error_line(capsys)

    def test_verify_empty_ensemble_exits_2(self, capsys):
        assert main(["verify", "--ensemble", "0"]) == 2
        assert_one_error_line(capsys)

    def test_verify_oversized_ensemble_exits_2(self, capsys):
        # over the noise-size limit; allocating it would fail at once anyway
        assert main(["verify", "--ensemble", str(10**12)]) == 2
        assert_one_error_line(capsys)

    def test_branch_cut_exits_3(self, tmp_path, capsys):
        # a full pi rotation puts the cycle eigenphases exactly on the cut
        path = write_scenario(tmp_path, {
            "kind": "propagate", "n_qubits": 1, "cycle_time": float(np.pi),
            "hamiltonian": {"terms": ["1.0 Z 1"]},
            "sequence": {"pulses": [{"terms": [], "angle": 0.0}], "durations": [1.0]},
        })
        assert run(path) == 3
        assert capsys.readouterr().err.startswith("error:")


#: One strategy per JSON value type; a "fraction" is a number that is not
#: whole, and a "nonfinite" one is NaN or +-Infinity (Python's ``json`` reads both).
JSON_TYPES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(-10**6, 10**6),
    "fraction": st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
    "string": st.text(max_size=8),
    "array": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "nonfinite": st.sampled_from([float("nan"), float("inf"), float("-inf")]),
}
NUMBER = {"integer", "fraction"}
#: The JSON types each scenario field accepts.
FIELD_TYPES = {
    "kind": {"string"}, "n_qubits": {"integer"}, "hamiltonian": {"object", "null"},
    "code": {"string", "null"}, "sequence": {"string", "object", "null"}, "cycle_time": NUMBER,
    "sweep": {"array", "null"}, "generators": {"array", "null"}, "target": {"string", "null"},
    "noise": {"object"}, "seed": {"integer"}, "output": {"object", "null"},
}
#: The JSON types each key of a hybrid_dephasing noise block accepts.
KNOB_TYPES = {
    "name": {"string"}, "repetitions": {"integer"}, "ensemble_size": {"integer"},
    "seed": {"integer"}, "pulses": {"boolean"}, "encoded": {"boolean"},
    **{k: NUMBER for k in ("cycle_time", "max_step", "tau_fast", "tau_slow",
                           "fast_amplitude", "slow_amplitude", "omega1", "omega2")},
}
#: The JSON types each key of a named sequence block accepts.
SEQUENCE_TYPES = {"cycle_time": NUMBER, "physical": {"boolean"}}
#: The JSON types each key of an nmr block accepts.
NMR_TYPES = {"nu": {"array"}, "j": {"object"}, "species": {"array"}, "weak_coupling": {"boolean"}}
NOISE_DOC = {"kind": "noise", "noise": {"name": "hybrid_dephasing", "repetitions": 2,
                                         "ensemble_size": 4}}
AVERAGE_DOC = {"kind": "average", "hamiltonian": {"terms": ["1.0 Z 1"]},
               "sequence": {"name": "cp_x"}}
NMR_DOC = logical_nmr(j={"13": 1.0}, species=["H", "H", "C", "C"], weak_coupling=True)
#: What an edit may target: (accepted types per key, a valid document that
#: reads them, the path of keys to the block holding them, empty for the top level).
EDITABLE = {
    "field": (FIELD_TYPES, NOISE_DOC, ()),
    "knob": (KNOB_TYPES, NOISE_DOC, ("noise",)),
    "sequence": (SEQUENCE_TYPES, AVERAGE_DOC, ("sequence",)),
    "nmr": (NMR_TYPES, NMR_DOC, ("hamiltonian", "nmr")),
}


@st.composite
def wrong_type_edits(draw):
    """``(where, key, value)``: one field, knob, sequence or nmr key given a
    value of a type it rejects."""
    where = draw(st.sampled_from(sorted(EDITABLE)))
    accepted = EDITABLE[where][0]
    key = draw(st.sampled_from(sorted(accepted)))
    wrong = draw(st.sampled_from(sorted(set(JSON_TYPES) - accepted[key])))
    return where, key, draw(JSON_TYPES[wrong])


class TestMalformedInput:
    @given(edit=wrong_type_edits())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_wrong_json_type_exits_2(self, tmp_path_factory, edit):
        where, key, value = edit
        _, base, block = EDITABLE[where]
        doc = json.loads(json.dumps(base))
        target = doc
        for step in block:
            target = target[step]
        target[key] = value
        path = write_scenario(tmp_path_factory.mktemp("malformed"), doc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(path)
        lines = err.getvalue().splitlines()
        assert (code, out.getvalue()) == (2, ""), edit
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


class TestListCommand:
    def test_catalog_contents(self):
        text = list_builtins()
        for name in ("ns3", "dfs2", "dfs2x2", "cp_x", "cp_x_symmetric", "whh4",
                     "s1_selective_x1", "zz_extractor", "gmax_cycle",
                     "hybrid_dephasing", "encoded_spin_boson", "encoded_depolarizing",
                     "four_qubit_blockwise"):
            assert name in text
