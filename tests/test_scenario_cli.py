"""Scenario files and the command-line front end."""
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aht
from aht.cli import list_builtins, main, run
from aht.codes import CODE_NAMES
from aht.config import ValidationError
from aht.decoupling import SEQUENCE_NAMES
from aht.noise import SCENARIO_NAMES, DecayCurve
from aht.operators import SIGMA, exchange
from aht.scenario import KINDS, Scenario, _json_text, parse_hamiltonian, parse_term
from aht.verify import VerificationCheck


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
    @pytest.mark.parametrize("doc", [
        {"kind": "project", "n_qubits": 1, "seed": 3, "cycle_time": 0.5, "code": "dfs2",
         "hamiltonian": {"terms": ["1.0 Z 1"]}, "sequence": {"name": "cp_x"},
         "output": {"format": "json"}},
        {"kind": "logical", "n_qubits": 3, "code": "ns3", "hamiltonian": {"terms": ["1.0 s12"]}},
        {"kind": "scan", "target": "magnus_defect", "sweep": [0.1, 0.05],
         "hamiltonian": {"terms": ["Z1"]}, "sequence": "cp_x", "output": {"format": "csv"}},
        {"kind": "universality", "n_qubits": 2, "generators": [["X1"], ["Y2"]]},
        {"kind": "noise", "seed": 12, "noise": {"name": "hybrid_dephasing"}},
    ], ids=lambda doc: doc["kind"])
    def test_from_dict_keeps_every_field(self, doc):
        sc = Scenario.from_dict(doc)
        assert {key: getattr(sc, key) for key in doc} == doc

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            Scenario.from_dict({"kind": "project", "pulse_power": 3})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            Scenario.from_dict({"kind": "teleport"})

    def test_register_size_bounded(self):
        # parsing alone must refuse a register the dense operators cannot hold
        doc = {"kind": "project", "hamiltonian": {"terms": ["Z1"]}, "sequence": "cp_x"}
        assert Scenario.from_dict({**doc, "n_qubits": 5}).n_qubits == 5
        for n in (0, 6, 40):
            with pytest.raises(ValidationError, match="n_qubits"):
                Scenario.from_dict({**doc, "n_qubits": n})


def logical_nmr(**block):
    """A 4-qubit ``logical`` run on the dfs2x2 code reading an nmr block
    with four shifts, updated by ``block``."""
    return {"kind": "logical", "code": "dfs2x2", "n_qubits": 4,
            "hamiltonian": {"nmr": {"nu": [1.0, 0.5, 0.2, 0.1], **block}}}


#: The top-level fields each kind reads besides ``kind``, ``seed`` and
#: ``output``: a document naming any other field must exit 2.
READS = {
    **dict.fromkeys(("average", "project", "propagate"),
                    {"hamiltonian", "sequence", "n_qubits", "code", "cycle_time"}),
    "logical": {"hamiltonian", "code", "n_qubits"},
    "universality": {"generators", "n_qubits"},
    "noise": {"noise"},
    "scan": {"hamiltonian", "sequence", "sweep", "target", "n_qubits", "code"},
}
#: The fields of the run itself, which every kind takes.
RUN_FIELDS = {"kind", "seed", "output"}
PROJECT_DOC = {"kind": "project", "n_qubits": 1, "hamiltonian": {"terms": ["1.0 Z 1"]},
               "sequence": {"name": "cp_x"}}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def refuse_write(*args, **kwargs):
    """Stands in for ``Path.write_text`` on a destination that cannot be written."""
    raise PermissionError(13, "Permission denied")


def assert_one_error_line(capsys):
    """Check that stdout is empty and stderr one ``error:`` line; return it."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


#: Documents whose numbers overflow: each exited 0 with a NaN result or ended in
#: a traceback; the Pauli sums are refused before summing, the noise curve after.
OVERFLOW_DOCS = {
    "average": {"kind": "average", "n_qubits": 1, "sequence": "cp_y",
                "hamiltonian": {"terms": ["1e308 X 1", "1e308 X 1"]}},
    "cancelling": {"kind": "average", "n_qubits": 1, "sequence": "cp_y",
                   "hamiltonian": {"terms": ["1e308 X 1", "-1e308 X 1"]}},
    "logical": {"kind": "logical", "n_qubits": 4, "code": "dfs2x2",
                "hamiltonian": {"terms": ["1e308 ZZ 1 2", "1e308 ZZ 1 2"]}},
    **{f"noise-{knob}": {"kind": "noise", "output": {"format": "csv"}, "noise": {
        "name": "encoded_spin_boson", knob: value, "repetitions": 2, "ensemble_size": 3}}
       for knob, value in (("slow_amplitude", 1e154), ("delta_omega", 1e155))},
}


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

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff\xfe")
        assert run(str(path)) == 2
        assert_one_error_line(capsys)

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
            {"seed": -1},
            {"repetitions": 10**330},  # too large for a float
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
            {"n_qubits": "2"}, {"seed": "x"}, {"sweep": ["a"]}, {"kind": "average", "cycle_time": 0},
            {"hamiltonian": {"terms": [5]}},
            {"sequence": {"name": "cp_x", "cycle_time": "x"}},
            {"sequence": {"pulses": [{"terms": ["1.0 X 1"], "angle": "a"}], "durations": [1.0]}},
            {"hamiltonian": {"nmr": {"nu": "abcd"}}},
            {"kind": "universality", "generators": [["1.0 X 1"], 5]},
            {"sequence": {"name": "cp_x", "physical": "no"}},
            {"sequence": {"name": "cp_x", "code": ["dfs2"]}},
            {"sequence": {"name": ["cp_x"]}},
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
            {"seed": -1},
            # a key no block reads
            {"hamiltonian": {"terms": ["1.0 Z 1"], "trems": ["1.0 X 1"]}},
            {"hamiltonian": {"terms": ["1.0 Z 1"], "nmr": {"nu": [1.0]}}},
            logical_nmr(specie=["H", "H", "C", "C"]),
            {"sequence": {"name": "cp_x", "cycel_time": 0.5}},
            {"sequence": {"name": "cp_x", "durations": [0.25, 0.75]}},
            {"sequence": {"name": "cp_x", "pulses": []}},
            {"sequence": {"pulses": [{"terms": ["1.0 X 1"], "angel": 1.0}] * 2,
                          "durations": [0.5, 0.5]}},
            {"sequence": {"pulses": [{"terms": ["1.0 X 1"]}] * 2, "durations": [0.5, 0.5],
                          "physical": True}},
            # a format the kind does not write
            {"output": {"format": "json"}},
            {"target": "fidelity"},
            {"sequence": {"cycle_time": 1}},
            {"hamiltonian": {"terms": ["0.5"]}},
            {"n_qubits": 2, "hamiltonian": {"terms": ["1.0 ZZ 1 1"]}},
            {"n_qubits": 2, "hamiltonian": {"terms": ["1.0 s 2 2"]}},
            logical_nmr(j={"11": 1.0}),
        ],
    )
    def test_bad_scenario_fields_exit_2(self, tmp_path, capsys, field):
        doc = {"kind": "scan", "n_qubits": 1, "target": "magnus_defect",
               "hamiltonian": {"terms": ["1.0 Z 1"]}, "sequence": {"name": "cp_x"},
               "sweep": [0.1], **field}
        # keep only what the case's kind reads, so each case meets the check it names
        doc = {key: value for key, value in doc.items() if key in READS[doc["kind"]] | RUN_FIELDS}
        assert run(write_scenario(tmp_path, doc)) == 2
        assert "fields for kind" not in assert_one_error_line(capsys)

    @pytest.mark.parametrize("kind", ["average", "scan"])
    def test_sequence_name_as_a_string_is_the_name_block(self, tmp_path, capsys, kind):
        outputs = []
        for sequence in ("cp_x", {"name": "cp_x"}):
            doc = {"kind": kind, "n_qubits": 1, "hamiltonian": {"terms": ["1.0 Z 1"]},
                   "sequence": sequence,
                   **({"sweep": [0.1, 0.2], "target": "magnus_defect"} if kind == "scan" else {})}
            assert run(write_scenario(tmp_path, doc)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0]

    @pytest.mark.parametrize("doc,named", [
        ({**PROJECT_DOC, "sweep": [0.1], "target": "magnus_defect",
          "generators": [["1.0 X 1"]], "noise": {"name": "nothing"}}, "generators"),
        ({"kind": "noise", "cycle_time": 5, "n_qubits": 3, "hamiltonian": {"terms": ["Z1"]},
          "noise": {"name": "hybrid_dephasing", "repetitions": 2, "ensemble_size": 4}},
         "cycle_time"),
    ], ids=["project", "noise"])
    def test_field_the_kind_does_not_read_exits_2(self, tmp_path, capsys, doc, named):
        assert run(write_scenario(tmp_path, doc)) == 2
        assert named in assert_one_error_line(capsys)

    @pytest.mark.parametrize("doc", [
        {"kind": "logical", "n_qubits": 3, "hamiltonian": {"terms": ["1.0 s12"]}},
        {"kind": "universality", "generators": []},
        {"kind": "noise"},
        {"kind": "scan", "target": "magnus_defect", "hamiltonian": {"terms": ["Z1"]},
         "sequence": "cp_x", "sweep": []},
        {**PROJECT_DOC, "sequence": None},
    ], ids=["logical", "universality", "noise", "scan", "project"])
    def test_missing_or_empty_needed_field_exits_2(self, tmp_path, capsys, doc):
        assert run(write_scenario(tmp_path, doc)) == 2
        assert "needs" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("fmt", ["csv", "xml"])
    def test_project_format_other_than_json_exits_2(self, tmp_path, capsys, fmt):
        assert main(["run", write_scenario(tmp_path, PROJECT_DOC), "--format", fmt]) == 2
        assert_one_error_line(capsys)

    def test_verify_empty_ensemble_exits_2(self, capsys):
        assert main(["verify", "--ensemble", "0"]) == 2
        assert_one_error_line(capsys)

    def test_verify_negative_seed_exits_2(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert_one_error_line(capsys)

    def test_verify_oversized_ensemble_exits_2(self, capsys):
        # over the noise-size limit; allocating it would fail at once anyway
        assert main(["verify", "--ensemble", str(10**12)]) == 2
        assert_one_error_line(capsys)

    def test_verify_admits_a_large_diagonal_ensemble(self, capsys, monkeypatch):
        # 7000 trajectories would take 2.15 GB of per-step samples, but every
        # ensemble run of the suite is diagonal, and the interval sampler needs
        # 43 MB for all four at once; the runs are stubbed, so nothing is drawn
        sizes = []

        def stub(sc):
            sizes.append(sc.ensemble_size)
            return DecayCurve(np.zeros(2), np.array([1.0, 0.9]), np.zeros(2), sc.ensemble_size)

        monkeypatch.setattr("aht.verify.ensemble_coherences", lambda scs: [stub(sc) for sc in scs])
        assert main(["verify", "--ensemble", "7000"]) in (0, 1)
        assert capsys.readouterr().err == ""
        assert sizes == [7000] * 4

    @pytest.mark.parametrize("name,code", [("hybrid_dephasing", 0), ("encoded_spin_boson", 2)])
    def test_noise_size_follows_the_path(self, tmp_path, capsys, monkeypatch, name, code):
        # 21000 trajectories on 6400 steps: the diagonal run needs 23 MB and is
        # admitted; the other one needs 2.15 GB of per-step samples and exits 2
        # before any noise is drawn
        monkeypatch.setattr("aht.noise._draw", lambda *a: pytest.fail("noise drawn"))
        monkeypatch.setattr("aht.scenario.ensemble_coherence",
                            lambda sc: DecayCurve(np.zeros(1), np.ones(1), np.zeros(1), 1))
        doc = {"kind": "noise", "noise": {"name": name, "ensemble_size": 21000, "max_step": 0.0025}}
        assert run(write_scenario(tmp_path, doc)) == code
        if code:
            assert "bytes of noise" in assert_one_error_line(capsys)

    def test_seed_flag_wins_over_noise_block_seed(self, tmp_path, capsys):
        doc = {"kind": "noise", "noise": {**NOISE_DOC["noise"], "seed": 3}}
        path = write_scenario(tmp_path, doc)
        outputs = {}
        for seed in (7, 8):
            assert main(["run", path, "--seed", str(seed)]) == 0
            outputs[seed] = capsys.readouterr().out
            assert json.loads(outputs[seed])["scenario"]["seed"] == seed
        assert outputs[7] != outputs[8]

    @pytest.mark.parametrize("path", [5, "", None, ["x.json"]])
    def test_output_path_not_a_nonempty_string_exits_2(self, tmp_path, capsys, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        doc = {**PROJECT_DOC, "output": {"path": path}}
        with pytest.raises(ValidationError, match="output path"):
            Scenario.from_dict(doc)
        assert run(write_scenario(tmp_path, doc)) == 2
        assert "output path" in assert_one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_missing_output_directory_exits_2_before_running(self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.setattr(Scenario, "run", lambda sc: pytest.fail("ran before checking --out"))
        destination = str(tmp_path / "missing" / "x.json")
        doc = {**PROJECT_DOC, "output": {"path": destination}} if where == "file" else PROJECT_DOC
        path = write_scenario(tmp_path, doc)
        assert run(path, out=destination if where == "flag" else None) == 2
        assert "does not exist" in assert_one_error_line(capsys)

    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch):
        # the destination passes the checks before the run, but the write fails
        path = write_scenario(tmp_path, PROJECT_DOC)
        monkeypatch.setattr(Path, "write_text", refuse_write)
        assert run(path, out=str(tmp_path / "x.json")) == 2
        assert "cannot write" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_output_directory_exits_2_before_running(self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.setattr(Scenario, "run", lambda sc: pytest.fail("ran before checking --out"))
        doc = {**PROJECT_DOC, "output": {"path": str(tmp_path)}} if where == "file" else PROJECT_DOC
        path = write_scenario(tmp_path, doc)
        assert run(path, out=str(tmp_path) if where == "flag" else None) == 2
        assert "is a directory" in assert_one_error_line(capsys)

    def test_empty_out_flag_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        # an empty --out neither falls back to stdout nor to the file's output.path
        monkeypatch.setattr(Scenario, "run", lambda sc: pytest.fail("ran before checking --out"))
        for doc in (PROJECT_DOC, {**PROJECT_DOC, "output": {"path": str(tmp_path / "x.json")}}):
            assert main(["run", write_scenario(tmp_path, doc), "--out", ""]) == 2
            assert "must not be empty" in assert_one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    @pytest.mark.parametrize("out,message", [("", "must not be empty"), (".", "is a directory")])
    def test_verify_bad_out_exits_2_before_running(self, tmp_path, capsys, monkeypatch, out, message):
        monkeypatch.setattr("aht.cli.run_suite", lambda **kw: pytest.fail("ran before checking --out"))
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--out", out]) == 2
        assert message in assert_one_error_line(capsys)

    def test_verify_missing_output_directory_exits_2_before_running(self, tmp_path, capsys,
                                                                     monkeypatch):
        monkeypatch.setattr("aht.cli.run_suite", lambda **kw: pytest.fail("ran before checking --out"))
        assert main(["verify", "--out", str(tmp_path / "missing" / "report.txt")]) == 2
        assert "does not exist" in assert_one_error_line(capsys)

    def test_verify_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("aht.cli.run_suite", lambda **kw: [VerificationCheck("stub", True, "")])
        monkeypatch.setattr(Path, "write_text", refuse_write)
        assert main(["verify", "--out", str(tmp_path / "report.txt")]) == 2
        assert "cannot write" in assert_one_error_line(capsys)

    def test_branch_cut_exits_3(self, tmp_path, capsys):
        # a full pi rotation puts the cycle eigenphases exactly on the cut
        path = write_scenario(tmp_path, {
            "kind": "propagate", "n_qubits": 1, "cycle_time": float(np.pi),
            "hamiltonian": {"terms": ["1.0 Z 1"]},
            "sequence": {"pulses": [{"terms": [], "angle": 0.0}], "durations": [1.0]},
        })
        assert run(path) == 3
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("doc", OVERFLOW_DOCS.values(), ids=OVERFLOW_DOCS)
    def test_overflow_exits_2(self, tmp_path, capsys, doc):
        with np.errstate(all="ignore"):  # numpy's overflow warnings come before the refusal
            assert main(["run", write_scenario(tmp_path, doc)]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("name", [name for name in OVERFLOW_DOCS if name.startswith("noise")])
    def test_overflow_prints_only_the_error_line(self, tmp_path, name):
        # a new interpreter, with numpy's default error state: no warning line comes first
        code, out, err = fresh(["run", write_scenario(tmp_path, OVERFLOW_DOCS[name])])
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


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
#: A key that no block reads, so no JSON type is accepted for it.
UNREAD = {"unread": set()}
#: The JSON types each scenario field accepts, split by the kind of the
#: valid document below that reads it; a field the kind needs takes no null.
FIELD_TYPES = {
    "noise": {"kind": {"string"}, "noise": {"object"}, "seed": {"integer"},
              "output": {"object", "null"}, **UNREAD},
    "scan": {"n_qubits": {"integer"}, "hamiltonian": {"object"}, "code": {"string", "null"},
             "sequence": {"string", "object"}, "sweep": {"array"}, "target": {"string"}, **UNREAD},
    "average": {"cycle_time": NUMBER, **UNREAD},
    "universality": {"generators": {"array"}, **UNREAD},
}
#: The JSON types each key of a hybrid_dephasing noise block accepts.
KNOB_TYPES = {
    "name": {"string"}, "repetitions": {"integer"}, "ensemble_size": {"integer"},
    "seed": {"integer"}, "pulses": {"boolean"}, "encoded": {"boolean"},
    **{k: NUMBER for k in ("cycle_time", "max_step", "tau_fast", "tau_slow",
                           "fast_amplitude", "slow_amplitude", "omega1", "omega2")},
    **UNREAD,
}
#: The JSON types each key of a named sequence block accepts.
SEQUENCE_TYPES = {"cycle_time": NUMBER, "physical": {"boolean"}, **UNREAD}
#: The JSON types each key of an nmr block accepts.
NMR_TYPES = {"nu": {"array"}, "j": {"object"}, "species": {"array"}, "weak_coupling": {"boolean"},
             **UNREAD}
#: The JSON types each key of a terms Hamiltonian block and of an explicit pulse accept.
HAMILTONIAN_TYPES = {"terms": {"array"}, **UNREAD}
PULSE_TYPES = {"terms": {"array"}, "angle": NUMBER, **UNREAD}
NOISE_DOC = {"kind": "noise", "noise": {"name": "hybrid_dephasing", "repetitions": 2,
                                         "ensemble_size": 4}}
AVERAGE_DOC = {"kind": "average", "hamiltonian": {"terms": ["1.0 Z 1"]},
               "sequence": {"name": "cp_x"}}
NMR_DOC = logical_nmr(j={"13": 1.0}, species=["H", "H", "C", "C"], weak_coupling=True)
SCAN_DOC = {"kind": "scan", "target": "magnus_defect", "hamiltonian": {"terms": ["1.0 Z 1"]},
            "sequence": {"name": "cp_x"}, "sweep": [0.1]}
UNIVERSALITY_DOC = {"kind": "universality", "generators": [["1.0 X 1"], ["1.0 Y 1"]]}
PULSE_DOC = {"kind": "average", "hamiltonian": {"terms": ["1.0 Z 1"]},
             "sequence": {"pulses": [{"terms": ["1.0 X 1"], "angle": 1.5707963267948966}] * 2,
                          "durations": [0.5, 0.5]}}
#: What an edit may target: (accepted types per key, a valid document that
#: reads them, the path of keys to the block holding them, empty for the top level).
EDITABLE = {
    "noise field": (FIELD_TYPES["noise"], NOISE_DOC, ()),
    "scan field": (FIELD_TYPES["scan"], SCAN_DOC, ()),
    "average field": (FIELD_TYPES["average"], AVERAGE_DOC, ()),
    "universality field": (FIELD_TYPES["universality"], UNIVERSALITY_DOC, ()),
    "knob": (KNOB_TYPES, NOISE_DOC, ("noise",)),
    "sequence": (SEQUENCE_TYPES, AVERAGE_DOC, ("sequence",)),
    "nmr": (NMR_TYPES, NMR_DOC, ("hamiltonian", "nmr")),
    "hamiltonian": (HAMILTONIAN_TYPES, AVERAGE_DOC, ("hamiltonian",)),
    "pulse": (PULSE_TYPES, PULSE_DOC, ("sequence", "pulses", 0)),
}


@st.composite
def wrong_type_edits(draw):
    """``(where, key, value)``: one key of a field, knob, sequence, nmr,
    Hamiltonian or pulse block given a value of a type it rejects; the
    ``unread`` key rejects every value."""
    where = draw(st.sampled_from(sorted(EDITABLE)))
    accepted = EDITABLE[where][0]
    key = draw(st.sampled_from(sorted(accepted)))
    wrong = draw(st.sampled_from(sorted(set(JSON_TYPES) - accepted[key])))
    return where, key, draw(JSON_TYPES[wrong])


def with_unread_key_examples(test):
    """Also try the ``unread`` key of every block, whatever the draws."""
    for where in EDITABLE:
        test = example(edit=(where, "unread", 0))(test)
    return test


class TestMalformedInput:
    @given(edit=wrong_type_edits())
    @with_unread_key_examples
    @settings(max_examples=60, deadline=None, derandomize=True)
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


#: Valid documents of every kind, and the values their fields take.
VALID_DOCS = [NOISE_DOC, AVERAGE_DOC, SCAN_DOC, UNIVERSALITY_DOC, NMR_DOC, PULSE_DOC,
              PROJECT_DOC, {**AVERAGE_DOC, "kind": "propagate"}]
TOP_LEVEL = sorted(RUN_FIELDS.union(*READS.values(), ["unread"]))
VALID_VALUES = {key: [doc[key] for doc in VALID_DOCS if key in doc] for key in TOP_LEVEL}
VALID_VALUES["kind"].append("teleport")
#: Any JSON value, with integers small enough that no run or closure grows large.
SMALL_JSON = st.one_of(*{
    **JSON_TYPES, "integer": st.integers(-8, 8), "array": st.lists(st.integers(-8, 8), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-8, 8), max_size=2),
}.values())


@st.composite
def documents(draw):
    """A whole scenario document: a valid one or an empty one, with some
    fields dropped and some set to any JSON value or to a value valid in
    some other document."""
    base = draw(st.sampled_from([*VALID_DOCS, {}]))
    dropped = draw(st.sets(st.sampled_from(sorted(base) or ["kind"]), max_size=1))
    doc = {key: value for key, value in base.items() if key not in dropped}
    for key in draw(st.sets(st.sampled_from(TOP_LEVEL), max_size=3)):
        doc[key] = draw(st.sampled_from(VALID_VALUES[key] or [0]) | SMALL_JSON)
    return doc


#: ``logical`` documents whose Hamiltonian is not on the code's qubits (``n_qubits``
#: defaults to 1): each ended in a numpy traceback with exit 1, from ``Code.leakage``.
MISMATCHED_LOGICAL_DOCS = {
    "dfs2x2": {"kind": "logical", "code": "dfs2x2", "hamiltonian": {"terms": ["1.0 Z 1"]}},
    "ns3": {"kind": "logical", "code": "ns3", "hamiltonian": {"terms": ["1.0 Z 1"]}},
    "dfs2": {"kind": "logical", "code": "dfs2", "n_qubits": 3,
             "hamiltonian": {"terms": ["1.0 Z 1"]}},
}


class TestWholeDocuments:
    @given(doc=documents())
    @example(doc={**PROJECT_DOC, "sweep": [0.1], "target": "magnus_defect",
                  "generators": [["1.0 X 1"]], "noise": {"name": "nothing"}})
    @example(doc=MISMATCHED_LOGICAL_DOCS["dfs2x2"])
    @example(doc=MISMATCHED_LOGICAL_DOCS["ns3"])
    @example(doc=MISMATCHED_LOGICAL_DOCS["dfs2"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_any_document_exits_0_2_or_3_cleanly(self, tmp_path_factory, doc):
        directory = tmp_path_factory.mktemp("document")
        path = write_scenario(directory, doc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(path, out=str(directory / "result"))
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3) and out.getvalue() == "", doc
        if code:
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
        else:
            assert lines == [], lines
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in READS or set(doc) - READS[kind] - RUN_FIELDS:
            assert code == 2, doc

    @pytest.mark.parametrize("doc", MISMATCHED_LOGICAL_DOCS.values(), ids=MISMATCHED_LOGICAL_DOCS)
    def test_logical_hamiltonian_off_the_code_exits_2(self, tmp_path, capsys, doc):
        assert run(write_scenario(tmp_path, doc)) == 2
        assert "square matrix of side" in assert_one_error_line(capsys)


#: Every fenced JSON scenario in the README.
README_EXAMPLES = re.findall(r"```json\n(.*?)```",
                             (Path(__file__).parent.parent / "README.md").read_text(), re.S)


@pytest.mark.parametrize("text", README_EXAMPLES, ids=lambda t: json.loads(t)["kind"])
def test_readme_example_runs(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert run(str(path), out=str(tmp_path / "result")) == 0


#: Leaves of every kind json writes: its own types, float subclasses
#: (``np.float64``) and objects it writes through ``default=str``.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40), st.floats(),
    st.floats().map(np.float64), st.text(), st.text(st.characters(max_codepoint=0x1F)),
    st.integers(-3, 3).map(np.int64), st.complex_numbers(), st.fractions(),
)
#: Dict keys json accepts; one key type per dict, as ``sort_keys`` needs comparable keys.
JSON_KEYS = [st.text(), st.integers() | st.floats() | st.booleans(), st.none()]


def json_values(leaves=JSON_LEAVES):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.lists(st.floats() | st.floats().map(np.float64), max_size=4),
        *(st.dictionaries(keys, inner, max_size=4) for keys in JSON_KEYS),
    ), max_leaves=12)


PROPAGATE_DOC = {"kind": "propagate", "hamiltonian": {"terms": ["0.3 Z 1", "0.2 X 1"]},
                 "sequence": {"name": "cp_x"}, "cycle_time": 0.5}


def assert_json_round_trip(out):
    """``out`` is what json writes for what it reads back, with a final newline."""
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


class TestJsonOutput:
    @given(value=json_values())
    @example(value={"nan": float("nan"), "inf": [float("inf"), -float("inf"), -0.0, 1e300, 5e-324],
                    "text": "\u00e9\u2603\x00\x1f\n\"\\", "big": [10**40, -10**40, 2**63],
                    "np": [np.float64(0.1), np.float64("nan"), np.float64(-0.0), 1.5],
                    "tuple": (1, (2.5, "x"), ()), "empty": [{}, [], ()],
                    "objects": [Fraction(1, 3), 1 + 2j, np.int64(7), object]})
    @example(value={1: "i", 2.5: "f", True: "t", -3: None})
    @example(value={None: {False: [float("nan")], 0.5: {}}})
    @example(value=[[0.25, -1.0], [float("nan"), 2.0], [1, 2.0], [True, 0.0]])
    @example(value={"mixed": 1, 2: "keys"})
    @example(value={object(): 1})
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_writer_matches_json_dumps(self, value):
        # the oracle is json's own indent encoder, refusals included
        try:
            expected = json.dumps(value, sort_keys=True, indent=2, default=str)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                _json_text(value)
        else:
            assert _json_text(value) == expected

    @pytest.mark.parametrize("text", README_EXAMPLES, ids=lambda t: json.loads(t)["kind"])
    def test_readme_examples_write_canonical_json(self, text):
        doc = json.loads(text)
        if "json" not in KINDS[doc["kind"]].formats:
            pytest.skip(f"kind {doc['kind']!r} writes no JSON")
        assert_json_round_trip(Scenario.from_dict({**doc, "output": {"format": "json"}}).run())

    @pytest.mark.parametrize("doc", [NOISE_DOC, AVERAGE_DOC, UNIVERSALITY_DOC, NMR_DOC, PULSE_DOC,
                                     PROJECT_DOC, PROPAGATE_DOC],
                             ids=lambda doc: doc["kind"])
    def test_every_json_kind_writes_canonical_json(self, doc):
        assert_json_round_trip(Scenario.from_dict(doc).run())

    def test_algebra_benchmark_inputs_write_canonical_json(self, monkeypatch, tmp_path):
        # every op of the benchmark's algebra workload, run through main from its
        # scenario file: exit 0, and every output but the scan sweeps' is canonical JSON
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench.workloads import generate, materialize

        ops, written = generate("algebra", 2024), 0
        for op, argv in zip(ops, materialize(ops, tmp_path)):
            code, out, _ = in_process(argv)
            assert code == 0, op.name
            if op.scenario["kind"] != "scan":
                assert_json_round_trip(out)
                written += 1
        assert written == 43


def in_process(argv):
    """``main(argv)`` in this interpreter: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh(argv):
    """``python -m aht argv`` in a new interpreter: its exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(aht.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-m", "aht", *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


#: a noise run off the diagonal path (encoded_spin_boson), written as CSV
SPIN_BOSON_DOC = {"kind": "noise", "seed": 5, "output": {"format": "csv"},
                  "noise": {"name": "encoded_spin_boson", "repetitions": 4, "ensemble_size": 50}}


class TestRepeatedCalls:
    def test_calls_in_one_process_match_fresh_interpreters(self, tmp_path, monkeypatch):
        # the parser is built once and the Pauli-matrix cache carries nothing from one
        # call to the next: a bad argv, a --seed, its absence (the file's own seed),
        # the verify suite and the other commands, each made twice in this process,
        # give what a new process gives
        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path, SPIN_BOSON_DOC)
        calls = [["run"], ["run", "scenario.json", "--seed", "7"], ["run", "scenario.json"],
                 ["verify", "--seed", "11", "--ensemble", "50"], ["list"]]
        expected = [fresh(argv) for argv in calls]
        for argv, result in zip(calls, expected):
            assert [in_process(argv), in_process(argv)] == [result, result], argv
        headers = (result[1].splitlines()[0] for result in expected[1:3])
        seeded, own = (json.loads(header.removeprefix("# "))["seed"] for header in headers)
        assert (seeded, own) == (7, 5)


#: sha256 of the ``aht list`` stdout
LIST_SHA256 = "6c84011bc1d81d92be32f0c95a6199a8837ed2db8820c85e9bab3090a87f8a6f"


class TestListCommand:
    def test_stdout_is_pinned(self, capsys):
        assert main(["list"]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == LIST_SHA256

    def test_each_catalog_lists_its_table(self):
        # a section per catalog, one row per name of its table, in table order
        sections = {}
        for line in list_builtins().splitlines():
            if line.startswith("  "):
                sections[title].append(line.split()[0])
            else:
                title = line.rstrip(":")
                sections[title] = []
        assert sections == {"codes": list(CODE_NAMES), "sequences": list(SEQUENCE_NAMES),
                            "noise scenarios": list(SCENARIO_NAMES)}

    def test_catalog_contents(self):
        text = list_builtins()
        for name in ("ns3", "dfs2", "dfs2x2", "cp_x", "cp_x_symmetric", "whh4",
                     "s1_selective_x1", "zz_extractor", "gmax_cycle",
                     "hybrid_dephasing", "encoded_spin_boson", "encoded_depolarizing",
                     "four_qubit_blockwise"):
            assert name in text
