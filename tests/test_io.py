import copy
import json

import numpy as np
import pytest

from symidx.chern import ClutchingData
from symidx.errors import FileFormatError, ParameterError
from symidx.hamdyn import ham_vector_field
from symidx.io import (
    dump_family,
    dump_path,
    file_digest,
    load_clutching,
    load_complex,
    load_family,
    load_morse_bott,
    load_path,
    load_system,
)
from symidx.splin import (
    SymmetricFamily,
    SymmetricFamily2,
    random_symmetric_family,
    rotation_path,
)
from symidx.chain import cascade_complex, homology


class TestPathRoundTrip:
    def test_round_trip(self):
        P = rotation_path(1, 2 * np.pi)
        doc = dump_path(P)
        Q = load_path(doc)
        assert Q.n == 1 and Q.closed and Q.starts_at_identity
        assert np.max(np.abs(Q.mats - P.mats[:: max(1, len(P.ts) // 513)])) < 1e-12

    def test_flags_inferred(self):
        doc = dump_path(rotation_path(1, 2 * np.pi))
        doc.pop("starts_at_identity")
        doc.pop("closed")
        Q = load_path(doc)
        assert Q.starts_at_identity and Q.closed

    def test_file_round_trip(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(dump_path(rotation_path(1, 1.0))))
        Q = load_path(f)
        assert not Q.closed
        assert len(file_digest(f)) == 64

    def test_unknown_field_rejected(self):
        doc = dump_path(rotation_path(1, 1.0))
        doc["extra"] = 1
        with pytest.raises(FileFormatError):
            load_path(doc)

    def test_missing_field_rejected(self):
        doc = dump_path(rotation_path(1, 1.0))
        doc.pop("samples")
        with pytest.raises(FileFormatError):
            load_path(doc)

    def test_bad_matrix_shape(self):
        doc = dump_path(rotation_path(1, 1.0))
        doc["n"] = 2
        with pytest.raises(FileFormatError):
            load_path(doc)

    def test_invalid_json_file(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        with pytest.raises(FileFormatError):
            load_path(f)

    def test_missing_file(self):
        with pytest.raises(FileFormatError):
            load_path("/nonexistent/path.json")

    def test_ragged_matrix(self):
        doc = dump_path(rotation_path(1, 1.0))
        doc["samples"][1]["matrix"] = [[1.0, 0.0], [0.0]]
        with pytest.raises(FileFormatError):
            load_path(doc)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_non_finite_entry(self, tmp_path, entry):
        doc = dump_path(rotation_path(1, 1.0))
        doc["samples"][1]["matrix"][0][0] = entry
        f = tmp_path / "nan.json"
        f.write_text(json.dumps(doc))  # written as the NaN / Infinity literal
        with pytest.raises(FileFormatError):
            load_path(f)

    @pytest.mark.parametrize("n", [1.5, 1.0, "1", True, 0])
    def test_n_must_be_a_positive_integer(self, n):
        doc = dump_path(rotation_path(1, 1.0))
        doc["n"] = n
        with pytest.raises(FileFormatError):
            load_path(doc)


    @pytest.mark.parametrize("flag, value", [
        ("starts_at_identity", "false"), ("starts_at_identity", 1),
        ("closed", 0), ("closed", None), ("closed", "true"),
    ])
    def test_flags_must_be_booleans(self, flag, value):
        doc = dump_path(rotation_path(1, np.pi / 2))
        doc[flag] = value
        with pytest.raises(FileFormatError, match=flag + " must be true or false"):
            load_path(doc)


class TestFamilyRoundTrip:
    def test_one_parameter(self):
        rng = np.random.default_rng(3)
        fam = random_symmetric_family(1, rng, samples=17)
        doc = dump_family(fam)
        back = load_family(doc)
        assert isinstance(back, SymmetricFamily)
        assert np.max(np.abs(back.mats - fam.mats)) < 1e-12

    def test_two_parameter(self):
        S = np.eye(2)
        row = {"rows": [{"t": 0.0, "matrix": S.tolist()},
                        {"t": 1.0, "matrix": S.tolist()}]}
        doc = {"n": 1, "kind": "symmetric_family",
               "samples_2d": [dict(row, s=0.0), dict(row, s=1.0)]}
        back = load_family(doc)
        assert isinstance(back, SymmetricFamily2)

    def test_wrong_kind(self):
        doc = dump_family(SymmetricFamily(
            np.array([0.0, 1.0]), np.stack([np.eye(2)] * 2)))
        doc["kind"] = "path"
        with pytest.raises(FileFormatError):
            load_family(doc)


class TestClutching:
    def test_load(self):
        doc = {"rank": 2, "genus": 0,
               "loops": [dump_path(rotation_path(1, 2 * np.pi))]}
        D = load_clutching(doc)
        assert isinstance(D, ClutchingData)
        assert D.rank == 2 and len(D.overlap_loops) == 1

    def test_string_loop_is_not_read_as_a_file(self, tmp_path, monkeypatch):
        (tmp_path / "loop.json").write_text(json.dumps(dump_path(rotation_path(1, 2 * np.pi))))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileFormatError, match="loop 0 must be a JSON object"):
            load_clutching({"rank": 2, "genus": 0, "loops": ["loop.json"]})


class TestSystem:
    def test_builtin_harmonic(self):
        sys = load_system({"phase_space": "plane",
                           "hamiltonian": {"builtin": "harmonic"}})
        assert np.allclose(ham_vector_field(sys, [1.0, 0.0]), [0.0, 1.0])

    def test_builtin_pendulum_scaled(self):
        sys = load_system({
            "phase_space": "cylinder",
            "hamiltonian": {"builtin": "pendulum",
                            "parameters": {"scale": 0.5}},
            "j_convention": "canonical",
        })
        assert sys.j_structure == "canonical"
        assert abs(sys.hamiltonian(np.array([0.0, 0.0])) - 0.5) < 1e-12

    def test_polynomial(self):
        sys = load_system({
            "phase_space": "plane",
            "hamiltonian": {"polynomial": {
                "n": 1,
                "terms": [{"coeff": 0.5, "powers": [2, 0]},
                          {"coeff": 0.5, "powers": [0, 2]}],
            }},
        })
        # same field as the harmonic oscillator
        assert np.allclose(ham_vector_field(sys, [1.0, 0.0]), [0.0, 1.0],
                           atol=1e-6)

    @pytest.mark.parametrize("hamiltonian", [
        {"builtin": "harmonic"},
        {"polynomial": {"n": 1, "terms": [{"coeff": 0.5, "powers": [2, 0]}]}},
    ])
    def test_unknown_j_convention(self, hamiltonian):
        with pytest.raises(ParameterError):
            load_system({"phase_space": "plane", "hamiltonian": hamiltonian,
                         "j_convention": "bogus"})

    def test_unknown_builtin(self):
        with pytest.raises(FileFormatError):
            load_system({"phase_space": "plane",
                         "hamiltonian": {"builtin": "kepler"}})


class TestComplexFiles:
    def test_sphere_complex(self):
        doc = {"generators": [{"id": "m", "doubled_degree": 0},
                              {"id": "M", "doubled_degree": 4}],
               "boundary": []}
        C = load_complex(doc)
        assert homology(C) == {0: 1, 4: 1}

    def test_boundary_entry_shape(self):
        doc = {"generators": [{"id": "m", "doubled_degree": 0}],
               "boundary": [["m"]]}
        with pytest.raises(FileFormatError):
            load_complex(doc)

    @pytest.mark.parametrize("entry", [["m", "M", "one"], ["m", "M", 1.5], ["m", 0],
                                       ["m", "M", 1, 1], "mM"])
    def test_boundary_entry_types(self, entry):
        doc = {"generators": [{"id": "m", "doubled_degree": 0},
                              {"id": "M", "doubled_degree": 2}],
               "boundary": [entry]}
        with pytest.raises(FileFormatError, match="boundary entry 0"):
            load_complex(doc)

    @pytest.mark.parametrize("key, entries", [
        ("intra", [["q"]]), ("intra", [["q", "p", "x"]]), ("cascades", [["q", "p", None]]),
        ("intra", {"q": "p"}),
    ])
    def test_morse_bott_entry_types(self, key, entries):
        doc = {"components": [
            {"id": "c", "dim": 0, "action": 0.0, "rs_trans_doubled": 0,
             "morse_points": [{"id": "p", "morse_index": 0}, {"id": "q", "morse_index": 1}]},
        ], key: entries}
        with pytest.raises(FileFormatError, match=key):
            load_morse_bott(doc)

    def test_morse_bott(self):
        doc = {"components": [
            {"id": "lo", "dim": 0, "action": 0.0, "rs_trans_doubled": 0,
             "morse_points": [{"id": "p", "morse_index": 0}]},
            {"id": "hi", "dim": 0, "action": 1.0, "rs_trans_doubled": 4,
             "morse_points": [{"id": "q", "morse_index": 0}]},
        ]}
        D = load_morse_bott(doc)
        C, lacunary = cascade_complex(D)
        assert lacunary and homology(C) == {0: 1, 4: 1}

    def test_unknown_component_field(self):
        doc = {"components": [
            {"id": "lo", "dim": 0, "action": 0.0, "rs_trans_doubled": 0,
             "morse_points": [], "color": "red"},
        ]}
        with pytest.raises(FileFormatError):
            load_morse_bott(doc)


def valid_documents():
    """One valid document per loader, keyed by the loader's input kind."""
    path = dump_path(rotation_path(1, np.pi / 2))
    rows = [{"t": 0.0, "matrix": np.eye(2).tolist()}, {"t": 1.0, "matrix": np.eye(2).tolist()}]
    return {
        "path": (load_path, path),
        "family2": (load_family, {"n": 1, "kind": "symmetric_family",
                                  "samples_2d": [{"s": 0.0, "rows": rows},
                                                 {"s": 1.0, "rows": rows}]}),
        "clutching": (load_clutching, {"rank": 2, "genus": 0,
                                       "loops": [dump_path(rotation_path(1, 2 * np.pi))]}),
        "system": (load_system, {"phase_space": "plane", "hamiltonian": {"polynomial": {
            "n": 1, "terms": [{"coeff": 0.5, "powers": [2, 0]}]}}}),
        "complex": (load_complex, {"generators": [{"id": "m", "doubled_degree": 0},
                                                  {"id": "M", "doubled_degree": 2,
                                                   "action": 1.0}],
                                   "boundary": [["M", "m", 2]]}),
        "morse-bott": (load_morse_bott, {"components": [
            {"id": "c", "dim": 0, "action": 0.0, "rs_trans_doubled": 0,
             "morse_points": [{"id": "p", "morse_index": 0}]}]}),
    }


# (input kind, where in the document, wrong value); the error names the last key
MALFORMED = [
    ("path", ("samples",), 3),
    ("path", ("samples",), {"t": 0.0}),
    ("family2", ("samples_2d",), None),
    ("family2", ("samples_2d", 0, "rows"), 1.5),
    ("clutching", ("loops",), 7),
    ("clutching", ("loops",), {}),
    ("system", ("hamiltonian", "polynomial", "terms"), 2),
    ("system", ("hamiltonian", "polynomial", "terms", 0, "powers"), 2),
    ("system", ("hamiltonian",), 5),
    ("system", ("hamiltonian",), None),
    ("complex", ("generators",), None),
    ("complex", ("generators", 0, "id"), ["m"]),
    ("complex", ("generators", 0, "id"), {"m": 1}),
    ("complex", ("generators", 0, "id"), 3),
    ("complex", ("generators", 1, "action"), "high"),
    ("complex", ("generators", 1, "action"), None),
    ("morse-bott", ("components",), 0),
    ("morse-bott", ("components", 0, "morse_points"), True),
    ("morse-bott", ("components", 0, "id"), ["c"]),
    ("morse-bott", ("components", 0, "id"), {"c": 0}),
    ("morse-bott", ("components", 0, "morse_points", 0, "id"), ["p"]),
    ("morse-bott", ("components", 0, "morse_points", 0, "id"), 3),
]


def malformed(kind, where, value):
    """(loader, the valid document of ``kind`` with ``value`` put at ``where``)."""
    loader, doc = valid_documents()[kind]
    doc = copy.deepcopy(doc)
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return loader, doc


class TestContainerTypes:
    @pytest.mark.parametrize("kind", sorted(valid_documents()))
    def test_valid_document_loads(self, kind):
        loader, doc = valid_documents()[kind]
        loader(doc)

    @pytest.mark.parametrize("kind, where, value", MALFORMED)
    def test_wrong_type_is_file_format_error(self, kind, where, value):
        loader, doc = malformed(kind, where, value)
        with pytest.raises(FileFormatError, match=where[-1]):
            loader(doc)
