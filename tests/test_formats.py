import json

import numpy as np
import pytest

from psdrank import cpsd, factors, formats, geometry, quantum
from psdrank.errors import InputError

from conftest import centered_square_pair, compute_multipliers


class TestMatrixCodec:
    def test_real_round_trip(self):
        m = np.array([[1.0, 2.5], [0.0, -3.0]])
        out = formats.decode_matrix(formats.encode_matrix(m))
        assert np.array_equal(out, m)

    def test_complex_round_trip(self):
        m = np.array([[1.0, 1.0 + 2.0j], [1.0 - 2.0j, 0.5]])
        doc = formats.encode_matrix(m)
        # purely real entries stay plain numbers
        assert doc["data"][0][0] == 1.0
        assert doc["data"][0][1] == [1.0, 2.0]
        out = formats.decode_matrix(doc)
        assert np.array_equal(out, m)

    def test_empty_matrix(self):
        doc = formats.encode_matrix(np.zeros((0, 3)))
        out = formats.decode_matrix(doc)
        assert out.shape == (0, 3)

    def test_nan_rejected_on_encode(self):
        with pytest.raises(InputError, match="finite"):
            formats.encode_matrix(np.array([[np.nan]]))

    def test_inf_rejected_on_decode(self):
        with pytest.raises(InputError, match="finite"):
            formats.decode_matrix({"rows": 1, "cols": 1, "data": [[1e400]]})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError, match="rows"):
            formats.decode_matrix({"rows": 2, "cols": 1, "data": [[1.0]]})
        with pytest.raises(InputError, match="entries"):
            formats.decode_matrix({"rows": 1, "cols": 2, "data": [[1.0]]})

    def test_garbage_entries_rejected(self):
        with pytest.raises(InputError):
            formats.decode_matrix({"rows": 1, "cols": 1, "data": [["x"]]})
        with pytest.raises(InputError):
            formats.decode_matrix({"rows": 1, "cols": 1, "data": [[[1.0, 2.0, 3.0]]]})

    @pytest.mark.parametrize("m", [
        np.array([[1.0, -2.5e-300], [3.0e300, 0.1]]),
        np.array([[1, -2], [2 ** 62, 0]]),
        np.array([[True, False]]),
        np.array([[-0.0, 0.0], [1.0, -0.0]]),
        np.array([[1.0 + 0.0j, -0.0 - 0.0j], [2.0 + 1e-300j, -3.0 - 4.5j]]),
        np.array([[1.0 + 2.0j, 3.0]], dtype=np.complex64),
    ], ids=["float", "int", "bool", "negative-zero", "complex", "complex64"])
    def test_round_trip_matches_the_entry_by_entry_codec(self, m):
        def entry_out(x):
            re, im = float(np.real(x)), float(np.imag(x))
            return [re, im] if np.iscomplexobj(x) and im != 0.0 else re

        def entry_in(x):
            return complex(*x) if isinstance(x, list) else float(x)

        text = json.dumps(formats.encode_matrix(m))
        assert text == json.dumps({"rows": m.shape[0], "cols": m.shape[1],
                                   "data": [[entry_out(x) for x in row] for row in m]})
        doc = json.loads(text)
        out = formats.decode_matrix(doc)
        want = np.array([[entry_in(x) for x in row] for row in doc["data"]])
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("data, message", [
        ([[float("nan"), 1.0]], "entries must be finite"),
        ([[1.0, float("inf")]], "entries must be finite"),
        ([["1.5", 1.0]], "entries must be numbers or \\[re, im\\] pairs"),
        ([[1.0, None]], "entries must be numbers or \\[re, im\\] pairs"),
        ([[1.0, 2.0], [3.0]], "row 1 must have 2 entries"),
        ([[1.0, [1.0, 2.0, 3.0]], [1.0, 2.0]], "entries must be numbers or \\[re, im\\] pairs"),
        ([[1.0, [1.0, float("nan")]], [1.0, 2.0]], "entries must be finite"),
    ], ids=["nan", "infinity", "string", "null", "ragged", "mixed-bad-pair", "mixed-nan-pair"])
    def test_refusals_keep_their_messages(self, data, message):
        with pytest.raises(InputError, match=f"m: {message}"):
            formats.decode_matrix({"rows": len(data), "cols": 2, "data": data}, "m")

    def test_rows_mixing_numbers_and_pairs_decode_entry_by_entry(self):
        doc = {"rows": 2, "cols": 2, "data": [[1.0, [2.0, -1.0]], [3, True]]}
        out = formats.decode_matrix(doc)
        assert out.dtype == complex
        assert np.array_equal(out, [[1.0, 2.0 - 1.0j], [3.0, 1.0]])

    def test_missing_keys(self):
        with pytest.raises(InputError, match="rows, cols, data"):
            formats.decode_matrix({"rows": 1, "data": [[1.0]]})

    def test_file_round_trip(self, tmp_path):
        m = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "m.json"
        formats.save_matrix(m, path)
        assert np.array_equal(formats.load_matrix(path), m)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            formats.load_matrix(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="not valid JSON"):
            formats.load_matrix(path)


class TestFactorizationCodec:
    def test_round_trip(self, catalog):
        for entry in catalog:
            f = entry.factorization
            g = formats.decode_factorization(formats.encode_factorization(f))
            assert g.field == f.field
            assert g.k == f.k
            for a, b in zip(g.row_factors, f.row_factors):
                assert np.array_equal(a, b)
            for a, b in zip(g.col_factors, f.col_factors):
                assert np.array_equal(a, b)
            assert np.max(np.abs(g.matrix() - entry.matrix)) <= 1e-9

    def test_json_serializable(self, catalog):
        entry = next(e for e in catalog if e.name == "hermitian-derangement4")
        doc = formats.encode_factorization(entry.factorization)
        text = json.dumps(doc)
        g = formats.decode_factorization(json.loads(text))
        assert g.field == "hermitian"

    def test_bad_field(self):
        doc = {"row_factors": [], "col_factors": [], "field": "quaternionic"}
        with pytest.raises(InputError, match="field"):
            formats.decode_factorization(doc)

    def test_missing_keys(self):
        with pytest.raises(InputError):
            formats.decode_factorization({"row_factors": []})


class TestEllipseCodec:
    def test_round_trip(self):
        pair = centered_square_pair()
        theta = np.diag([0.5, 0.5, -1.0])
        e = geometry.Ellipse(theta, compute_multipliers(pair, theta))
        g = formats.decode_ellipse(formats.encode_ellipse(e))
        assert np.array_equal(g.theta, e.theta)
        assert np.array_equal(g.multipliers, e.multipliers)
        assert geometry.certify(pair, g).passed

    def test_multipliers_must_be_finite(self):
        doc = {"theta": formats.encode_matrix(np.eye(3)), "multipliers": [float("inf")]}
        with pytest.raises(InputError, match="finite"):
            formats.decode_ellipse(doc)

    def test_missing_keys(self):
        with pytest.raises(InputError):
            formats.decode_ellipse({"theta": formats.encode_matrix(np.eye(3))})


class TestProtocolCodec:
    def test_round_trip(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m = entry.matrix / entry.matrix.sum()
        f = factors.scale_rows(entry.factorization, np.full(3, 1.0 / entry.matrix.sum()))
        pr = quantum.to_protocol(f, m)
        g = formats.decode_protocol(formats.encode_protocol(pr))
        assert g.k == pr.k
        assert np.max(np.abs(g.rho - pr.rho)) == 0.0
        assert quantum.verify_protocol(m, g).passed

    def test_decoded_protocol_is_validated(self):
        doc = {
            "k": 2,
            "alice": [formats.encode_matrix(np.eye(2))],
            "bob": [formats.encode_matrix(np.eye(2))],
            "rho": formats.encode_matrix(np.eye(4)),  # trace 4, invalid state
        }
        with pytest.raises(InputError):
            formats.decode_protocol(doc)


class TestGramCodec:
    def test_round_trip(self):
        g = cpsd.SymmetricGram([np.eye(2), np.diag([2.0, 0.0])])
        h = formats.decode_gram(formats.encode_gram(g))
        assert h.k == 2
        assert np.array_equal(h.matrix(), g.matrix())

    def test_psd_validation_applies(self):
        doc = {"factors": [formats.encode_matrix(np.diag([1.0, -1.0]))]}
        with pytest.raises(InputError, match="psd"):
            formats.decode_gram(doc)

