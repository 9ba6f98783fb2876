import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psdrank import cli, factors, families, formats, geometry, sdp
from psdrank.errors import NumericalFailure


def write_matrix(tmp_path, m, name="m.json"):
    path = tmp_path / name
    formats.save_matrix(m, path)
    return str(path)


def write_factorization(tmp_path, f, name="f.json"):
    path = tmp_path / name
    formats.dump_json(formats.encode_factorization(f), path)
    return str(path)


def write_ellipse(tmp_path, name="e.json"):
    path = tmp_path / name
    e = geometry.Ellipse(np.diag([0.5, 0.5, -1.0]), np.zeros(3))
    formats.dump_json(formats.encode_ellipse(e), path)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip().startswith("{") else None
    return code, doc


class TestGen:
    def test_writes_family_to_file(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, _ = run(capsys, ["gen", "derangement", "3", "-o", str(out)])
        assert code == 0
        assert np.array_equal(formats.load_matrix(out), families.derangement(3))

    def test_prints_to_stdout(self, capsys):
        code, doc = run(capsys, ["gen", "circulant3", "1", "1", "4"])
        assert code == 0
        m = formats.decode_matrix(doc)
        assert np.array_equal(m, families.circulant3(1.0, 1.0, 4.0))

    def test_unknown_family_is_usage_error(self, capsys):
        assert cli.main(["gen", "not-a-family"]) == 2

    def test_bad_param_count(self, capsys):
        assert cli.main(["gen", "circulant3", "1"]) == 2


class TestBounds:
    def test_boundary_circulant(self, tmp_path, capsys):
        path = write_matrix(tmp_path, families.circulant3(1.0, 1.0, 4.0))
        code, doc = run(capsys, ["bounds", path])
        assert code == 0
        assert (doc["lower"], doc["upper"], doc["exact"]) == (2, 2, 2)
        assert any(c.get("kind") == "ellipse" for c in doc["certificates"] if c)

    def test_undecided_ellipse_still_gives_an_interval(self, tmp_path, capsys, monkeypatch):
        def undecided(problem):
            return sdp.SdpSolution("numerical-failure", None, None)

        monkeypatch.setattr(sdp, "solve", undecided)
        m = np.array([[0, 3, 2], [1, 3, 4], [1, 1, 1], [2, 1, 0]], dtype=float)
        code, doc = run(capsys, ["bounds", write_matrix(tmp_path, m)])
        assert code == 0
        assert (doc["lower"], doc["upper"], doc["exact"]) == (2, 3, None)
        found = [c for c in doc["certificates"] if c and c.get("kind") == "ellipse"]
        assert found and found[0]["answer"] is None

    def test_sign_search_over_budget_falls_back_to_cheap_upper_bound(self, tmp_path, capsys):
        m = np.random.default_rng(0).uniform(1, 2, (121, 121))
        code, doc = run(capsys, ["bounds", write_matrix(tmp_path, m)])
        assert code == 0
        assert doc["lower"] <= doc["upper"] == 121

    def test_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert cli.main(["bounds", str(path)]) == 2

    def test_missing_file(self, capsys):
        assert cli.main(["bounds", "/nonexistent/m.json"]) == 2


class TestRank2AndExtract:
    def test_yes_writes_reusable_certificate(self, tmp_path, capsys):
        m = families.circulant3(1.0, 4.0, 1.0)
        mpath = write_matrix(tmp_path, m)
        epath = str(tmp_path / "ellipse.json")
        code, doc = run(capsys, ["rank2", mpath, "-o", epath])
        assert code == 0
        assert doc["psd_rank_le_2"] is True
        assert doc["certificate"] == epath

        e = formats.decode_ellipse(formats.load_json(epath))
        pair = geometry.polytopes_from_matrix(m)
        assert geometry.certify(pair, e).passed

        fpath = str(tmp_path / "fact.json")
        code, doc = run(capsys, ["extract-fact", mpath, epath, "-o", fpath])
        assert code == 0
        f = formats.decode_factorization(formats.load_json(fpath))
        # solver certificates are boundary-tight to the gap tolerance, so the
        # re-verification tolerance matches the extract command's own check
        rep = factors.verify(m, f, tol=1e-7)
        assert rep.passed and rep.max_residual <= 1e-9
        assert f.k == 2

    def test_zero_column_yes_round_trips_through_extract_and_verify(self, tmp_path, capsys):
        # the zero column is a facet 0 . x <= 0 that holds on the whole plane
        m = np.hstack([families.circulant3(1.0, 1.3, 0.4), np.zeros((3, 1))])
        mpath = write_matrix(tmp_path, m)
        epath, fpath = str(tmp_path / "ellipse.json"), str(tmp_path / "fact.json")
        code, doc = run(capsys, ["rank2", mpath, "-o", epath])
        assert code == 0 and doc["psd_rank_le_2"] is True
        code, _ = run(capsys, ["extract-fact", mpath, epath, "-o", fpath])
        assert code == 0
        code, doc = run(capsys, ["verify", mpath, fpath])
        assert code == 0 and doc["passed"] is True

    def test_no_answer_exits_one(self, tmp_path, capsys):
        mpath = write_matrix(tmp_path, np.eye(3))
        epath = str(tmp_path / "e.json")
        code, doc = run(capsys, ["rank2", mpath, "-o", epath])
        assert code == 1
        assert doc["psd_rank_le_2"] is False
        assert doc["certificate"] is None
        assert not (tmp_path / "e.json").exists()


    def test_feasibility_tolerance_is_not_settable(self, tmp_path, capsys, monkeypatch):
        # at feasibility tolerance 0.05 the solver would call this no-instance
        # a yes and write an ellipse that certify rejects
        monkeypatch.setenv("PSDRANK_FEAS_TOL", "0.05")
        mpath = write_matrix(tmp_path, families.circulant3(1.0, 0.0, 0.7))
        epath = tmp_path / "e.json"
        code, doc = run(capsys, ["rank2", mpath, "-o", str(epath)])
        assert code == 1
        assert doc == {"psd_rank_le_2": False, "certificate": None}
        assert not epath.exists()


class TestVerify:
    def test_pass_and_fail(self, tmp_path, capsys, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        mpath = write_matrix(tmp_path, entry.matrix)
        fpath = write_factorization(tmp_path, entry.factorization)
        code, doc = run(capsys, ["verify", mpath, fpath])
        assert code == 0 and doc["passed"] is True

        bad = factors.scale_rows(entry.factorization, [2.0, 1.0, 1.0])
        bpath = write_factorization(tmp_path, bad, "bad.json")
        code, doc = run(capsys, ["verify", mpath, bpath])
        assert code == 1 and doc["passed"] is False
        assert doc["max_residual"] >= 0.9


class TestSqrtRank:
    def test_value_reported(self, tmp_path, capsys):
        m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 4.0], [1.0, 1.0, 1.0]])
        code, doc = run(capsys, ["sqrt-rank", write_matrix(tmp_path, m)])
        assert code == 0
        assert doc["value"] == 2

    def test_witness_file(self, tmp_path, capsys):
        m = families.euclidean_distance(4)
        wpath = str(tmp_path / "w.json")
        code, _ = run(capsys, ["sqrt-rank", write_matrix(tmp_path, m), "-o", wpath])
        assert code == 0
        doc = formats.load_json(wpath)
        w = formats.decode_matrix(doc["witness"])
        assert np.max(np.abs(w ** 2 - m)) <= 1e-9

    def test_budget_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PSDRANK_SQRT_BUDGET", "2")
        m = np.arange(1.0, 26.0).reshape(5, 5)
        assert cli.main(["sqrt-rank", write_matrix(tmp_path, m)]) == 2

    def test_budget_env_var_must_be_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PSDRANK_SQRT_BUDGET", "many")
        m = np.eye(2)
        assert cli.main(["sqrt-rank", write_matrix(tmp_path, m)]) == 2


class TestRescale:
    def test_trace_mode(self, tmp_path, capsys, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        mpath = write_matrix(tmp_path, entry.matrix)
        fpath = write_factorization(tmp_path, entry.factorization)
        opath = str(tmp_path / "scaled.json")
        code, doc = run(capsys, ["rescale", mpath, fpath, "-o", opath])
        assert code == 0 and doc["mode"] == "trace"
        g = formats.decode_factorization(formats.load_json(opath))
        total = sum(g.row_factors)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-9

    def test_john_mode(self, tmp_path, capsys, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        mpath = write_matrix(tmp_path, entry.matrix)
        fpath = write_factorization(tmp_path, entry.factorization)
        opath = str(tmp_path / "scaled.json")
        code, doc = run(capsys, ["rescale", mpath, fpath, "--mode", "john", "-o", opath])
        assert code == 0
        g = formats.decode_factorization(formats.load_json(opath))
        assert factors.verify(entry.matrix, g).passed


class TestQuantum:
    @pytest.fixture()
    def protocol_files(self, tmp_path, capsys, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m = entry.matrix / entry.matrix.sum()
        f = factors.scale_rows(entry.factorization, np.full(3, 1.0 / entry.matrix.sum()))
        mpath = write_matrix(tmp_path, m, "table.json")
        fpath = write_factorization(tmp_path, f)
        ppath = str(tmp_path / "protocol.json")
        code, doc = run(capsys, ["quantum", "to-protocol", fpath, mpath, "-o", ppath])
        assert code == 0 and doc["k"] == 2
        return mpath, ppath

    def test_verify_round_trip(self, tmp_path, capsys, protocol_files):
        mpath, ppath = protocol_files
        code, doc = run(capsys, ["quantum", "verify", mpath, ppath])
        assert code == 0 and doc["passed"] is True

        fpath = str(tmp_path / "back.json")
        code, _ = run(capsys, ["quantum", "from-protocol", ppath, "-o", fpath])
        assert code == 0
        f = formats.decode_factorization(formats.load_json(fpath))
        assert factors.verify(formats.load_matrix(mpath), f).passed

    def test_sample_seed(self, capsys, protocol_files):
        _, ppath = protocol_files
        code, a = run(capsys, ["--seed", "5", "quantum", "sample", ppath, "-n", "500"])
        assert code == 0 and a["total"] == 500
        _, b = run(capsys, ["--seed", "5", "quantum", "sample", ppath, "-n", "500"])
        assert a["counts"] == b["counts"]

    def test_seed_env_var(self, capsys, protocol_files, monkeypatch):
        _, ppath = protocol_files
        monkeypatch.setenv("PSDRANK_SEED", "9")
        _, a = run(capsys, ["quantum", "sample", ppath, "-n", "300"])
        _, b = run(capsys, ["quantum", "sample", ppath, "-n", "300"])
        assert a["counts"] == b["counts"]


class TestCpsd:
    def test_horn_negative_excludes(self, tmp_path, capsys):
        path = write_matrix(tmp_path, families.cos2_matrix(5))
        code, doc = run(capsys, ["cpsd", "horn", path])
        assert code == 0
        assert doc["excludes_cpsd"] is True
        assert doc["value"] < -0.5

    def test_horn_nonnegative_exits_one(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.ones((5, 5)))
        code, doc = run(capsys, ["cpsd", "horn", path])
        assert code == 1
        assert doc["excludes_cpsd"] is False

    def test_dnn(self, tmp_path, capsys):
        good = write_matrix(tmp_path, families.cos2_matrix(5), "good.json")
        bad = write_matrix(tmp_path, families.derangement(3), "bad.json")
        assert cli.main(["cpsd", "dnn", good]) == 0
        capsys.readouterr()
        assert cli.main(["cpsd", "dnn", bad]) == 1

    def test_verify_gram(self, tmp_path, capsys):
        angles = 4.0 * np.pi * np.arange(5) / 5
        us = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        gram = {"factors": [formats.encode_matrix(np.outer(u, u)) for u in us]}
        gpath = tmp_path / "gram.json"
        formats.dump_json(gram, gpath)
        mpath = write_matrix(tmp_path, families.cos2_matrix(5))
        code, doc = run(capsys, ["cpsd", "verify", mpath, str(gpath)])
        assert code == 0 and doc["passed"] is True


class TestRegion:
    def test_circulant_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = cli.main(["region", "circulant", "--grid", "5", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "b,c,decision"
        assert len(lines) == 1 + 25
        cells = {}
        for line in lines[1:]:
            b, c, d = line.split(",")
            cells[(float(b), float(c))] = d
        # clear interior and exterior points of a^2+b^2+c^2 <= 2(ab+bc+ca)
        assert cells[(1.0, 1.0)] == "1"
        assert cells[(0.0, 0.0)] == "0"
        assert cells[(2.0, 0.0)] == "0"

    def test_nested_grid_to_stdout(self, capsys):
        code = cli.main(["region", "nested-rect", "--grid", "3"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "b,c,decision"
        assert len(lines) == 1 + 9

    def test_numerical_failure_marks_cell(self, capsys, monkeypatch):
        def boom(m):
            raise NumericalFailure("no")
        monkeypatch.setattr(geometry, "decide_psd_rank_le_2", boom)
        code = cli.main(["region", "circulant", "--grid", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert all(line.endswith(",fail") for line in out.strip().split("\n")[1:])


class TestTopLevel:
    def test_no_command_is_usage(self, capsys):
        assert cli.main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_bad_tol_flag(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.eye(2))
        assert cli.main(["--tol", "-1", "bounds", path]) == 2

    def test_bad_env_tol(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PSDRANK_TOL", "abc")
        path = write_matrix(tmp_path, np.eye(2))
        assert cli.main(["bounds", path]) == 2

    @pytest.mark.parametrize("argv", [
        lambda tmp: ["gen", "derangement", "abc"],
        lambda tmp: ["gen", "derangement", "inf"],
        lambda tmp: ["gen", "derangement", "2.5"],
        lambda tmp: ["gen", "prime", "2.5", "3", "4"],
        lambda tmp: ["--seed", "abc", "gen", "identity", "2"],
        lambda tmp: ["region", "circulant", "--grid", "-2"],
        lambda tmp: ["extract-fact", write_matrix(tmp, np.zeros((0, 3))),
                     write_ellipse(tmp), "-o", str(tmp / "f.json")],
        lambda tmp: ["sdp-solve", write_matrix(tmp, np.eye(2))],
    ], ids=["gen-text", "gen-inf", "gen-fraction", "prime-fraction", "seed-text",
            "negative-grid", "extract-empty", "sdp-solve-removed"])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, argv):
        assert cli.main(argv(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,doc", [
        ("bounds", {"rows": "two", "cols": 2, "data": [[1, 0], [0, 1]]}),
        ("bounds", {"rows": 2.5, "cols": 2, "data": [[1, 0], [0, 1]]}),
        ("extract-fact", {"theta": {"rows": 3, "cols": 3, "data": np.eye(3).tolist()},
                          "multipliers": ["x", 0, 0]}),
        ("from-protocol", {"k": "abc", "alice": [], "bob": [], "rho": {}}),
        ("extract-fact", {"theta": {"rows": 3, "cols": 3, "data": np.eye(3).tolist()},
                          "multipliers": 5}),
        ("from-protocol", {"k": 1, "alice": 3, "bob": [], "rho": {}}),
        ("from-protocol", {"k": 1, "alice": [{"rows": 1, "cols": 1, "data": [[1]]}],
                           "bob": 3, "rho": {}}),
        ("verify", {"row_factors": 3, "col_factors": []}),
        ("verify", {"row_factors": [], "col_factors": 3}),
        ("cpsd-verify", {"factors": 3}),
        # an integer too large for a float, in a row numpy reads whole (as
        # an object array) and in a mixed row read entry by entry
        ("bounds", {"rows": 1, "cols": 2, "data": [[10 ** 400, 1]]}),
        ("bounds", {"rows": 1, "cols": 2, "data": [[[1, 0], 10 ** 400]]}),
    ], ids=["bounds-rows", "bounds-fraction", "extract-multiplier", "protocol-k",
            "extract-multipliers-number", "protocol-alice-number", "protocol-bob-number",
            "verify-rows-number", "verify-cols-number", "cpsd-factors-number",
            "bounds-huge-int", "bounds-huge-int-mixed-row"])
    def test_malformed_number_in_file_is_input_error(self, tmp_path, capsys, command, doc):
        path = tmp_path / "in.json"
        formats.dump_json(doc, path)
        argv = {
            "bounds": ["bounds", str(path)],
            "extract-fact": ["extract-fact", write_matrix(tmp_path, np.eye(3)), str(path),
                             "-o", str(tmp_path / "f.json")],
            "from-protocol": ["quantum", "from-protocol", str(path),
                              "-o", str(tmp_path / "f.json")],
            "verify": ["verify", write_matrix(tmp_path, np.eye(3)), str(path)],
            "cpsd-verify": ["cpsd", "verify", write_matrix(tmp_path, np.eye(3)), str(path)],
        }[command]
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_closed_stdout_exits_one_without_traceback(self):
        # the matrix is about 1 MB of JSON, far beyond a pipe buffer, so the
        # writer is still printing when the reader closes the pipe
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        with subprocess.Popen(
                [sys.executable, "-c", "import sys; from psdrank.cli import main; sys.exit(main())",
                 "gen", "identity", "300"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline().strip() == b"{"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert err == ""

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(m, opts=None):
            raise NumericalFailure("solver diverged")
        import psdrank.bounds
        monkeypatch.setattr(psdrank.bounds, "psd_rank_interval", boom)
        path = write_matrix(tmp_path, np.eye(2))
        assert cli.main(["bounds", path]) == 3
        assert "numerical failure" in capsys.readouterr().err
