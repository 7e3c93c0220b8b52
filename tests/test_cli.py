import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from periodpoly import cli, hecke
from periodpoly.analytic import NewformData, eta_product


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def form5_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("forms") / "f5.json"
    f = NewformData(5, 4, eta_product([(1, 4), (5, 4)], 250), 1)
    path.write_text(json.dumps(f.to_json(), sort_keys=True, indent=2))
    return str(path)


@pytest.fixture(scope="module")
def form11_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("forms") / "f11.json"
    f = NewformData(11, 2, eta_product([(1, 2), (11, 2)], 250), -1)
    path.write_text(json.dumps(f.to_json(), sort_keys=True, indent=2))
    return str(path)


class TestDims:
    def test_gamma0_5(self):
        code, text = run_cli(["dims", "--level", "5", "--weight", "4"])
        assert code == 0
        doc = json.loads(text)
        assert doc["dim_W"] == 4
        assert doc["dim_W_plus"] == 3 and doc["dim_W_minus"] == 1
        assert doc["dim_C"] == 2 and doc["dim_Wtilde"] == 6
        assert doc["dim_S_inferred"] == 1
        assert doc["index"] == 6

    def test_deterministic(self):
        a = run_cli(["dims", "--level", "6", "--weight", "2"])
        b = run_cli(["dims", "--level", "6", "--weight", "2"])
        assert a == b


class TestCusps:
    def test_gamma0_2(self):
        code, text = run_cli(["cusps", "--level", "2", "--weight", "8"])
        assert code == 0
        doc = json.loads(text)
        assert len(doc["cusps"]) == 2
        assert sorted(c["width"] for c in doc["cusps"]) == [1, 2]

    def test_gamma1_regular_flags(self):
        code, text = run_cli(["cusps", "--group", "gamma1", "--level", "4",
                              "--weight", "3"])
        doc = json.loads(text)
        assert sum(1 for c in doc["cusps"] if c["regular"]) == 2


class TestHeckeElement:
    def test_solve_with_witness(self):
        code, text = run_cli(["hecke-element", "--n", "3"])
        assert code == 0
        doc = json.loads(text)
        assert doc["verified"] is True
        assert all(len(t["matrix"]) == 4 for t in doc["terms"])
        assert "witness_Y" in doc

    def test_deterministic_output(self):
        a = run_cli(["hecke-element", "--n", "4"])
        b = run_cli(["hecke-element", "--n", "4"])
        assert a == b

    def test_identity_checked_once(self, monkeypatch):
        # the element's own check yields the printed witness: no recheck
        calls, identity = [], hecke.hecke_identity

        def counted(cand, n):
            calls.append(n)
            return identity(cand, n)

        monkeypatch.setattr(hecke, "hecke_identity", counted)
        code, text = run_cli(["hecke-element", "--n", "151"])
        assert code == 0 and calls == [151]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d232c9dc799905420c7f599371a6836073f188221f5b59a218368f14648195ec")

    def test_failed_check_is_one_line_error_under_optimize(self):
        # Merel's family, and Cremona's matrices at a prime n >= 3, with a
        # sabotaged identity check: exit 1 and one line, also with asserts
        # stripped; the program has no other element to fall back to
        assert not hasattr(hecke, "solve_universal_hecke")
        code = ("import sys\n"
                "from periodpoly import cli, hecke\n"
                "hecke.hecke_identity = lambda cand, n: (False, (1, 0, 0, n), 1)\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        merel, cremona = "error: Merel family", "error: Cremona's Heilbronn matrices"
        for argv, error in ((["hecke-element", "--n", "151"], merel),
                            (["eigenvalue", "--level", "5", "--weight", "4", "--n", "2",
                              "--eigen", "2:-4"], merel),
                            (["eigenvalue", "--level", "11", "--weight", "2", "--n", "151",
                              "--eigen", "3:-1"], cremona)):
            proc = subprocess.run([sys.executable, "-O", "-c", code] + argv,
                                  capture_output=True, text=True, timeout=300,
                                  env=dict(os.environ, PYTHONPATH=path))
            assert (proc.returncode, proc.stdout) == (cli.EXIT_ERROR, "")
            assert proc.stderr.startswith(error + " failed verification")
            assert proc.stderr.count("\n") == 1


class TestHeckeMatrix:
    def test_trace_level_one(self):
        code, text = run_cli(["hecke-matrix", "--level", "1", "--weight", "12",
                              "--n", "2", "--space", "W"])
        assert code == 0
        doc = json.loads(text)
        assert doc["trace"] == "2001"
        assert doc["dim"] == 3

    def test_theta(self):
        code, text = run_cli(["hecke-matrix", "--level", "2", "--weight", "8",
                              "--n", "2", "--space", "W", "--sigma", "theta"])
        assert code == 0


class TestEigenpoly:
    def test_minus_part(self):
        code, text = run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                              "--parity", "minus"])
        assert code == 0
        doc = json.loads(text)
        assert doc["values"]["(0:1)"] == ["0", "1", "0"]
        assert doc["values"]["(1:3)"] == ["-2", "-3", "2"]

    def test_plus_part_with_eigen(self):
        code, text = run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                              "--parity", "plus", "--eigen", "2:-4"])
        assert code == 0
        doc = json.loads(text)
        # -5X^2 + 1 in ascending order
        assert doc["values"]["(0:1)"] == ["1", "0", "-5"]

    def test_output_file_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _ = run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                               "--parity", "plus", "--eigen", "2:-4",
                               "-o", str(p)])
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_eigenvalue_errors(self):
        code, _ = run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                           "--parity", "plus", "--eigen", "2:7"])
        assert code == cli.EXIT_ERROR

    def test_bad_eigen_syntax(self):
        code, _ = run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                           "--parity", "plus", "--eigen", "nope"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_output_is_one_line_usage_error(self, tmp_path, capsys, target):
        # a file in a directory that does not exist, and a directory
        path = str(tmp_path / target)
        code, text = run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                              "--parity", "minus", "-o", path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE and text == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert path in err

    def test_failed_run_leaves_no_output_file(self, tmp_path):
        path = tmp_path / "out.json"
        code, _ = run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                           "--parity", "plus", "--eigen", "2:7", "-o", str(path)])
        assert code != 0 and not path.exists()

    def test_failed_run_keeps_an_existing_output_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("earlier result\n")
        code, _ = run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                           "--parity", "plus", "--eigen", "2:7", "-o", str(path)])
        assert code == cli.EXIT_ERROR and path.read_text() == "earlier result\n"

    def test_interrupted_run_keeps_an_existing_output_file(self, tmp_path, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "build_W", interrupt)
        path = tmp_path / "out.json"
        path.write_text("earlier result\n")
        with pytest.raises(KeyboardInterrupt):
            run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                     "--parity", "plus", "-o", str(path)])
        assert path.read_text() == "earlier result\n"
        fresh = tmp_path / "fresh.json"
        with pytest.raises(KeyboardInterrupt):
            run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                     "--parity", "plus", "-o", str(fresh)])
        assert not fresh.exists()

    def test_unwritable_output_is_refused_before_building(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("build_W ran before the output path was opened")
        monkeypatch.setattr(cli, "build_W", refuse)
        path = str(tmp_path / "missing" / "out.json")
        code, text = run_cli(["eigenpoly", "--level", "5", "--weight", "4",
                              "--parity", "minus", "-o", path])
        assert code == cli.EXIT_USAGE and text == ""


class TestSignedParts:
    def test_w_parts_come_from_build_w_alone(self, monkeypatch, form5_path):
        # eps_split reaches eigen_columns through the polyspace namespace; the
        # commands that read W+ or W- must never get there
        from periodpoly import gamma02, polyspace

        def refuse(*args):
            raise AssertionError("eps_split ran")
        monkeypatch.setattr(polyspace, "eigen_columns", refuse)
        for argv in (["hecke-matrix", "--level", "11", "--weight", "4", "--n", "2",
                      "--space", "Wplus"],
                     ["hecke-matrix", "--level", "11", "--weight", "4", "--n", "2",
                      "--space", "Wminus"],
                     ["eigenpoly", "--level", "5", "--weight", "4", "--parity", "minus"],
                     ["eigenvalue", "--level", "5", "--weight", "4", "--n", "3",
                      "--eigen", "2:-4"],
                     ["petersson", "--form", form5_path, "--eigen", "2:-4"]):
            code, _ = run_cli(argv)
            assert code == 0, argv
        f = NewformData(2, 8, eta_product([(1, 8), (2, 8)], 250), 1)
        assert gamma02._petersson_cross_check(f, 100)["petersson_residual"] < 1e-10


class TestLValueAndPetersson:
    def test_lvalue(self, form5_path):
        code, text = run_cli(["lvalue", "--form", form5_path, "--s", "3"])
        assert code == 0
        doc = json.loads(text)
        assert abs(doc["value"]["re"] - 0.0051365773) < 1e-8
        assert doc["value"]["err"] < 1e-10

    def test_petersson(self, form5_path):
        code, text = run_cli(["petersson", "--form", form5_path,
                              "--eigen", "2:-4"])
        assert code == 0
        doc = json.loads(text)
        assert abs(doc["value"]["re"] - 0.00014513335) < 1e-9
        ks = list(doc["kappa_choices"].values())
        assert abs(ks[0]["re"] - ks[1]["re"]) < 1e-10

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(["lvalue", "--form", str(bad), "--s", "3"])
        assert code == cli.EXIT_BAD_FILE

    def test_missing_file(self):
        code, _ = run_cli(["lvalue", "--form", "/nonexistent.json", "--s", "3"])
        assert code == cli.EXIT_BAD_FILE

    def test_incomplete_document(self, tmp_path):
        bad = tmp_path / "incomplete.json"
        bad.write_text('{"level": 5}')
        code, _ = run_cli(["lvalue", "--form", str(bad), "--s", "3"])
        assert code == cli.EXIT_BAD_FILE

    @pytest.mark.parametrize("level, character", [
        (5, 5),
        (5, "x"),
        (5, {"modulus": "x", "values": ["1", "1", "1", "1"]}),
        (5, {"values": ["1", "1", "1", "1"]}),
        (5, {"modulus": 0, "values": []}),
        (5, {"modulus": 7, "values": ["1"] * 6}),            # not the level
        (5, {"modulus": 5, "values": "1111"}),
        (5, {"modulus": 5, "values": ["1", "2", "1", "1"]}),  # not a root of unity
        (5, {"modulus": 5, "values": ["1", "1", "1"]}),       # short
        (5, {"modulus": 5, "values": ["1", "-1", "-1", "-1"]}),  # not multiplicative
        (5, {"modulus": 5, "values": ["-1", "-1", "-1", "1"]}),  # chi(1) = -1
        (3000000, {"modulus": 3000000, "values": ["1"]}),     # refused before listing units
        (10 ** 30 + 57, {"modulus": 10 ** 30 + 57, "values": ["1"] * 3}),  # or factoring
    ])
    def test_bad_character_is_one_line_exit_3(self, tmp_path, capsys, level, character):
        doc = NewformData(5, 4, eta_product([(1, 4), (5, 4)], 20), 1).to_json()
        doc.update(level=level, character=character)
        bad = tmp_path / "character.json"
        bad.write_text(json.dumps(doc))
        code, text = run_cli(["lvalue", "--form", str(bad), "--s", "3"])
        err = capsys.readouterr().err
        assert (code, text) == (cli.EXIT_BAD_FILE, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("fields", [
        {"level": 5.7, "weight": 4.9, "fricke_sign": 1.5},  # once truncated to 5, 4, 1
        {"level": 5.0},
        {"weight": 4.9},
        {"fricke_sign": 1.5},
        {"level": True},                                     # once read as level 1
        {"fricke_sign": True},
        {"level": "5"},
        {"weight": None},
    ])
    def test_non_integer_field_is_one_line_exit_3(self, tmp_path, capsys, fields):
        doc = NewformData(5, 4, eta_product([(1, 4), (5, 4)], 20), 1).to_json()
        doc.update(fields)
        bad = tmp_path / "fields.json"
        bad.write_text(json.dumps(doc))
        code, text = run_cli(["lvalue", "--form", str(bad), "--s", "3"])
        err = capsys.readouterr().err
        assert (code, text) == (cli.EXIT_BAD_FILE, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_real_character_is_read(self, tmp_path):
        doc = NewformData(5, 4, eta_product([(1, 4), (5, 4)], 20), 1).to_json()
        doc["character"] = {"modulus": 5, "values": ["1", "-1", "-1", "1"]}
        form = NewformData.from_json(doc)
        assert (form.character.order, [form.character(a) for a in range(1, 5)]) == (
            2, [1, -1, -1, 1])


def eta_coefficient(N, k, n):
    """a_n of eta(z)^k eta(Nz)^k = q prod_m (1 - q^m)^k (1 - q^(N m))^k,
    for k (1 + N) = 24, by multiplying out the factors one at a time."""
    poly = [1] + [0] * (n - 1)  # the product, mod q^n
    for m in range(1, n):
        for step in (m, N * m):
            for _ in range(k if step < n else 0):
                for i in range(n - 1, step - 1, -1):
                    poly[i] -= poly[i - step]
    return poly[n - 1]


class TestEigenvalue:
    def test_level5_minus4(self):
        code, text = run_cli(["eigenvalue", "--level", "5", "--weight", "4",
                              "--n", "2", "--eigen", "2:-4"])
        assert code == 0
        assert json.loads(text)["eigenvalue"] == "-4"

    @pytest.mark.parametrize("n", [97, 151])
    @pytest.mark.parametrize("N,k,eigen", [(11, 2, "2:-2"), (5, 4, "2:-4")])
    def test_large_n_matches_eta_product(self, N, k, eigen, n):
        code, text = run_cli(["eigenvalue", "--level", str(N), "--weight", str(k),
                              "--n", str(n), "--eigen", eigen])
        assert code == 0
        assert json.loads(text)["eigenvalue"] == str(eta_coefficient(N, k, n))

    def test_needs_level(self):
        code, _ = run_cli(["eigenvalue", "--n", "2"])
        assert code == cli.EXIT_USAGE


class TestVerifyAndDemos:
    def test_verify_subset(self):
        code, text = run_cli(["verify", "--only", "bernoulli"])
        assert code == 0
        assert "PASS exactalg.bernoulli" in text

    def test_verify_kernel_certificates(self):
        code, text = run_cli(["verify", "--only", "kernel_certificates"])
        assert (code, text) == (0, "PASS polyspace.kernel_certificates\n")

    def test_verify_failure_exit_code(self, monkeypatch):
        from periodpoly import verifysuite

        def bad():
            raise AssertionError("deliberately broken")
        monkeypatch.setattr(verifysuite, "CHECKS",
                            [("doomed.check", bad)] + verifysuite.CHECKS[:1])
        code, text = run_cli(["verify", "--only", "doomed"])
        assert code == cli.EXIT_VERIFY_FAILED
        assert "FAIL doomed.check" in text

    def test_verify_json_names_every_check(self):
        from periodpoly import verifysuite
        code, text = run_cli(["verify", "--json"])
        report = json.loads(text)
        assert code == 0
        assert list(report) == sorted(name for name, _ in verifysuite.CHECKS)
        for entry in report.values():
            assert (entry["status"], entry["message"]) == ("PASS", None)
            assert entry["seconds"] >= 0

    def test_verify_json_reports_a_failure_under_optimize(self):
        # the forced failure is a status, a message and the exit code; the
        # other checks of --only still run and pass
        code = ("import sys\n"
                "from fractions import Fraction\n"
                "from periodpoly import cli, verifysuite\n"
                "verifysuite.bernoulli = lambda n: Fraction(7)\n"
                "sys.exit(cli.main(['verify', '--json', '--only', 'exactalg']))\n")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path),
                              timeout=300)
        assert proc.returncode == cli.EXIT_VERIFY_FAILED
        report = json.loads(proc.stdout)
        assert sorted(report) == ["exactalg.bernoulli", "exactalg.cyclotomic",
                                  "exactalg.kernels"]
        failed = report.pop("exactalg.bernoulli")
        assert failed["status"] == "FAIL" and failed["message"].strip()
        assert all(e["status"] == "PASS" for e in report.values())

    def test_gamma06_demo(self):
        code, text = run_cli(["gamma06-demo"])
        assert code == 0
        doc = json.loads(text)
        assert doc["additivity_exact"] is True
        assert doc["fulllevel_k12_residual"] < 1e-8

    def test_gamma02_relations(self):
        code, text = run_cli(["gamma02-relations", "--weight", "8"])
        assert code == 0
        doc = json.loads(text)
        assert all(r["rel_residual"] < 1e-6 for r in doc["relations"])

    def test_gamma02_needs_file_for_k10(self):
        code, _ = run_cli(["gamma02-relations", "--weight", "10"])
        assert code == cli.EXIT_USAGE

    def test_gamma02_reads_supplied_form(self, tmp_path):
        # the k = 8 eta form routed through the file interface
        f = NewformData(2, 8, eta_product([(1, 8), (2, 8)], 250), 1)
        path = tmp_path / "f2.json"
        path.write_text(json.dumps(f.to_json(), sort_keys=True, indent=2))
        code, text = run_cli(["gamma02-relations", "--weight", "8",
                              "--form", str(path)])
        assert code == 0


    def test_verify_fails_under_optimize(self):
        # python -O strips assert statements; the checks must still fail
        code = ("import sys\n"
                "from fractions import Fraction\n"
                "from periodpoly import cli, verifysuite\n"
                "verifysuite.bernoulli = lambda n: Fraction(7)\n"
                "sys.exit(cli.main(['verify', '--only', 'exactalg.bernoulli']))\n")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path),
                              timeout=300)
        assert proc.returncode == cli.EXIT_VERIFY_FAILED
        fail = [line for line in proc.stdout.splitlines()
                if line.startswith("FAIL exactalg.bernoulli:")]
        assert len(fail) == 1 and fail[0].split(":", 1)[1].strip()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _ = run_cli(["frobnicate"])
        assert code == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--help"], ["dims", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert run_cli(argv) == (cli.EXIT_OK, "")
        assert "usage:" in capsys.readouterr().out


FORM = object()  # stands for a valid form file of weight 4
FORM2 = object()  # and one of weight 2
# a prime level far above any admitted index: factoring it would not end
HUGE_LEVEL = [
    ["dims", "--level", "1000000000000000003", "--weight", "2"],
    ["cusps", "--group", "gamma1", "--level", "1000000000000000003", "--weight", "2"],
    ["hecke-matrix", "--level", "1000000000000000003", "--weight", "2", "--n", "2"],
]


# estimated work above cli.MAX_WORK; the five hecke-matrix runs took from
# 16 s to more than 150 s (one process each under -O)
ABOVE_WORK = [
    ["dims", "--level", "3000", "--weight", "12"],
    ["hecke-matrix", "--level", "1000", "--weight", "2", "--n", "400"],
    ["hecke-matrix", "--level", "1000", "--weight", "2", "--n", "1000"],
    ["hecke-matrix", "--level", "3000", "--weight", "2", "--n", "1998"],
    ["hecke-matrix", "--level", "1000", "--weight", "6", "--n", "2"],
    ["hecke-matrix", "--level", "100", "--weight", "12", "--n", "97"],
]


@pytest.mark.parametrize("argv", [
    ["dims", "--level", "0", "--weight", "2"],
    ["cusps", "--level", "-3", "--weight", "2"],
    ["dims", "--level", "11", "--weight", "1"],
    ["eigenpoly", "--level", "11", "--weight", "2", "--parity", "plus",
     "--eigen", "2:1/0"],
    ["hecke-matrix", "--level", "11", "--weight", "2", "--n", "0"],
    ["eigenvalue", "--level", "11", "--weight", "2", "--n", "0",
     "--eigen", "2:-2"],
    ["hecke-element", "--n", "0"],
    ["eigenpoly", "--level", "11", "--weight", "2", "--parity", "plus",
     "--eigen", "0:1"],
    ["lvalue", "--form", FORM, "--s", "1", "--terms", "-3"],
    ["lvalue", "--form", FORM, "--s", "1", "--terms", "0"],
    ["petersson", "--form", FORM, "--terms", "0"],
    ["gamma02-relations", "--terms", "0"],
    ["verify", "--only", "zzz"],
    ["verify", "--only", "bernoulli", "--only", "zzz"],
    ["hecke-element", "--n", "5", "--method", "solve", "--entry-bound", "2"],
    ["hecke-element", "--n", "5", "--entry-bound", "-3"],
    ["hecke-matrix", "--level", "11", "--weight", "2", "--n", "3",
     "--entry-bound", "-3"],
    ["hecke-matrix", "--level", "11", "--weight", "2", "--n", "3",
     "--entry-bound", "2"],
    ["eigenvalue", "--level", "11", "--weight", "2", "--n", "3",
     "--eigen", "2:-2", "--entry-bound", "2"],
    ["gamma02-relations", "--weight", "7"],
    ["gamma02-relations", "--weight", "2"],
    ["gamma02-relations", "--weight", "8", "--terms", str(cli.MAX_TERMS + 1)],
    ["gamma02-relations", "--weight", "8", "--terms", "100000"],
    ["hecke-element", "--n", "5", "--variant", "-1"],
    ["hecke-element", "--n", "5", "--method", "solve", "--variant", "-1"],
    ["hecke-element", "--n", "5", "--method", "solve", "--variant", "2"],
    ["hecke-element", "--n", "5", "--variant", "1"],
    ["dims", "--level", "3000", "--weight", "16"],
    ["dims", "--level", "1000", "--weight", "24"],
    ["cusps", "--level", "11", "--weight", "1"],
    ["cusps", "--group", "gamma1", "--level", "5000", "--weight", "2"],
    ["hecke-element", "--n", str(cli.MAX_N + 1)],
    ["hecke-matrix", "--level", "11", "--weight", "2", "--n", "200003"],
    ["petersson", "--form", FORM, "--eigen", "2:-4", "--eigen", "200003:1"],
    ["lvalue", "--form", FORM2, "--s", "0"],
    ["lvalue", "--form", FORM2, "--s", "-5"],
    ["lvalue", "--form", FORM2, "--s", "2"],
    ["lvalue", "--form", FORM2, "--s", "3"],
    ["lvalue", "--form", FORM, "--s", "4"],
    ["lvalue", "--form", FORM, "--s", "400"],
    ["dims", "--level", "x", "--weight", "2"],
    ["dims", "--level", "11"],
    ["hecke-matrix", "--level", "11", "--weight", "2", "--n", "2", "--space", "V"],
    ["frobnicate"],
    ["dims", "--level", "11", "--weight", "2", "--frobnicate"],
    ["dims", "--level", "1", "--weight", "1000"],
    ["dims", "--level", "1", "--weight", "400"],
    ["hecke-matrix", "--level", "11", "--weight", "300", "--n", "2"],
    ["eigenpoly", "--level", "11", "--weight", "102", "--parity", "plus"],
    *HUGE_LEVEL,
    *ABOVE_WORK,
])
def test_bad_input_is_one_line_usage_error(argv, form5_path, form11_path, capsys):
    forms = {FORM: form5_path, FORM2: form11_path}
    code, _ = run_cli([forms.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", HUGE_LEVEL)
def test_huge_level_is_refused_before_factoring(argv, capsys):
    start = time.perf_counter()
    code, _ = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_USAGE
    assert "has index at least 1000000000000000003" in capsys.readouterr().err


def test_level_at_the_bound_reports_its_index(capsys):
    code, _ = run_cli(["hecke-matrix", "--level", "1000", "--weight", "6", "--n", "2"])
    assert code == cli.EXIT_USAGE
    assert "gamma0(1000) has index 1800:" in capsys.readouterr().err


def test_gamma02_terms_at_the_bound_run():
    code, text = run_cli(["gamma02-relations", "--weight", "8", "--terms",
                          str(cli.MAX_TERMS)])
    assert code == cli.EXIT_OK and json.loads(text)["relations"]


@pytest.mark.parametrize("argv", ABOVE_WORK)
def test_index_and_weight_above_the_cost_bound_are_refused_at_once(argv, capsys):
    start = time.perf_counter()
    code, _ = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "above %g s" % cli.MAX_WORK in err


def test_index_and_weight_just_below_the_cost_bound_run(monkeypatch):
    # dims of Gamma0(3000) at weight 8 took 10.6 s, the longest dims of the
    # fit grid; it is admitted, and the space is built
    class Built(Exception):
        pass

    def record(*args):
        raise Built(args)
    monkeypatch.setattr(cli, "build_coset_space", record)
    with pytest.raises(Built, match="3000"):
        run_cli(["dims", "--level", "3000", "--weight", "8"])


def test_weight_at_the_bound_runs():
    # the largest weight of the old weight bound, 0.25 s at level 1
    code, text = run_cli(["dims", "--level", "1", "--weight", "100"])
    assert code == cli.EXIT_OK and json.loads(text)["weight"] == 100


@pytest.mark.parametrize("argv, command", [
    (["dims", "--level", "11", "--weight", "2"], "dims"),
    (["gamma06-demo", "--x"], "gamma06-demo"),
    ([], None),
    (["frobnicate"], None),
    (["--level", "11"], None),
    (["--help"], None),
    (["dims", "--help"], None),
    (["hecke-matrix", "-h"], None),
])
def test_parser_is_built_for_the_named_command_only(argv, command, monkeypatch, capsys):
    built = []

    def record(name=None):
        built.append(name)
        raise cli.CliError("stop", cli.EXIT_USAGE)
    monkeypatch.setattr(cli, "build_parser", record)
    assert run_cli(argv)[0] == cli.EXIT_USAGE and built == [command]


@pytest.mark.parametrize("argv", [
    ["dims"],
    ["dims", "--level", "x", "--weight", "2"],
    ["cusps", "--lev", "11", "--weight", "2"],
    ["hecke-matrix", "--level", "11", "--weight", "2", "--n", "2", "--space", "V"],
    ["dims", "--level", "11", "--weight", "2", "--frobnicate"],
    ["gamma06-demo", "--x"],
    ["eigenvalue"],
])
def test_named_parser_reports_what_the_full_parser_does(argv, monkeypatch, capsys):
    named = run_cli(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_named_command", lambda argv: None)
    assert (run_cli(argv), capsys.readouterr()) == named


def test_named_parser_holds_one_subcommand():
    def commands(ap):
        return [list(a.choices) for a in ap._actions
                if isinstance(a, argparse._SubParsersAction)]
    assert commands(cli.build_parser("eigenvalue")) == [["eigenvalue"]]
    assert commands(cli.build_parser()) == [list(cli._COMMANDS)]


def test_gamma02_weight_error_names_the_weights(capsys):
    code, _ = run_cli(["gamma02-relations", "--weight", "7"])
    assert code == cli.EXIT_USAGE
    assert "8, 10 or 14" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dims", "--group", "gamma1", "--level", "1000", "--weight", "2"],
    ["cusps", "--group", "gamma1", "--level", "5000", "--weight", "2"],
    ["hecke-matrix", "--level", "1000003", "--weight", "2", "--n", "2"],
    ["eigenpoly", "--level", "1000003", "--weight", "2", "--parity", "plus"],
    ["eigenvalue", "--level", "1000003", "--weight", "2", "--n", "2"],
    ["dims", "--level", "3000", "--weight", "12"],
])
def test_index_guard_refuses_before_building(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a coset space was built")
    monkeypatch.setattr(cli, "build_coset_space", refuse)
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "estimated work" in err


@pytest.mark.parametrize("argv", [
    ["hecke-element", "--n", "20011"],
    ["hecke-element", "--n", "2001"],
    ["hecke-matrix", "--level", "11", "--weight", "2", "--n", "200003"],
    ["eigenvalue", "--level", "11", "--weight", "2", "--n", "20011",
     "--eigen", "2:-2"],
    ["eigenvalue", "--level", "11", "--weight", "2", "--n", "3",
     "--eigen", "200003:1"],
    ["eigenpoly", "--level", "11", "--weight", "2", "--parity", "plus",
     "--eigen", "200003:1"],
    ["hecke-matrix", "--level", "11", "--weight", "2", "--n", "10" + "0" * 30],
])
def test_n_guard_refuses_before_building(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a universal element was built")
    for module, name in ((cli, "universal_hecke_element"), (hecke, "universal_hecke_element"),
                         (cli, "verified_hecke_element"), (hecke, "verified_hecke_element"),
                         (hecke, "merel_family"), (cli, "build_coset_space")):
        monkeypatch.setattr(module, name, refuse)
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "above %d" % cli.MAX_N in err or "above %g s" % cli.MAX_WORK in err


@pytest.mark.parametrize("argv", [
    ["hecke-matrix", "--level", "1000", "--weight", "4", "--n", "2",
     "--sigma", "theta", "--space", "Wtilde"],
    ["hecke-matrix", "--level", "6", "--weight", "4", "--n", "1998",
     "--sigma", "delta-vee"],
])
def test_sigma_pair_refused_before_building(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the double coset was checked")
    for module, name in ((cli, "build_coset_space"), (cli, "universal_hecke_element"),
                         (hecke, "universal_hecke_element"), (cli, "verified_hecke_element"),
                         (hecke, "verified_hecke_element")):
        monkeypatch.setattr(module, name, refuse)
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_n_guard_default_allows_2000(monkeypatch):
    class Built(Exception):
        pass

    def record(n):
        raise Built(n)
    monkeypatch.setattr(cli, "verified_hecke_element", record)
    with pytest.raises(Built, match="2000"):
        run_cli(["hecke-element", "--n", "2000"])


def test_index_guard_default_allows_gamma0_3000(monkeypatch):
    class Built(Exception):
        pass

    def record(*args):
        raise Built(args)
    monkeypatch.setattr(cli, "build_coset_space", record)
    with pytest.raises(Built, match="3000"):
        run_cli(["cusps", "--level", "3000", "--weight", "2"])


# every coset-space command that CI, perfbench and the README run
ADMITTED = [
    ["hecke-matrix", "--level", "11", "--weight", "4", "--n", "1999"],
    ["hecke-matrix", "--level", "37", "--weight", "2", "--n", "997"],
    ["hecke-matrix", "--group", "gamma1", "--level", "13", "--weight", "2", "--n", "2",
     "--space", "Wtilde", "--sigma", "delta-vee"],
    ["hecke-matrix", "--level", "389", "--weight", "2", "--n", "2", "--space", "Wplus"],
    ["hecke-matrix", "--level", "389", "--weight", "2", "--n", "2", "--space", "Wminus"],
    ["hecke-matrix", "--group", "gamma1", "--level", "13", "--weight", "2", "--n", "13",
     "--space", "W", "--sigma", "theta"],
    ["hecke-matrix", "--level", "100", "--weight", "6", "--n", "3", "--space", "W"],
    ["hecke-matrix", "--level", "100", "--weight", "6", "--n", "3", "--space", "Wplus"],
    ["hecke-matrix", "--level", "100", "--weight", "6", "--n", "3", "--space", "Wminus"],
    ["hecke-matrix", "--level", "11", "--weight", "12", "--n", "5", "--space", "Wtilde"],
    ["hecke-matrix", "--level", "12", "--weight", "8", "--n", "2", "--space", "W"],
    ["hecke-matrix", "--level", "1", "--weight", "12", "--n", "2", "--space", "W"],
    ["eigenvalue", "--level", "11", "--weight", "2", "--n", "1999", "--eigen", "2:-2"],
    ["eigenvalue", "--level", "5", "--weight", "4", "--n", "1999", "--eigen", "2:-4"],
    ["eigenpoly", "--level", "5", "--weight", "4", "--parity", "plus", "--eigen", "2:-4"],
    ["dims", "--group", "gamma0", "--level", "1000", "--weight", "2"],
    ["dims", "--group", "gamma0", "--level", "1000", "--weight", "4"],
    ["dims", "--group", "gamma1", "--level", "16", "--weight", "3"],
    ["dims", "--group", "gamma0", "--level", "3000", "--weight", "2"],
    ["cusps", "--level", "2310", "--weight", "2"],
    ["cusps", "--group", "gamma1", "--level", "60", "--weight", "2"],
    ["cusps", "--level", "3000", "--weight", "2"],
    *(["cusps", "--level", str(N), "--weight", "2"] for N in (420, 509)),
    *(["dims", "--group", "gamma0", "--level", str(N), "--weight", "2"]
      for N in (84, 89, 96, 97, 120, 127)),
    ["dims", "--group", "gamma1", "--level", "20", "--weight", "2"],
    ["dims", "--group", "gamma1", "--level", "13", "--weight", "3"],
    *(["hecke-matrix", "--level", str(N), "--weight", str(k), "--n", str(n), "--space", space,
       "--sigma", sigma]
      for N, k, n, space, sigma in ((37, 4, 2, "Wplus", "delta"), (37, 4, 11, "Wminus", "delta"),
                                    (37, 4, 2, "W", "delta-vee"), (37, 4, 37, "Wplus", "theta"),
                                    (12, 8, 2, "W", "delta"), (11, 4, 11, "W", "delta"),
                                    (11, 4, 23, "W", "delta"), (11, 4, 3, "Wtilde", "delta"))),
    # the eigen-sweep: the five eta-product forms at every prime of its strata
    *(["eigenvalue", "--level", str(N), "--weight", str(k), "--n", str(n),
       "--eigen", "%d:1" % (3 if N == 2 else 2)]
      for N, k in ((1, 12), (2, 8), (3, 6), (5, 4), (11, 2))
      for n in (61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
                139, 149, 151)),
    ["petersson", "--form", FORM, "--eigen", "2:-4"],
]


@pytest.mark.parametrize("argv", ADMITTED)
def test_ci_benchmark_and_readme_commands_are_admitted(argv, form5_path, monkeypatch):
    class Built(Exception):
        pass

    def record(*args):
        raise Built(args)
    monkeypatch.setattr(cli, "build_coset_space", record)
    with pytest.raises(Built):
        run_cli([form5_path if a is FORM else a for a in argv])
