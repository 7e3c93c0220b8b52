import io
import json
import os
import subprocess
import sys

import pytest

from periodpoly import cli
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
        code, text = run_cli(["hecke-element", "--n", "3", "--method", "solve"])
        assert code == 0
        doc = json.loads(text)
        assert doc["verified"] is True
        assert all(len(t["matrix"]) == 4 for t in doc["terms"])
        assert "witness_Y" in doc

    def test_deterministic_output(self):
        a = run_cli(["hecke-element", "--n", "4"])
        b = run_cli(["hecke-element", "--n", "4"])
        assert a == b

    def test_variants_differ(self):
        a = run_cli(["hecke-element", "--n", "3", "--method", "solve"])
        b = run_cli(["hecke-element", "--n", "3", "--method", "solve",
                     "--variant", "1"])
        assert a[1] != b[1]


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

    def test_infeasible_exit_code(self, monkeypatch):
        from periodpoly.hecke import InfeasibleSolveError

        def boom(n, entry_bound=None):
            raise InfeasibleSolveError("no element within bound")
        monkeypatch.setattr(cli, "universal_hecke_element", boom)
        code, _ = run_cli(["eigenvalue", "--level", "5", "--weight", "4",
                           "--n", "2", "--eigen", "2:-4"])
        assert code == cli.EXIT_INFEASIBLE


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


FORM = object()  # stands for a valid form file


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
    ["hecke-element", "--n", "5", "--variant", "-1"],
    ["hecke-element", "--n", "5", "--method", "solve", "--variant", "-1"],
    ["hecke-element", "--n", "5", "--method", "solve", "--variant", "2"],
    ["hecke-element", "--n", "5", "--variant", "1"],
    ["dims", "--level", "11", "--weight", "2", "--max-index", "0"],
    ["dims", "--level", "11", "--weight", "2", "--max-index", "11"],
])
def test_bad_input_is_one_line_usage_error(argv, form5_path, capsys):
    code, _ = run_cli([form5_path if a is FORM else a for a in argv])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1


def test_gamma02_weight_error_names_the_weights(capsys):
    code, _ = run_cli(["gamma02-relations", "--weight", "7"])
    assert code == cli.EXIT_USAGE
    assert "8, 10 or 14" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dims", "--group", "gamma1", "--level", "1000", "--weight", "2"],
    ["cusps", "--group", "gamma1", "--level", "1000", "--weight", "2"],
    ["hecke-matrix", "--level", "100003", "--weight", "2", "--n", "2"],
    ["eigenpoly", "--level", "100003", "--weight", "2", "--parity", "plus"],
    ["eigenvalue", "--level", "100003", "--weight", "2", "--n", "2"],
    ["dims", "--level", "3000", "--weight", "2", "--max-index", "7199"],
])
def test_index_guard_refuses_before_building(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a coset space was built")
    monkeypatch.setattr(cli, "build_coset_space", refuse)
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "--max-index" in err


def test_index_guard_default_allows_gamma0_3000(monkeypatch):
    class Built(Exception):
        pass

    def record(*args):
        raise Built(args)
    monkeypatch.setattr(cli, "build_coset_space", record)
    with pytest.raises(Built, match="3000"):
        run_cli(["cusps", "--level", "3000", "--weight", "2"])
