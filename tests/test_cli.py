import math
from dataclasses import replace
from fractions import Fraction

import pytest

import symsos.cli as cli
from symsos.cli import main
from symsos.fileio import certificate_to_text, unlimited_digits
from symsos.fixtures import (ROBINSON_D4_TEXT, S3_QUARTIC_TEXT,
                             s3_published_certificate)


@pytest.fixture
def d4_poly_file(tmp_path):
    path = tmp_path / "d4.poly"
    path.write_text("vars x y\n" + ROBINSON_D4_TEXT + "\n")
    return str(path)


class TestBound:
    @pytest.mark.parametrize("group,sizes", [("dihedral:4", "[2, 1, 1, 3]"),
                                             ("trivial:2", "[10]")],
                             ids=["dihedral:4", "trivial:2"])
    def test_bound_round_verify_loop(self, group, sizes, d4_poly_file, tmp_path,
                                     capsys):
        cert_path = str(tmp_path / "d4.cert")
        rc = main(["bound", "--group", group, "--poly", d4_poly_file,
                   "--round", "--out", cert_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-3825/4096" in out
        assert sizes in out
        rc = main(["verify", "--cert", cert_path, "--poly", d4_poly_file])
        assert rc == 0

    def test_out_names_the_parsed_variables(self, tmp_path, capsys):
        poly = "a^4+b^4+c^4+1"
        cert_path = tmp_path / "abc.cert"
        rc = main(["bound", "--group", "symmetric:3", "--poly", poly, "--round",
                   "--out", str(cert_path)])
        assert rc == 0
        assert "vars a b c" in cert_path.read_text().splitlines()
        assert main(["verify", "--cert", str(cert_path), "--poly", poly]) == 0

    def test_inline_polynomial_with_vars_flag(self, capsys):
        rc = main(["bound", "--group", "trivial:1", "--poly", "x^2 + 1",
                   "--vars", "x"])
        assert rc == 0
        assert "lambda (float) 1" in capsys.readouterr().out

    def test_status_line(self, capsys):
        rc = main(["bound", "--group", "trivial:1", "--poly", "x^2 + 1",
                   "--vars", "x"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        heads = [ln[:15] for ln in lines]
        at = heads.index("status         ")
        assert heads[at - 1] == "block sizes    "
        assert heads[at + 1] == "lambda (float) "
        assert lines[at].split()[1] == "optimal"

    def test_no_certificate_exit_code(self, capsys):
        # the float stage can report a spurious finite bound on this famously
        # SOS-infeasible instance; exact rounding refuses, and that is the
        # contract --round enforces
        rc = main(["bound", "--group", "c2n:2", "--poly",
                   "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1", "--vars", "x,y",
                   "--round"])
        assert rc == 2

    def test_usage_error(self, capsys):
        assert main(["bound", "--group", "dihedral:4"]) == 1
        assert main(["bound", "--group", "nosuch:1", "--poly", "x^2",
                     "--vars", "x"]) == 1
        # a group on the wrong number of variables, the trivial one included
        for group in ("symmetric:3", "trivial:1"):
            capsys.readouterr()
            assert main(["bound", "--group", group, "--poly", "x^2 + y^2",
                         "--vars", "x,y"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "the polynomial has 2" in err


    def test_repeated_variable_name_is_usage_error(self, tmp_path, capsys):
        cert_path = tmp_path / "f.cert"
        rc = main(["bound", "--group", "trivial:2", "--poly", "x^2+1",
                   "--vars", "x,x", "--round", "--out", str(cert_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ")
        assert "'x' is repeated" in captured.err
        assert not cert_path.exists()

    def test_out_without_round_is_usage_error(self, tmp_path, capsys):
        cert_path = tmp_path / "x.cert"
        rc = main(["bound", "--group", "trivial:1", "--poly", "x^2 + 1",
                   "--vars", "x", "--out", str(cert_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not cert_path.exists()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_must_be_finite_and_positive(self, tol, capsys):
        rc = main(["bound", "--group", "trivial:1", "--poly", "x^2 + 1",
                   "--vars", "x", "--tol", tol])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--tol" in captured.err


class TestMolien:
    def test_symmetric4_table(self, capsys):
        rc = main(["molien", "--group", "symmetric:4", "--dmax", "15"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines[-1].split()[0] == "total"
        assert [int(v) for v in lines[-1].split()[1:]] == \
            [math.comb(3 + d, d) for d in range(16)]
        theta5 = [ln for ln in lines if ln.startswith("theta5")][0]
        assert [int(v) for v in theta5.split()[1:]] == \
            [0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 5, 6, 9, 11, 15, 18]

    def test_negative_dmax_is_usage_error(self, capsys):
        rc = main(["molien", "--group", "symmetric:3", "--dmax", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["molien", "--group", "symmetric"],
    ["molien", "--group", "symmetric:4:foo"],
    ["bound", "--group", "symmetric", "--poly", "x^2 + y^2", "--vars", "x,y"],
    ["bound", "--group", "c2n:2:x", "--poly", "x^2 + y^2", "--vars", "x,y"],
    ["generators", "--group", "dihedral"],
    ["generators", "--group", "cyclic:4:planar:x"]],
    ids=lambda argv: " ".join(argv[:3]))
def test_malformed_group_spec(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert repr(argv[2]) in err


@pytest.mark.parametrize("argv", [
    ["bound", "--group", "dihedral:4:permutation", "--poly",
     "x1^2 + x2^2 + x3^2 + x4^2 + 1"],
    ["bound", "--group", "cyclic:4:permutation", "--poly",
     "x1^2 + x2^2 + x3^2 + x4^2 + 1"],
    ["generators", "--group", "dihedral:4:permutation"],
    ["generators", "--group", "cyclic:4:permutation"]],
    ids=lambda argv: " ".join(argv[:3]))
def test_permutation_variant_has_no_presentation(argv, capsys):
    # the planar presentation and module data belong to the planar variant only
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"no invariant presentation cataloged for {argv[2]!r}" in captured.err


@pytest.mark.parametrize("argv", [
    ["molien", "--group", "trivial:0", "--dmax", "3"],
    ["generators", "--group", "trivial:-2"],
    ["bound", "--group", "trivial:0", "--poly", "x^2 + 1", "--vars", "x"]],
    ids=lambda argv: " ".join(argv[:3]))
def test_trivial_group_needs_a_variable(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trivial catalog supports n >= 1\n"


@pytest.mark.parametrize("poly", ["0", "x-x"])
def test_zero_polynomial_is_refused_as_zero(poly, capsys):
    assert main(["bound", "--group", "c2n:1", "--poly", poly, "--vars", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the target polynomial is zero\n"


def test_missing_presentation_message_is_bare(capsys):
    # a KeyError's message prints without the quotes of its repr
    rc = main(["bound", "--group", "dihedral:6", "--poly",
               "x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2 + 1"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: no invariant presentation cataloged for 'dihedral:6:permutation'\n"


class TestGenerators:
    def test_dihedral_dump(self, capsys):
        rc = main(["generators", "--group", "dihedral:4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "theta y^2 + x^2" in out     # canonical graded-lex rendering
        assert "theta5: module rank 2" in out
        assert "Pi[1,1] = t1" in out


class TestVerify:
    def test_long_exact_lambda_is_printed_and_read(self, tmp_path, capsys,
                                                    monkeypatch):
        # a lambda past Python's 4,300-digit str limit: bound prints it and
        # writes the file, verify reads it back and refuses the identity
        lam = Fraction(10 ** 4999 + 3, 7)
        rounded = cli.round_certificate
        monkeypatch.setattr(cli, "round_certificate",
                            lambda cert, f: replace(rounded(cert, f), lam=lam))
        monkeypatch.setattr(cli, "verify_certificate", lambda cert, f: (True, []))
        cert_path = str(tmp_path / "long.cert")
        rc = main(["bound", "--group", "trivial:1", "--poly", "x^2 + 1",
                   "--vars", "x", "--round", "--out", cert_path])
        assert rc == 0
        with unlimited_digits():
            assert f"lambda (exact) {lam}\n" in capsys.readouterr().out
        monkeypatch.undo()
        rc = main(["verify", "--cert", cert_path, "--poly", "x^2 + 1"])
        assert rc == 3
        assert "identity fails" in capsys.readouterr().out

    def test_failure_exit_code(self, tmp_path, d4_poly_file, capsys):
        cert_path = str(tmp_path / "cert.txt")
        rc = main(["bound", "--group", "dihedral:4", "--poly", d4_poly_file,
                   "--round", "--out", cert_path])
        assert rc == 0
        other = tmp_path / "other.poly"
        other.write_text("vars x y\nx^2 + y^2\n")
        rc = main(["verify", "--cert", cert_path, "--poly", str(other)])
        assert rc == 3


class TestMalformedCertificate:
    """A bad certificate file exits 1 with an ``error:`` line, never a traceback."""

    @pytest.fixture
    def published(self, tmp_path):
        poly = tmp_path / "s3.poly"
        poly.write_text("vars x y z\n" + S3_QUARTIC_TEXT + "\n")
        return certificate_to_text(s3_published_certificate()), str(poly)

    def _verify(self, tmp_path, text, poly, capsys) -> tuple[int, str]:
        path = tmp_path / "bad.cert"
        path.write_text(text)
        capsys.readouterr()
        rc = main(["verify", "--cert", str(path), "--poly", poly])
        return rc, capsys.readouterr().err

    def test_every_proper_prefix(self, tmp_path, published, capsys):
        text, poly = published
        assert self._verify(tmp_path, text, poly, capsys)[0] == 0
        lines = text.splitlines()
        for k in range(len(lines)):
            rc, err = self._verify(tmp_path, "\n".join(lines[:k]) + "\n", poly,
                                   capsys)
            assert rc == 1, k
            assert err.startswith("error: "), (k, err)

    @pytest.mark.parametrize("old,new", [("block ", "blk "),
                                         ("mode invariant", "mode plain"),
                                         ("row 1 t1 t2", "row 1 2*t1 t2")])
    def test_renamed_line(self, tmp_path, published, capsys, old, new):
        text, poly = published
        rc, err = self._verify(tmp_path, text.replace(old, new, 1), poly, capsys)
        assert rc == 1
        assert err.startswith("error: line ")
