import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from symsos.certificates import round_certificate, sos_lower_bound, \
    verify_certificate
from symsos.fileio import certificate_from_text, certificate_to_text
from symsos.fixtures import (robinson_dihedral, s3_published_certificate,
                             symmetric_quartic)
from symsos.poly import parse_polynomial


class TestCertificateFormat:
    def test_invariant_mode_round_trip(self):
        f = robinson_dihedral()
        _, cert = sos_lower_bound(f, "dihedral:4")
        exact = round_certificate(cert, f)
        text = certificate_to_text(exact)
        back = certificate_from_text(text)
        assert back.lam == exact.lam
        assert back.mode == "invariant"
        ok, report = verify_certificate(back, f)
        assert ok, report

    def test_plain_mode_round_trip(self):
        f = parse_polynomial("x^4 + 2*x^2 + 3", ["x"])
        _, cert = sos_lower_bound(f, "trivial:1")
        exact = round_certificate(cert, f)
        back = certificate_from_text(certificate_to_text(exact))
        assert back.mode == "invariant"
        assert verify_certificate(back, f)[0]

    def test_published_certificate_round_trips(self):
        cert = s3_published_certificate()
        back = certificate_from_text(certificate_to_text(cert))
        assert back.lam == Fraction(-2113, 1000)
        assert verify_certificate(back, symmetric_quartic())[0]

    def test_lambda_of_5000_digits_round_trips(self):
        # longer than Python's default int <-> str limit of 4,300 digits
        lam = -Fraction(10 ** 4999 + 3, 7)
        cert = replace(s3_published_certificate(), lam=lam)
        limit = sys.get_int_max_str_digits()
        back = certificate_from_text(certificate_to_text(cert))
        assert back.lam == lam
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("names", ["x y", "x y z w"])
    def test_vars_count_must_match_nvars(self, names):
        text = certificate_to_text(s3_published_certificate())
        with pytest.raises(ValueError, match=f"vars lists {len(names.split())} "
                                             "names but the presentation has nvars=3"):
            certificate_from_text(text.replace("vars x y z", f"vars {names}", 1))

    def test_tampered_file_fails_verification(self):
        cert = s3_published_certificate()
        text = certificate_to_text(cert)
        bad = text.replace("2113/1000", "2114/1000", 1)
        back = certificate_from_text(bad)
        ok, report = verify_certificate(back, symmetric_quartic())
        assert not ok

    def test_tampered_theta_fails_after_catalog_products_are_built(self):
        # the bound fills the product table of the dihedral:4 presentation;
        # the parsed certificate must expand with its own (tampered) theta
        f = robinson_dihedral()
        _, cert = sos_lower_bound(f, "dihedral:4")
        text = certificate_to_text(round_certificate(cert, f))
        assert verify_certificate(certificate_from_text(text), f)[0]
        bad = text.replace("theta y^2 + x^2\n", "theta 2*y^2 + x^2\n", 1)
        assert bad != text
        ok, report = verify_certificate(certificate_from_text(bad), f)
        assert not ok and "identity fails" in report[0]

    def test_float_certificate_not_serializable(self):
        f = robinson_dihedral()
        _, cert = sos_lower_bound(f, "dihedral:4")
        with pytest.raises(ValueError, match="exact"):
            certificate_to_text(cert)

    def test_non_certificate_rejected(self):
        with pytest.raises(ValueError):
            certificate_from_text("not a certificate\n")
