from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symsos.certificates import (ContinuedFraction, NoCertificateError,
                                 RoundingError, _catalog_bundle, algorithm_one, algorithm_two,
                                 bundle_for, round_certificate, sos_lower_bound,
                                 symmetric_bundle, verify_certificate)
from symsos.equivariants import MissingEquivariantData
from symsos.fixtures import (ROBINSON_D4_TEXT, robinson_dihedral,
                             s3_published_certificate, symmetric_quartic)
from symsos.groups import catalog
from symsos.invariants import NotInvariantError
from symsos.isotypic import induced_representation, symmetry_adapted_basis
from symsos.poly import Polynomial, parse_polynomial
from symsos.sdp import assemble_gram, restrict_invariant
from symsos.solver import polish_solution, solve


class TestBundleMemo:
    def test_catalog_bundle_built_once(self, monkeypatch):
        import symsos.equivariants as equivariants
        first = algorithm_one("symmetric:4")
        calls = []
        rewrite = equivariants.rewrite_in_invariants

        def counting(*args, **kwargs):
            calls.append(1)
            return rewrite(*args, **kwargs)

        monkeypatch.setattr(equivariants, "rewrite_in_invariants", counting)
        assert algorithm_one("symmetric:4") is first
        assert calls == []
        assert symmetric_bundle(7, 2) is symmetric_bundle(7, 2)

    def test_shared_bundle_survives_a_full_run(self):
        f = parse_polynomial("x1^4+x2^4+x3^4+x4^4 - 2*x1*x2*x3*x4 - x1^2-x2^2-x3^2-x4^2",
                             ["x1", "x2", "x3", "x4"])
        lam, cert = sos_lower_bound(f, "symmetric:4")
        exact = round_certificate(cert, f)
        assert exact.lam == -2 and verify_certificate(exact, f)[0]
        shared = algorithm_one("symmetric:4")
        fresh = _catalog_bundle(catalog("symmetric:4"))
        assert shared.irrep_labels == fresh.irrep_labels
        for label in fresh.irrep_labels:
            assert shared.pis[label].entries == fresh.pis[label].entries


class TestAlgorithmOne:
    def test_dihedral_bundle_contents(self):
        bundle = algorithm_one("dihedral:4")
        assert bundle.irrep_labels == ["theta1", "theta2", "theta3", "theta4",
                                       "theta5"]
        t2 = ["t1", "t2"]
        assert bundle.pis["theta1"].entries[0][0].part(0) == Polynomial.constant(
            2, 1)
        assert bundle.pis["theta2"].entries[0][0].part(0) == parse_polynomial(
            "t1^2*t2 - 4*t2^2", t2)
        assert bundle.pis["theta3"].entries[0][0].part(0) == parse_polynomial(
            "t2", t2)
        assert bundle.pis["theta4"].entries[0][0].part(0) == parse_polynomial(
            "t1^2 - 4*t2", t2)

    def test_symmetric3_bundle(self):
        bundle = algorithm_one("symmetric:3")
        en = ["e1", "e2", "e3"]
        assert bundle.pis["theta1"].entries[0][0].part(0) == Polynomial.constant(3, 1)
        assert bundle.pis["theta2"].entries[0][0].part(0) == parse_polynomial(
            "e1^2*e2^2 - 4*e2^3 - 4*e1^3*e3 + 18*e1*e2*e3 - 27*e3^2", en)
        pi3 = bundle.pis["theta3"]
        assert pi3.entries[0][0].part(0) == parse_polynomial("2*e1^2 - 6*e2", en)
        assert pi3.entries[0][1].part(0) == parse_polynomial("-1*e1*e2 + 9*e3", en)
        assert pi3.entries[1][1].part(0) == parse_polynomial("2*e2^2 - 6*e1*e3", en)

    def test_cyclic4_bundle(self):
        bundle = algorithm_one("cyclic:4")
        assert set(bundle.irrep_labels) == {"theta1", "theta2", "theta3"}

    def test_symmetric5_reports_missing_modules(self):
        bundle = algorithm_one("symmetric:5")
        assert set(bundle.missing) == {"theta3", "theta4", "theta5", "theta6"}
        with pytest.raises(MissingEquivariantData):
            algorithm_two(Polynomial.constant(5, 1) +
                          parse_polynomial("x1^2+x2^2+x3^2+x4^2+x5^2",
                                           [f"x{i}" for i in range(1, 6)]) ** 2,
                          bundle)


class TestBounds:
    def test_robinson_bound_and_exact_round(self):
        f = robinson_dihedral()
        lam, cert = sos_lower_bound(f, "dihedral:4")
        assert abs(lam + 3825 / 4096) < 1e-6
        assert cert.block_sizes() == [2, 1, 1, 3]
        exact = round_certificate(cert, f)
        assert exact.lam == Fraction(-3825, 4096)
        ok, report = verify_certificate(exact, f)
        assert ok, report

    def test_symmetric_quartic_bound(self):
        f = symmetric_quartic()
        lam, cert = sos_lower_bound(f, "symmetric:3")
        assert abs(lam + 2.112913882) < 1e-6
        assert sorted(cert.block_sizes(), reverse=True) == [4, 3]
        exact = round_certificate(cert, f)
        assert verify_certificate(exact, f)[0]
        assert float(exact.lam) <= lam + 1e-7

    def test_published_certificate_verifies(self):
        cert = s3_published_certificate()
        ok, report = verify_certificate(cert, symmetric_quartic())
        assert ok, report

    def test_bound_below_known_minimizer_value(self):
        # the quartic attains its minimum on the orbit of (0.988, -1.102, -1.102)
        f = symmetric_quartic()
        lam, _ = sos_lower_bound(f, "symmetric:3")
        from symsos.poly import evaluate
        for point in [(0.988, -1.102, -1.102), (-1.102, 0.988, -1.102),
                      (-1.102, -1.102, 0.988)]:
            value = float(evaluate(f, [Fraction(v).limit_denominator(10 ** 6)
                                       for v in point]))
            assert lam <= value + 1e-9

    def test_published_certificate_corruption_detected(self):
        cert = s3_published_certificate()
        cert.blocks[0].gram[0][0] += Fraction(1, 10 ** 6)
        ok, report = verify_certificate(cert, symmetric_quartic())
        assert not ok
        assert any("identity" in r or "PSD" in r for r in report)

    def test_square_with_trivial_group(self):
        f = parse_polynomial("x^2", ["x"])
        lam, cert = sos_lower_bound(f, "trivial:1")
        assert abs(lam) < 1e-7
        exact = round_certificate(cert, f)
        assert exact.lam == 0
        assert verify_certificate(exact, f)[0]

    def test_sign_flip_line_example(self):
        # x^2 + (x - x^3)^2: the bound is 0 and the decomposition must mix
        # invariant and semi-invariant squares
        f = parse_polynomial("x^6 - 2*x^4 + 2*x^2", ["x"])
        bundle = bundle_for("c2n:1")
        cert = algorithm_two(f, bundle, "feasibility")
        assert cert.margin > -1e-7
        lam, _ = sos_lower_bound(f, "c2n:1")
        assert abs(lam) < 1e-6

    def test_not_invariant_rejected(self):
        for spec, text in [
                ("dihedral:4", "x^2 + x*y"),
                # fixed by the quarter turn, odd under the swap
                ("dihedral:4", "x^3*y - x*y^3 + 1"),
                # fixed by the flip of x, odd under the flip of y
                ("c2n:2", "x^2*y^2 + x^2*y + 1")]:
            bundle = algorithm_one(spec)
            with pytest.raises(NotInvariantError):
                algorithm_two(parse_polynomial(text, ["x", "y"]), bundle)

    def test_rotation_invariant_bounds_on_cyclic4(self):
        f = parse_polynomial("x^3*y - x*y^3 + x^4 + y^4 + 1", ["x", "y"])
        _, cert = sos_lower_bound(f, "cyclic:4")
        assert cert.status == "optimal"

    def test_no_sos_detected(self):
        # dehomogenized Motzkin: nonnegative but not a sum of squares
        f = parse_polynomial("x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1", ["x", "y"])
        with pytest.raises(NoCertificateError):
            bundle = bundle_for("c2n:2")
            algorithm_two(f, bundle, "feasibility")


class TestCrossFormulation:
    @pytest.mark.parametrize("poly_text,vars,spec,d", [
        (ROBINSON_D4_TEXT, ["x", "y"], "dihedral:4", 3),
        ("x^4+y^4+z^4-4*x*y*z+x+y+z", ["x", "y", "z"], "symmetric:3", 2),
    ])
    def test_reduced_gram_agrees_with_invariant_route(self, poly_text, vars,
                                                      spec, d):
        f = parse_polynomial(poly_text, vars)
        cat = catalog(spec)
        rep = induced_representation(cat.action, d)
        sab = symmetry_adapted_basis(rep, cat)
        red, _ = restrict_invariant(assemble_gram(f, with_lambda=True), rep, sab)
        sol = polish_solution(red, solve(red))
        lam_gram = sol.free_values["lambda"]
        lam_inv, _ = sos_lower_bound(f, spec)
        assert abs(lam_gram - lam_inv) < 1e-6

    def test_plain_route_also_agrees(self):
        f = symmetric_quartic()
        cert = sos_lower_bound(f, f"trivial:{f.nvars}")[1]
        lam_inv, _ = sos_lower_bound(f, "symmetric:3")
        assert abs(float(cert.lam) - lam_inv) < 1e-6


class TestIsotypicSquares:
    def test_squares_live_in_single_isotypic_components(self):
        # factor the reduced-block solution: each recovered square's factor
        # projects onto exactly one isotypic component
        f = robinson_dihedral()
        cat = catalog("dihedral:4")
        rep = induced_representation(cat.action, 3)
        sab = symmetry_adapted_basis(rep, cat)
        red, rmap = restrict_invariant(assemble_gram(f, with_lambda=True), rep, sab)
        sol = polish_solution(red, solve(red))
        tfloat = sab.t_float()
        basis_polys = rep.basis.entries
        for seg, blk in zip(sab.layout, sol.blocks):
            w, vecs = np.linalg.eigh((blk + blk.T) / 2)
            for k in range(len(w)):
                if w[k] < 1e-8:
                    continue
                for copy in range(seg.n_i):
                    cols = tfloat[:, seg.col_start + copy * seg.m_i:
                                  seg.col_start + (copy + 1) * seg.m_i]
                    coeff = cols @ vecs[:, k]
                    # the factor polynomial has support only inside this
                    # segment: its coefficient vector in the monomial basis is
                    # exactly the lifted column, which lies in the isotypic
                    # span; verify by projecting onto all other segments
                    for other in sab.layout:
                        if other is seg:
                            continue
                        ocols = tfloat[:, other.col_start:
                                       other.col_start + other.width]
                        assert np.max(np.abs(ocols.T @ coeff)) < 1e-8


class TestRounding:
    def test_already_exact_returned_unchanged(self):
        cert = s3_published_certificate()
        assert round_certificate(cert, symmetric_quartic()) is cert

    def test_each_block_screened_once(self, monkeypatch):
        import symsos.certificates as certificates
        import symsos.linalg as linalg
        f = robinson_dihedral()
        _, cert = sos_lower_bound(f, "dihedral:4")
        screen = linalg.negative_direction
        seen = []     # references keep every id alive, so none is reused

        def once(m):
            assert not any(m is s for s in seen), "block screened twice"
            seen.append(m)
            return screen(m)

        monkeypatch.setattr(certificates, "negative_direction", once)
        monkeypatch.setattr(linalg, "negative_direction", once)
        exact = round_certificate(cert, f)
        assert exact.lam == Fraction(-3825, 4096)
        assert seen

    def test_boundary_overshoot_falls_back_to_valid_bound(self):
        f = robinson_dihedral()
        lam, cert = sos_lower_bound(f, "dihedral:4")
        cert.lam = float(cert.lam) + 1e-3   # pretend the float bound overshot
        out = round_certificate(cert, f)
        assert verify_certificate(out, f)[0]
        assert out.lam <= Fraction(-3825, 4096)   # still a valid lower bound

    def test_infeasible_fixed_lambda_raises(self):
        from symsos.certificates import CertBlock, Certificate
        from symsos.sdp import assemble_gram
        f = robinson_dihedral()
        lam = Fraction(-1, 2)                     # far above the SOS bound
        sdp = assemble_gram(f - lam, with_lambda=False)
        zeros = [CertBlock(b.name, [], np.zeros((b.size, b.size)), None)
                 for b in sdp.blocks]
        fake = Certificate("invariant", "trivial:2", ["x", "y"], lam, exact=False,
                           blocks=zeros, objective="feasibility", program=sdp)
        with pytest.raises(RoundingError):
            round_certificate(fake, f, schedule=(100, 1000))

    def test_exact_squares_replay(self):
        f = parse_polynomial("2*x^4 + 2*x^3*y - x^2*y^2 + 5*y^4", ["x", "y"])
        cert = sos_lower_bound(f, f"trivial:{f.nvars}")[1]
        exact = round_certificate(cert, f)
        assert verify_certificate(exact, f)[0]


class TestContinuedFraction:
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.lists(st.integers(1, 10 ** 7), min_size=1, max_size=5))
    def test_reads_equal_limit_denominator(self, x, bounds):
        # one expansion read at several bounds, in any order
        cf = ContinuedFraction(x)
        for m in bounds:
            got = cf.limit(m)
            assert got == Fraction(x).limit_denominator(m)
            assert got.denominator <= m

    @pytest.mark.parametrize("x", [0.5, -0.5, 2.5, -1.5, 0.25])
    def test_ties_go_to_the_convergent(self, x):
        for m in (1, 2, 3):
            assert ContinuedFraction(x).limit(m) == \
                Fraction(x).limit_denominator(m)

    def test_bound_below_one_is_refused(self):
        with pytest.raises(ValueError):
            ContinuedFraction(0.3).limit(0)


class TestLargeSymmetric:
    def test_quadratic_bundle_any_n(self):
        bundle = bundle_for("symmetric:7", max_degree=2)
        assert set(bundle.bases) == {"trivial", "standard"}

    def test_large_n_beyond_quadratics_rejected(self):
        with pytest.raises(MissingEquivariantData):
            bundle_for("symmetric:7", max_degree=4)
