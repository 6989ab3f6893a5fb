from fractions import Fraction

import numpy as np
import pytest

from symsos.certificates import _invariant_sdp, bundle_for, sos_lower_bound
from symsos.poly import parse_polynomial
from symsos.sdp import BlockSDP, BlockSpec, LinearConstraint, assemble_gram
from symsos.solver import (adjoint, constraint_values, face_residual_and_jacobian,
                           polish_solution, schur_complement, solve)


def mat_coeffs(bi, mat, n):
    out = {}
    for r in range(n):
        out[("blk", bi, r, r)] = Fraction(mat[r, r])
        for c in range(r + 1, n):
            out[("blk", bi, r, c)] = Fraction(2 * mat[r, c])
    return out


class TestBasics:
    def test_pinned_scalar(self):
        sdp = BlockSDP([BlockSpec("b", 1, 1)], [], {("blk", 0, 0, 0): Fraction(1)},
                       [LinearConstraint({("blk", 0, 0, 0): Fraction(1)},
                                         Fraction(3))])
        sol = solve(sdp)
        assert sol.ok and abs(sol.objective - 3) < 1e-7

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        sdp = BlockSDP([BlockSpec("b", 1, 1)], [], {("blk", 0, 0, 0): Fraction(1)},
                       [LinearConstraint({("blk", 0, 0, 0): Fraction(1)},
                                         Fraction(3))])
        with pytest.raises(ValueError, match="tol"):
            solve(sdp, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            sos_lower_bound(parse_polynomial("x^2+1", ["x"]), "trivial:1", tol=tol)

    def test_unconstrained_trace_min_is_cone_vertex(self):
        sdp = BlockSDP([BlockSpec("b", 3, 1)], [],
                       {("blk", 0, i, i): Fraction(1) for i in range(3)}, [])
        sol = solve(sdp)
        assert sol.ok and abs(sol.objective) < 1e-9
        assert np.allclose(sol.blocks[0], 0)

    def test_unbounded_cost_detected(self):
        sdp = BlockSDP([BlockSpec("b", 1, 1)], ["u"],
                       {("free", "u"): Fraction(1)}, [])
        assert solve(sdp).status == "unbounded"

    def test_infeasible_diagonal(self):
        sdp = BlockSDP([BlockSpec("b", 1, 1)], [], {},
                       [LinearConstraint({("blk", 0, 0, 0): Fraction(1)},
                                         Fraction(-1))])
        assert solve(sdp).status in ("infeasible-suspect", "max-iterations")

    def test_exactly_contradictory_equations(self):
        sdp = BlockSDP([BlockSpec("b", 1, 1)], [], {},
                       [LinearConstraint({("blk", 0, 0, 0): Fraction(1)}, Fraction(1)),
                        LinearConstraint({("blk", 0, 0, 0): Fraction(1)}, Fraction(2))])
        assert solve(sdp).status == "infeasible-suspect"


class TestConstructedOptimum:
    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_recovers_known_value(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 4
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        u, v = q[:, :3], q[:, 3:]
        xstar = u @ np.diag([1.0, 2.0, 0.5]) @ u.T
        zstar = v @ np.diag([1.5, 0.7, 2.2]) @ v.T
        amats = []
        for _ in range(m):
            a = rng.normal(size=(n, n))
            amats.append((a + a.T) / 2)
        ystar = rng.normal(size=m)
        cmat = zstar + sum(ystar[j] * amats[j] for j in range(m))
        cons = [LinearConstraint(mat_coeffs(0, amats[j], n),
                                 Fraction(float(np.tensordot(amats[j], xstar))))
                for j in range(m)]
        sdp = BlockSDP([BlockSpec("b", n, 1)], [], mat_coeffs(0, cmat, n), cons)
        sol = solve(sdp)
        expect = float(np.tensordot(cmat, xstar))
        assert sol.ok
        assert abs(sol.objective - expect) < 1e-6 * (1 + abs(expect))

    def test_soundness_on_optimal_exit(self):
        f = parse_polynomial("x^4+y^4+z^4-4*x*y*z+x+y+z", ["x", "y", "z"])
        sdp = assemble_gram(f, with_lambda=True)
        tol = 1e-8
        sol = solve(sdp, tol=tol)
        assert sol.ok
        for blk in sol.blocks:
            assert np.linalg.eigvalsh((blk + blk.T) / 2)[0] >= -10 * tol
        assert sol.primal_residual <= 10 * tol


class TestPolish:
    def test_degenerate_boundary_instance_reaches_high_accuracy(self):
        f = parse_polynomial(
            "x^6+y^6-x^4*y^2-x^2*y^4-x^4-y^4-x^2-y^2+3*x^2*y^2+1", ["x", "y"])
        sdp = assemble_gram(f, with_lambda=True)
        sol = solve(sdp)
        polished = polish_solution(sdp, sol)
        assert abs(polished.free_values["lambda"] + 3825 / 4096) < 1e-6
        for blk in polished.blocks:
            assert np.linalg.eigvalsh((blk + blk.T) / 2)[0] >= -1e-12

    def test_polish_keeps_well_posed_solutions(self):
        f = parse_polynomial("x^4 + 2*x^2 + 3", ["x"])
        sdp = assemble_gram(f, with_lambda=True)
        sol = solve(sdp)
        polished = polish_solution(sdp, sol)
        assert abs(polished.free_values["lambda"] - sol.free_values["lambda"]) < 1e-5

    def test_stalled_polish_ends_early(self, monkeypatch):
        # the Motzkin form is not SOS: the solve ends on a face whose residual
        # floors near 1e-3, and the polish gives up once it stops halving
        f = parse_polynomial("x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1", ["x", "y"])
        sdp, _ = _invariant_sdp(f, bundle_for("trivial:2", 6), True)
        sol = solve(sdp)
        calls = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        assert polish_solution(sdp, sol) is sol
        assert 0 < len(calls) <= 20


def _random_stack(rng, sizes, m):
    """Symmetric per-block stacks (m, s, s) plus PSD scalings and iterates."""
    amats, ws, xs = [], [], []
    for s in sizes:
        a = rng.normal(size=(m, s, s))
        amats.append((a + a.transpose(0, 2, 1)) / 2)
        g = rng.normal(size=(s, s))
        ws.append(g @ g.T + np.eye(s))
        x = rng.normal(size=(s, s))
        xs.append((x + x.T) / 2)
    return amats, ws, xs


def _close(got, want):
    scale = max(1.0, float(np.max(np.abs(want)))) if np.size(want) else 1.0
    return np.size(got) == np.size(want) and \
        float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale


class TestBatchedKernels:
    # several blocks with a 1x1 and a size-0 block, plus the m = 0 program
    @pytest.mark.parametrize("sizes,m", [([4, 1, 0, 3], 5), ([1, 0], 3),
                                         ([4, 1, 0, 3], 0), ([2], 1)])
    def test_match_per_pair_definition(self, sizes, m):
        rng = np.random.default_rng(11 + m)
        amats, ws, xs = _random_stack(rng, sizes, m)
        y = rng.normal(size=m)
        nb = len(sizes)
        schur = np.array([[sum(float(np.tensordot(amats[i][j],
                                                  ws[i] @ amats[i][k] @ ws[i]))
                               for i in range(nb)) for k in range(m)]
                          for j in range(m)]).reshape(m, m)
        values = np.array([sum(float(np.tensordot(amats[i][j], xs[i]))
                               for i in range(nb)) for j in range(m)])
        adj = [sum((y[j] * amats[i][j] for j in range(m)),
                   np.zeros((s, s))) for i, s in enumerate(sizes)]
        got = schur_complement(amats, ws, m)
        assert got.shape == (m, m) and _close(got, schur)
        assert _close(constraint_values(amats, xs, m), values)
        for got, want in zip(adjoint(amats, y), adj):
            assert got.shape == want.shape and _close(got, want)

    def test_face_jacobian_matches_central_difference(self):
        rng = np.random.default_rng(5)
        sizes, rank, m, nf = [4, 1, 3], 2, 6, 2
        amats, _, _ = _random_stack(rng, sizes, m)
        fmat = rng.normal(size=(m, nf))
        rhs = rng.normal(size=m)
        shapes = [(s, min(rank, s)) for s in sizes]
        u = rng.normal(size=nf + sum(s * r for s, r in shapes))

        def unpack(v):
            ls, o = [], nf
            for s, r in shapes:
                ls.append(v[o:o + s * r].reshape(s, r))
                o += s * r
            return ls

        def evaluate(v):
            return face_residual_and_jacobian(amats, fmat, rhs, v[:nf], unpack(v))

        res, jac = evaluate(u)
        ls = unpack(u)
        direct = fmat @ u[:nf] - rhs + sum(
            np.array([np.tensordot(a[j], l @ l.T) for j in range(m)])
            for a, l in zip(amats, ls))
        assert _close(res, direct)
        h = 1e-6
        fd = np.column_stack([(evaluate(u + h * e)[0] - evaluate(u - h * e)[0])
                              / (2 * h) for e in np.eye(len(u))])
        assert jac.shape == (m, len(u))
        assert np.max(np.abs(jac - fd)) <= 1e-7 * max(1.0, np.max(np.abs(jac)))

    def test_solve_with_size_zero_block(self):
        sdp = BlockSDP([BlockSpec("e", 0, 1), BlockSpec("b", 1, 1)], [],
                       {("blk", 1, 0, 0): Fraction(1)},
                       [LinearConstraint({("blk", 1, 0, 0): Fraction(1)},
                                         Fraction(3))])
        sol = solve(sdp)
        assert sol.ok and abs(sol.objective - 3) < 1e-7
        assert sol.blocks[0].shape == (0, 0)
