"""The one exact elimination (``linalg.parametrize``) and its one caller.

The solver, rounding and the restriction read a program's elimination
through ``BlockSDP.solution_set``, which runs ``parametrize`` once per program.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import symsos.sdp
from symsos.certificates import (CertBlock, Certificate, RoundingError,
                                 round_certificate, sos_lower_bound,
                                 verify_certificate)
from symsos.fixtures import robinson_dihedral
from symsos.groups import catalog
from symsos.isotypic import induced_representation, symmetry_adapted_basis
from symsos.linalg import InconsistentRow, RowBasis, parametrize, rank_exact
from symsos.poly import parse_polynomial
from symsos.sdp import (AssemblyInfeasible, BlockSDP, BlockSpec, LinearConstraint,
                        assemble_gram, restrict_invariant)
from symsos.solver import solve

small = st.integers(-3, 3)


@st.composite
def consistent_systems(draw):
    """Rows of [A | A x0] with zero rows and combinations of earlier rows mixed in."""
    n = draw(st.integers(1, 6))
    x0 = [Fraction(draw(small), draw(st.integers(1, 4))) for _ in range(n)]
    a: list[list[Fraction]] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            a.append([Fraction(0)] * n)
        elif kind == "combination" and a:
            c1, c2 = draw(small), draw(small)
            r1, r2 = draw(st.sampled_from(a)), draw(st.sampled_from(a))
            a.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
        else:
            a.append([Fraction(draw(small)) for _ in range(n)])
    rows = [row + [sum((x * v for x, v in zip(row, x0)), Fraction(0))] for row in a]
    return n, rows


@settings(max_examples=150, deadline=None)
@given(consistent_systems(), st.lists(small, min_size=6, max_size=6))
def test_exact_points_satisfy_every_row(system, frees):
    n, rows = system
    param = parametrize(rows, n)
    assert param is not None
    assert len(param.pivots) == (rank_exact([r[:n] for r in rows]) if rows else 0)
    assert sorted([pc for pc, _, _ in param.pivots] + param.free) == list(range(n))
    for pc, _, coeffs in param.pivots:
        assert set(coeffs) <= set(param.free)
    point = param.point({j: Fraction(v, 3) for j, v in zip(param.free, frees)})
    for row in rows:
        assert sum((x * v for x, v in zip(row, point)), Fraction(0)) == row[n]


@settings(max_examples=150, deadline=None)
@given(consistent_systems(),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12),
                min_size=6, max_size=6))
def test_points_with_mixed_denominators_satisfy_the_source_rows(system, frees):
    n, rows = system
    param = parametrize(rows, n)
    values = dict(zip(param.free, frees))
    point = param.point(values)
    assert all(point[j] == values.get(j, 0) for j in param.free)
    for i in param.sources:
        assert sum((x * v for x, v in zip(rows[i], point)), Fraction(0)) == rows[i][n]


@settings(max_examples=100, deadline=None)
@given(consistent_systems())
def test_dict_rows_give_the_dense_parametrization(system):
    n, rows = system
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert parametrize(sparse, n) == parametrize(rows, n)


def test_pivots_keep_insertion_order_and_sources():
    rows = [[0, 1, 1, 2], [0, 2, 2, 4], [1, 0, 1, 3], [0, 0, 0, 0]]
    param = parametrize([[Fraction(x) for x in r] for r in rows], 3)
    assert [pc for pc, _, _ in param.pivots] == [1, 0]
    assert param.sources == [0, 2]
    assert param.free == [2]
    assert param.pivots[0] == (1, Fraction(2), {2: Fraction(-1)})
    assert param.pivots[1] == (0, Fraction(3), {2: Fraction(-1)})


def test_each_row_reduced_once(monkeypatch):
    calls = []
    original = RowBasis.reduce

    def counting(self, row):
        calls.append(1)
        return original(self, row)

    monkeypatch.setattr(RowBasis, "reduce", counting)
    rows = [[Fraction(x) for x in r] for r in
            ([1, 1, 2], [2, 2, 4], [0, 0, 0], [1, -1, 0])]
    assert parametrize(rows, 2) is not None
    assert len(calls) == len(rows)
    calls.clear()
    bad = rows[:2] + [[Fraction(3), Fraction(3), Fraction(5)]] + rows[2:]
    assert parametrize(bad, 2) is None
    assert len(calls) == 3          # stops at the inconsistent row


def test_dependent_row_with_other_rhs_raises():
    basis = RowBasis(2)
    assert basis.add([Fraction(1), Fraction(2), Fraction(1)])
    assert not basis.add([Fraction(2), Fraction(4), Fraction(2)])
    with pytest.raises(InconsistentRow):
        basis.add([Fraction(2), Fraction(4), Fraction(3)])
    assert basis.rank == 1


def _contradictory_program() -> BlockSDP:
    """X00 + X11 = 1 and, two rows later, 2 X00 + 2 X11 = 3."""
    trace = {("blk", 0, 0, 0): Fraction(1), ("blk", 0, 1, 1): Fraction(1)}
    cons = [LinearConstraint(dict(trace), Fraction(1)),
            LinearConstraint({("blk", 0, 0, 1): Fraction(1)}, Fraction(0)),
            LinearConstraint({k: 2 * v for k, v in trace.items()}, Fraction(3))]
    return BlockSDP([BlockSpec("x", 2, 1)], [], dict(trace), cons)


def test_inconsistent_system_from_solve():
    sol = solve(_contradictory_program())
    assert sol.status == "infeasible-suspect"


def test_inconsistent_system_from_round_certificate():
    sdp = _contradictory_program()
    fake = Certificate("invariant", "trivial:1", ["x"], Fraction(0), exact=False,
                       objective="feasibility", program=sdp)
    with pytest.raises(AssemblyInfeasible):
        round_certificate(fake, parse_polynomial("x^2 + 1", ["x"]))


def test_inconsistent_system_from_restrict_invariant():
    cat = catalog("trivial:2")
    rep = induced_representation(cat.action, 1)
    sab = symmetry_adapted_basis(rep, cat)
    sdp = assemble_gram(parse_polynomial("x^2 + y^2 + 1", ["x", "y"]))
    first = sdp.constraints[0]
    sdp.constraints.append(LinearConstraint(dict(first.coeffs), first.rhs + 1))
    with pytest.raises(AssemblyInfeasible):
        restrict_invariant(sdp, rep, sab)


def test_one_elimination_per_bound(monkeypatch):
    # the program's system is eliminated by the solve and read again, not
    # redone, by rounding
    calls = []
    original = symsos.sdp.parametrize

    def counting(rows, ncols):
        calls.append(ncols)
        return original(rows, ncols)

    monkeypatch.setattr(symsos.sdp, "parametrize", counting)
    f = robinson_dihedral()
    _, cert = sos_lower_bound(f, "dihedral:4")
    exact = round_certificate(cert, f)
    assert exact.lam == Fraction(-3825, 4096)
    assert verify_certificate(exact, f)[0]
    assert calls == [len(cert.program.var_order())]


def test_one_elimination_per_restricted_program(monkeypatch):
    # the restriction eliminates its candidate program to pick the rows it
    # keeps; the reduced program inherits that elimination, so the solve
    # does not run a second one
    cat = catalog("dihedral:4")
    rep = induced_representation(cat.action, 3)
    sab = symmetry_adapted_basis(rep, cat)
    calls = []
    original = symsos.sdp.parametrize

    def counting(rows, ncols):
        calls.append(ncols)
        return original(rows, ncols)

    monkeypatch.setattr(symsos.sdp, "parametrize", counting)
    red, _ = restrict_invariant(assemble_gram(robinson_dihedral()), rep, sab)
    sol = solve(red)
    assert calls == [len(red.var_order())]
    fresh = parametrize(
        [{**{red.var_order().index(k): v for k, v in con.coeffs.items()},
          len(red.var_order()): con.rhs} for con in red.constraints],
        len(red.var_order()))
    assert red.solution_set == fresh
    assert sol.status == "optimal"


def test_solution_set_puts_lambda_on_the_constant_equation():
    sdp = assemble_gram(parse_polynomial("x^2 + 2*x + 3", ["x"]))
    keys = sdp.var_order()
    assert keys[0] == ("free", "lambda")
    lam_rows = [(const, coeffs) for pc, const, coeffs in sdp.solution_set.pivots
                if pc == 0]
    # lambda = 3 - X00 over the Gram matrix of (1, x)
    assert lam_rows == [(Fraction(3), {keys.index(("blk", 0, 0, 0)): Fraction(-1)})]


def test_bound_trading_against_two_entries_is_refused():
    # lambda + X00 + X11 = 1: lowering either diagonal entry raises lambda
    lam = ("free", "lambda")
    sdp = BlockSDP([BlockSpec("x", 2, 1)], ["lambda"], {lam: Fraction(-1)},
                   [LinearConstraint({lam: Fraction(1), ("blk", 0, 0, 0): Fraction(1),
                                      ("blk", 0, 1, 1): Fraction(1)}, Fraction(1))])
    sol = solve(sdp)
    assert abs(sol.free_values["lambda"] - 1) < 1e-6
    fake = Certificate("invariant", "trivial:1", ["x"], sol.free_values["lambda"],
                       exact=False, blocks=[CertBlock("x", [], sol.blocks[0], None)],
                       program=sdp, status=sol.status)
    with pytest.raises(RoundingError, match="2 diagonal entries"):
        round_certificate(fake, parse_polynomial("x^2 + 1", ["x"]))
