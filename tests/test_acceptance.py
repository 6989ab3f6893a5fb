"""Acceptance suite: one test per exit criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from symsos.certificates import (NoCertificateError, algorithm_one,
                                 algorithm_two, bundle_for, round_certificate,
                                 sos_lower_bound, verify_certificate)
from symsos.cli import main as cli_main
from symsos.fixtures import (ROBINSON_D4_TEXT, choi_biquadratic,
                             choi_decomposition, choi_multiplier,
                             robinson_dihedral, s3_published_certificate,
                             sottile_quartic, sottile_two_squares,
                             symmetric_quartic)
from symsos.groups import catalog
from symsos.invariants import InvariantPoly, expand_invariants, presentation, \
    rewrite_in_invariants
from symsos.isotypic import (fixed_point_project, induced_representation,
                             symmetry_adapted_basis)
from symsos.linalg import mat_mul, mat_transpose, rank_exact
from symsos.molien import (even_form_block_census, molien_series,
                           series_coefficients)
from symsos.poly import Polynomial
from symsos.sdp import assemble_gram, restrict_invariant
from symsos.solver import polish_solution, solve

TARGET_D4 = Fraction(-3825, 4096)
TARGET_S3 = -2.112913882


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} - {name}" +
          (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_dihedral_robinson_bound(tmp_path):
    """Bound, runtime, and exact rounding for the planar dihedral instance."""
    start = time.time()
    poly_file = tmp_path / "robinson.poly"
    poly_file.write_text("vars x y\n" + ROBINSON_D4_TEXT + "\n")
    cert_file = tmp_path / "robinson.cert"
    rc = cli_main(["bound", "--group", "dihedral:4", "--poly", str(poly_file),
                   "--round", "--out", str(cert_file)])
    elapsed = time.time() - start
    assert rc == 0
    f = robinson_dihedral()
    lam, cert = sos_lower_bound(f, "dihedral:4")
    exact = round_certificate(cert, f)
    ok_verify, _ = verify_certificate(exact, f)
    ok = (abs(lam - float(TARGET_D4)) < 1e-6 and elapsed < 5.0 and ok_verify)
    report("1 dihedral Robinson bound", ok,
           f"lambda={lam:.9f}, rounded={exact.lam}, {elapsed:.2f}s")


def test_criterion_2_symmetric_quartic():
    """Bound value, reduced block census, free parameters, published cert."""
    f = symmetric_quartic()
    lam, cert = sos_lower_bound(f, "symmetric:3")
    sdp = cert.program
    sizes = [b.size for b in sdp.blocks]
    # exact rank of the coupled constraint system over all Gram entries
    keys = [k for k in sdp.var_order() if k[0] == "blk"]
    pos = {k: i for i, k in enumerate(keys)}
    rows = []
    for con in sdp.constraints:
        row = [Fraction(0)] * len(keys)
        for k, v in con.coeffs.items():
            if k[0] == "blk":
                row[pos[k]] = v
        rows.append(row)
    free_params = len(keys) - rank_exact(rows)
    published_ok, _ = verify_certificate(s3_published_certificate(), f)
    ok = (abs(lam - TARGET_S3) < 1e-6 and sorted(sizes) == [3, 4] and
          free_params == 5 and published_ok)
    report("2 symmetric quartic", ok,
           f"lambda={lam:.9f}, blocks={sorted(sizes, reverse=True)}, "
          f"free={free_params}, published cert ok={published_ok}")


S4_TABLE = {
    "theta1": [1, 1, 2, 3, 5, 6, 9, 11, 15, 18, 23, 27, 34, 39, 47, 54],
    "theta2": [0, 1, 2, 4, 6, 10, 14, 20, 26, 35, 44, 56, 68, 84, 100, 120],
    "theta3": [0, 0, 1, 1, 3, 4, 7, 9, 14, 17, 24, 29, 38, 45, 57, 66],
    "theta4": [0, 0, 0, 1, 2, 4, 6, 10, 14, 20, 26, 35, 44, 56, 68, 84],
    "theta5": [0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 5, 6, 9, 11, 15, 18],
}


def test_criterion_3_molien_table(capsys):
    """The multiplicity table reproduces all 80 published entries exactly."""
    rc = cli_main(["molien", "--group", "symmetric:4", "--dmax", "15"])
    out = capsys.readouterr().out
    assert rc == 0
    with capsys.disabled():
        rows = {ln.split()[0]: [int(v) for v in ln.split()[1:]]
                for ln in out.splitlines() if ln.strip()}
        entries_ok = all(rows[k] == v for k, v in S4_TABLE.items())
        total_ok = rows["total"] == [math.comb(3 + d, d) for d in range(16)]
        report("3 molien table", entries_ok and total_ok,
               "80 entries + total row exact")


def test_criterion_4_even_form_savings():
    """Block census for even forms, from exact multiplicity series alone."""
    census = even_form_block_census(10, 8)
    big_ok = census == [(55, 1), (10, 45), (1, 210)]
    unreduced = math.comb(10 + 4 - 1, 4)
    # cross-check the three sizes against the catalog Molien series
    cat = catalog("c2n:10")
    reps = {len(r.molien_meta[2]): r for r in cat.irreps
            if len(r.molien_meta[2]) in (0, 2, 4)}
    series_ok = True
    for r_type, size in ((0, 55), (2, 10), (4, 1)):
        psi = molien_series(cat, reps[r_type])
        series_ok &= series_coefficients(psi, 4)[4] == size
    sextic_ok = all(dict(even_form_block_census(n, 6)) ==
                    {n: n, 1: math.comb(n, 3)} for n in range(4, 11))
    ok = big_ok and unreduced == 715 and series_ok and sextic_ok
    report("4 even-form savings", ok,
           f"degree-8 census {census} vs {unreduced}x{unreduced}; "
           f"sextics n=4..10 ok={sextic_ok}")


def test_criterion_5_choi_fixture():
    """The published biquadratic decomposition replays to zero residual."""
    target = choi_multiplier() * choi_biquadratic()
    q1, v1, q2, v2 = choi_decomposition()
    total = Polynomial.zero(6)
    for vj in v1:
        for a in range(3):
            for b in range(3):
                if q1[a][b]:
                    total = total + (vj[a] * vj[b]).scale(q1[a][b])
    for vj in v2:
        for a in range(4):
            for b in range(4):
                if q2[a][b]:
                    total = total + (vj[a] * vj[b]).scale(q2[a][b])
    residual = total - target
    report("5 Choi fixture", residual.is_zero(),
           f"residual terms={len(residual.terms)}")


def test_criterion_6_sottile_quartic():
    """Exact two-square identity plus pipeline support concentration."""
    f = sottile_quartic()
    identity_ok = (f - sottile_two_squares()).is_zero()
    bundle = algorithm_one("symmetric:4")
    cert = algorithm_two(f, bundle, "feasibility", concentrate=True)
    support = {b.label for b in cert.blocks
               if np.max(np.abs(np.asarray(b.gram))) > 1e-6}
    ok = identity_ok and support == {"theta3"}
    report("6 Sottile quartic", ok,
           f"identity={identity_ok}, support={sorted(support)}")


def test_criterion_7_symmetric_quadratic_criterion():
    """Feasibility verdicts match 2na + (n-1)b >= 0 and b <= 0, n = 2..8."""
    rng = random.Random(20260808)
    bundles = {n: bundle_for(f"symmetric:{n}", max_degree=2)
               for n in range(2, 9)}
    checked = 0
    for trial in range(200):
        n = rng.randrange(2, 9)
        a = Fraction(rng.randint(-400, 400), 100)
        b = Fraction(rng.randint(-400, 400), 100)
        pres = bundles[n].pres
        s = len(pres.theta)
        sym = InvariantPoly(s, {0: Polynomial(
            s, {tuple(2 if i == 0 else 0 for i in range(s)): a,
                tuple(1 if i == 1 else 0 for i in range(s)): b})})
        f = expand_invariants(sym, pres)
        try:
            algorithm_two(f, bundles[n], "feasibility")
            verdict = True
        except NoCertificateError:
            verdict = False
        closed_form = (2 * n * a + (n - 1) * b >= 0) and (b <= 0)
        assert verdict == closed_form, (n, a, b, verdict, closed_form)
        checked += 1
    report("7 symmetric quadratic criterion", checked == 200,
           f"{checked} verdicts matched the closed form")


def test_criterion_8_property_suites():
    """Condensed run of the invariant property suites (full versions live in
    the per-module test files)."""
    # Reynolds idempotence + T orthogonality + C4 syzygy, spot versions: T^T T
    # is exactly diagonal, a first copy's columns are within 2^-11 of unit
    # length, and copy j's are w_j times the first copy's
    cat = catalog("dihedral:4")
    rep = induced_representation(cat.action, 3)
    sab = symmetry_adapted_basis(rep, cat)
    t = sab.t_matrix()
    gram = mat_mul(mat_transpose(t), t)
    diag = [gram[i][i] for i in range(10)]
    t_ok = all(gram[i][j] == 0 for i in range(10) for j in range(10) if i != j) \
        and all(abs(float(diag[seg.col_start + k]) - 1) <= 2 ** -11
                for seg in sab.layout for k in range(seg.m_i)) \
        and all(diag[seg.col_start + j * seg.m_i + k] == w * diag[seg.col_start + k]
                for seg in sab.layout for j, w in enumerate(seg.weights)
                for k in range(seg.m_i))
    rng = random.Random(5)
    x = [[Fraction(rng.randint(-4, 4)) for _ in range(10)] for _ in range(10)]
    x = [[x[i][j] + x[j][i] for j in range(10)] for i in range(10)]
    proj = fixed_point_project(x, rep)
    reynolds_ok = fixed_point_project(proj, rep) == proj
    pres4 = presentation("cyclic:4")
    syzygy_ok = pres4.expand_symbol_poly(pres4.syzygies[0]).is_zero()
    # rewrite/expand round trip on the dihedral instance
    presd = presentation("dihedral:4")
    f = robinson_dihedral()
    rt_ok = expand_invariants(rewrite_in_invariants(f, presd), presd) == f
    # reduction equivalence, small spot check (full 50-instance sweeps run in
    # tests/test_sdp.py for every catalog family)
    red, _ = restrict_invariant(assemble_gram(f, with_lambda=True), rep, sab)
    plain = assemble_gram(f, with_lambda=True)
    lam_red = polish_solution(red, solve(red)).free_values["lambda"]
    lam_full = polish_solution(plain, solve(plain)).free_values["lambda"]
    reduction_ok = abs(lam_red - lam_full) < 1e-6
    ok = t_ok and reynolds_ok and syzygy_ok and rt_ok and reduction_ok
    report("8 property suites", ok,
           f"T orth={t_ok}, Reynolds={reynolds_ok}, syzygy={syzygy_ok}, "
           f"roundtrip={rt_ok}, reduction={reduction_ok}")


@pytest.mark.slow
def test_criterion_8_sottile_degree_twenty_smoke():
    """Degree-20 homogeneous feasibility stress run (10-minute budget,
    skippable in CI).

    A degree-20 invariant form in four variables is built SOS-by-construction
    from random low-rank Grams over the homogeneous weighted-degree-20
    envelopes, then the assembled program (the published reduced sizes
    44, 26, 24, 23, 5) is re-solved for the interior margin.
    """
    from symsos.invariants import theta_monomials, verify_invariant
    from symsos.sdp import assemble_invariant_sos, with_interior_variable

    start = time.time()
    bundle = algorithm_one("symmetric:4")
    pres = bundle.pres
    degs = pres.theta_degrees
    rng = random.Random(11)
    labels = bundle.irrep_labels
    pis = [bundle.pis[l] for l in labels]
    envs = []
    for pi in pis:
        rows = []
        for dkk in pi.diagonal_degrees(pres):
            budget = (20 - dkk) // 2 if dkk <= 20 and (20 - dkk) % 2 == 0 else -1
            rows.append(theta_monomials(degs, budget, exactly=budget)
                        if budget >= 0 else [])
        envs.append(rows)
    sizes = sorted((sum(len(r) for r in rows) for rows in envs), reverse=True)
    assert sizes == [44, 26, 24, 23, 5]
    total_parts: dict[int, dict] = {}
    for pi, env in zip(pis, envs):
        pairs = [(k, alpha) for k, row in enumerate(env) for alpha in row]
        if not pairs:
            continue
        cols = 2
        low = [[Fraction(rng.randint(-2, 2)) for _ in range(cols)]
               for _ in range(len(pairs))]
        for a, (k, alpha) in enumerate(pairs):
            for b, (m, beta) in enumerate(pairs):
                g = sum(low[a][t] * low[b][t] for t in range(cols))
                if g == 0:
                    continue
                entry = pi.entries[k][m]
                for j, part in entry.parts.items():
                    for delta, coef in part.terms.items():
                        gamma = tuple(p + q + r for p, q, r in
                                      zip(alpha, beta, delta))
                        bucket = total_parts.setdefault(j, {})
                        bucket[gamma] = bucket.get(gamma, Fraction(0)) + g * coef
    ft = InvariantPoly(4, {j: Polynomial(4, terms)
                           for j, terms in total_parts.items()})
    f = expand_invariants(ft, pres)
    assert f.degree() == 20
    assert verify_invariant(f, pres.generators)
    sdp = assemble_invariant_sos(ft, pres, pis, envs, with_lambda=False)
    inter, tname = with_interior_variable(sdp)
    sol = solve(inter, tol=1e-7)
    elapsed = time.time() - start
    margin = sol.free_values.get(tname, float("-inf"))
    # a decisively positive margin certifies feasibility even when the solve
    # stalls against the t <= 1 cap
    ok = margin > -1e-6 and elapsed < 600 and \
        sol.status in ("optimal", "max-iterations")
    report("8b degree-20 smoke", ok,
           f"margin={margin:.2e}, {elapsed:.0f}s, "
           f"blocks={[b.size for b in sdp.blocks]}")
