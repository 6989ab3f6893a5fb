"""The one literal replay: ``expand_certificate`` inside ``verify_certificate``."""

import random
from fractions import Fraction

import pytest

import symsos.certificates as certificates
import symsos.cli as cli
from symsos.certificates import (CertBlock, Certificate, algorithm_one,
                                 expand_certificate, round_certificate,
                                 sos_lower_bound, verify_certificate)
from symsos.fixtures import (ROBINSON_D4_TEXT, robinson_dihedral,
                             s3_published_certificate, symmetric_quartic)
from symsos.invariants import InvariantPoly, expand_invariants, theta_monomials
from symsos.poly import Polynomial, evaluate


def _by_construction(group: str, degree: int, seed: int, q: int = 1):
    """f and an exact certificate of f - c, by the degree-20 smoke recipe.

    Every Gram is L L^T / q for an integer L with two columns, over
    homogeneous weighted-degree envelopes; f collects sum_i <S_i, Pi_i> per
    (eta_j, theta^gamma), expands it once and adds a constant c.
    """
    bundle = algorithm_one(group)
    pres = bundle.pres
    s = len(pres.theta)
    rng = random.Random(seed)
    parts: dict[int, dict] = {}
    blocks = []
    for label in bundle.irrep_labels:
        pi = bundle.pis[label]
        env = []
        for dkk in pi.diagonal_degrees(pres):
            budget = (degree - dkk) // 2 if dkk <= degree and \
                (degree - dkk) % 2 == 0 else -1
            env.append(theta_monomials(pres.theta_degrees, budget, exactly=budget)
                       if budget >= 0 else [])
        pairs = [(k, alpha) for k, row in enumerate(env) for alpha in row]
        if not pairs:
            continue
        low = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in pairs]
        gram = [[(la[0] * lb[0] + la[1] * lb[1]) / q for lb in low] for la in low]
        for a, (k, alpha) in enumerate(pairs):
            for b, (l, beta) in enumerate(pairs):
                for j, part in pi.entries[k][l].parts.items():
                    bucket = parts.setdefault(j, {})
                    for delta, coef in part.terms.items():
                        gamma = tuple(p + q + r for p, q, r in zip(alpha, beta, delta))
                        bucket[gamma] = bucket.get(gamma, Fraction(0)) + \
                            gram[a][b] * coef
        blocks.append(CertBlock(label, env, gram, pi))
    ft = InvariantPoly(s, {j: Polynomial(s, t) for j, t in parts.items()})
    c = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
    f = expand_invariants(ft, pres) + c
    names = [f"x{i + 1}" for i in range(pres.nvars)]
    cert = Certificate("invariant", group, names, c, exact=True, pres=pres,
                       blocks=blocks)
    return f, cert


def _pairing_at(cert: Certificate, point) -> Fraction:
    """sum_i <S_i, Pi_i> evaluated at a point, without expanding anything."""
    pres = cert.pres
    theta = [evaluate(t, point) for t in pres.theta]
    eta = [evaluate(e, point) for e in pres.eta]

    def at(p: Polynomial) -> Fraction:
        return evaluate(p, theta)

    total = Fraction(0)
    for block in cert.blocks:
        pairs = [(k, alpha) for k, row in enumerate(block.rows) for alpha in row]
        pis = {}
        for a, (k, alpha) in enumerate(pairs):
            for b, (l, beta) in enumerate(pairs):
                if block.gram[a][b] == 0:
                    continue
                if (k, l) not in pis:
                    entry = block.pi.entries[k][l]
                    pis[k, l] = sum((eta[j] * at(p) for j, p in entry.parts.items()),
                                    Fraction(0))
                mono = Polynomial.monomial(len(theta), tuple(
                    x + y for x, y in zip(alpha, beta)))
                total += block.gram[a][b] * at(mono) * pis[k, l]
    return total


@pytest.mark.parametrize("group,degree,q", [
    pytest.param("symmetric:4", 6, 1, id="symmetric:4-6"),
    pytest.param("symmetric:4", 8, 1, id="symmetric:4-8"),
    pytest.param("c2n:3", 4, 1, id="c2n:3-4"),
    pytest.param("cyclic:4", 4, 1, id="cyclic:4-4"),
    # rational Grams: the replay's one denominator is lcm(Gram) * lcm(Pi)
    pytest.param("symmetric:4", 6, 6, id="symmetric:4-6-q6"),
    pytest.param("symmetric:4", 8, 6, id="symmetric:4-8-q6"),
])
def test_replay_of_by_construction_certificates(group, degree, q):
    f, cert = _by_construction(group, degree, seed=degree, q=q)
    if q > 1:
        assert any(g.denominator > 1 for block in cert.blocks
                   for row in block.gram for g in row)
    assert f.degree() == degree
    assert expand_certificate(cert) == f - cert.lam
    assert verify_certificate(cert, f)[0]
    rng = random.Random(group)
    for _ in range(2):
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(f.nvars)]
        assert _pairing_at(cert, point) == evaluate(f - cert.lam, point)


def _robinson_plain():
    f = robinson_dihedral()
    exact = round_certificate(sos_lower_bound(f, f"trivial:{f.nvars}")[1], f)
    assert verify_certificate(exact, f)[0]
    return f, exact


def _refuted_for_identity(cert, f):
    ok, report = verify_certificate(cert, f)
    assert not ok
    assert any("identity" in line for line in report), report


def test_lambda_shift_refuted_plain():
    f, exact = _robinson_plain()
    exact.lam += Fraction(1, 10 ** 6)
    _refuted_for_identity(exact, f)


def test_lambda_shift_refuted_invariant():
    cert = s3_published_certificate()
    cert.lam += Fraction(1, 10 ** 6)
    _refuted_for_identity(cert, symmetric_quartic())


def test_off_diagonal_perturbation_refuted_plain():
    # the Robinson Gram is singular, so the symmetric change at (0, 1) and
    # (1, 0) comes with the same change on both diagonals: a rank-one PSD term
    f, exact = _robinson_plain()
    d = Fraction(1, 10 ** 6)
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        exact.blocks[0].gram[a][b] += d
    _refuted_for_identity(exact, f)


def test_off_diagonal_perturbation_refuted_invariant():
    # both published blocks are positive definite with smallest eigenvalue
    # above 1e-6, so a symmetric off-diagonal change of 1e-7 keeps them PSD
    cert = s3_published_certificate()
    gram = cert.blocks[0].gram
    gram[0][1] += Fraction(1, 10 ** 7)
    gram[1][0] += Fraction(1, 10 ** 7)
    _refuted_for_identity(cert, symmetric_quartic())


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_rounding_does_not_replay(monkeypatch):
    f = robinson_dihedral()
    _, cert = sos_lower_bound(f, "dihedral:4")
    calls = _count_calls(monkeypatch, certificates, "verify_certificate")
    exact = round_certificate(cert, f)
    assert calls == []
    assert exact.lam == Fraction(-3825, 4096)
    assert verify_certificate(exact, f)[0]


def test_rounding_factors_each_block_once(monkeypatch):
    # the others and the minor of the traded block; the traded block itself
    # is PSD by the Schur complement and is not factored again
    f = robinson_dihedral()
    _, cert = sos_lower_bound(f, "dihedral:4")
    calls = _count_calls(monkeypatch, certificates, "ldl_decomposition")
    exact = round_certificate(cert, f)
    assert exact.lam == Fraction(-3825, 4096)      # the first schedule entry
    assert len(calls) == len(cert.program.blocks) == 4
    assert verify_certificate(exact, f)[0]


def test_bound_round_replays_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, certificates, "verify_certificate")
    calls_cli = _count_calls(monkeypatch, cli, "verify_certificate")
    rc = cli.main(["bound", "--group", "dihedral:4", "--poly", ROBINSON_D4_TEXT,
                   "--vars", "x,y", "--round"])
    assert rc == 0
    assert "-3825/4096" in capsys.readouterr().out
    assert len(calls) + len(calls_cli) == 1


def test_invariant_replay_expands_once(monkeypatch):
    calls = _count_calls(monkeypatch, certificates, "expand_invariants")
    ok, _ = verify_certificate(s3_published_certificate(), symmetric_quartic())
    assert ok
    assert len(calls) == 1
