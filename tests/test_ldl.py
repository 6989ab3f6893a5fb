"""The one exact PSD test: ``ldl_psd`` over ``ldl_decomposition``, with a reject-only witness."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from symsos.certificates import verify_certificate
from symsos.fixtures import s3_published_certificate, symmetric_quartic
from symsos.linalg import ldl_decomposition, ldl_psd, negative_direction

COUNTEREXAMPLE = [[2, -2, -1], [-2, 2, 0], [-1, 0, 1]]   # det -2


def _reconstruct(a):
    """L D L^T from the factorization, to compare with the input."""
    L, ds, _ = ldl_decomposition(a)
    n = len(a)
    return [[sum((L[i][k] * ds[k] * L[j][k] for k in range(len(ds))), Fraction(0))
              for j in range(n)] for i in range(n)]


def test_counterexample_refused():
    a = [[Fraction(x) for x in row] for row in COUNTEREXAMPLE]
    assert round(float(np.linalg.det(np.array(COUNTEREXAMPLE, float)))) == -2
    ok, why = ldl_psd(a)
    assert not ok, why
    w = negative_direction(a)
    assert w is not None
    assert sum(wi * a[i][j] * wj for i, wi in enumerate(w)
               for j, wj in enumerate(w)) < 0


def test_refusal_of_huge_entries_has_a_short_reason():
    # 1e-5000 is 0.0 in floating point, so the witness sees [[0, 0], [0, 1]]
    # and cannot refuse; the exact pivot -eps^2 at row 0 does
    eps = Fraction(1, 10 ** 5000)
    gram = [[Fraction(0), eps], [eps, Fraction(1)]]
    assert negative_direction(gram) is None
    ok, why = ldl_psd(gram)
    assert (ok, why) == (False, "negative pivot at row 0")
    long = Fraction(10 ** 5000 + 1, 10 ** 5000)
    ok, why = ldl_psd([[long, 2 * long], [2 * long, long]])
    assert (ok, why) == (False, "negative direction")
    big = Fraction(10 ** 5000 + 1, 3)       # beyond the float range
    ok, why = ldl_psd([[big, 2 * big], [2 * big, big]])
    assert (ok, why) == (False, "negative pivot at row 1")
    f = symmetric_quartic()
    cert = s3_published_certificate()
    cert.blocks[0].gram[0][0] = -long
    assert verify_certificate(cert, f) == \
        (False, ["block theta1: Gram not PSD (negative direction)"])
    cert = s3_published_certificate()
    cert.blocks[0].gram[0][0] += eps        # still PSD, but the identity fails
    ok, report = verify_certificate(cert, f)
    assert not ok and "identity" in report[0] and len(report[0]) < 80, report


def test_factorization_of_a_singular_gram():
    a = [[Fraction(x) for x in row] for row in ([4, 2, 2], [2, 1, 1], [2, 1, 5])]
    L, ds, perm = ldl_decomposition(a)
    assert len(ds) == 2 and all(d > 0 for d in ds)
    assert _reconstruct(a) == a
    for k, p in enumerate(perm):
        assert L[p][k] == 1 and all(L[q][k] == 0 for q in perm[:k])


def test_asymmetric_matrix_refused():
    ok, why = ldl_psd([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]])
    assert not ok and "symmetric" in why


entries = st.integers(-4, 4)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shift = draw(st.integers(0, 12))
    return [[Fraction(m[i][j] + m[j][i] + (shift if i == j else 0))
             for j in range(n)] for i in range(n)]


@st.composite
def llt_grams(draw):
    """L L^T for a random rational n x k factor, rank deficient when k < n."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    low = [[Fraction(draw(entries), draw(st.integers(1, 3))) for _ in range(k)]
           for _ in range(n)]
    return [[sum((x * y for x, y in zip(a, b)), Fraction(0)) for b in low]
            for a in low]


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_verdict_matches_eigenvalues(a):
    low = np.linalg.eigvalsh(np.array(a, float)).min()
    ok, why = ldl_psd(a)
    if abs(low) > 1e-6:
        assert ok == (low > 0), (a, why)


@settings(max_examples=300, deadline=None)
@given(llt_grams())
def test_every_llt_gram_accepted(gram):
    assert negative_direction(gram) is None
    assert ldl_psd(gram) == (True, "ok")
    assert _reconstruct(gram) == gram
