"""Self-test of the benchmark: the independent check and tracing.

Run from the repository root:

    PYTHONPATH=src:perfbench python -m pytest -q perfbench/test_perfbench.py
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from check import check_certificate, exact_psd  # noqa: E402
from spans import Tracer  # noqa: E402

INDEFINITE = [[3, 6, -2, 4, 2], [6, 36, 0, 0, -9], [-2, 0, 11, -3, 6],
              [4, 0, -3, 29, 8], [2, -9, 6, 8, 16]]


def test_exact_psd_rejects_indefinite_matrix():
    assert np.linalg.eigvalsh(np.array(INDEFINITE, float)).min() < -0.27
    ok, why = exact_psd(INDEFINITE)
    assert not ok, why


def _low_rank_grams(count=400, seed=7):
    rng = random.Random(seed)
    for _ in range(count):
        n, k = rng.randint(2, 6), rng.randint(1, 3)
        low = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
               for _ in range(n)]
        yield [[sum(a[t] * b[t] for t in range(k)) for b in low] for a in low]


def test_exact_psd_accepts_every_llt_gram():
    from symsos.linalg import ldl_psd
    grams = list(_low_rank_grams())
    assert all(exact_psd(g)[0] for g in grams)
    # in particular the ones the program's own LDL^T refuses
    refused = [g for g in grams if not ldl_psd(g)[0]]
    assert all(exact_psd(g)[0] for g in refused)


def test_exact_psd_matches_eigenvalues_on_random_matrices():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        sym = [[m[i][j] + m[j][i] + (rng.randint(0, 12) if i == j else 0)
                for j in range(n)] for i in range(n)]
        low = np.linalg.eigvalsh(np.array(sym, float)).min()
        if abs(low) > 1e-9:
            assert exact_psd(sym)[0] == (low > 0)


def test_identity_check_accepts_published_and_refutes_corrupted():
    from symsos.fixtures import s3_published_certificate, symmetric_quartic
    cert, f = s3_published_certificate(), symmetric_quartic()
    assert check_certificate(cert, f, seed=1)[0]
    cert.blocks[0].gram[0][0] += Fraction(1, 10 ** 6)
    assert not check_certificate(cert, f, seed=1)[0]


def _one_pass(work, tracer=None):
    out = []
    for op in work.ops:
        if tracer is not None:
            tracer.op = len(out)
            tracer.phase = "op"
        res = op.run()
        if res is None:
            continue
        if tracer is not None:
            tracer.phase = "check"
        if res.post is not None:
            res.post()
        if op.cross_check is not None:
            op.cross_check(res)
        out.append((op.name, res.cls, res.lam))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_outcome(name, tmp_path):
    work = workloads.WORKLOADS[name](5, str(tmp_path), short=True)
    plain = _one_pass(work)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _one_pass(work, tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans, "no span was recorded"
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "cli-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
