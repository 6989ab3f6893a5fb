"""Reproduce the two classical lower-bound computations end to end.

Runs the dihedral Robinson variant and the symmetric quartic through the
invariant pipeline, rounds both to exact rational certificates, and replays
the certificates literally.  Exits 1 when a replay fails.
"""

import sys
import time

from symsos.certificates import (round_certificate, sos_lower_bound,
                                 verify_certificate)
from symsos.fileio import certificate_to_text
from symsos.fixtures import robinson_dihedral, symmetric_quartic


def run(name, f, group):
    t0 = time.time()
    lam, cert = sos_lower_bound(f, group)
    exact = round_certificate(cert, f)
    ok, _ = verify_certificate(exact, f)
    print(f"{name} ({group})")
    print(f"  block sizes     {cert.block_sizes()}")
    print(f"  lambda (float)  {lam:.12f}")
    print(f"  lambda (exact)  {exact.lam}")
    print(f"  exact replay    {'ok' if ok else 'FAILED'}  "
          f"[{time.time() - t0:.2f}s]")
    return exact, ok


def main() -> int:
    _, ok_robinson = run("Robinson variant", robinson_dihedral(), "dihedral:4")
    print()
    exact, ok_quartic = run("Symmetric quartic", symmetric_quartic(), "symmetric:3")
    print("\ncertificate file for the quartic:\n")
    print(certificate_to_text(exact))
    return 0 if ok_robinson and ok_quartic else 1


if __name__ == "__main__":
    sys.exit(main())
