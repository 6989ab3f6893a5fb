"""Command-line interface.

Subcommands:
  bound       SOS lower bound for an invariant polynomial (optionally rounded
              to an exact rational certificate file)
  molien      per-irrep multiplicity table of a catalog group
  generators  invariants, module ranks, and Pi matrices of a catalog group
  verify      replay a certificate file against a polynomial, exactly

Exit codes: 0 ok, 1 usage error, 2 no certificate found, 3 verification failed.
"""

from __future__ import annotations

import argparse
import math
import sys

from .certificates import (NoCertificateError, RoundingError, algorithm_one,
                           round_certificate, sos_lower_bound,
                           verify_certificate)
from .fileio import (_invariant_poly_text, certificate_from_text, certificate_to_text,
                     unlimited_digits)
from .groups import catalog as load_catalog
from .invariants import render_presentation
from .molien import dimension_table
from .poly import PolynomialSyntaxError, default_variables, parse_polynomial


def _read_poly_arg(text_or_path: str, variables: list[str] | None):
    text = text_or_path
    try:
        with open(text_or_path) as fh:
            text = fh.read()
    except OSError:
        pass
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].startswith("vars"):
        variables = lines[0].split()[1:]
        text = " ".join(lines[1:])
    else:
        text = " ".join(lines) if lines else text
    if variables is None:
        import re
        names = sorted(set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text)))
        variables = names
    return parse_polynomial(text, variables), variables


def _cmd_bound(args) -> int:
    if args.out and not args.round:
        raise ValueError("--out writes the exact certificate; it needs --round")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be a finite positive number, not {args.tol}")
    variables = args.vars.split(",") if args.vars else None
    f, variables = _read_poly_arg(args.poly, variables)
    try:
        lam, cert = sos_lower_bound(f, args.group, tol=args.tol)
    except NoCertificateError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return 2
    print(f"group          {args.group}")
    print(f"block sizes    {cert.block_sizes()}")
    print(f"status         {cert.status}")
    print(f"lambda (float) {lam:.12g}")
    if args.round:
        try:
            exact = round_certificate(cert, f)
        except RoundingError as exc:
            print(f"rounding failed: {exc}", file=sys.stderr)
            return 2
        ok, _ = verify_certificate(exact, f)
        if not ok:
            print("internal error: rounded certificate failed verification",
                  file=sys.stderr)
            return 3
        with unlimited_digits():
            print(f"lambda (exact) {exact.lam}")
        if args.out:
            # the file names the variables the polynomial was parsed with
            exact.var_names = list(variables)
            with open(args.out, "w") as fh:
                fh.write(certificate_to_text(exact) + "\n")
            print(f"certificate    {args.out}")
    return 0


def _cmd_molien(args) -> int:
    cat = load_catalog(args.group)
    table = dimension_table(cat, args.dmax)
    width = max(len(k) for k in table)
    cols = args.dmax + 1
    header = " " * (width + 1) + "".join(f"{d:>6}" for d in range(cols))
    print(header)
    for label in [r.label for r in cat.irreps] + ["total"]:
        row = table[label]
        print(f"{label:<{width}} " + "".join(f"{v:>6}" for v in row))
    return 0


def _cmd_generators(args) -> int:
    bundle = algorithm_one(args.group)
    print(render_presentation(bundle.pres, default_variables(bundle.pres.nvars)))
    for label in bundle.irrep_labels:
        pi = bundle.pis[label]
        basis = bundle.bases[label]
        print(f"irrep {label}: module rank {basis.rank}, "
              f"generator degrees {basis.degrees}")
        for r in range(pi.rank):
            for c in range(r, pi.rank):
                print(f"  Pi[{r + 1},{c + 1}] = "
                      f"{_invariant_poly_text(pi.entries[r][c], bundle.pres)}")
    if bundle.missing:
        print(f"missing module data: {bundle.missing}")
    return 0


def _cmd_verify(args) -> int:
    with open(args.cert) as fh:
        cert = certificate_from_text(fh.read())
    f, _ = _read_poly_arg(args.poly, cert.var_names)
    ok, report = verify_certificate(cert, f)
    for line in report:
        print(line)
    return 0 if ok else 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="symsos",
                                     description="symmetry-exploiting sums of squares")
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound", help="SOS lower bound of an invariant polynomial")
    pb.add_argument("--group", required=True,
                    help="catalog spec, e.g. dihedral:4, symmetric:3, c2n:2, trivial:2")
    pb.add_argument("--poly", required=True, help="polynomial text or file path")
    pb.add_argument("--vars", help="comma-separated variable names")
    pb.add_argument("--round", action="store_true",
                    help="round to an exact rational certificate")
    pb.add_argument("--out", help="write the exact certificate to this file "
                    "(needs --round)")
    pb.add_argument("--tol", type=float, default=1e-8)
    pb.set_defaults(fn=_cmd_bound)

    pm = sub.add_parser("molien", help="isotypic multiplicity table")
    pm.add_argument("--group", required=True)
    pm.add_argument("--dmax", type=int, default=10)
    pm.set_defaults(fn=_cmd_molien)

    pg = sub.add_parser("generators", help="invariants and Pi matrices")
    pg.add_argument("--group", required=True)
    pg.set_defaults(fn=_cmd_generators)

    pv = sub.add_parser("verify", help="exactly replay a certificate")
    pv.add_argument("--cert", required=True)
    pv.add_argument("--poly", required=True)
    pv.set_defaults(fn=_cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (PolynomialSyntaxError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its key; print the bare message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
