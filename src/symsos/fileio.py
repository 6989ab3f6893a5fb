"""Self-contained text serialization of certificates.

The format has one mode, ``invariant``: it embeds the presentation, per-block
envelopes, Gram entries and Pi matrices, so verification needs no catalogs:
parse, expand, and compare.  A certificate for no symmetry is group
``trivial:n`` with theta = x, eta = 1 and one block ``theta1`` whose Pi is
[1].  Rationals are rendered "p/q"; theta/eta symbols are t1..ts and h2..ht.
A malformed or truncated file raises ValueError naming the offending line.
Exact values are written and read in full, however many digits they have.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

from .certificates import CertBlock, Certificate
from .equivariants import PiMatrix
from .invariants import InvariantPoly, InvariantPresentation
from .poly import Monomial, Polynomial, parse_polynomial, render_polynomial


@contextmanager
def unlimited_digits():
    """Lift Python's limit on int <-> str conversion (4,300 digits by default).

    An exact lambda or Gram entry can be longer; the limit guards parsers of
    untrusted text, and is restored on exit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):   # a Python with no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _mono_text(mono: Monomial, names: list[str]) -> str:
    if not any(mono):
        return "1"
    return "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                    for i, e in enumerate(mono) if e)


def _invariant_poly_text(ip: InvariantPoly, pres: InvariantPresentation) -> str:
    names = pres.symbol_names()
    parts = []
    for j, part in sorted(ip.parts.items()):
        for mono, coef in part.terms.items():
            full = tuple(mono) + tuple(0 if k != j - 1 else 1
                                       for k in range(len(pres.eta) - 1))
            parts.append((full, coef))
    if not parts:
        return "0"
    return render_polynomial(Polynomial(len(names), dict(parts)), names)


def _parse_invariant_poly(text: str, pres: InvariantPresentation) -> InvariantPoly:
    names = pres.symbol_names()
    poly = parse_polynomial(text, names)
    s = len(pres.theta)
    parts: dict[int, dict] = {}
    for mono, coef in poly.terms.items():
        theta_part, eta_part = mono[:s], mono[s:]
        js = [k for k, e in enumerate(eta_part) if e]
        if sum(eta_part) > 1:
            raise ValueError("eta symbols must appear linearly in Pi entries")
        j = js[0] + 1 if js else 0
        parts.setdefault(j, {})[theta_part] = coef
    return InvariantPoly(s, {j: Polynomial(s, terms) for j, terms in parts.items()})


def certificate_to_text(cert: Certificate) -> str:
    if not cert.exact:
        raise ValueError("only exact certificates are serialized")
    with unlimited_digits():
        return _certificate_text(cert)


def _certificate_text(cert: Certificate) -> str:
    lines = ["symsos-certificate v1", f"mode {cert.mode}", f"group {cert.group}",
             "vars " + " ".join(cert.var_names), f"lambda {cert.lam}",
             f"objective {cert.objective}"]
    pres = cert.pres
    lines.append(f"presentation nvars={pres.nvars}")
    lines += [f"theta {render_polynomial(p, cert.var_names)}" for p in pres.theta]
    lines += [f"eta {render_polynomial(p, cert.var_names)}" for p in pres.eta]
    lines.append("end-presentation")
    tnames = pres.symbol_names()
    for blk in cert.blocks:
        lines.append(f"block {blk.label}")
        for row in blk.rows:
            lines.append("row " + (" ".join(_mono_text(a, tnames[:len(pres.theta)])
                                            for a in row) if row else "empty"))
        size = sum(len(r) for r in blk.rows)
        lines.append(f"gram {size}")
        for r in range(size):
            for c in range(r, size):
                if blk.gram[r][c] != 0:
                    lines.append(f"{r} {c} {blk.gram[r][c]}")
        lines.append("end-gram")
        lines.append(f"pi {blk.pi.rank}")
        for r in range(blk.pi.rank):
            for c in range(r, blk.pi.rank):
                lines.append(f"{r} {c} "
                             f"{_invariant_poly_text(blk.pi.entries[r][c], pres)}")
        lines.append("end-pi")
        lines.append("end-block")
    lines.append("end")
    return "\n".join(lines)


def certificate_from_text(text: str) -> Certificate:
    """Parse a certificate file; a bad file raises ValueError naming its line."""
    numbered = [(n, ln) for n, ln in enumerate((s.strip() for s in text.splitlines()), 1)
                if ln and not ln.startswith("#")]
    at = 0

    def take(prefix: str = "") -> str:
        """The next line, which must start with ``prefix``."""
        nonlocal at
        if at == len(numbered):
            raise ValueError("the certificate ends here")
        at += 1
        if not numbered[at - 1][1].startswith(prefix):
            raise ValueError(f"expected {prefix!r}")
        return numbered[at - 1][1]

    try:
        with unlimited_digits():
            return _parse_certificate(take)
    except (ValueError, ZeroDivisionError) as exc:
        n, line = numbered[at - 1] if at else (0, "")
        raise ValueError(f"line {n} ({line!r}): {exc}") from None


def _parse_certificate(take) -> Certificate:
    if take() != "symsos-certificate v1":
        raise ValueError("not a certificate file")
    head = {}
    while not (line := take()).startswith("presentation"):
        tag, _, rest = line.partition(" ")
        if tag == "mode" and rest != "invariant":
            raise ValueError("certificates have one mode, invariant")
        head[tag] = rest
    var_names = head["vars"].split()
    lam = Fraction(head["lambda"])
    nvars = int(line.removeprefix("presentation nvars="))
    if len(var_names) != nvars:
        raise ValueError(f"vars lists {len(var_names)} names but the presentation "
                         f"has nvars={nvars}")
    theta, eta = [], []
    while (line := take()) != "end-presentation":
        tag, body = line.split(None, 1)
        (theta if tag == "theta" else eta).append(parse_polynomial(body, var_names))
    pres = InvariantPresentation(nvars, theta, eta, [], [])
    tnames = pres.symbol_names()[: len(theta)]
    blocks = []
    while (line := take()) != "end":
        if not line.startswith("block "):
            raise ValueError("expected 'block <label>'")
        label = line.split()[1]
        rows = []
        while (line := take()).startswith("row"):
            row, toks = [], line.split()[1:]
            for tok in [] if toks == ["empty"] else toks:
                [(mono, coef)] = parse_polynomial(tok, tnames).terms.items()
                if coef != 1:
                    raise ValueError(f"{tok!r} is not a theta-monomial")
                row.append(mono)
            rows.append(row)
        size = int(line.removeprefix("gram "))
        gram = [[Fraction(0)] * size for _ in range(size)]
        while (line := take()) != "end-gram":
            r, c, v = _entry(line, size)
            gram[r][c] = gram[c][r] = Fraction(v)
        rank = int(take("pi ")[3:])
        entries = [[None] * rank for _ in range(rank)]
        while (line := take()) != "end-pi":
            r, c, body = _entry(line, rank)
            entries[r][c] = entries[c][r] = _parse_invariant_poly(body, pres)
        if rank != len(rows) or size != sum(map(len, rows)) or \
                any(e is None for row in entries for e in row):
            raise ValueError(f"block {label} does not match its rows")
        take("end-block")
        blocks.append(CertBlock(label, rows, gram, PiMatrix(label, entries)))
    return Certificate("invariant", head["group"], var_names, lam, exact=True,
                       pres=pres, blocks=blocks,
                       objective=head.get("objective", "maximize-lambda"))


def _entry(line: str, size: int) -> tuple[int, int, str]:
    """(row, column, value) of an upper-triangle entry of a size x size matrix."""
    r, c, body = line.split(None, 2)
    if not 0 <= int(r) <= int(c) < size:
        raise ValueError(f"not an upper-triangle entry of a {size}x{size} matrix")
    return int(r), int(c), body
