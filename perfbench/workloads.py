"""The three workloads: seeded instance lists, ops and expected outcomes.

Each workload is a closed loop from one client over a fixed list of ops; the
next op starts when the previous one returns.  An op returns an ``Outcome``
that is classified against the instance's expected outcome, and every
certificate the program emits or accepts goes through ``check``.  Exceptions
are caught per op and recorded by class, so one crash does not end the run.
Every instance keeps its place in the list whatever its outcome.

Outcomes and op times repeat from pass to pass but differ from one random
draw to the next, and a run holds too few draws to average that out.  The
random draws therefore come from fixed streams; the seed moves the constant
terms of the by-construction polynomials (cli-mix, s4-invariant) and the
order of the ops (isotypic).

* ``cli-mix``      short in-process ``symsos`` CLI calls: bound/round/write
                   followed by verify of the written file, verify of exact
                   by-construction S4 certificates, molien and generators.
* ``s4-invariant`` the invariant-ring route sos_lower_bound -> round_certificate
                   -> verify_certificate on by-construction S4 instances of
                   degree 6, 8 and 10 plus the degree-8 instance of the ROADMAP.
* ``isotypic``     the block-diagonalization route symmetry_adapted_basis ->
                   assemble_gram -> restrict_invariant -> solve -> polish ->
                   lift, cross-checked against an unreduced solve that is
                   timed apart from the op.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import instances as inst
from check import check_certificate
# bound before any tracing is installed, so output checks record no spans
from symsos.fileio import certificate_from_text as read_certificate

TOL = 1e-8  # the CLI default


@dataclass
class Outcome:
    name: str
    cls: str = "ok"               # "ok" or the failure class
    detail: str = ""
    lam: float | None = None      # float bound reported by the program
    cert_bits: int | None = None  # bits of an emitted exact certificate
    unsound: bool = False         # program accepted what the check refutes
    post: Callable[[], None] | None = None  # output check, run untimed

    @property
    def failed(self) -> bool:
        return self.cls != "ok"


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    cross_check: Callable[[Outcome], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    rationale: str


def cert_bits(cert) -> int:
    """Numerator plus denominator bits of lambda and every Gram entry."""
    vals = [Fraction(cert.lam)]
    grams = [cert.gram] if cert.mode == "plain" else [b.gram for b in cert.blocks]
    for g in grams:
        vals.extend(Fraction(x) for row in g for x in row)
    return sum(v.numerator.bit_length() + v.denominator.bit_length() for v in vals)


def _near(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * (1 + abs(target))


def _exc_outcome(name: str, exc: BaseException) -> Outcome:
    return Outcome(name, type(exc).__name__, str(exc)[:160])


def _judge_cert(out: Outcome, cert, f, pinned, seed: int) -> Outcome:
    """Schedule the independent check of a certificate the program emitted or
    accepted; ``cert`` may be a zero-argument loader.  Runs after the op."""
    def post():
        c = cert() if callable(cert) else cert
        ok, why = check_certificate(c, f, seed)
        if not ok:
            out.cls, out.detail, out.unsound = "unsound-accept", why, True
            return
        out.cert_bits = cert_bits(c)
        if pinned is not None and not _near(float(c.lam), pinned, 1e-5):
            out.cls, out.detail = "wrong-lambda", f"lambda {c.lam} vs {pinned}"
    out.post = post
    return out


def _load(path: str):
    def load():
        with open(path) as fh:
            return read_certificate(fh.read())
    return load


# Ops import the program's functions when they run, not at module level, so
# that a traced run reaches them through the wrappers installed on symsos.

# -- cli-mix --------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from symsos.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _exit_class(rc: int, err: str) -> tuple[str, str]:
    first = err.strip().splitlines()[0] if err.strip() else ""
    return f"exit-{rc}", first[:160]


def _partitions_at_most(d: int, parts: int) -> int:
    """Partitions of d into at most ``parts`` parts: S_n invariants of degree d."""
    table = [1] + [0] * d
    for k in range(1, parts + 1):
        for v in range(k, d + 1):
            table[v] += table[v - k]
    return table[d] if d >= 0 else 0


def cli_mix(seed: int, workdir: str, short: bool = False) -> Workload:
    from symsos.certificates import algorithm_one
    from symsos.fileio import certificate_to_text
    rng = random.Random(seed)
    # Rounding succeeds or fails on a by-construction instance depending on
    # the draw, and with one draw per pass that turns fail_frac into a
    # lottery across seeds.  The draws therefore come from a fixed stream;
    # the seed moves the constant term of the two S4 certificates, which
    # changes their text but not how the program treats them.
    fixed_rng = random.Random("cli-mix instances")
    s4 = algorithm_one("symmetric:4")
    c2n3 = algorithm_one("c2n:3")
    cyc4 = algorithm_one("cyclic:4")
    robinson, quartic = inst.robinson(), inst.s3_quartic()
    bounds = [
        ("dihedral:4", robinson), ("trivial:2", robinson),
        ("symmetric:3", quartic), ("trivial:3", quartic),
        ("c2n:1", inst.fixed("line", inst.LINE_TEXT, ["x"], pinned=inst.TARGET_LINE)),
        ("c2n:3", inst.by_construction(c2n3, 4, fixed_rng, "c2n:3 quartic")),
        ("cyclic:4", inst.by_construction(cyc4, 4, fixed_rng, "cyclic:4 quartic")),
        ("symmetric:6", inst.sym_quadratic(6, fixed_rng)),
        ("dihedral:6", inst.fixed("dihedral:6 quadratic", inst.DIHEDRAL6_TEXT,
                                  inst.var_names(6), pinned=1.0)),
        ("trivial:2", inst.fixed("motzkin", inst.MOTZKIN_TEXT, ["x", "y"],
                                 expect="no-certificate")),
    ]
    # whether the program's LDL^T refuses a certificate, and at which block,
    # also makes its verify take 0.02 s or 4 s
    exact_certs = [inst.shifted(inst.by_construction(
        s4, d, fixed_rng, f"symmetric:4 degree {d}"),
        Fraction(rng.randint(-40, 40), rng.randint(1, 9))) for d in (6, 8)]
    state: dict[str, bool] = {}
    ops: list[Op] = []

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def bound_op(k: int, group: str, pi: inst.PolyInstance) -> tuple[Op, Op]:
        poly_path = write(f"bound{k}.poly", pi.file_text())
        cert_path = os.path.join(workdir, f"bound{k}.cert")
        label = f"bound {group} {pi.name}"

        def run() -> Outcome:
            if os.path.exists(cert_path):
                os.remove(cert_path)
            rc, out, err = _cli(["bound", "--group", group, "--poly", poly_path,
                                 "--round", "--out", cert_path])
            state[cert_path] = rc == 0 and os.path.exists(cert_path)
            res = Outcome(label)
            for line in out.splitlines():
                if line.startswith("lambda (float)"):
                    res.lam = float(line.split()[-1])
            if pi.expect == "no-certificate":
                if rc != 2:
                    res.cls, res.detail = f"exit-{rc}", "expected exit 2"
                return res
            if not state[cert_path]:
                res.cls, res.detail = _exit_class(rc, err)
                return res
            return _judge_cert(res, _load(cert_path), pi.poly, pi.pinned, seed + k)

        def verify() -> Outcome:
            rc, out, err = _cli(["verify", "--cert", cert_path, "--poly", poly_path])
            res = Outcome(f"verify {group} {pi.name}")
            if rc != 0:
                res.cls, res.detail = _exit_class(rc, err)
                return res
            return _judge_cert(res, _load(cert_path), pi.poly, None, seed + k)

        return Op(label, run), Op(f"verify {group} {pi.name}", verify)

    for k, (group, pi) in enumerate(bounds):
        b, v = bound_op(k, group, pi)
        ops.append(b)
        if pi.expect == "certify":
            # verify runs only on a file the bound call wrote
            path = os.path.join(workdir, f"bound{k}.cert")
            ops.append(Op(v.name, (lambda v=v, p=path: v.run() if state.get(p)
                                   else None)))
    for k, pi in enumerate(exact_certs):
        poly_path = write(f"exact{k}.poly", pi.file_text())
        cert_path = write(f"exact{k}.cert", certificate_to_text(pi.cert) + "\n")

        def run(pi=pi, poly_path=poly_path, cert_path=cert_path, k=k) -> Outcome:
            rc, out, err = _cli(["verify", "--cert", cert_path, "--poly", poly_path])
            res = Outcome(f"verify {pi.name}")
            if rc != 0:
                res.cls, res.detail = _exit_class(rc, err)
                return res
            return _judge_cert(res, pi.cert, pi.poly, None, seed + 100 + k)

        ops.append(Op(f"verify {pi.name}", run))

    def molien(group: str, n: int) -> Op:
        def run() -> Outcome:
            rc, out, err = _cli(["molien", "--group", group])
            res = Outcome(f"molien {group}")
            if rc != 0:
                res.cls, res.detail = _exit_class(rc, err)
                return res
            rows = {ln.split()[0]: [int(v) for v in ln.split()[1:]]
                    for ln in out.splitlines()[1:] if ln.strip()}
            first = next(iter(rows.values()))
            want_total = [math.comb(n + d - 1, d) for d in range(11)]
            want_triv = [_partitions_at_most(d, n) for d in range(11)]
            if rows.get("total") != want_total or first != want_triv:
                res.cls, res.detail = "wrong-table", "total or trivial row differs"
            return res
        return Op(f"molien {group}", run)

    def generators(group: str) -> Op:
        def run() -> Outcome:
            rc, out, err = _cli(["generators", "--group", group])
            res = Outcome(f"generators {group}")
            if rc != 0:
                res.cls, res.detail = _exit_class(rc, err)
            elif "module rank" not in out or "missing module data" in out:
                res.cls, res.detail = "wrong-table", "module data missing"
            return res
        return Op(f"generators {group}", run)

    ops += [molien("symmetric:4", 4), molien("symmetric:5", 5),
            generators("cyclic:4"), generators("symmetric:3")]
    return Workload(ops, (
        "the short calls a user types; per-call fixed costs dominate: bundle "
        "construction, per-iteration Python overhead, the triple replay, "
        "Molien series, certificate files written and read back"))


# -- s4-invariant ---------------------------------------------------------------


def s4_invariant(seed: int, workdir: str, short: bool = False) -> Workload:
    from symsos.certificates import algorithm_one
    # The op time of a by-construction instance depends on the draw (the
    # solver's iteration count, which rounding path fails): with one to three
    # draws per degree, op_s_p50 and op_s_tail read 15-40 % apart across
    # seeds.  The Grams therefore come from a fixed stream and the seed
    # moves each instance's constant term.
    rng = random.Random(seed)
    fixed_rng = random.Random("s4-invariant instances")
    s4 = algorithm_one("symmetric:4")
    counts = {6: 1, 8: 1} if short else {6: 1, 8: 3, 10: 1}
    polys = [inst.shifted(inst.by_construction(s4, d, fixed_rng, f"degree {d} #{r}"),
                          Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
             for d, count in counts.items() for r in range(count)]
    if not short:
        polys.append(inst.fixed("roadmap degree 8", inst.ROADMAP_S4_TEXT,
                                inst.var_names(4)))

    def op(k: int, pi: inst.PolyInstance) -> Op:
        def run() -> Outcome:
            from symsos.certificates import (round_certificate, sos_lower_bound,
                                             verify_certificate)
            from symsos.poly import parse_polynomial
            res = Outcome(pi.name)
            try:
                f = parse_polynomial(pi.text, pi.variables)
                lam, cert = sos_lower_bound(f, "symmetric:4", tol=TOL)
                res.lam = lam
                exact = round_certificate(cert, f)
                ok, report = verify_certificate(exact, f)
            except Exception as exc:  # noqa: BLE001 - every crash is a result
                out = _exc_outcome(pi.name, exc)
                out.lam = res.lam
                return out
            if not ok:
                res.cls, res.detail = "verify-refused", "; ".join(report)[:160]
                return res
            return _judge_cert(res, exact, pi.poly, pi.pinned, seed + k)
        return Op(pi.name, run)

    return Workload([op(k, p) for k, p in enumerate(polys)], (
        "blocks of size 12-23 and m = 27-94 constraints, so Schur assembly, "
        "exact elimination, exact LDL^T and bundle_for carry the op"))


# -- isotypic -------------------------------------------------------------------


def isotypic(seed: int, workdir: str, short: bool = False) -> Workload:
    from symsos.certificates import algorithm_one
    from symsos.groups import catalog
    from symsos.isotypic import induced_representation
    # A reduced and an unreduced solve disagree on about one random instance
    # in 80, so a seeded batch would put a failure into some runs and not
    # others.  The draws come from a fixed stream; the seed only orders the
    # ops of a pass.
    rng = random.Random("isotypic instances")
    s4 = algorithm_one("symmetric:4")
    c2n3 = algorithm_one("c2n:3")
    polys = [
        ("dihedral:4", inst.robinson()), ("symmetric:3", inst.s3_quartic()),
        ("c2n:3", inst.by_construction(c2n3, 4, rng, "c2n:3 quartic")),
        ("dihedral:6", inst.fixed("dihedral:6 quadratic", inst.DIHEDRAL6_TEXT,
                                  inst.var_names(6), pinned=1.0)),
        ("symmetric:4", inst.by_construction(s4, 4, rng, "symmetric:4 degree 4")),
    ]
    sdps = []
    sdps_per_group = 1 if short else 2
    for group, d in inst.SDP_GROUPS:
        rep = induced_representation(catalog(group).action, d)
        for r in range(sdps_per_group):
            sdps.append(inst.random_invariant_sdp(rep, rng, f"sdp {group} #{r}",
                                                  group, d))

    def agree(a: float, b: float) -> bool:
        return _near(a, b, 1e-6)

    def poly_op(group: str, pi: inst.PolyInstance) -> Op:
        keep = {}

        def run() -> Outcome:
            from symsos.isotypic import (induced_representation,
                                         symmetry_adapted_basis)
            from symsos.groups import catalog
            from symsos.sdp import assemble_gram, restrict_invariant
            from symsos.solver import polish_solution, solve
            from symsos.poly import parse_polynomial
            res = Outcome(f"{group} {pi.name}")
            try:
                f = parse_polynomial(pi.text, pi.variables)
                cat = catalog(group)
                rep = induced_representation(cat.action, f.degree() // 2)
                sab = symmetry_adapted_basis(rep, cat)
                sdp = assemble_gram(f, with_lambda=True)
                red, rmap = restrict_invariant(sdp, rep, sab)
                sol = polish_solution(red, solve(red, tol=TOL))
                rmap.lift(sol.blocks)
                res.lam = sol.free_values["lambda"]
            except Exception as exc:  # noqa: BLE001
                return _exc_outcome(res.name, exc)
            keep["sdp"] = sdp
            if pi.pinned is not None and not agree(res.lam, pi.pinned):
                res.cls, res.detail = "wrong-lambda", f"{res.lam} vs {pi.pinned}"
            return res

        def cross(res: Outcome) -> None:
            from symsos.solver import polish_solution, solve
            sdp = keep.pop("sdp", None)
            if sdp is None or res.failed:
                return
            if "full" not in keep:  # the unreduced optimum repeats exactly
                keep["full"] = polish_solution(sdp, solve(sdp, tol=TOL))
            v = keep["full"].free_values["lambda"]
            if not agree(res.lam, v):
                res.cls, res.detail = "reduced-vs-full", f"{res.lam} vs {v}"

        return Op(f"{group} {pi.name}", run, cross)

    def sdp_op(si: inst.SDPInstance) -> Op:
        keep = {}

        def run() -> Outcome:
            from symsos.groups import catalog
            from symsos.isotypic import (induced_representation,
                                         symmetry_adapted_basis)
            from symsos.sdp import restrict_invariant
            from symsos.solver import polish_solution, solve
            res = Outcome(si.name)
            try:
                cat = catalog(si.group)
                rep = induced_representation(cat.action, si.degree)
                sab = symmetry_adapted_basis(rep, cat)
                red, rmap = restrict_invariant(si.sdp, rep, sab)
                sol = polish_solution(red, solve(red, tol=TOL))
                lifted = rmap.lift(sol.blocks)
            except Exception as exc:  # noqa: BLE001
                return _exc_outcome(si.name, exc)
            res.lam = sol.objective
            keep["ok"] = True

            def post():
                # the lifted full-size solution must carry the same objective
                n = si.sdp.blocks[0].size
                cmat = np.zeros((n, n))
                for (_, _, r, c), v in si.sdp.cost.items():
                    cmat[r, c] += float(v) / (1 if r == c else 2)
                    if r != c:
                        cmat[c, r] += float(v) / 2
                if not agree(float(np.tensordot(cmat, lifted)), sol.objective):
                    res.cls, res.detail = "lift-mismatch", "lifted objective differs"
            res.post = post
            return res

        def cross(res: Outcome) -> None:
            from symsos.solver import polish_solution, solve
            if not keep.pop("ok", False) or res.failed:
                return
            if "full" not in keep:  # the unreduced optimum repeats exactly
                keep["full"] = polish_solution(si.sdp, solve(si.sdp, tol=TOL))
            full = keep["full"]
            if not agree(res.lam, full.objective):
                res.cls, res.detail = "reduced-vs-full", \
                    f"{res.lam} vs {full.objective}"

        return Op(si.name, run, cross)

    ops = [poly_op(g, p) for g, p in polys] + [sdp_op(s) for s in sdps]
    random.Random(seed).shuffle(ops)
    return Workload(ops, (
        "the only route through groups, isotypic and sdp.restrict_invariant; it "
        "bypasses bundle_for, rounding and replay, so optimisations there must "
        "leave it unchanged.  The S4 degree-6 instance is left out only "
        "because restrict_invariant takes about 93 s on it; its routes already "
        "disagree (invariant 2.14770, isotypic 2.14709, plain 2.14336)"))


WORKLOADS = {"cli-mix": cli_mix, "s4-invariant": s4_invariant,
             "isotypic": isotypic}
