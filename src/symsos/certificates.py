"""End-to-end SOS lower bounds, rational rounding, and exact verification.

The two preprocessing/solving stages mirror the classical split: a
group-dependent stage collects the invariant presentation, equivariant module
bases and their Gram matrices Pi into a :class:`GeneratorBundle`; an
instance-dependent stage rewrites the target polynomial in the invariants,
bounds the SOS factor supports by weighted degree, assembles coupled Gram
blocks, solves, and polishes.  Every group takes this route, ``trivial:n``
included: its one block is the plain Gram matrix over the x-monomials.

The group-dependent stage runs once per process: ``algorithm_one`` keeps the
bundle of each catalog spec string, and ``symmetric_bundle`` that of each
(n, max_degree) pair, so every later bound on the same group reuses it.  A
bundle is shared, and callers treat it as read-only.  Group data comes only
from the catalog: a spec string names both the irreps and the presentation.

Numeric optima are turned into exact certificates by rounding the free
parameters of the exact elimination of the assembly a float certificate
carries (``Certificate.program``; an exact certificate drops it).  That is
the elimination the solve built, ``BlockSDP.solution_set``, so each bound
eliminates its system once: pivot entries are recomputed exactly, so the
polynomial identity holds by construction.  Each free value's continued
fraction is expanded once, in integers, and read at every denominator bound
of the rounding schedule (``ContinuedFraction``).  The certificate's blocks pair
with the program's blocks by position.  With the free variables first, the
bound pivots the constant equation, lambda = c - X00 - ..., where X00 is a
free diagonal entry no other pivot uses; rounding sets X00 to the least
value that keeps its block PSD, read from the LDL^T of the minor X00
leaves alone, and lambda follows exactly.  The other blocks are screened
once for an exact negative direction and factored by the rational LDL^T
(``linalg.ldl_decomposition``), and so is that minor M.  The traded block is
then PSD by construction: with M PSD, the rest v of column 0 in the range of
M, and X00 = v^T M^+ v, its Schur complement is zero, so it is not factored
again.  Each rounded block is factored once.  Rounding does not replay the
identity.
``verify_certificate`` is the one literal replay: every block tested by
``ldl_psd``, then sum_i <S_i, Pi_i> collected per (eta_j, theta^gamma) and
expanded into the original variables once.  Refusal reasons name a block, a
row and a sign, never an entry.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import add
from fractions import Fraction
from typing import Sequence

import numpy as np

from .equivariants import (EquivariantBasis, MissingEquivariantData, PiMatrix,
                           equivariant_catalog, monomial_envelope, pi_matrix)
from .groups import IrrepCatalog, catalog as load_catalog, parse_spec
from .invariants import (InvariantPoly, InvariantPresentation,
                         presentation as load_presentation_for,
                         rewrite_in_invariants, expand_invariants,
                         weighted_degree, symmetric_presentation)
from .linalg import (NotPSD, Parametrization, dot, ldl_decomposition, ldl_psd,
                     negative_direction)
from .poly import Monomial, Polynomial, _integer_form, default_variables
from .sdp import (AssemblyInfeasible, BlockSDP, VarKey, assemble_invariant_sos,
                  with_interior_variable)
from .solver import SDPSolution, solve, polish_solution

DEFAULT_SCHEDULE = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 6)
FEAS_MARGIN = 1e-7        # a feasibility margin below -FEAS_MARGIN refuses
ROUNDING_QUALITY = 1e-6   # a rounded bound this close to the float one is taken


class NoCertificateError(RuntimeError):
    pass


class RoundingError(RuntimeError):
    pass


@dataclass
class GeneratorBundle:
    """Group-dependent data: presentation, module bases, Pi matrices."""

    group: str
    catalog: IrrepCatalog | None
    pres: InvariantPresentation
    bases: dict[str, EquivariantBasis]
    pis: dict[str, PiMatrix]
    missing: list[str] = field(default_factory=list)

    @property
    def irrep_labels(self) -> list[str]:
        if self.catalog is not None:
            return [r.label for r in self.catalog.irreps if r.label in self.pis]
        return list(self.pis)


_CATALOG_BUNDLES: dict[str, GeneratorBundle] = {}
_SYMMETRIC_BUNDLES: dict[tuple[int, int], GeneratorBundle] = {}


def algorithm_one(spec: str) -> GeneratorBundle:
    """Collect invariants, module bases and Pi matrices for a catalog group.

    Built once per process for each spec string; later calls return the
    shared bundle.
    """
    bundle = _CATALOG_BUNDLES.get(spec)
    if bundle is None:
        bundle = _CATALOG_BUNDLES[spec] = _catalog_bundle(load_catalog(spec))
    return bundle


def _catalog_bundle(catalog: IrrepCatalog) -> GeneratorBundle:
    pres = load_presentation_for(catalog)
    bases, missing = equivariant_catalog(catalog, pres)
    pis = {label: pi_matrix(basis, pres) for label, basis in bases.items()}
    return GeneratorBundle(catalog.name, catalog, pres, bases, pis, missing)


def symmetric_bundle(n: int, max_degree: int) -> GeneratorBundle:
    """Analytic bundle for coordinate permutations on any number of variables.

    Only the trivial and (embedded) standard modules can contribute below
    degree 3, so bounded-degree instances avoid materializing the n! group
    elements; generators above the degree budget are trimmed before the Gram
    matrices are computed.  Built once per process for each (n, max_degree).
    """
    bundle = _SYMMETRIC_BUNDLES.get((n, max_degree))
    if bundle is None:
        bundle = _SYMMETRIC_BUNDLES[(n, max_degree)] = _symmetric_bundle(n, max_degree)
    return bundle


def _symmetric_bundle(n: int, max_degree: int) -> GeneratorBundle:
    from .equivariants import _power_sum_centered
    pres = symmetric_presentation(n)
    gens = pres.generators
    one = Polynomial.constant(n, 1)
    bases: dict[str, EquivariantBasis] = {
        "trivial": EquivariantBasis("trivial", n, [(one,)],
                                    [[[Fraction(1)]] for _ in gens], gens),
    }
    std_vecs = [_power_sum_centered(n, k) for k in range(1, n)
                if 2 * k <= max_degree]
    if std_vecs:
        bases["standard"] = EquivariantBasis("standard", n, std_vecs,
                                             [g.matrix() for g in gens], gens)
    for b in bases.values():
        b.verify()
    pis = {label: pi_matrix(basis, pres) for label, basis in bases.items()}
    return GeneratorBundle(f"symmetric:{n}", None, pres, bases, pis,
                           missing=[f"modules beyond degree {max_degree} omitted"])


def bundle_for(group_spec: str, max_degree: int | None = None) -> GeneratorBundle:
    family, n, _ = parse_spec(group_spec)
    if family == "symmetric":
        if max_degree is not None and max_degree <= 2:
            # quadratic instances need only the analytic trivial + standard
            # modules, for any number of variables
            return symmetric_bundle(n, max_degree)
        if n > 5:
            raise MissingEquivariantData(
                "symmetric groups beyond n=5 are only bundled for quadratics")
    return algorithm_one(group_spec)


# -- certificates -------------------------------------------------------------------


@dataclass
class CertBlock:
    label: str
    rows: list[list[Monomial]]        # theta-monomial envelope per generator row
    gram: list                        # exact Matrix or float ndarray
    pi: PiMatrix


@dataclass
class Certificate:
    mode: str                         # always "invariant": sum_i <S_i, Pi_i>
    group: str                        # catalog spec; "trivial:n" for no symmetry
    var_names: list[str]
    lam: Fraction | float
    exact: bool
    pres: InvariantPresentation | None = None   # (theta, eta) of the group
    blocks: list[CertBlock] = field(default_factory=list)  # one per irrep used
    objective: str = "maximize-lambda"
    program: BlockSDP | None = None   # the assembly a float certificate solves
    status: str = ""                  # solver status of that solve
    margin: float | None = None       # interior margin of a feasibility solve

    def block_sizes(self) -> list[int]:
        return [sum(len(r) for r in b.rows) for b in self.blocks]


def expand_certificate(cert: Certificate) -> Polynomial:
    """The literal replay: sum_i <S_i, Pi_i> expanded into x.

    Products of Gram and Pi entries are collected per (eta_j, theta^gamma)
    over each block's upper triangle, off-diagonal pairs doubled (Grams and
    Pi are symmetric; ``verify_certificate`` checks the Grams first), in
    integers over one denominator: the lcm of the Gram denominators times
    the lcm of the Pi denominators.  The collected sum is expanded once.
    """
    s = len(cert.pres.theta)
    # pairs list the rows in order, so a <= b reads Pi only at k <= l
    pis = [{(k, l): [(j, _integer_form(part.terms))
                     for j, part in block.pi.entries[k][l].parts.items()]
            for k in range(block.pi.rank) for l in range(k, block.pi.rank)}
           for block in cert.blocks]
    pden = math.lcm(*(d for pi in pis for entry in pi.values() for _, (_, d) in entry))
    gden = math.lcm(*(g.denominator for block in cert.blocks
                      for row in block.gram for g in row))
    parts: dict[int, dict[Monomial, int]] = {}
    for block, pi in zip(cert.blocks, pis):
        pairs = [(k, alpha) for k, row in enumerate(block.rows) for alpha in row]
        for a, (k, alpha) in enumerate(pairs):
            grow = block.gram[a]
            for b in range(a, len(pairs)):
                g = grow[b]
                if not g:
                    continue
                l, beta = pairs[b]
                g = g.numerator * (gden // g.denominator) * (1 if a == b else 2)
                ab = tuple(map(add, alpha, beta))
                for j, (nums, d) in pi[k, l]:
                    scale = g * (pden // d)
                    bucket = parts.setdefault(j, {})
                    get = bucket.get
                    for delta, v in nums.items():
                        gamma = tuple(map(add, ab, delta))
                        bucket[gamma] = get(gamma, 0) + scale * v
    den = gden * pden
    collected = InvariantPoly(s, {j: Polynomial._from_canonical(
        s, {m: Fraction(v, den) for m, v in t.items() if v}) for j, t in parts.items()})
    return expand_invariants(collected, cert.pres)


def verify_certificate(cert: Certificate, f: Polynomial) -> tuple[bool, list[str]]:
    """The one literal replay: Gram blocks PSD via rational LDL^T, then the identity.

    Checks sum_i <S_i(theta), Pi_i> = f - lambda after one full expansion.
    Rounding does not call this; it is the trust anchor for whatever a
    certificate claims, wherever it came from.
    """
    if not cert.exact:
        return False, ["certificate is floating point; round it first"]
    for block in cert.blocks:
        psd, why = ldl_psd(block.gram)
        if not psd:
            return False, [f"block {block.label}: Gram not PSD ({why})"]
    diff = expand_certificate(cert) - (f - cert.lam)
    if not diff.is_zero():
        return False, [f"identity fails; first residual monomial "
                       f"{next(iter(diff.terms))}"]
    return True, ["invariant identity and all PSD checks passed"]


# -- algorithm two ------------------------------------------------------------------


# the (Pi, theta-monomial envelope) behind each block of an invariant assembly
BlockData = list[tuple[PiMatrix, list[list[Monomial]]]]


def _invariant_sdp(f: Polynomial, bundle: GeneratorBundle,
                   with_lambda: bool) -> tuple[BlockSDP, BlockData]:
    """The assembly for f, and the (Pi, envelope) of each block, in block order."""
    pres = bundle.pres
    ft = rewrite_in_invariants(f, pres)
    target = weighted_degree(ft, pres)
    kept = []
    for label in bundle.irrep_labels:
        pi = bundle.pis[label]
        env = monomial_envelope(pres, pi, target)
        if any(env):        # the assembly drops a block with an empty envelope
            kept.append((pi, env))
    sdp = assemble_invariant_sos(ft, pres, [pi for pi, _ in kept],
                                 [env for _, env in kept], with_lambda=with_lambda)
    return sdp, kept


def _certificate_from_solution(bundle: GeneratorBundle, sdp: BlockSDP,
                               kept: BlockData,
                               sol: SDPSolution, f: Polynomial, lam,
                               objective: str) -> Certificate:
    blocks = [CertBlock(pi.irrep_label, env, gram, pi)
              for (pi, env), gram in zip(kept, sol.blocks)]
    return Certificate("invariant", bundle.group, default_variables(f.nvars), lam,
                       exact=False, pres=bundle.pres, blocks=blocks,
                       objective=objective, program=sdp, status=sol.status)


def algorithm_two(f: Polynomial, bundle: GeneratorBundle,
                  objective: str = "maximize-lambda",
                  lambda_value: Fraction = Fraction(0),
                  tol: float = 1e-8,
                  concentrate: bool = False) -> Certificate:
    """Rewrite, bound supports, assemble and solve; returns a float certificate.

    ``maximize-lambda`` returns the SOS lower bound; ``feasibility`` decides
    whether f - lambda_value is a sum of squares at the given degree, raising
    NoCertificateError when the margin is below -FEAS_MARGIN.  With
    ``concentrate`` the feasibility solve afterwards minimizes the total trace,
    pushing the support onto as few isotypic blocks as possible.
    """
    if bundle.catalog is not None and bundle.missing:
        raise MissingEquivariantData(
            f"bundle for {bundle.group} lacks module data for {bundle.missing}")
    if objective == "maximize-lambda":
        sdp, kept = _invariant_sdp(f, bundle, True)
        sol = solve(sdp, tol=tol)
        if sol.status in ("infeasible-suspect", "unbounded"):
            raise NoCertificateError(
                f"no SOS representation found at this degree ({sol.status})")
        sol = polish_solution(sdp, sol)
        return _certificate_from_solution(bundle, sdp, kept, sol, f,
                                          sol.free_values["lambda"], objective)
    # feasibility at a fixed lambda: maximize the interior margin t
    shifted = f - lambda_value
    sdp, kept = _invariant_sdp(shifted, bundle, False)
    inter, tname = with_interior_variable(sdp)
    sol = solve(inter, tol=tol)
    if not sol.ok:
        raise NoCertificateError(f"margin solve failed ({sol.status})")
    tstar = sol.free_values[tname]
    if tstar < -FEAS_MARGIN:
        raise NoCertificateError(
            f"no SOS representation found at this degree (margin {tstar:.2e})")
    if concentrate:
        # resolve with a pure trace objective to drive unused blocks to zero
        steered = BlockSDP(sdp.blocks, sdp.free_vars,
                           {("blk", bi, r, r): Fraction(1)
                            for bi, b in enumerate(sdp.blocks)
                            for r in range(b.size)},
                           sdp.constraints)
        sol2 = solve(steered, tol=tol)
        if sol2.ok:
            cert = _certificate_from_solution(bundle, sdp, kept, sol2, f,
                                              lambda_value, "feasibility")
            cert.margin = tstar
            return cert
    # shift the interior variable back onto the diagonals
    shift = max(tstar, 0.0)
    patched = replace(sol, blocks=[mat + shift * np.eye(spec.size) for mat, spec
                                   in zip(sol.blocks, sdp.blocks)],
                      free_values={})
    patched = polish_solution(sdp, patched)
    cert = _certificate_from_solution(bundle, sdp, kept, patched, f, lambda_value,
                                      "feasibility")
    cert.margin = tstar
    return cert


def sos_lower_bound(f: Polynomial, group_spec: str,
                    tol: float = 1e-8) -> tuple[float, Certificate]:
    """Largest lambda with f - lambda SOS, exploiting the given symmetry."""
    if f.is_zero():
        raise ValueError("the target polynomial is zero")
    deg = f.degree()
    if deg % 2:
        raise ValueError("the target polynomial must have even degree")
    bundle = bundle_for(group_spec, max_degree=deg)
    if bundle.pres.nvars != f.nvars:
        raise ValueError(f"group {group_spec} acts on {bundle.pres.nvars} "
                         f"variables, but the polynomial has {f.nvars}")
    cert = algorithm_two(f, bundle, "maximize-lambda", tol=tol)
    return float(cert.lam), cert


# -- rational rounding --------------------------------------------------------------


class ContinuedFraction:
    """The continued-fraction expansion of a float, read at any denominator bound.

    The partial quotients are computed in integers from ``x.as_integer_ratio()``,
    once each and only as far as the largest bound read so far.  ``limit(m)``
    equals ``Fraction(x).limit_denominator(m)``: of the last convergent with a
    denominator at most m and the semiconvergent with the largest such
    denominator, the one nearer x, the convergent on a tie.
    """

    def __init__(self, x: float):
        self.num, self.den = x.as_integer_ratio()
        # (p0, q0, p1, q1, n, d) before each partial quotient: the last two
        # convergents p0/q0 and p1/q1 and the remainder n/d; reached holds the
        # denominator of the convergent that quotient makes
        self._states: list[tuple[int, int, int, int, int, int]] = []
        self._reached: list[int] = []
        self._next = (0, 1, 1, 0, self.num, self.den)

    def limit(self, max_den: int) -> Fraction:
        if max_den < 1:
            raise ValueError("max_denominator should be at least 1")
        if self.den <= max_den:
            return Fraction(self.num, self.den)
        # the last convergent has denominator den > max_den, so this stops
        # before the remainder runs out
        reached = self._reached
        while not reached or reached[-1] <= max_den:
            p0, q0, p1, q1, n, d = state = self._next
            a = n // d
            self._states.append(state)
            reached.append(q0 + a * q1)
            self._next = (p1, q1, p0 + a * p1, reached[-1], d, n - a * d)
        p0, q0, p1, q1, _, _ = self._states[bisect_right(reached, max_den)]
        k = (max_den - q0) // q1
        pk, qk = p0 + k * p1, q0 + k * q1
        # |p1/q1 - x| <= |pk/qk - x|, both sides times q1 * qk * den
        if abs(p1 * self.den - self.num * q1) * qk <= \
                abs(pk * self.den - self.num * qk) * q1:
            return Fraction(p1, q1)
        return Fraction(pk, qk)


def _traded_entry(keys: list[VarKey], param: Parametrization,
                  lam_col: int) -> tuple[int, Fraction]:
    """(column, gamma) of the one diagonal entry the bound trades against.

    With the free variables first, lambda pivots the one equation it appears
    in, which reads lambda = c + sum_j gamma_j x_j over free columns.  The
    entry is a free diagonal entry with gamma < 0 that no other pivot row
    uses, so lowering it raises lambda and changes nothing else.  Raises
    RoundingError unless there is exactly one such entry.
    """
    others: set[int] = set()
    lam_row: dict[int, Fraction] | None = None
    for pc, _, coeffs in param.pivots:
        if pc == lam_col:
            lam_row = coeffs
        else:
            others.update(coeffs)
    if lam_row is None:
        raise RoundingError("the bound is not fixed by the equations of the program")
    traded = [j for j, gamma in lam_row.items()
              if gamma < 0 and j not in others and keys[j][0] == "blk" and
              keys[j][2] == keys[j][3]]
    if len(traded) != 1:
        raise RoundingError(f"the bound trades against {len(traded)} diagonal "
                            "entries of the program, not exactly one; rounding "
                            "needs the one entry of the constant equation")
    return traded[0], lam_row[traded[0]]


def _least_diagonal(block: list[list[Fraction]], r: int) -> Fraction | None:
    """Least value of entry (r, r) that keeps the block PSD, the rest fixed.

    With the minor M without row r factored as L D L^T and v the rest of
    column r, the block is PSD iff M is, v lies in the range of M, and the
    entry is at least v^T M^+ v = sum_k y_k^2 / d_k, where L y = v by forward
    substitution.  None when no value keeps the block PSD.
    """
    idx = [i for i in range(len(block)) if i != r]
    v = [block[i][r] for i in idx]
    try:
        L, ds, perm = ldl_decomposition([[block[i][j] for j in idx] for i in idx])
    except NotPSD:
        return None
    y: list[Fraction] = []
    for k, p in enumerate(perm):
        y.append(v[p] - sum((L[p][j] * y[j] for j in range(k)), Fraction(0)))
    if any(dot(L[i], y) != v[i] for i in range(len(idx))):
        return None
    return sum((yk * yk / dk for yk, dk in zip(y, ds)), Fraction(0))


def round_certificate(cert: Certificate, f: Polynomial,
                      schedule: Sequence[int] = DEFAULT_SCHEDULE) -> Certificate:
    """Round a floating certificate to an exact one, correct by construction.

    Reads the one exact elimination of ``cert.program``, the one the solve
    built (``BlockSDP.solution_set``).  Its free parameters are rounded by
    continued fractions under each denominator bound of the schedule, and
    the pivot entries are recomputed exactly, so the polynomial identity with
    ``f`` (from which the program was assembled) holds by construction and is
    not replayed here.  Each free value's expansion is computed once and
    read at every entry.  Each block is screened once by ``negative_direction``
    before any exact LDL^T.  A bound reads lambda = c + gamma * X_rr + ...
    with one free diagonal entry X_rr (``_traded_entry``): the other blocks
    and the minor without row r are tested first, X_rr is set to the least value
    that keeps its block PSD, read from the factorization of that minor (the
    block is then PSD by the Schur complement, and is not factored again), and
    lambda follows exactly.  That snaps boundary optima with small rational
    vertices to their exact value.  A bound is accepted on the first schedule
    entry that stays within ROUNDING_QUALITY of the floating bound; if none
    does, the best bound from the whole schedule is returned.  A feasibility
    certificate keeps its fixed lambda.  ``verify_certificate`` replays the
    result literally.
    """
    if cert.exact:
        return cert
    sdp = cert.program
    if sdp is None:
        raise RoundingError("certificate carries no assembly to round against")
    param = sdp.solution_set
    if param is None:
        raise AssemblyInfeasible("constraint system inconsistent")
    if len(cert.blocks) != len(sdp.blocks):
        raise RoundingError(f"certificate has {len(cert.blocks)} blocks, its "
                            f"program {len(sdp.blocks)}")
    keys = sdp.var_order()
    maximize = cert.objective == "maximize-lambda"
    if maximize:
        lam_col = keys.index(("free", "lambda"))
        col, gamma = _traded_entry(keys, param, lam_col)
        _, bi, r, _ = keys[col]
    # the solve's float values of the free block entries seed the rounding
    seeds = {j: ContinuedFraction(
                 float(cert.blocks[keys[j][1]].gram[keys[j][2]][keys[j][3]]))
             for j in param.free if keys[j][0] == "blk"}
    lam_float = float(cert.lam)
    fallback: Certificate | None = None

    def psd(mats, screened=()) -> bool:
        """Screen ``mats`` and ``screened`` once for a negative direction, then
        LDL^T ``mats``."""
        if any(negative_direction(m) is not None for m in (*mats, *screened)):
            return False
        try:
            for m in mats:
                ldl_decomposition(m)
        except NotPSD:
            return False
        return True

    for max_den in schedule:
        free_vals = {j: cf.limit(max_den) for j, cf in seeds.items()}
        if not maximize:
            mats = sdp.block_matrices(param.point(free_vals))
            if psd(mats):
                lam = cert.lam if isinstance(cert.lam, Fraction) else \
                    Fraction(cert.lam).limit_denominator(max_den)
                return _exact_certificate(cert, mats, lam)
            continue
        # no bound passes unless the blocks and the minor X_rr leaves alone do
        free_vals[col] = Fraction(0)
        vals = param.point(free_vals)
        mats = sdp.block_matrices(vals)
        minor = [row[:r] + row[r + 1:] for i, row in enumerate(mats[bi]) if i != r]
        if not psd(mats[:bi] + mats[bi + 1:], [minor]):
            continue
        least = _least_diagonal(mats[bi], r)
        if least is None:
            continue
        # PSD by the Schur complement: the minor is, v is in its range, and
        # X_rr - v^T M^+ v = 0
        mats[bi][r][r] = least
        out = _exact_certificate(cert, mats, vals[lam_col] + gamma * least)
        if float(out.lam) >= lam_float - ROUNDING_QUALITY:
            return out
        if fallback is None or out.lam > fallback.lam:
            fallback = out
    if fallback is not None:
        return fallback
    raise RoundingError("no schedule entry produced an exactly PSD "
                        "certificate; lambda sits at the boundary - retry with "
                        "lambda - epsilon or larger denominators")


def _exact_certificate(cert: Certificate, mats, lam: Fraction) -> Certificate:
    """``cert`` with the exact block matrices ``mats``, paired by position."""
    blocks = [CertBlock(cb.label, cb.rows, mat, cb.pi)
              for cb, mat in zip(cert.blocks, mats)]
    return Certificate("invariant", cert.group, cert.var_names, lam, exact=True,
                       pres=cert.pres, blocks=blocks, objective=cert.objective,
                       status=cert.status, margin=cert.margin)
