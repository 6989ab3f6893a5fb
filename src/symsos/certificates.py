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
bundle is shared, and callers treat it as read-only.  An ``IrrepCatalog``
object passed to ``algorithm_one`` (a user irrep table, say) is built afresh
on every call.

Numeric optima are turned into exact certificates by rounding the free
parameters of the exactly-eliminated constraint system of the assembly a
float certificate carries (``Certificate.program``; an exact certificate
drops it): pivot entries are recomputed exactly, so the polynomial identity
holds by construction.  Each Gram block is screened for an exact negative
direction and then tested PSD via rational LDL^T (``linalg.ldl_psd``);
when the bound moves one diagonal entry, its exact boundary value comes
from the LDL^T of the minor it leaves alone.  Rounding does not replay the
identity.  ``verify_certificate`` is the one literal replay: every block
tested by ``ldl_psd``, then sum_i <S_i, Pi_i> collected per (eta_j,
theta^gamma) and expanded into the original variables once.  Refusal
reasons name a block, a row and a sign, never an entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .equivariants import (EquivariantBasis, MissingEquivariantData, PiMatrix,
                           equivariant_catalog, monomial_envelope, pi_matrix)
from .groups import IrrepCatalog, catalog as load_catalog, parse_spec
from .invariants import (InvariantPoly, InvariantPresentation, NotInvariantError,
                         presentation as load_presentation_for,
                         rewrite_in_invariants, expand_invariants,
                         verify_invariant, weighted_degree,
                         symmetric_presentation)
from .linalg import (NotPSD, Parametrization, dot, ldl_decomposition, ldl_psd,
                     negative_direction)
from .poly import Monomial, Polynomial
from .scalars import Scalar, exact
from .sdp import (AssemblyInfeasible, BlockSDP, VarKey, assemble_invariant_sos,
                  with_interior_variable)
from .solver import SDPSolution, solve, polish_solution

DEFAULT_SCHEDULE = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 6)


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


def algorithm_one(catalog: IrrepCatalog | str) -> GeneratorBundle:
    """Collect invariants, module bases and Pi matrices for a catalog group.

    A spec string is built once per process and the shared bundle returned
    afterwards; a catalog object is built on every call.
    """
    if not isinstance(catalog, str):
        return _catalog_bundle(catalog)
    bundle = _CATALOG_BUNDLES.get(catalog)
    if bundle is None:
        bundle = _CATALOG_BUNDLES[catalog] = _catalog_bundle(load_catalog(catalog))
    return bundle


def _catalog_bundle(catalog: IrrepCatalog) -> GeneratorBundle:
    pres = load_presentation_for(catalog.name)
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
    from .equivariants import _power_sum_centered, _perm_generator_matrices
    pres = symmetric_presentation(n)
    gens = _perm_generator_matrices(n)
    one = Polynomial.constant(n, 1)
    bases: dict[str, EquivariantBasis] = {
        "trivial": EquivariantBasis("trivial", n, [(one,)],
                                    [[[Fraction(1)]] for _ in gens], gens),
    }
    std_vecs = [_power_sum_centered(n, k) for k in range(1, n)
                if 2 * k <= max_degree]
    if std_vecs:
        bases["standard"] = EquivariantBasis("standard", n, std_vecs, gens, gens)
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
    and the collected sum is expanded once.
    """
    s = len(cert.pres.theta)
    parts: dict[int, dict[Monomial, Scalar]] = {}
    for block in cert.blocks:
        pairs = [(k, alpha) for k, row in enumerate(block.rows) for alpha in row]
        for a, (k, alpha) in enumerate(pairs):
            for b, (l, beta) in enumerate(pairs):
                g = block.gram[a][b]
                if g == 0:
                    continue
                for j, part in block.pi.entries[k][l].parts.items():
                    bucket = parts.setdefault(j, {})
                    for delta, coef in part.terms.items():
                        gamma = tuple(x + y + z for x, y, z in zip(alpha, beta, delta))
                        bucket[gamma] = bucket.get(gamma, 0) + g * coef
    collected = InvariantPoly(s, {j: Polynomial(s, t) for j, t in parts.items()})
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


def _invariant_sdp(f: Polynomial, bundle: GeneratorBundle,
                   with_lambda: bool) -> BlockSDP:
    pres = bundle.pres
    if pres.generators and not verify_invariant(f, pres.generators):
        raise NotInvariantError("polynomial is not invariant under the group")
    ft = rewrite_in_invariants(f, pres, check_invariance=False)
    target = weighted_degree(ft, pres)
    pis = [bundle.pis[l] for l in bundle.irrep_labels]
    envs = [monomial_envelope(pres, pi, target) for pi in pis]
    return assemble_invariant_sos(ft, pres, pis, envs, with_lambda=with_lambda)


def _certificate_from_solution(bundle: GeneratorBundle, sdp: BlockSDP,
                               sol: SDPSolution, f: Polynomial, lam,
                               objective: str) -> Certificate:
    blocks = []
    label_of = {b.name: i for i, b in enumerate(sdp.blocks)}
    for pi, env in zip(sdp.meta["pis"], sdp.meta["envelopes"]):
        if pi.irrep_label not in label_of:
            continue
        gram = sol.blocks[sol.block_names.index(pi.irrep_label)]
        blocks.append(CertBlock(pi.irrep_label, env, gram, pi))
    names = [f"x{i + 1}" for i in range(f.nvars)] if f.nvars > 3 else \
        ["x", "y", "z"][: f.nvars]
    return Certificate("invariant", bundle.group, names, lam, exact=False,
                       pres=bundle.pres, blocks=blocks, objective=objective,
                       program=sdp, status=sol.status)


def algorithm_two(f: Polynomial, bundle: GeneratorBundle,
                  objective: str = "maximize-lambda",
                  lambda_value: Fraction = Fraction(0),
                  tol: float = 1e-8,
                  feas_margin: float = 1e-7,
                  concentrate: bool = False) -> Certificate:
    """Rewrite, bound supports, assemble and solve; returns a float certificate.

    ``maximize-lambda`` returns the SOS lower bound; ``feasibility`` decides
    whether f - lambda_value is a sum of squares at the given degree, raising
    NoCertificateError when the margin is decisively negative.  With
    ``concentrate`` the feasibility solve afterwards minimizes the total trace,
    pushing the support onto as few isotypic blocks as possible.
    """
    if bundle.catalog is not None and bundle.missing:
        raise MissingEquivariantData(
            f"bundle for {bundle.group} lacks module data for {bundle.missing}")
    if objective == "maximize-lambda":
        sdp = _invariant_sdp(f, bundle, True)
        sol = solve(sdp, tol=tol)
        if sol.status in ("infeasible-suspect", "unbounded"):
            raise NoCertificateError(
                f"no SOS representation found at this degree ({sol.status})")
        sol = polish_solution(sdp, sol)
        return _certificate_from_solution(bundle, sdp, sol, f,
                                          sol.free_values["lambda"], objective)
    # feasibility at a fixed lambda: maximize the interior margin t
    shifted = f - lambda_value
    sdp = _invariant_sdp(shifted, bundle, False)
    inter, tname = with_interior_variable(sdp)
    sol = solve(inter, tol=tol)
    if not sol.ok:
        raise NoCertificateError(f"margin solve failed ({sol.status})")
    tstar = sol.free_values[tname]
    if tstar < -feas_margin:
        raise NoCertificateError(
            f"no SOS representation found at this degree (margin {tstar:.2e})")
    if concentrate:
        # resolve with a pure trace objective to drive unused blocks to zero
        steered = BlockSDP(sdp.blocks, sdp.free_vars,
                           {("blk", bi, r, r): Fraction(1)
                            for bi, b in enumerate(sdp.blocks)
                            for r in range(b.size)},
                           sdp.constraints, sdp.meta)
        sol2 = solve(steered, tol=tol)
        if sol2.ok:
            cert = _certificate_from_solution(bundle, sdp, sol2, f, lambda_value,
                                              "feasibility")
            cert.margin = tstar
            return cert
    # shift the interior variable back onto the diagonals
    blocks = []
    for bi, spec in enumerate(sdp.blocks):
        mat = sol.blocks[sol.block_names.index(spec.name)] + \
            max(tstar, 0.0) * np.eye(spec.size)
        blocks.append(mat)
    patched = SDPSolution(sol.status, sol.objective, sol.dual_objective, sol.gap,
                          blocks, [b.name for b in sdp.blocks],
                          {}, sol.y, sol.iterations, sol.primal_residual,
                          sol.dual_residual)
    patched = polish_solution(sdp, patched)
    cert = _certificate_from_solution(bundle, sdp, patched, f, lambda_value,
                                      "feasibility")
    cert.margin = tstar
    return cert


def sos_lower_bound(f: Polynomial, group_spec: str,
                    tol: float = 1e-8) -> tuple[float, Certificate]:
    """Largest lambda with f - lambda SOS, exploiting the given symmetry."""
    deg = f.degree()
    if not isinstance(deg, int) or deg % 2:
        raise ValueError("the target polynomial must have even degree")
    bundle = bundle_for(group_spec, max_degree=deg)
    if bundle.pres.nvars != f.nvars:
        raise ValueError(f"group {group_spec} acts on {bundle.pres.nvars} "
                         f"variables, but the polynomial has {f.nvars}")
    cert = algorithm_two(f, bundle, "maximize-lambda", tol=tol)
    return float(cert.lam), cert


# -- rational rounding --------------------------------------------------------------


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Simplest rational in [lo, hi] (Stern-Brocot)."""
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -_simplest_between(-hi, -lo)
    fl = math.floor(lo)
    if fl == math.floor(hi) and lo != fl:
        rest = _simplest_between(1 / (hi - fl), 1 / (lo - fl))
        return fl + 1 / rest
    return Fraction(fl if lo == fl else fl + 1)


def _lambda_candidates(lam_float: float, max_den: int,
                       slack: float) -> list[Fraction]:
    lamf = Fraction(lam_float)
    cands = set()
    for window in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
        c = _simplest_between(lamf - Fraction(window), lamf + Fraction(window))
        if c.denominator <= max_den:
            cands.add(c)
    for k in (2, 3, 4, 6):
        d = 10 ** k
        if d <= max_den:
            cands.add(Fraction(math.floor(lam_float * d), d))
    out = [c for c in cands if float(c) <= lam_float + slack]
    return sorted(out, reverse=True)


def _blocks_from_values(sdp: BlockSDP, keys, vals) -> list[list[list[Fraction]]]:
    pos = {k: i for i, k in enumerate(keys)}
    out = []
    for bi, blk in enumerate(sdp.blocks):
        mat = [[Fraction(0)] * blk.size for _ in range(blk.size)]
        for r in range(blk.size):
            for c in range(r, blk.size):
                v = vals[pos[("blk", bi, r, c)]]
                mat[r][c] = mat[c][r] = v
        out.append(mat)
    return out


def _lambda_entry(keys: list[VarKey], param: Parametrization,
                  lam_idx: int) -> tuple[int, int, Fraction] | None:
    """(block, row, beta) when lambda moves only diagonal entry (row, row), by beta < 0.

    The usual constant-equation pivot; the entries lambda moves, and by how
    much, do not depend on the values of the other free parameters.
    """
    moved = [(keys[pc], coeffs[lam_idx]) for pc, _, coeffs in param.pivots
             if lam_idx in coeffs and keys[pc][0] == "blk"]
    if len(moved) != 1:
        return None
    (_, bi, r, c), beta = moved[0]
    return (bi, r, beta) if r == c and beta < 0 else None


def _lambda_boundary(block: list[list[Fraction]], r: int,
                     beta: Fraction) -> Fraction | None:
    """Exact largest lambda keeping the block PSD, when lambda moves only entry (r, r).

    ``block`` is the block at lambda = 0, and the entry is e0 + beta * lambda
    with beta < 0.  With the minor M without row r factored as L D L^T and v
    the rest of column r, the block is PSD iff M is, v lies in the range of
    M, and the entry is at least v^T M^+ v = sum_k y_k^2 / d_k, where L y = v
    by forward substitution.  None when no lambda keeps the block PSD.
    """
    idx = [i for i in range(len(block)) if i != r]
    v = [block[i][r] for i in idx]
    try:
        L, ds, perm = ldl_decomposition([[block[i][j] for j in idx] for i in idx])
    except NotPSD:
        return None
    y: list[Fraction] = []
    for k, p in enumerate(perm):
        y.append(exact(v[p] - sum((L[p][j] * y[j] for j in range(k)), Fraction(0))))
    if any(dot(L[i], y) != v[i] for i in range(len(idx))):
        return None
    bound = sum((yk * yk / dk for yk, dk in zip(y, ds)), Fraction(0))
    return exact((bound - block[r][r]) / beta)


def round_certificate(cert: Certificate, f: Polynomial,
                      schedule: Sequence[int] = DEFAULT_SCHEDULE,
                      solver_tol: float = 1e-8,
                      quality: float = 1e-6) -> Certificate:
    """Round a floating certificate to an exact one, correct by construction.

    Free parameters of the exactly-eliminated constraint system of
    ``cert.program`` are rounded by continued fractions under each
    denominator bound of the schedule; pivot entries are recomputed exactly,
    so the polynomial identity with ``f`` (from which the program was
    assembled) holds by construction and is not replayed here.  Blocks are
    screened by ``negative_direction`` before any exact LDL^T.  When the
    bound variable shifts a single diagonal entry, the blocks and the minor
    it leaves alone are tested first, and its exact boundary value for the
    rounded parameters is read from the factorization of that minor, which
    snaps boundary optima with small rational vertices to their exact value;
    otherwise candidate bounds are tried from the largest down.  A candidate
    is accepted on the first schedule entry whose bound stays within
    ``quality`` of the floating bound and whose blocks pass LDL^T; if none
    does, the best such candidate from the whole schedule is returned.
    ``verify_certificate`` replays the result literally.
    """
    if cert.exact:
        return cert
    sdp = cert.program
    if sdp is None:
        raise RoundingError("certificate carries no assembly to round against")
    maximize = cert.objective == "maximize-lambda"
    keys = sdp.var_order()           # entries first, lambda last
    param = sdp.parametrize(keys)
    if param is None:
        raise AssemblyInfeasible("constraint system inconsistent")
    free_cols = param.free
    pos = {k: i for i, k in enumerate(keys)}
    lam_idx = pos.get(("free", "lambda"))
    # float values of all variables, to seed the free parameters
    float_vals = np.zeros(len(keys))
    grams = {cb.label: cb.gram for cb in cert.blocks}
    for bi, blk in enumerate(sdp.blocks):
        src = np.asarray(grams.get(blk.name, np.zeros((blk.size, blk.size))))
        for r in range(blk.size):
            for c in range(r, blk.size):
                float_vals[pos[("blk", bi, r, c)]] = src[r, c]
    if maximize and lam_idx is not None:
        float_vals[lam_idx] = float(cert.lam)
    lam_float = float(cert.lam)
    slack = 10 * solver_tol * (1 + abs(lam_float))
    bound_mode = maximize and lam_idx is not None and lam_idx in free_cols
    entry = _lambda_entry(keys, param, lam_idx) if bound_mode else None
    fallback: Certificate | None = None

    def psd(mats, screened=()) -> bool:
        """Screen ``mats`` and ``screened`` for a negative direction, then LDL^T ``mats``."""
        return all(negative_direction(m) is None for m in (*mats, *screened)) and \
            all(ldl_psd(m)[0] for m in mats)

    for max_den in schedule:
        free_vals: dict[int, Fraction] = {}
        for j in free_cols:
            if j != lam_idx:
                free_vals[j] = Fraction(float(float_vals[j])).limit_denominator(max_den)
        unchecked = range(len(sdp.blocks))
        if entry is not None:
            # no bound passes unless the blocks and the minor lambda leaves alone do
            bi, r, beta = entry
            free_vals[lam_idx] = Fraction(0)
            mats = _blocks_from_values(sdp, keys, param.point(free_vals))
            minor = [row[:r] + row[r + 1:] for i, row in enumerate(mats[bi]) if i != r]
            if not psd(mats[:bi] + mats[bi + 1:], [minor]):
                continue
            tight = _lambda_boundary(mats[bi], r, beta)
            cands, unchecked = ([] if tight is None else [tight]), [bi]
        elif bound_mode:
            cands = _lambda_candidates(lam_float, max_den, slack)
        else:
            cands = [cert.lam if isinstance(cert.lam, Fraction) else
                     Fraction(cert.lam).limit_denominator(max_den)]
        for lam_hat in cands:
            if lam_idx in free_cols:
                free_vals[lam_idx] = lam_hat
            vals = param.point(free_vals)
            mats = _blocks_from_values(sdp, keys, vals)
            if not psd([mats[i] for i in unchecked]):
                continue
            out = _exact_certificate(cert, sdp, mats,
                                     lam_hat if lam_idx is None else vals[lam_idx])
            if not bound_mode or float(out.lam) >= lam_float - quality:
                return out
            if fallback is None or out.lam > fallback.lam:
                fallback = out
            break  # lower candidates at this denominator are worse
    if fallback is not None:
        return fallback
    raise RoundingError("no schedule entry produced an exactly PSD "
                        "certificate; lambda sits at the boundary - retry with "
                        "lambda - epsilon or larger denominators")


def _exact_certificate(cert: Certificate, sdp: BlockSDP, mats,
                       lam: Fraction) -> Certificate:
    blocks = []
    name_index = {b.name: i for i, b in enumerate(sdp.blocks)}
    for cb in cert.blocks:
        blocks.append(CertBlock(cb.label, cb.rows, mats[name_index[cb.label]],
                                cb.pi))
    return Certificate("invariant", cert.group, cert.var_names, lam, exact=True,
                       pres=cert.pres, blocks=blocks, objective=cert.objective,
                       status=cert.status, margin=cert.margin)


# -- exact SOS replay (Gram factorization to explicit squares) -----------------------


def sos_squares_from_gram(gram, monomials, nvars: int) -> list[tuple[Fraction, Polynomial]]:
    """Exact (weight, polynomial) pairs with sum w_i p_i^2 = Y^T Q Y."""
    L, D, perm = ldl_decomposition(gram)
    out = []
    for k, d in enumerate(D):
        if d == 0:
            continue
        poly = Polynomial.zero(nvars)
        for i, mono in enumerate(monomials):
            if L[i][k] != 0:
                poly = poly + Polynomial.monomial(nvars, mono, L[i][k])
        out.append((exact(d), poly))
    return out
