"""Dense primal-dual interior-point solver for block-diagonal SDPs.

Free scalar variables are eliminated exactly before the cone solve, avoiding
the ill-conditioned positive/negative split: the solver reads the program's
one elimination (``BlockSDP.solution_set``, free variables first), the same
object rounding later reads.  The cone iteration is a standard Nesterov-Todd
scaled path-following method with a Mehrotra predictor-corrector step, robust
at the block sizes this package produces (tens of rows).

The constraint matrices are built once per solve as one float stack of shape
(m, s, s) per block.  The Schur complement M = sum_b A_b vec(W_b A_b W_b)^T
(Todd, Toh and Tutuncu 1998), the residuals A(X) and C - Z - A^T y and the
Newton right-hand sides are batched matrix products over these stacks, so an
iteration costs a fixed number of numpy calls per block, whatever m is: one
SVD for the scaling, one eigvalsh per step length and the Cholesky factors
of the accepted iterates, which the next iteration reuses.  The rank-face
polish evaluates its residual and Gauss-Newton Jacobian from the same stacks,
and gives up on a face as soon as its residual stops halving.

Infeasibility and unboundedness are reported heuristically, never certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .sdp import BlockSDP, VarKey

DEFAULT_TOL = 1e-8
MAX_ITER = 200
POLISH_RANK_TOL = 1e-4  # the polish keeps eigenvalues above this share of the largest
POLISH_ITERATIONS = 80
POLISH_STALL = 8  # iterations without the best residual halving that end a polish


class SolverBreakdown(RuntimeError):
    def __init__(self, message: str, iterate: dict | None = None):
        super().__init__(message)
        self.iterate = iterate or {}


@dataclass
class SDPSolution:
    status: str                    # optimal / infeasible-suspect / max-iterations / unbounded
    objective: float               # original minimized cost (free vars recovered)
    dual_objective: float
    gap: float
    blocks: list[np.ndarray]       # one per program block, in program order
    free_values: dict[str, float]
    y: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


@dataclass
class _Eliminated:
    """Pure-cone data plus the exact substitutions for the free variables."""

    entry_keys: list[VarKey]
    a_rows: list[dict[int, Fraction]]     # entry-index -> coefficient
    b: list[Fraction]
    c: dict[int, Fraction]
    const: Fraction
    subs: dict[str, tuple[Fraction, dict[int, Fraction]]]  # name -> (rhs, entry coeffs)
    status: str = "ok"


def _eliminate_free(sdp: BlockSDP) -> _Eliminated:
    nf = len(sdp.free_vars)
    entry_keys = sdp.var_order()[nf:]
    # free columns come first, so every free variable that can be a pivot is one
    param = sdp.solution_set
    if param is None:
        return _Eliminated(entry_keys, [], [], {}, Fraction(0), {},
                           status="infeasible")
    # a row pivoting on an entry has no free column left, so it is a cone row
    cone_rows: list[dict[int, Fraction]] = []
    cone_rhs: list[Fraction] = []
    pivot_free: dict[int, tuple[Fraction, dict[int, Fraction]]] = {}
    for pc, rhs, coeffs in param.pivots:
        if pc < nf:
            pivot_free[pc] = (rhs, coeffs)
        else:
            row = {pc - nf: Fraction(1)}
            row.update((j - nf, -v) for j, v in coeffs.items())
            cone_rows.append(row)
            cone_rhs.append(rhs)
    # substitute the pivot frees into the cost
    c: dict[int, Fraction] = {}
    const: Fraction = Fraction(0)
    pos = {k: i for i, k in enumerate(entry_keys)}
    for k, v in sdp.cost.items():
        if k[0] == "blk":
            c[pos[k]] = c.get(pos[k], Fraction(0)) + v
    residual_free = [sdp.cost.get(("free", f), Fraction(0)) for f in sdp.free_vars]
    for fc, (rhs, coeffs) in pivot_free.items():
        w = residual_free[fc]
        residual_free[fc] = Fraction(0)
        if w == 0:
            continue
        const += w * rhs
        for j, v in coeffs.items():
            if j < nf:
                residual_free[j] += w * v
            else:
                c[j - nf] = c.get(j - nf, Fraction(0)) + w * v
    if any(v != 0 for v in residual_free):
        return _Eliminated(entry_keys, [], [], {}, Fraction(0), {},
                           status="unbounded")
    subs: dict[str, tuple[Fraction, dict[int, Fraction]]] = {}
    for fi, name in enumerate(sdp.free_vars):
        rhs, coeffs = pivot_free.get(fi, (Fraction(0), {}))
        subs[name] = (rhs, {j - nf: v for j, v in coeffs.items() if j >= nf})
    return _Eliminated(entry_keys, cone_rows, cone_rhs, c, const, subs)


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2


def _flat(a: np.ndarray) -> np.ndarray:
    """(m, s, s) stack as an (m, s*s) matrix, also when m or s is 0."""
    return a.reshape(a.shape[0], math.prod(a.shape[1:]))


def constraint_values(amats: list[np.ndarray], xs: list[np.ndarray],
                      m: int) -> np.ndarray:
    """A(X): the vector of sum_b <A_b[j], X_b> over constraints j.

    Each entry of ``amats`` stacks the m constraint matrices of one block
    along a leading axis; the matching entry of ``xs`` is that block's matrix.
    """
    out = np.zeros(m)
    for a, x in zip(amats, xs):
        out += _flat(a) @ x.reshape(-1)
    return out


def adjoint(amats: list[np.ndarray], y: np.ndarray) -> list[np.ndarray]:
    """A^T y: the block matrices sum_j y_j A_b[j]."""
    return [(y @ _flat(a)).reshape(a.shape[1:]) for a in amats]


def schur_complement(amats: list[np.ndarray], ws: list[np.ndarray],
                     m: int) -> np.ndarray:
    """M[j, k] = sum_b <A_b[j], W_b A_b[k] W_b>, one batched product per block."""
    schur = np.zeros((m, m))
    for a, w in zip(amats, ws):
        schur += _flat(a) @ _flat(w @ a @ w).T
    return (schur + schur.T) / 2


def _step_to_boundary(lam: float) -> float:
    """Largest alpha <= 1 with I + alpha*Delta PSD, lam = lambda_min(Delta)."""
    return 1.0 if lam >= -1e-14 else min(1.0, -1.0 / lam)


def solve(sdp: BlockSDP, tol: float = DEFAULT_TOL) -> SDPSolution:
    """Minimize the cost over the PSD blocks subject to the exact equations.

    ``tol`` bounds the relative gap and both residuals at an optimal stop; a
    value that is not finite and positive raises ValueError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    elim = _eliminate_free(sdp)
    if elim.status == "infeasible":
        return SDPSolution("infeasible-suspect", float("nan"), float("nan"),
                           float("nan"), [], {},
                           np.zeros(0), 0, float("inf"), float("inf"))
    if elim.status == "unbounded":
        return SDPSolution("unbounded", float("-inf"), float("-inf"), float("nan"),
                           [], {}, np.zeros(0), 0,
                           float("inf"), float("inf"))
    sizes = [b.size for b in sdp.blocks]
    m = len(elim.a_rows)
    entry_of = elim.entry_keys
    # size-0 blocks carry no variables and take no part in the iteration
    live = [bi for bi, size in enumerate(sizes) if size]
    per_block = sdp.functional_matrices(
        [{entry_of[idx]: v for idx, v in row.items()} for row in elim.a_rows])
    cost_blocks = sdp.functional_matrices(
        [{entry_of[idx]: v for idx, v in elim.c.items()}])
    amats = [per_block[bi] for bi in live]
    cmats = [cost_blocks[bi][0] for bi in live]
    bvec = np.array([float(v) for v in elim.b])
    const = float(elim.const)

    def all_blocks(xs):
        out = [np.zeros((size, size)) for size in sizes]
        for bi, x in zip(live, xs):
            out[bi] = x
        return out

    def inner(us, vs):
        return sum(float(np.vdot(u, v)) for u, v in zip(us, vs))

    def dual_residual(zs, y):
        return [c - z - aty for c, z, aty in zip(cmats, zs, adjoint(amats, y))]

    def finish(status, xs, zs, y, it):
        pobj = inner(cmats, xs) + const
        dobj = float(bvec @ y) + const if m else const
        gap = abs(pobj - dobj) / (1 + abs(pobj))
        blocks = all_blocks(xs)
        frees = {}
        for name, (rhs, coeffs) in elim.subs.items():
            val = float(rhs)
            for idx, v in coeffs.items():
                _, bi, r, c = entry_of[idx]
                val += float(v) * blocks[bi][r, c]
            frees[name] = val
        rp = float(np.linalg.norm(bvec - constraint_values(amats, xs, m)))
        rd = max((float(np.max(np.abs(r))) for r in dual_residual(zs, y)),
                 default=0.0)
        return SDPSolution(status, pobj, dobj, gap, blocks,
                           frees, y, it, rp, rd)

    if m == 0:
        # unconstrained: the optimum sits at the cone vertex when C is PSD
        xs = [np.zeros_like(c) for c in cmats]
        zs = [c.copy() for c in cmats]
        if all(np.linalg.eigvalsh(_sym(c)).min() >= -1e-12 for c in cmats):
            return finish("optimal", xs, zs, np.zeros(0), 0)
        return SDPSolution("unbounded", float("-inf"), float("-inf"), float("nan"),
                           all_blocks(xs), {}, np.zeros(0), 0, 0.0, 0.0)

    scale = max(1.0, float(np.max(np.abs(bvec))),
                max((float(np.max(np.abs(c))) for c in cmats), default=0.0))
    xs = [np.eye(sizes[bi]) * scale for bi in live]
    zs = [x.copy() for x in xs]
    # Cholesky factors of the iterates, X = Lx Lx^T and Z = Lz Lz^T; after
    # the first iteration they come from the line search that accepted them
    lx = [np.eye(sizes[bi]) * math.sqrt(scale) for bi in live]
    lz = [fac.copy() for fac in lx]
    y = np.zeros(m)
    total_dim = sum(sizes)
    best = None          # (score, xs, zs, y, it)
    best_age = 0
    stall_window = max(25, MAX_ITER // 8)

    for it in range(1, MAX_ITER + 1):
        rp = bvec - constraint_values(amats, xs, m)
        rds = dual_residual(zs, y)
        gap = inner(xs, zs)
        mu = gap / total_dim
        pobj = inner(cmats, xs) + const
        dobj = float(bvec @ y) + const
        # complementarity-based gap: |pobj - dobj| can floor at ||y||*||rp||
        # on problems without a strictly feasible primal point
        relgap = gap / (1 + abs(pobj) + abs(dobj))
        nrp = np.linalg.norm(rp) / (1 + np.linalg.norm(bvec))
        nrd = max((np.max(np.abs(r)) for r in rds), default=0) / (1 + scale)
        if relgap <= tol and nrp <= tol and nrd <= tol:
            return finish("optimal", xs, zs, y, it)
        score = max(relgap, nrp, nrd)
        if best is None or score < best[0]:
            best = (score, [x.copy() for x in xs], [z.copy() for z in zs],
                    y.copy(), it)
            best_age = 0
        else:
            best_age += 1
            if best_age > stall_window:
                # no progress for a sustained stretch: settle for the best
                # iterate seen (degenerate problems plateau above tol)
                return finish("optimal" if best[0] <= tol else "max-iterations",
                              best[1], best[2], best[3], it)
        if abs(dobj) > 1e9 * scale or np.linalg.norm(y) > 1e11:
            return finish("infeasible-suspect", xs, zs, y, it)

        # Nesterov-Todd scaling W = R R^T with R^T Z R = R^-1 X R^-T = diag(d)
        rs, rinvs, dvecs, ws, dscales = [], [], [], [], []
        for x_l, z_l in zip(lx, lz):
            u, sv, vt = np.linalg.svd(z_l.T @ x_l)
            sv = np.maximum(sv, 1e-300)
            isq = sv ** -0.5
            r = x_l @ vt.T * isq
            rs.append(r)
            rinvs.append(isq[:, None] * (u.T @ z_l.T))
            dvecs.append(sv)
            ws.append(r @ r.T)
            dscales.append(np.outer(isq, isq))

        schur = schur_complement(amats, ws, m)
        try:
            schur_l = np.linalg.cholesky(schur + np.eye(m) * 1e-14 *
                                         max(1.0, np.trace(schur) / m))
        except np.linalg.LinAlgError:
            raise SolverBreakdown("Schur complement not positive definite",
                                  {"iteration": it, "mu": mu})

        # M^-1 = Li^T Li with Li = L^-1, one inverse for all six solves below
        schur_li = np.linalg.inv(schur_l)

        def schur_solve(rhs):
            dy = schur_li.T @ (schur_li @ rhs)
            for _ in range(2):  # iterative refinement against conditioning
                dy = dy + schur_li.T @ (schur_li @ (rhs - schur @ dy))
            return dy

        # predictor and corrector share rp + A(W Rd W) in their right-hand side
        rhs_base = rp + constraint_values(
            amats, [w @ rd @ w for w, rd in zip(ws, rds)], m)

        def newton(rc_scaled):
            # M dy = rp - A(R H(Rc) R^T) + A(W Rd W), where H divides entrywise
            # by (d_i + d_j) / 2; dz is exactly symmetric, as Rd and A^T dy are
            rhrt = [r @ (rc / ((d[:, None] + d) / 2)) @ r.T
                    for r, d, rc in zip(rs, dvecs, rc_scaled)]
            dy = schur_solve(rhs_base - constraint_values(amats, rhrt, m))
            dz = [rd - aty for rd, aty in zip(rds, adjoint(amats, dy))]
            dx = [_sym(h - w @ d @ w) for h, w, d in zip(rhrt, ws, dz)]
            return dx, dy, dz

        def scaled(dx, dz):
            # the steps in the scaled frame, where X and Z both become diag(d)
            return ([ri @ d @ ri.T for ri, d in zip(rinvs, dx)],
                    [r.T @ d @ r for r, d in zip(rs, dz)])

        def max_steps(dxs, dzs):
            # X + a dX is PSD iff I + a D^-1/2 (R^-1 dX R^-T) D^-1/2 is, and
            # likewise for Z with R^T dZ R: one eigvalsh call per block
            lam_x = lam_z = 0.0
            for dscale, ax, az in zip(dscales, dxs, dzs):
                lam = np.linalg.eigvalsh(np.stack([ax, az]) * dscale)
                lam_x, lam_z = min(lam_x, lam[0, 0]), min(lam_z, lam[1, 0])
            return _step_to_boundary(lam_x), _step_to_boundary(lam_z)

        # predictor
        dxa, _, dza = newton([-np.diag(d ** 2) for d in dvecs])
        dxs_a, dzs_a = scaled(dxa, dza)
        ap, ad = max_steps(dxs_a, dzs_a)
        gap_aff = inner([x + 0.98 * ap * d for x, d in zip(xs, dxa)],
                        [z + 0.98 * ad * d for z, d in zip(zs, dza)])
        sigma = min(1.0, max(0.0, (gap_aff / gap))) ** 3 if gap > 0 else 0.1
        # corrector
        rc = [sigma * mu * np.eye(len(d)) - np.diag(d ** 2) - (ax @ az + az @ ax) / 2
              for d, ax, az in zip(dvecs, dxs_a, dzs_a)]
        dx, dy, dz = newton(rc)
        gamma = 0.99
        ap, ad = (gamma * a for a in max_steps(*scaled(dx, dz)))

        def backtrack(mats, deltas, alpha):
            # the eigenvalue bound already keeps the step inside the cone;
            # the Cholesky factors that confirm it serve the next iteration
            for _ in range(50):
                if alpha < 1e-12:
                    break
                trial = [a + alpha * d for a, d in zip(mats, deltas)]
                try:
                    return trial, [np.linalg.cholesky(t) for t in trial], alpha
                except np.linalg.LinAlgError:
                    alpha *= 0.8
            return None, None, 0.0

        xs_new, lx_new, ap = backtrack(xs, dx, ap)
        zs_new, lz_new, ad = backtrack(zs, dz, ad)
        if xs_new is None or zs_new is None or (ap < 1e-10 and ad < 1e-10):
            # numerically stalled at the cone boundary; fall back to the best
            # iterate, never reporting "optimal" beyond the tolerances
            score, bx, bz, by, _ = best if best else (np.inf, xs, zs, y, it)
            return finish("optimal" if score <= tol else "max-iterations",
                          bx, bz, by, it)
        xs, zs, lx, lz = xs_new, zs_new, lx_new, lz_new
        y = y + ad * dy
    if best is not None and best[0] <= tol:
        return finish("optimal", best[1], best[2], best[3], MAX_ITER)
    return finish("max-iterations", xs, zs, y, MAX_ITER)


def face_residual_and_jacobian(amats: list[np.ndarray], fmat: np.ndarray,
                               rhs: np.ndarray, frees: np.ndarray,
                               ls: list[np.ndarray]
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Residual A(L L^T) + F u - b on a rank face and its Jacobian in (u, L).

    Columns are the free variables u first, then each block factor L_b
    flattened row-major; d<A_j, L L^T>/dL = 2 A_j L for symmetric A_j.
    """
    res = fmat @ frees - rhs
    cols = [fmat]
    for a, l in zip(amats, ls):
        al = _flat(a @ l)
        res += al @ l.reshape(-1)
        cols.append(2 * al)
    return res, np.hstack(cols)


def polish_solution(sdp: BlockSDP, sol: SDPSolution) -> SDPSolution:
    """Newton refinement on the rank-factorized form of the active face.

    Optima on degenerate faces (forced singular directions) stall at 1e-3-ish
    accuracy in floating point, but their rank pattern is recovered reliably.
    Writing each block as L_i L_i^T with the observed rank turns the affine
    constraint system into a regular square-root parametrization: the face
    tangency that blinds first-order methods disappears, and Gauss-Newton
    converges quadratically to the exact face point.  Blocks stay PSD by
    construction.  If the rank guess is wrong the residual does not vanish and
    the original solution is returned unchanged.

    On the right face the iteration converges at least linearly, the error
    halving, and the residual halves with it until it drops below the
    acceptance level 1e-10 * max(1, ||u||).  So a polish whose best residual
    has not halved for POLISH_STALL iterations while it is above that level
    is on a wrong face: it returns the original solution there, as running
    on to POLISH_ITERATIONS would.  A converging polish keeps halving until
    it is below the level, so the rule does not end it.
    """
    if not sol.blocks or sol.status not in ("optimal", "max-iterations"):
        return sol
    sizes = [b.size for b in sdp.blocks]
    ranks = []
    factors = []
    for mat in sol.blocks:
        w, vecs = np.linalg.eigh((mat + mat.T) / 2)
        top = max(1.0, float(w[-1])) if w.size else 1.0
        keep = [j for j in range(len(w)) if w[j] > POLISH_RANK_TOL * top]
        ranks.append(len(keep))
        factors.append(vecs[:, keep] * np.sqrt(np.maximum(w[keep], 0.0))
                       if keep else np.zeros((mat.shape[0], 0)))
    nf = len(sdp.free_vars)
    offsets = []
    nu = nf
    for s, r in zip(sizes, ranks):
        offsets.append(nu)
        nu += s * r
    u0 = np.zeros(nu)
    for fi, name in enumerate(sdp.free_vars):
        u0[fi] = sol.free_values.get(name, 0.0)
    for bi, fac in enumerate(factors):
        u0[offsets[bi]:offsets[bi] + fac.size] = fac.reshape(-1)

    cons = sdp.constraints
    m = len(cons)
    amats = sdp.functional_matrices([con.coeffs for con in cons])
    fmat = np.array([sdp.free_coeff_vector(con.coeffs) for con in cons]
                    ).reshape(m, nf)
    rhs = np.array([float(con.rhs) for con in cons])

    def unpack(u):
        return [u[offsets[bi]:offsets[bi] + sizes[bi] * ranks[bi]]
                .reshape(sizes[bi], ranks[bi]) for bi in range(len(sizes))]

    def residual_and_jac(u):
        return face_residual_and_jacobian(amats, fmat, rhs, u[:nf], unpack(u))

    def rejected(res, u):
        return np.linalg.norm(res) > 1e-10 * max(1.0, np.linalg.norm(u))

    u = u0
    best, stalled = math.inf, 0
    for _ in range(POLISH_ITERATIONS):
        res, jac = residual_and_jac(u)
        norm = np.linalg.norm(res)
        if norm <= best / 2:
            best, stalled = norm, 0
        else:
            stalled += 1
            # on the right face the residual at least halves every iteration;
            # one that has not for POLISH_STALL iterations is on a wrong face
            if stalled >= POLISH_STALL and rejected(res, u):
                return sol
        step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return sol
        u = u + step
        if np.linalg.norm(step) > 1e3 * (1 + np.linalg.norm(u0)):
            return sol
        # singular faces converge linearly (error halves), so iterate on the
        # step size rather than the residual, which vanishes much earlier
        if np.linalg.norm(step) < 1e-15 * (1 + np.linalg.norm(u)):
            break
    res, _ = residual_and_jac(u)
    if rejected(res, u):
        return sol
    ls = unpack(u)
    mats = [l @ l.T for l in ls]
    frees = {name: float(u[fi]) for fi, name in enumerate(sdp.free_vars)}
    cmats = [c[0] for c in sdp.functional_matrices([sdp.cost])]
    keysum = float(sdp.free_coeff_vector(sdp.cost) @ u[:nf]) + \
        sum(float(np.tensordot(c, x)) for c, x in zip(cmats, mats))
    return replace(sol, objective=keysum, blocks=mats, free_values=frees,
                   primal_residual=float(np.linalg.norm(res)))
