"""Free-module bases of equivariant polynomial maps and their Gram matrices.

For each irrep the catalog ships module generators b_1..b_r (polynomial
column vectors) over the primary-invariant ring, verified against the group
generators.  The compressed matrix Pi has entries <b_k, b_l> rewritten in the
fundamental invariants; it is pointwise PSD on real orbits because it is a
Gram matrix of real vectors.

Component vectors either transform by the irrep matrices themselves (D4 and
C4 data as classically printed) or are embedded in a rational representation
with the same inner products: the symmetric-group standard and sign-twisted
modules in coordinate permutations, and the two-dimensional modules of S3
and S4 in edge coordinates (v1 - v2, v2 - v3, v3 - v1) of a permuted triple v,
whose inner product is 3<v, v'> - (sum v)(sum v').  Pi depends only on inner
products, so every basis and every Pi entry is rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import GroupAction, IrrepCatalog, RealIrrep, SignedPerm, parse_spec
from .invariants import (InvariantPoly, InvariantPresentation, rewrite_in_invariants,
                         theta_monomials, weighted_degree)
from .linalg import Matrix, RowBasis
from .poly import Monomial, Polynomial, monomial_vector, parse_polynomial


@dataclass
class EquivariantBasis:
    """Module generators for one irrep; components may be an embedded rep."""

    irrep_label: str
    nvars: int
    vectors: list[tuple[Polynomial, ...]]
    comp_images: list[Matrix]        # component transform per group generator
    group_generators: list[SignedPerm]

    @property
    def rank(self) -> int:
        return len(self.vectors)

    @property
    def degrees(self) -> list[int]:
        return [max(p.degree() for p in v if not p.is_zero()) for v in self.vectors]

    def verify(self) -> None:
        """b(theta(g) x) = M_g b(x) exactly, for every generator and vector."""
        for g, m in zip(self.group_generators, self.comp_images):
            for b in self.vectors:
                lhs = [g.substitute(p) for p in b]
                rhs = [sum((Polynomial.constant(self.nvars, m[r][c]) * b[c]
                            for c in range(len(b))), Polynomial.zero(self.nvars))
                       for r in range(len(b))]
                if lhs != rhs:
                    raise ValueError(f"equivariance fails for {self.irrep_label}")


@dataclass
class PiMatrix:
    """Symmetric r x r matrix of <b_k, b_l> written in the invariants."""

    irrep_label: str
    entries: list[list[InvariantPoly]]

    @property
    def rank(self) -> int:
        return len(self.entries)

    def diagonal_degrees(self, pres: InvariantPresentation) -> list[int]:
        return [weighted_degree(self.entries[k][k], pres) for k in range(self.rank)]


def pi_matrix(basis: EquivariantBasis, pres: InvariantPresentation) -> PiMatrix:
    """Gram matrix of the module generators, rewritten in (theta, eta)."""
    r = basis.rank
    entries: list[list[InvariantPoly]] = [[None] * r for _ in range(r)]
    for k in range(r):
        for l in range(k, r):
            prod = Polynomial.zero(basis.nvars)
            for pk, pl in zip(basis.vectors[k], basis.vectors[l]):
                prod = prod + pk * pl
            ip = rewrite_in_invariants(prod, pres)
            entries[k][l] = entries[l][k] = ip
    return PiMatrix(basis.irrep_label, entries)


def monomial_envelope(pres: InvariantPresentation, pi: PiMatrix,
                      target_degree: int) -> list[list[Monomial]]:
    """Per-row theta-monomials bounding the Gram support of the SOS factor.

    Row k holds all theta-monomials of weighted degree at most
    floor((target - deg pi_kk)/2); rows with a negative budget are empty, and
    a block whose rows are all empty cannot contribute at this degree.
    """
    degs = pres.theta_degrees
    rows = []
    for k, dkk in enumerate(pi.diagonal_degrees(pres)):
        budget = (target_degree - dkk) // 2 if target_degree >= dkk else -1
        rows.append(theta_monomials(degs, budget) if budget >= 0 else [])
    return rows


# -- generic exact generator search (embedded component representations) ----------


def _homogeneous_action(action: GroupAction, d: int):
    """Per element: degree-d monomial index -> (sign, image index)."""
    basis = monomial_vector(action.n, d, homogeneous=True)
    index = basis.index()
    maps = []
    for g in action.elements:
        out = []
        for mono in basis.entries:
            sign, image = g.monomial_image(mono)
            out.append((sign, index[image]))
        maps.append(out)
    return basis, maps


def find_equivariant_generators(action: GroupAction, comp_rep: RealIrrep,
                                pres: InvariantPresentation, degrees: list[int],
                                expected: dict[int, int] | None = None
                                ) -> list[tuple[Polynomial, ...]]:
    """Module generators of maps b with b(theta(g)x) = M_g b(x), degree by degree.

    Works for exact rational component representations over signed-permutation
    actions.  At each degree the Reynolds average projects coordinate vectors
    onto the equivariant space; generators are the directions independent of
    the span of theta-multiples of lower-degree generators, each multiplier
    theta^alpha taken from the presentation's product table.
    """
    c = comp_rep.dim
    inv = action.inverse_table
    theta_degs = pres.theta_degrees
    gens: list[tuple[Polynomial, ...]] = []
    gens_with_degree: list[tuple[int, tuple[Polynomial, ...]]] = []
    for d in degrees:
        basis, maps = _homogeneous_action(action, d)
        h = len(basis)
        ncols = c * h
        index = basis.index()

        def project(comp: int, mono_idx: int) -> list[Fraction]:
            row = [Fraction(0)] * ncols
            for g in range(action.order):
                minv = comp_rep.matrix(inv[g])
                sign, img = maps[g][mono_idx]
                for r in range(c):
                    val = minv[r][comp]
                    if val != 0:
                        row[r * h + img] += Fraction(sign) * val
            return [v / action.order for v in row]

        # span of module products theta^alpha * lower-degree generator
        module = RowBasis(ncols)
        for gd, gvec in gens_with_degree:
            if gd >= d:
                continue
            for alpha in theta_monomials(theta_degs, d - gd, exactly=d - gd):
                row = [Fraction(0)] * ncols
                for comp in range(c):
                    prod = pres.product(0, alpha) * gvec[comp]
                    for m, coef in prod.terms.items():
                        row[comp * h + index[m]] = coef
                module.add(row)
        space = RowBasis(ncols)
        found = 0
        target = expected.get(d) if expected else None
        for mono_idx in range(h):
            for comp in range(c):
                row = project(comp, mono_idx)
                if any(v != 0 for v in row) and space.add(row) and \
                        not module.contains(row):
                    module.add(row)
                    vec = tuple(Polynomial(action.n,
                                           {basis.entries[i]: row[c2 * h + i]
                                            for i in range(h) if row[c2 * h + i] != 0})
                                for c2 in range(c))
                    gens_with_degree.append((d, vec))
                    gens.append(vec)
                    found += 1
                if target is not None and found == target:
                    break
            if target is not None and found == target:
                break
    return gens


# -- catalog data ------------------------------------------------------------------


def _poly(text: str, names) -> Polynomial:
    return parse_polynomial(text, names)


def _power_sum_centered(n: int, k: int) -> tuple[Polynomial, ...]:
    """(x_i^k - p_k/n)_i, the embedded standard-component equivariant."""
    pk = sum((Polynomial.monomial(n, tuple(k if j == i else 0 for j in range(n)))
              for i in range(n)), Polynomial.zero(n))
    return tuple(Polynomial.monomial(n, tuple(k if j == i else 0 for j in range(n)))
                 - pk.scale(Fraction(1, n)) for i in range(n))


def _vandermonde(n: int) -> Polynomial:
    out = Polynomial.constant(n, 1)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (Polynomial.variable(n, i) - Polynomial.variable(n, j))
    return out


def _edge_coordinates(v: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
    """(v1 - v2, v2 - v3, v3 - v1); inner products are 3<v, v'> - (sum v)(sum v')."""
    return (v[0] - v[1], v[1] - v[2], v[2] - v[0])


# the edge coordinates under a swap of (v1, v2) and under a swap of (v2, v3)
_SWAP12 = [[Fraction(v) for v in row] for row in ((-1, 0, 0), (0, 0, -1), (0, -1, 0))]
_SWAP23 = [[Fraction(v) for v in row] for row in ((0, 0, -1), (0, -1, 0), (-1, 0, 0))]


def _symmetric_bases(n: int, catalog: IrrepCatalog, pres: InvariantPresentation
                     ) -> dict[str, EquivariantBasis]:
    """Trivial, embedded standard, sign modules; S3's standard module and S4's
    two-dimensional one in edge coordinates; S4 also the sign-twisted standard."""
    gens = pres.generators
    perms = [g.matrix() for g in gens]     # the standard module's components
    one = Polynomial.constant(n, 1)
    out: dict[str, EquivariantBasis] = {}
    out["trivial"] = EquivariantBasis("trivial", n, [(one,)],
                                      [[[Fraction(1)]] for _ in gens], gens)
    out["standard"] = EquivariantBasis(
        "standard", n, [_power_sum_centered(n, k) for k in range(1, n)],
        perms, gens)
    out["sign"] = EquivariantBasis("sign", n, [(_vandermonde(n),)],
                                   [[[Fraction(-1)]] for _ in gens], gens)
    if n == 3:
        # (12) and (23) swap entries 1, 2 and 2, 3 of v = (x, y, z) and of (yz, zx, xy)
        x, y, z = (Polynomial.variable(3, i) for i in range(3))
        out["standard"] = EquivariantBasis(
            "standard", 3, [_edge_coordinates((x, y, z)),
                            _edge_coordinates((y * z, z * x, x * y))],
            [_SWAP12, _SWAP23], gens)
    if n == 4:
        names = ["x1", "x2", "x3", "x4"]
        u1 = _poly("x1*x2 + x3*x4", names)
        u2 = _poly("x1*x3 + x2*x4", names)
        u3 = _poly("x1*x4 + x2*x3", names)
        # generator images: (12)->(u2 u3), (23)->(u1 u2), (34)->(u2 u3)
        out["two_dim"] = EquivariantBasis(
            "two_dim", 4, [_edge_coordinates((u1, u2, u3)),
                           _edge_coordinates((u2 * u3, u3 * u1, u1 * u2))],
            [_SWAP23, _SWAP12, _SWAP23], gens)
        # sign-twisted standard: components transform by -P(g) on transpositions
        twisted_images = [[[-v for v in row] for row in p] for p in perms]
        twisted = RealIrrep("perm_sign", 4, "absolutely-real", catalog.action,
                            [tuple(tuple(v for v in row) for row in m)
                             for m in twisted_images])
        vecs = find_equivariant_generators(catalog.action, twisted, pres, [3, 4, 5],
                                           expected={3: 1, 4: 1, 5: 1})
        if len(vecs) != 3:
            raise ValueError("sign-twisted standard module search failed")
        out["twisted_standard"] = EquivariantBasis("twisted_standard", 4, vecs,
                                                   twisted_images, gens)
    return out


_SYM_IRREP_MODULE = {
    # catalog irrep label -> module key, per symmetric group order
    2: {"theta1": "trivial", "theta2": "standard"},
    3: {"theta1": "trivial", "theta2": "sign", "theta3": "standard"},
    4: {"theta1": "trivial", "theta2": "standard", "theta3": "two_dim",
        "theta4": "twisted_standard", "theta5": "sign"},
    5: {"theta1": "trivial", "theta2": "standard", "theta7": "sign"},
}


class MissingEquivariantData(KeyError):
    pass


def equivariant_catalog(catalog: IrrepCatalog, pres: InvariantPresentation
                        ) -> tuple[dict[str, EquivariantBasis], list[str]]:
    """Verified module bases per irrep label, plus labels with no shipped data.

    The second return value is nonempty only for the symmetric group on five
    letters, whose modules beyond trivial/standard/sign are not cataloged.
    """
    family, param, variant = parse_spec(catalog.name)
    planar = variant in (None, "planar")       # the default at 4
    gens = catalog.action.generator_perms
    missing: list[str] = []
    out: dict[str, EquivariantBasis] = {}
    if family == "trivial":
        # the whole ring is the invariant ring; the module basis is eta = (1)
        n = catalog.action.n
        out["theta1"] = EquivariantBasis("theta1", n, [(Polynomial.constant(n, 1),)],
                                         [[[Fraction(1)]]], gens)
    elif family == "c2n":
        n = param
        for irrep in catalog.irreps:
            subset = irrep.molien_meta[2]
            mono = tuple(1 if i in subset else 0 for i in range(n))
            vec = (Polynomial.monomial(n, mono),)
            images = [[[irrep.matrix(g)[0][0]]] for g in catalog.action.generators]
            out[irrep.label] = EquivariantBasis(irrep.label, n, [vec], images, gens)
    elif family == "dihedral" and param == 4 and planar:
        names = ["x", "y"]
        data = {
            "theta1": [( _poly("1", names),)],
            "theta2": [(_poly("x^3*y - x*y^3", names),)],
            "theta3": [(_poly("x*y", names),)],
            "theta4": [(_poly("x^2 - y^2", names),)],
            "theta5": [(_poly("x", names), _poly("y", names)),
                       (_poly("x^3", names), _poly("y^3", names))],
        }
        for irrep in catalog.irreps:
            vecs = data[irrep.label]
            images = [irrep.matrix(g) for g in catalog.action.generators]
            out[irrep.label] = EquivariantBasis(irrep.label, 2, vecs, images, gens)
    elif family == "cyclic" and param == 4 and planar:
        names = ["x", "y"]
        data = {
            "theta1": [(_poly("1", names),), (_poly("x^3*y - x*y^3", names),)],
            "theta2": [(_poly("x*y", names),), (_poly("x^2 - y^2", names),)],
            "theta3": [(_poly("x", names), _poly("y", names)),
                       (_poly("x^3", names), _poly("y^3", names))],
        }
        for irrep in catalog.irreps:
            vecs = data[irrep.label]
            images = [irrep.matrix(g) for g in catalog.action.generators]
            out[irrep.label] = EquivariantBasis(irrep.label, 2, vecs, images, gens)
    elif family == "symmetric":
        import dataclasses
        modules = _symmetric_bases(param, catalog, pres)
        table = _SYM_IRREP_MODULE[param]
        missing = [r.label for r in catalog.irreps if r.label not in table]
        for irrep in catalog.irreps:
            if irrep.label in table:
                out[irrep.label] = dataclasses.replace(modules[table[irrep.label]],
                                                       irrep_label=irrep.label)
    else:
        raise MissingEquivariantData(f"no equivariant catalog for {catalog.name}")
    for basis in out.values():
        basis.verify()
    return out, missing
