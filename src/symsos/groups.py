"""Finite signed-permutation group actions and their real irreducible representations.

Every group acts on R^n by signed permutations: coordinate permutations with
sign flips, which are exactly the orthogonal matrices with one nonzero entry
per column.  A group is given by such generator matrices and closed by
breadth-first composition; ``close_group`` refuses any other generator, and
``as_signed_perm`` is the one place where an exact matrix becomes a
``SignedPerm``.  A catalog action's ``generator_perms`` are the generators
every presentation, module basis and invariance check uses, and
``SignedPerm.substitute`` is the one substitution p(x) -> p(M x) for them.

Catalogs:
  * ``c2n:n``        sign flips of n coordinates, 2^n one-dimensional irreps
  * ``cyclic:m``     planar rotation for m in {1,2,4}, else m-cycle on vertices
  * ``dihedral:m``   planar for m in {1,2,4}, else vertex permutation action
                     (refused for m <= 2, where it is not faithful)
  * ``symmetric:n``  coordinate permutations, n <= 5, Young seminormal irreps
  * ``trivial:n``    the one-element group on R^n, n >= 1

Irrep matrices are rational.  They need not be orthogonal: each irrep keeps
an invariant form Q = sum_g rho(g)^T rho(g) that is diagonal, so it is
diagonally similar to an orthogonal realization and has the same diagonal
entries rho(g)_kk.  The symmetric groups use Young's seminormal form, and
S3's planar irrep and the rotations of order 3 and 6 are written in the
basis (e1, sqrt(3) e2).  Each conjugate pair of complex cyclic characters
e^{+-2 pi i j/m} is carried by one complex-type real irrep, the realified
rotation by 2 pi j/m.  A cyclic or dihedral rotation irrep whose order
m/gcd(m, j) is not in {1, 2, 3, 4, 6} has an irrational character: it keeps
its label, dimension, kind and Molien data but carries no matrices, and
``RealIrrep.matrix`` raises ValueError naming the rotation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

from .linalg import Matrix, mat_identity, mat_mul, mat_transpose
from .poly import Polynomial

DEFAULT_MAX_ORDER = 10080


# -- signed permutations -------------------------------------------------------


@dataclass(frozen=True)
class SignedPerm:
    """Matrix M with M e_i = sign[i] * e_{perm[i]} (one nonzero per column)."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(n)), (1,) * n)

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """Matrix product self @ other."""
        perm = tuple(self.perm[p] for p in other.perm)
        signs = tuple(other.signs[i] * self.signs[other.perm[i]]
                      for i in range(len(other.perm)))
        return SignedPerm(perm, signs)

    def inverse(self) -> "SignedPerm":
        n = len(self.perm)
        inv = [0] * n
        sg = [1] * n
        for i, p in enumerate(self.perm):
            inv[p] = i
            sg[p] = self.signs[i]
        return SignedPerm(tuple(inv), tuple(sg))

    def matrix(self) -> Matrix:
        n = len(self.perm)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, p in enumerate(self.perm):
            m[p][i] = Fraction(self.signs[i])
        return m

    def monomial_image(self, mono: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """(sign, exponent) with x^mono(M x) = sign * x^exponent.

        Substituting x -> M x sends x_k to signs[l] * x_l with perm[l] = k,
        so the image exponent at position l is mono[perm[l]], and signs[l]
        survives where that exponent is odd.
        """
        image = tuple(mono[p] for p in self.perm)
        sign = 1
        for e, s in zip(image, self.signs):
            if e % 2 and s < 0:
                sign = -sign
        return sign, image

    def substitute(self, p: Polynomial) -> Polynomial:
        """p(M x), term by term through ``monomial_image``."""
        if p.nvars != len(self.perm):
            raise ValueError("permutation size does not match polynomial variables")
        out = {}
        for mono, c in p.terms.items():
            sign, image = self.monomial_image(mono)
            out[image] = c if sign > 0 else -c
        return Polynomial(p.nvars, out)

    def signed_cycles(self) -> list[tuple[int, int]]:
        """(length, sign product) per cycle of the underlying permutation."""
        n = len(self.perm)
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            length, sign, i = 0, 1, start
            while not seen[i]:
                seen[i] = True
                sign *= self.signs[i]
                i = self.perm[i]
                length += 1
            out.append((length, sign))
        return out


def as_signed_perm(m: Matrix) -> SignedPerm | None:
    """The signed permutation whose exact matrix is m, or None if there is none."""
    n = len(m)
    perm, signs = [0] * n, [0] * n
    for col in range(n):
        hits = [row for row in range(n) if m[row][col] != 0]
        if len(hits) != 1 or m[hits[0]][col] not in (1, -1):
            return None
        perm[col], signs[col] = hits[0], int(m[hits[0]][col])
    if len(set(perm)) != n:
        return None
    return SignedPerm(tuple(perm), tuple(signs))


# -- group actions --------------------------------------------------------------


def _freeze(m: Matrix) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in m)


class GroupAction:
    """Finite signed-permutation group: element list (identity first) plus index tables."""

    def __init__(self, n: int, elements: list[SignedPerm],
                 parents: list[tuple[int, int]], generators: list[int]):
        self.n = n
        self.elements = elements
        self.parents = parents          # (parent index, generator position), identity = (-1, -1)
        self.generators = generators    # element indices of the generators
        self._key_index = {e: i for i, e in enumerate(elements)}
        self.inverse_table = [self._key_index[e.inverse()] for e in elements]

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        return self._key_index[self.elements[i].compose(self.elements[j])]

    @property
    def generator_perms(self) -> list[SignedPerm]:
        return [self.elements[i] for i in self.generators]

    def matrix(self, i: int) -> Matrix:
        return self.elements[i].matrix()

    @cached_property
    def classes(self) -> list[tuple[int, ...]]:
        """Conjugacy classes as sorted element-index tuples, in order of their first index.

        Each class is the orbit of its smallest element under x -> s^-1 x s
        over the generators s.  The smallest index is the one closest to the
        identity in the BFS closure, so it has the shortest parent chain.
        """
        inv = self.inverse_table
        seen = [False] * self.order
        out = []
        for start in range(self.order):
            if seen[start]:
                continue
            seen[start] = True
            orbit, frontier = [start], [start]
            while frontier:
                x = frontier.pop()
                for s in self.generators:
                    y = self.mult(self.mult(inv[s], x), s)
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
                        frontier.append(y)
            out.append(tuple(sorted(orbit)))
        return out


class ClosureError(ValueError):
    pass


def close_group(generators: Sequence[Matrix], max_order: int = DEFAULT_MAX_ORDER) -> GroupAction:
    """BFS closure of signed-permutation generators, identity first.

    A generator that is not an orthogonal signed permutation matrix raises
    ClosureError.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = len(generators[0])
    gens: list[SignedPerm] = []
    for g in generators:
        if len(g) != n or any(len(r) != n for r in g):
            raise ValueError("generators must be square matrices of equal size")
        sp = as_signed_perm(g)
        if sp is None:
            raise ClosureError("generator is not an orthogonal signed permutation")
        gens.append(sp)
    elements = [SignedPerm.identity(n)]
    parents: list[tuple[int, int]] = [(-1, -1)]
    seen = {elements[0]: 0}
    cur = 0
    while cur < len(elements):           # elements grow in breadth-first order
        for gi, gen in enumerate(gens):
            sp = elements[cur].compose(gen)
            if sp in seen:
                continue
            if len(elements) >= max_order:
                raise ClosureError(f"closure exceeds max_order={max_order}")
            seen[sp] = len(elements)
            elements.append(sp)
            parents.append((cur, gi))
        cur += 1
    return GroupAction(n, elements, parents, [seen[g] for g in gens])


# -- real irreducible representations -------------------------------------------


@dataclass
class RealIrrep:
    """Real irrep given by generator images, extended along closure words."""

    label: str
    dim: int
    kind: str                      # "absolutely-real" or "complex-type"
    action: GroupAction
    generator_images: list[tuple] | None  # frozen matrices, one per action generator
    molien_meta: tuple | None = None   # fast-path data for exact Molien series
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def sum_sq_contribution(self) -> Fraction:
        # complex-type real irreps come from a conjugate pair of complex
        # irreps of dimension dim/2, contributing 2*(dim/2)^2 = dim^2/2
        return Fraction(self.dim ** 2, 2 if self.kind == "complex-type" else 1)

    def matrix(self, i: int) -> Matrix:
        if i in self._cache:
            return self._cache[i]
        if self.generator_images is None:
            _, m, j = self.molien_meta
            raise ValueError(f"irrep {self.label} has no exact matrices: the rotation "
                             f"by 2*pi*{j}/{m} has an irrational character")
        if i == 0:
            m = mat_identity(self.dim)
        else:
            parent, gi = self.action.parents[i]
            m = mat_mul(self.matrix(parent),
                        [list(r) for r in self.generator_images[gi]])
        self._cache[i] = m
        return m

    def character(self, i: int) -> Fraction:
        m = self.matrix(i)
        return sum((m[k][k] for k in range(self.dim)), Fraction(0))

    @cached_property
    def copy_weights(self) -> list[Fraction]:
        """Q_jj / Q_00 of the diagonal invariant form Q (``invariant_form``)."""
        q = invariant_form(self.matrix, self.action.order)
        return [q[j][j] / q[0][0] for j in range(self.dim)]


@dataclass
class IrrepCatalog:
    name: str
    action: GroupAction
    irreps: list[RealIrrep]

    def check_sum_of_squares(self) -> bool:
        return sum(r.sum_sq_contribution for r in self.irreps) == self.action.order

    def irrep(self, label: str) -> RealIrrep:
        for r in self.irreps:
            if r.label == label:
                return r
        raise KeyError(label)


@dataclass
class RepReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def invariant_form(matrices: Callable[[int], Matrix], order: int) -> Matrix:
    """Q = sum_g rho(g)^T rho(g), so that rho(g)^T Q rho(g) = Q for every g."""
    q = None
    for i in range(order):
        m = matrices(i)
        mtm = mat_mul(mat_transpose(m), m)
        q = mtm if q is None else [[a + b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(q, mtm)]
    return q


def verify_representation(matrices: Callable[[int], Matrix] | RealIrrep,
                          action: GroupAction) -> RepReport:
    """Check the homomorphism property and a diagonal invariant form, exactly.

    The homomorphism check runs over the Cayley edges: rho(g) rho(s) =
    rho(g s) for every element g and every generator s.  Since the
    generators generate the group, this forces rho(e) = I and rho(word) =
    product of generator images, so it is as exhaustive as the full
    multiplication table at |G| * |gens| products.  The invariant form
    ``invariant_form`` must be diagonal, which makes the matrices diagonally
    similar to orthogonal ones.
    """
    get = matrices.matrix if isinstance(matrices, RealIrrep) else matrices
    violations = []
    for i in range(action.order):
        for s in action.generators:
            if mat_mul(get(i), get(s)) != get(action.mult(i, s)):
                violations.append(f"homomorphism violated at ({i},{s})")
                if len(violations) > 20:
                    return RepReport(violations)
    q = invariant_form(get, action.order)
    if any(q[r][c] for r in range(len(q)) for c in range(len(q)) if r != c):
        violations.append("invariant form is not diagonal")
    return RepReport(violations)


def character_orthogonality(catalog: IrrepCatalog) -> RepReport:
    """Characters of distinct irreps are orthogonal; norms are 1 (or 2, complex-type).

    Irreps without matrices are left out.
    """
    violations = []
    irreps = [r for r in catalog.irreps if r.generator_images is not None]
    chars = {r.label: [r.character(i) for i in range(catalog.action.order)]
             for r in irreps}
    order = catalog.action.order
    inv = catalog.action.inverse_table
    for a in irreps:
        for b in irreps:
            val = sum((chars[a.label][i] * chars[b.label][inv[i]]
                       for i in range(order)), Fraction(0)) / order
            if a.label == b.label:
                expect = Fraction(2 if a.kind == "complex-type" else 1)
            else:
                expect = Fraction(0)
            if val != expect:
                violations.append(f"<{a.label},{b.label}> = {val}, expected {expect}")
    return RepReport(violations)


# -- rotations -------------------------------------------------------------------


def rotation_matrix(m: int, k: int) -> Matrix:
    """The rotation by 2*pi*k/m, a multiple of a quarter turn (m in {1, 2, 4})."""
    if 4 % m:
        raise ValueError(f"the rotation by 2*pi*{k}/{m} is not a quarter-turn multiple")
    c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[4 * k // m % 4]
    return [[Fraction(c), Fraction(-s)], [Fraction(s), Fraction(c)]]


def _rotation_irrep(m: int, j: int) -> tuple | None:
    """Rational realization of the rotation by 2*pi*j/m, or None.

    With d = m/gcd(m, j), the rotation itself is rational for d in {1, 2, 4}.
    For d in {3, 6} it is [[c, -3t], [t, c]] with c its cosine and t = sin/sqrt(3)
    = +-1/2, the rotation in the basis (e1, sqrt(3) e2).  Every other d has an
    irrational character 2 cos(2 pi j/m).
    """
    d = m // math.gcd(m, j)
    t = j * d // m                                  # the rotation by 2*pi*t/d
    if d in (1, 2, 4):
        return _freeze(rotation_matrix(d, t))
    if d in (3, 6):
        c = Fraction(-1, 2) if d == 3 else Fraction(1, 2)
        s = Fraction(1, 2) if 2 * t < d else Fraction(-1, 2)
        return _freeze([[c, -3 * s], [s, c]])
    return None


# -- catalogs --------------------------------------------------------------------


def trivial_catalog(n: int) -> IrrepCatalog:
    if n < 1:
        raise ValueError("trivial catalog supports n >= 1")
    action = close_group([mat_identity(n)])
    triv = RealIrrep("theta1", 1, "absolutely-real", action, [((Fraction(1),),)])
    return IrrepCatalog(f"trivial:{n}", action, [triv])


def c2n_catalog(n: int) -> IrrepCatalog:
    """Sign flips of each coordinate; 2^n one-dimensional character irreps."""
    if not 1 <= n <= 10:
        raise ValueError("c2n catalog supports 1 <= n <= 10")
    gens = []
    for i in range(n):
        d = mat_identity(n)
        d[i][i] = Fraction(-1)
        gens.append(d)
    action = close_group(gens, max_order=2 ** n + 1)
    # one irrep per subset, ordered by (type r, subset); value = product of signs
    irreps = []
    for subset in sorted(itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n + 1)),
            key=lambda s: (len(s), s)):
        label = "chi_" + ("0" if not subset else "".join(str(i + 1) for i in subset))
        images = []
        for gidx in action.generators:
            sg = action.elements[gidx].signs
            val = 1
            for i in subset:
                val *= sg[i]
            images.append(((Fraction(val),),))
        rep = RealIrrep(label, 1, "absolutely-real", action, images,
                        molien_meta=("c2n", n, subset))
        irreps.append(rep)
    return IrrepCatalog(f"c2n:{n}", action, irreps)


def _cyclic_action(m: int, variant: str) -> GroupAction:
    if variant == "planar":
        if m not in (1, 2, 4):
            raise ValueError("planar cyclic action is only exact (and monomial-"
                             "permuting) for m in {1,2,4}; use the permutation variant")
        if m == 1:
            return close_group([mat_identity(1)])
        return close_group([rotation_matrix(m, 1)])
    # permutation of m vertices
    perm = [[Fraction(1) if r == (c + 1) % m else Fraction(0) for c in range(m)]
            for r in range(m)]
    if m == 1:
        perm = mat_identity(1)
    return close_group([perm])


def _cyclic_irreps(m: int, action: GroupAction) -> list[RealIrrep]:
    irreps = []
    irreps.append(RealIrrep("t", 1, "absolutely-real", action, [((Fraction(1),),)]))
    if m % 2 == 0 and m > 1:
        irreps.append(RealIrrep("t", 1, "absolutely-real", action, [((Fraction(-1),),)]))
    for j in range(1, (m + 1) // 2):
        # the conjugate pair e^{+-2 pi i j/m} realifies to the rotation by 2 pi j/m
        rot = _rotation_irrep(m, j)
        images = None if rot is None else [rot]
        irreps.append(RealIrrep("t", 2, "complex-type", action, images,
                                molien_meta=("cyclic-pair", m, j)))
    for i, r in enumerate(irreps):
        r.label = f"theta{i + 1}"
    return irreps


def cyclic_catalog(m: int, variant: str | None = None) -> IrrepCatalog:
    if not 1 <= m <= 12:
        raise ValueError("cyclic catalog supports 1 <= m <= 12")
    if variant is None:
        variant = "planar" if m in (1, 2, 4) else "permutation"
    action = _cyclic_action(m, variant)
    return IrrepCatalog(f"cyclic:{m}:{variant}", action, _cyclic_irreps(m, action))


def _dihedral_action(m: int, variant: str) -> GroupAction:
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    if variant == "planar":
        if m not in (1, 2, 4):
            raise ValueError("planar dihedral action is only exact (and monomial-"
                             "permuting) for m in {1,2,4}; use the permutation variant")
        if m == 1:
            return close_group([swap])
        return close_group([rotation_matrix(m, 1), swap])
    if m <= 2:
        raise ValueError(f"catalog spec 'dihedral:{m}:permutation' is not a faithful "
                         f"action: the reflection fixes every vertex for m <= 2; "
                         f"use the planar variant")
    rot = [[Fraction(1) if r == (c + 1) % m else Fraction(0) for c in range(m)]
           for r in range(m)]
    refl = [[Fraction(1) if r == (-c) % m else Fraction(0) for c in range(m)]
            for r in range(m)]
    return close_group([rot, refl])


def _dihedral_irreps(m: int, action: GroupAction) -> list[RealIrrep]:
    # generator order follows the action: [rotation, reflection], or the
    # reflection alone for m = 1
    one = ((Fraction(1),),)
    neg = ((Fraction(-1),),)
    if m == 1:
        characters = [[one], [neg]]
    else:
        characters = [[one, one], [one, neg]]
        if m % 2 == 0:
            characters += [[neg, one], [neg, neg]]
    irreps = [RealIrrep("t", 1, "absolutely-real", action, images)
              for images in characters]
    for j in range(1, (m + 1) // 2 if m % 2 else m // 2):
        rot = _rotation_irrep(m, j)
        refl = _freeze([[1, 0], [0, -1]])
        images = None if rot is None else [rot, refl]
        irreps.append(RealIrrep("t", 2, "absolutely-real", action, images,
                                molien_meta=("dihedral", m, j)))
    for i, r in enumerate(irreps):
        r.label = f"theta{i + 1}"
    return irreps


def dihedral_catalog(m: int, variant: str | None = None) -> IrrepCatalog:
    if not 1 <= m <= 12:
        raise ValueError("dihedral catalog supports 1 <= m <= 12")
    if variant is None:
        variant = "planar" if m in (1, 2, 4) else "permutation"
    action = _dihedral_action(m, variant)
    irreps = _dihedral_irreps(m, action)
    if m == 4 and variant == "planar":
        # the classical unitary table for the order-8 dihedral group: the
        # two-dimensional irrep sends the rotation d to a quarter turn and the
        # reflection s to the coordinate swap
        d_img = _freeze([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])
        s_img = _freeze([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        irreps[4] = RealIrrep("theta5", 2, "absolutely-real", action, [d_img, s_img],
                              molien_meta=("dihedral", 4, 1))
    return IrrepCatalog(f"dihedral:{m}:{variant}", action, irreps)


# -- symmetric group via Young's seminormal form ----------------------------------


def partitions_desc(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order."""
    out = []

    def rec(rest: int, maxpart: int, prefix: tuple[int, ...]):
        if rest == 0:
            out.append(prefix)
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + (p,))

    rec(n, n, ())
    return out


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    n = sum(shape)
    rows = len(shape)

    def rec(filled: list[list[int]], k: int):
        if k > n:
            yield tuple(tuple(r) for r in filled)
            return
        for r in range(rows):
            c = len(filled[r])
            if c < shape[r] and (r == 0 or len(filled[r - 1]) > c):
                filled[r].append(k)
                yield from rec(filled, k + 1)
                filled[r].pop()

    return list(rec([[] for _ in range(rows)], 1))


def _seminormal_generator_matrix(shape: tuple[int, ...], k: int) -> Matrix:
    """Young seminormal matrix of the adjacent transposition (k, k+1).

    A tableau t with axial distance d from k to k+1 gets 1/d on the diagonal.
    When swapping k and k+1 in t gives a standard tableau t', the pair
    (t, t') gets 1 if d > 0 and 1 - 1/d^2 if d < 0: the orthogonal form's
    sqrt(1 - 1/d^2) both ways, up to a diagonal change of basis.
    """
    tabs = standard_tableaux(shape)
    index = {t: i for i, t in enumerate(tabs)}
    dim = len(tabs)
    m = [[Fraction(0)] * dim for _ in range(dim)]

    def find(t, v):
        for r, row in enumerate(t):
            for c, x in enumerate(row):
                if x == v:
                    return r, c
        raise AssertionError

    for t in tabs:
        i = index[t]
        r1, c1 = find(t, k)
        r2, c2 = find(t, k + 1)
        d = (c2 - r2) - (c1 - r1)
        m[i][i] = Fraction(1, d)
        swapped = [list(row) for row in t]
        swapped[r1][c1], swapped[r2][c2] = k + 1, k
        key = tuple(tuple(r) for r in swapped)
        if key in index:
            m[i][index[key]] = Fraction(1) if d > 0 else 1 - Fraction(1, d * d)
    return m


def transposition_generators(n: int) -> list[Matrix]:
    """Permutation matrices of the adjacent transpositions (k, k+1), k < n - 1."""
    gens = []
    for k in range(n - 1):
        p = mat_identity(n)
        p[k][k] = p[k + 1][k + 1] = Fraction(0)
        p[k][k + 1] = p[k + 1][k] = Fraction(1)
        gens.append(p)
    return gens


def symmetric_catalog(n: int) -> IrrepCatalog:
    """Coordinate-permutation action of the symmetric group, n <= 5."""
    if not 2 <= n <= 5:
        raise ValueError("symmetric catalog supports 2 <= n <= 5")
    action = close_group(transposition_generators(n),
                         max_order=math.factorial(n) + 1)
    shapes = partitions_desc(n)
    if n == 3:
        # classical table order: trivial, sign, then the planar standard irrep
        shapes = [(3,), (1, 1, 1), (2, 1)]
    irreps = []
    for si, shape in enumerate(shapes):
        tabs = standard_tableaux(shape)
        images = [_freeze(_seminormal_generator_matrix(shape, k + 1))
                  for k in range(n - 1)]
        rep = RealIrrep(f"theta{si + 1}", len(tabs), "absolutely-real", action, images)
        irreps.append(rep)
    if n == 3:
        # the planar irrep in the basis (e1, sqrt(3) e2)
        s12 = _freeze([[Fraction(-1, 2), Fraction(3, 2)], [Fraction(1, 2), Fraction(1, 2)]])
        s23 = _freeze([[1, 0], [0, -1]])
        irreps[2] = RealIrrep("theta3", 2, "absolutely-real", action, [s12, s23])
    return IrrepCatalog(f"symmetric:{n}", action, irreps)


# -- dispatcher -------------------------------------------------------------------


# family -> (fewest, most) fields after the family name
_SPEC_FIELDS = {"trivial": (0, 1), "c2n": (1, 1), "cyclic": (1, 2),
                "dihedral": (1, 2), "symmetric": (1, 1)}


def parse_spec(spec: str) -> tuple[str, int, str | None]:
    """Split a "family:param[:variant]" spec into (family, param, variant).

    A bare "trivial" means "trivial:1".  A missing, extra or malformed field
    raises ValueError naming the spec.
    """
    family, *fields = spec.split(":")
    if family not in _SPEC_FIELDS:
        raise ValueError(f"unsupported catalog entry {spec!r}")
    fewest, most = _SPEC_FIELDS[family]
    if not fewest <= len(fields) <= most:
        want = str(most) if fewest == most else f"{fewest} to {most}"
        raise ValueError(f"catalog spec {spec!r} needs {want} field(s) after "
                         f"{family!r}, not {len(fields)}")
    if not fields:
        return family, 1, None
    try:
        param = int(fields[0])
    except ValueError:
        raise ValueError(f"catalog spec {spec!r} needs an integer parameter, "
                         f"not {fields[0]!r}") from None
    variant = fields[1] if len(fields) > 1 else None
    if variant not in (None, "planar", "permutation"):
        raise ValueError(f"catalog spec {spec!r} names an unknown variant "
                         f"{variant!r}; use planar or permutation")
    return family, param, variant


def catalog(spec: str) -> IrrepCatalog:
    """Build a catalog from a "family:param[:variant]" spec string."""
    family, param, variant = parse_spec(spec)
    if family == "trivial":
        return trivial_catalog(param)
    if family == "c2n":
        return c2n_catalog(param)
    if family == "cyclic":
        return cyclic_catalog(param, variant)
    if family == "dihedral":
        return dihedral_catalog(param, variant)
    return symmetric_catalog(param)
