"""Finite abelian groups as explicit direct sums of cyclic factors.

A group is a list of cyclic moduli; elements are residue tuples, indexed by a
fixed little-endian mixed-radix bijection with 0..order-1.  Two groups are
equal exactly when their moduli lists are equal (no invariant-factor
canonicalization), and the pairing identifies the dual group with G itself.
Subgroups are stored extensionally; subgroup and quotient realizations as
abstract groups are produced by Smith normal form, which keeps every
construction deterministic.

Hot loops never do tuple arithmetic.  They work on element indices through
the index kernel, cached per moduli tuple: a neg table neg[i] = -i, built in
O(|G|) over the mixed-radix digits; an add table add[i][j] = i + j, built
only by callers that add (|G|^2 ints, 4096 at order 64), one cyclic factor at
a time; and, per homomorphism, the index map hom_index_map(phi) sending each
source index to the index of its image.  Index 0 is always the identity.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from . import intlinalg

SUBGROUP_ORDER_BOUND = 64

Element = tuple[int, ...]


class FiniteAbelianGroup:
    """Direct sum of cyclic groups Z_{n1} + ... + Z_{nk}."""

    __slots__ = ("moduli", "order", "_weights")

    def __init__(self, moduli: Sequence[int]):
        moduli = tuple(int(n) for n in moduli)
        if not moduli:
            raise ValueError("moduli list must be non-empty")
        if any(n < 1 for n in moduli):
            raise ValueError(f"moduli must be positive, got {moduli}")
        self.moduli = moduli
        self.order = math.prod(moduli)
        w = []
        acc = 1
        for n in moduli:
            w.append(acc)
            acc *= n
        self._weights = tuple(w)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.moduli)})"

    def __str__(self):
        return format_group(self)

    # -- element indexing ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def element(self, index: int) -> Element:
        if not 0 <= index < self.order:
            raise IndexError(f"element index {index} out of range for {self}")
        res = []
        for n in self.moduli:
            index, r = divmod(index, n)
            res.append(r)
        return tuple(res)

    def index(self, x: Element) -> int:
        x = self.reduce(x)
        return sum(r * w for r, w in zip(x, self._weights))

    def reduce(self, x: Sequence[int]) -> Element:
        if len(x) != self.rank:
            raise ValueError(f"element {x} has wrong rank for {self}")
        return tuple(int(r) % n for r, n in zip(x, self.moduli))

    def contains(self, x: Sequence[int]) -> bool:
        return len(x) == self.rank and all(
            0 <= int(r) < n for r, n in zip(x, self.moduli)
        )

    def elements(self) -> Iterator[Element]:
        for i in range(self.order):
            yield self.element(i)

    # -- arithmetic ----------------------------------------------------------

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.moduli))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % n for a, n in zip(x, self.moduli))

    @property
    def neg_table(self) -> tuple[int, ...]:
        """neg[i] is the index of -element(i)."""
        return _neg_table(self.moduli)

    @property
    def index_tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(add, neg): add[i][j] is the index of element(i) + element(j) and
        neg the neg table."""
        return _add_table(self.moduli), _neg_table(self.moduli)

    def neg_index(self, i: int) -> int:
        if not 0 <= i < self.order:
            raise IndexError(f"element index {i} out of range for {self}")
        return _neg_table(self.moduli)[i]

    def exponent(self) -> int:
        return math.lcm(*self.moduli)


@lru_cache(maxsize=None)
def _add_table(moduli: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Built one cyclic factor Z_n at a time, factor 0 first: over the first
    factors, of order m, index i + m*r holds the residue r of Z_n."""
    rows, m = ((0,),), 1
    for n in moduli:
        rows = tuple(tuple([t + m * ((r + s) % n) for s in range(n) for t in row])
                     for r in range(n) for row in rows)
        m *= n
    return rows


@lru_cache(maxsize=None)
def _neg_table(moduli: tuple[int, ...]) -> tuple[int, ...]:
    """Built one digit at a time, as _add_table is."""
    neg, m = [0], 1
    for n in moduli:
        neg = [t + m * (-r % n) for r in range(n) for t in neg]
        m *= n
    return tuple(neg)


def make_group(moduli: Sequence[int]) -> FiniteAbelianGroup:
    """Build the direct sum of cyclic groups with the given moduli."""
    return FiniteAbelianGroup(moduli)


def dual_group(G: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """Character group: the pairing identifies it with G itself."""
    return G


def parse_group(text: str) -> FiniteAbelianGroup:
    """Parse literals like "Z4xZ2" into a group with moduli [4, 2]."""
    parts = text.strip().split("x")
    moduli = []
    for p in parts:
        p = p.strip()
        if not p.startswith("Z") or not (p[1:].isascii() and p[1:].isdigit()):
            raise ValueError(f"bad group literal {text!r}")
        moduli.append(int(p[1:]))
    return make_group(moduli)


def format_group(G: FiniteAbelianGroup) -> str:
    return "x".join(f"Z{n}" for n in G.moduli)


def pairing_exponent(G: FiniteAbelianGroup, a: Element, x: Element) -> int:
    """k such that <a, x> = exp(2*pi*i*k/E), E the exponent of G."""
    E = G.exponent()
    return sum(ai * xi * (E // n) for ai, xi, n in zip(a, x, G.moduli)) % E


def pairing(G: FiniteAbelianGroup, a: Element, x: Element) -> complex:
    """Character value <a, x> = exp(2*pi*i * sum_j a_j x_j / n_j)."""
    if not G.contains(a):
        raise ValueError(f"{a} is not an element of the dual of {G}")
    if not G.contains(x):
        raise ValueError(f"{x} is not an element of {G}")
    E = G.exponent()
    import cmath

    return cmath.exp(2j * cmath.pi * pairing_exponent(G, a, x) / E)


# -- subgroups ----------------------------------------------------------------


class Subgroup:
    """Extensionally stored subgroup of a small finite abelian group; with no
    generators given, its nonzero elements generate it."""

    __slots__ = ("parent", "elements", "generators")

    def __init__(self, parent: FiniteAbelianGroup, elements: Sequence[int],
                 generators: Sequence[Element]):
        self.parent = parent
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators) or tuple(
            parent.element(i) for i in self.elements if i)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.parent, self.elements))

    def __repr__(self):
        return f"Subgroup({self.parent}, {list(self.elements)})"

    def as_group(self) -> tuple[FiniteAbelianGroup, "Homomorphism"]:
        """Realize this subgroup as an abstract group plus its embedding."""
        return _subgroup_realization(self.parent.moduli, self.elements, self.generators)


def _adjoin(add, span, g: int) -> set[int]:
    """The subgroup generated by the subgroup `span` and the element g: the
    union of the cosets span + k*g, which repeat once one lands in span."""
    members = set(span)
    row = add[g]
    coset = [row[h] for h in span]
    while coset[0] not in members:
        members.update(coset)
        coset = [row[h] for h in coset]
    return members


def _close_under_addition(G: FiniteAbelianGroup, seeds: set[int]) -> frozenset[int]:
    add = G.index_tables[0]
    members = {0}
    for g in seeds:
        if g not in members:
            members = _adjoin(add, members, g)
    return frozenset(members)


def subgroup_from_generators(G: FiniteAbelianGroup,
                             gens: Sequence[Element]) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    elements = _close_under_addition(G, {G.index(g) for g in gens})
    return Subgroup(G, elements, tuple(G.reduce(g) for g in gens))


def subgroup_from_elements(G: FiniteAbelianGroup,
                           elements: Sequence[int]) -> Subgroup:
    """Wrap an element-index set as a subgroup, validating closure."""
    members = frozenset(elements)
    if 0 not in members:
        raise ValueError("subgroup must contain 0")
    for i in members:
        if not 0 <= i < G.order:
            raise ValueError(f"element index {i} out of range")
    add, neg = G.index_tables
    for i in members:
        if neg[i] not in members:
            raise ValueError("element set not closed under negation")
        row = add[i]
        if any(row[j] not in members for j in members):
            raise ValueError("element set not closed under addition")
    gens = _greedy_generators(G, members)
    return Subgroup(G, members, gens)


def _greedy_generators(G: FiniteAbelianGroup, members: frozenset[int]) -> tuple:
    add = G.index_tables[0]
    gens: list[Element] = []
    span = {0}
    for i in sorted(members):
        if i not in span:
            gens.append(G.element(i))
            span = _adjoin(add, span, i)
        if len(span) == len(members):
            break
    return tuple(gens)


def all_subgroups(G: FiniteAbelianGroup) -> list[Subgroup]:
    """Complete duplicate-free subgroup list, ordered by (size, element list)."""
    if G.order > SUBGROUP_ORDER_BOUND:
        raise ValueError(f"group order {G.order} exceeds bound {SUBGROUP_ORDER_BOUND}")
    return list(_all_subgroups_cached(G.moduli))


@lru_cache(maxsize=None)
def _all_subgroups_cached(moduli: tuple[int, ...]) -> tuple[Subgroup, ...]:
    G = FiniteAbelianGroup(moduli)
    add = G.index_tables[0]
    trivial = frozenset({0})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            # every element of the coset H + i adjoins to the same subgroup
            tried = set(H)
            for i in range(G.order):
                if i in tried:
                    continue
                row = add[i]
                tried.update(row[h] for h in H)
                closure = frozenset(_adjoin(add, H, i))
                if closure not in seen:
                    seen.add(closure)
                    nxt.append(closure)
        frontier = nxt
    subs = []
    for members in seen:
        gens = _greedy_generators(G, members)
        subs.append(Subgroup(G, members, gens))
    subs.sort(key=lambda H: (H.order, H.elements))
    return tuple(subs)


# -- homomorphisms -------------------------------------------------------------


class Homomorphism:
    """Additive map given by an integer matrix (target coords x source gens).

    The matrix is stored as int tuples, so maps built from lists and from
    tuples compare and hash equal: hom_index_map and dual_hom cache on them.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FiniteAbelianGroup, target: FiniteAbelianGroup,
                 matrix: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in matrix)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise ValueError("homomorphism matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = rows

    def __eq__(self, other):
        return isinstance(other, Homomorphism) and (
            (self.source, self.target, self.matrix)
            == (other.source, other.target, other.matrix))

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return (f"Homomorphism(source={self.source!r}, target={self.target!r}, "
                f"matrix={self.matrix!r})")


def hom_validate(phi: Homomorphism) -> None:
    """Raise unless phi respects the orders of the source generators."""
    for j, nj in enumerate(phi.source.moduli):
        for i, mi in enumerate(phi.target.moduli):
            if (nj * phi.matrix[i][j]) % mi:
                raise ValueError(
                    f"ill-defined homomorphism: {nj} * {phi.matrix[i][j]} "
                    f"!= 0 mod {mi} (source gen {j}, target coord {i})"
                )


def hom_apply(phi: Homomorphism, x: Element) -> Element:
    if len(x) != phi.source.rank:
        raise ValueError(f"element {x} has wrong rank for {phi.source}")
    return tuple(
        sum(phi.matrix[i][j] * x[j] for j in range(phi.source.rank)) % mi
        for i, mi in enumerate(phi.target.moduli)
    )


@lru_cache(maxsize=None)
def hom_index_map(phi: Homomorphism) -> tuple[int, ...]:
    """map[i] is the index of phi(element(i)) in the target, for every source index."""
    A, B = phi.source, phi.target
    return tuple(B.index(hom_apply(phi, A.element(i))) for i in range(A.order))


@lru_cache(maxsize=None)
def dual_hom(phi: Homomorphism) -> Homomorphism:
    """Adjoint map on characters: <dual_hom(phi)(b), x> = <b, phi(x)>."""
    hom_validate(phi)
    A, B = phi.source, phi.target
    # hom_validate makes every division exact
    rows = tuple(
        tuple(phi.matrix[i][j] * aj // bi % aj for i, bi in enumerate(B.moduli))
        for j, aj in enumerate(A.moduli)
    )
    return Homomorphism(dual_group(B), dual_group(A), rows)


# -- annihilators ---------------------------------------------------------------


def annihilator(G: FiniteAbelianGroup, H: Subgroup) -> Subgroup:
    """Characters of G trivial on H, as a subgroup of the dual group: those
    trivial on H's generators."""
    if H.parent != G:
        raise ValueError("subgroup belongs to a different group")
    Ghat = dual_group(G)
    members = frozenset(i for i, a in enumerate(Ghat.elements())
                        if all(pairing_exponent(G, a, h) == 0 for h in H.generators))
    return Subgroup(Ghat, members, _greedy_generators(Ghat, members))


# -- quotients -------------------------------------------------------------------


class QuotientGroup(NamedTuple):
    """Coset space of a subgroup, realized as an abstract group via SNF."""

    parent: FiniteAbelianGroup
    subgroup: Subgroup
    group: FiniteAbelianGroup
    projection_hom: Homomorphism
    coset_reps: tuple[int, ...]
    projection: tuple[int, ...]


def quotient(G: FiniteAbelianGroup, H: Subgroup) -> QuotientGroup:
    if H.parent != G:
        raise ValueError("subgroup belongs to a different group")
    return _quotient_realization(G.moduli, H.elements, H.generators)


@lru_cache(maxsize=None)
def _quotient_realization(moduli: tuple[int, ...], h_elements: tuple[int, ...],
                          h_gens: tuple[Element, ...]) -> QuotientGroup:
    G = FiniteAbelianGroup(moduli)
    H = Subgroup(G, h_elements, h_gens)
    k = G.rank
    gens = [G.element(i) for i in h_elements]
    A = [[moduli[i] if j == i else 0 for j in range(k)] for i in range(k)]
    for g in gens:
        for i in range(k):
            A[i].append(g[i])
    U, D, _ = intlinalg.smith_normal_form(A)
    diag = [D[i][i] for i in range(k)]
    keep = [i for i, d in enumerate(diag) if d > 1]
    if keep:
        Q = FiniteAbelianGroup([diag[i] for i in keep])
        proj_matrix = tuple(tuple(U[i][j] for j in range(k)) for i in keep)
    else:
        Q = FiniteAbelianGroup([1])
        proj_matrix = ((0,) * k,)
    pi = Homomorphism(G, Q, proj_matrix)
    hom_validate(pi)

    projection = hom_index_map(pi)
    reps: dict[int, int] = {}
    for i, c in enumerate(projection):
        reps.setdefault(c, i)
    if len(reps) * len(h_elements) != G.order:
        raise AssertionError("coset count mismatch in quotient construction")
    coset_reps = tuple(reps[c] for c in range(Q.order))
    return QuotientGroup(G, H, Q, pi, coset_reps, projection)


@lru_cache(maxsize=None)
def _subgroup_realization(moduli: tuple[int, ...], h_elements: tuple[int, ...],
                          gens: tuple[Element, ...]):
    G = FiniteAbelianGroup(moduli)
    if len(h_elements) == 1:
        H_abs = FiniteAbelianGroup([1])
        return H_abs, Homomorphism(H_abs, G, tuple((0,) for _ in range(G.rank)))
    m = len(gens)
    k = G.rank
    # kernel of Z^m -> G, e_j -> gens[j]: project ker[M | diag(n)] to z-coords
    A = [[gens[j][i] for j in range(m)] + [moduli[i] if t == i else 0
                                           for t in range(k)]
         for i in range(k)]
    kb = intlinalg.kernel_basis(A)
    K = [[v[j] for v in kb] for j in range(m)]  # m x r generating matrix of K
    _, Dp, Vp = intlinalg.smith_normal_form(K)
    diag = [Dp[i][i] if i < min(len(Dp), len(Dp[0]) if Dp else 0) else 0
            for i in range(m)]
    if any(d == 0 for d in diag):
        raise AssertionError("subgroup kernel lattice not of full rank")
    # the columns of Up^-1 give the new generators: Up K Vp = Dp, so column i
    # of K Vp is d_i times column i of Up^-1
    keep = [i for i in range(m) if diag[i] > 1]
    new_gens = []
    for i in keep:
        coords = [0] * k
        for j in range(m):
            c = sum(a * row[i] for a, row in zip(K[j], Vp)) // diag[i]
            for t in range(k):
                coords[t] += c * gens[j][t]
        new_gens.append(G.reduce(tuple(coords)))
    H_abs = FiniteAbelianGroup([diag[i] for i in keep])
    incl_matrix = tuple(tuple(g[t] for g in new_gens) for t in range(k))
    incl = Homomorphism(H_abs, G, incl_matrix)
    hom_validate(incl)
    # sanity: the embedding must be injective onto the stored element set
    image = set(hom_index_map(incl))
    if image != set(h_elements) or len(image) != H_abs.order:
        raise AssertionError("subgroup realization failed to match element set")
    return H_abs, incl


# -- catalogues -------------------------------------------------------------------


def factorizations(n: int) -> list[tuple[int, ...]]:
    """Multiset factorizations of n into parts >= 2, parts non-increasing."""
    if n == 1:
        return [(1,)]
    out = []

    def rec(rem: int, cap: int, acc: list[int]):
        if rem == 1:
            out.append(tuple(acc))
            return
        d = min(rem, cap)
        while d >= 2:
            if rem % d == 0:
                acc.append(d)
                rec(rem // d, d, acc)
                acc.pop()
            d -= 1

    rec(n, n, [])
    return out


def abelian_group_catalog(max_order: int) -> list[FiniteAbelianGroup]:
    """Every direct-sum presentation (up to factor order) with order <= max_order."""
    groups = []
    for n in range(1, max_order + 1):
        for moduli in factorizations(n):
            groups.append(FiniteAbelianGroup(moduli))
    return groups
