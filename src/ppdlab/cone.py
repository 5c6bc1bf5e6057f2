"""The polyhedral cone of PPD functions inside the even-function subspace.

Real PPD functions are even, so the cone lives in coordinates indexed by the
orbits {x, -x}.  Its H-representation has one inequality per element orbit
(pointwise nonnegativity), then one per dual orbit (transform nonnegativity),
in the row layout PolyhedralCone states; the good functions are exactly the
strict interior.  The order bound HREP_ORDER_BOUND is the one cone bound: every
cone within it gets its rays.  Extremal rays come from
an incremental double-description pass in integer coordinates over the basis
{1, 2cos(2pi j/e)} of Z[2cos(2pi/e)] (e the group exponent), where every
coefficient and ray coordinate lives: each new ray is divided by its integer
content, tight sets are bitmasks, pairs sharing fewer than d - 2 tight
inequalities are skipped before the adjacency scan, signs are certified,
insertion order is fixed, and every output ray passes the tightness-rank
test: the rank of its tight rows is certified as d - 1 over F_p (a ring map
of Z[2cos(2pi/e)] onto F_p, p = 1 mod e).  Every product of a row with a ray,
in the sign pass and in that check, is an integer matrix product:
extremal_rays builds, per row, the matrix of v -> <row, v>, m rows (m the rank
of the ring) over the d*m flattened ring coordinates of a ray.  When the rank
over F_p falls short, the Smith form of the tight rows' stacked matrices
decides: their rank over Q is m times the rank of the rows.  The products
of the dual rows with every ray that this check certifies are kept: they are
the ray's transform, which the self-duality pairing reads, and with the ray's
own coordinates (its products with the point rows) their zeros are the tight
set the report prints.  Canonical rays are
primitive with the first nonzero coordinate a positive integer.  The H-rep is
built once per group, with the integer rows of its coefficients.  A dual
coefficient is the sum of zeta_E^-k over an orbit with pairing exponent k:
2cos(2pi k/E), read off the ring's cos table, over {x, -x}, and half of it over
x = -x.  Double description, the printed reports and membership (one loop
for every mode, _inequality_signs) read those rows and the ray coordinates.
A cone stores each
number once, as its integer coordinates and the conductor it prints at: a
coefficient at the conductor of its root of unity, a ray coordinate at the
one Cyc arithmetic along the double-description path gives it
(cyclotomic.conductor_step), which double description traces term by term
only where a kept pair's new ray has an irrational coordinate, once per ray
and inserted row; a rational coordinate is stored at 1.  Exact values
are built from those pairs (_scalars) only where one is read: the field
report and brute force.

The records (PolyhedralCone, SelfDualityReport) are typing.NamedTuples of
ints and tuples, so they are tuples: extremal_rays returns
cone._replace(...) with the V-representation filled in, and the
cached H-rep it was given keeps no rays.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional

from .cyclotomic import (
    CosRing,
    conductor_step,
    cos_basis_string,
    cos_ring,
    expand_in_cos_basis,
    is_rational,
    over_common_denominator,
    real_sign,
    root_conductor,
    scalar_inv,
)
from .fourier import GroupFunction, exponent_table
from .groups import FiniteAbelianGroup
from .intlinalg import rank

HREP_ORDER_BOUND = 16


def check_hrep_order(order: int) -> None:
    if order > HREP_ORDER_BOUND:
        raise ValueError(f"group order {order} exceeds H-rep bound {HREP_ORDER_BOUND}")


class EvenBasis:
    """Orbit coordinates for the even subspace of functions on G."""

    __slots__ = ("group", "orbit_reps", "orbits", "dim")

    def __init__(self, group: FiniteAbelianGroup):
        reps: list[int] = []
        orbits: list[tuple[int, ...]] = []
        seen = set()
        for i in range(group.order):
            if i in seen:
                continue
            j = group.neg_index(i)
            orbit = (i,) if i == j else (i, j)
            seen.update(orbit)
            reps.append(i)
            orbits.append(orbit)
        self.group = group
        self.orbit_reps = tuple(reps)
        self.orbits = tuple(orbits)
        self.dim = len(reps)

    def vector_from_function(self, f: GroupFunction):
        if f.group != self.group:
            raise ValueError("function lives on a different group")
        for orbit in self.orbits:
            if len(orbit) == 2:
                a, b = f.values[orbit[0]], f.values[orbit[1]]
                if not f.mode.eq(a, b, f.mode.scale([a])):
                    raise ValueError("function is not even")
        return tuple(f.values[r] for r in self.orbit_reps)

    def function_from_vector(self, vec) -> GroupFunction:
        vals = [None] * self.group.order
        for v, orbit in zip(vec, self.orbits):
            for i in orbit:
                vals[i] = v
        return GroupFunction(self.group, vals)


class PolyhedralCone(NamedTuple):
    """A cone over basis.dim = d orbit coordinates.  ppd_cone_hrep lays out its
    2d inequalities as rows 0..d-1, the point inequality of orbit coordinate j
    in row j, then rows d..2d-1, the dual inequalities in basis.orbit_reps
    order: row i is a point row when i < d, and belongs to orbit_reps[i % d]."""

    basis: EvenBasis
    rows: tuple[tuple, ...]  # per inequality, its coefficients in ring coordinates
    row_conds: tuple[tuple[int, ...], ...]  # and the conductors they print at
    ray_coords: Optional[tuple[tuple, ...]] = None  # canonical ring coordinates
    ray_conds: Optional[tuple[tuple[int, ...], ...]] = None  # and the conductors they print at
    # per ray, <row, ray> for the dual rows d..2d-1, in ring coordinates: its
    # transform at the orbit representatives; the ray's tight set is the zero
    # pattern of ray_coords + ray_transforms (a point row's product is the coordinate)
    ray_transforms: Optional[tuple[tuple, ...]] = None


@lru_cache(maxsize=None)
def ppd_cone_hrep(G: FiniteAbelianGroup) -> PolyhedralCone:
    """One inequality per element orbit and per dual orbit, point ones first,
    each dual coefficient read off the ring's cos table; built once per group,
    without the group's add table."""
    check_hrep_order(G.order)
    basis = EvenBasis(G)
    E = G.exponent()
    ring = cos_ring(E)
    table = exponent_table(G.moduli)

    def coefficient(k, size):
        """The sum of zeta_E^-k over an orbit on which the pairing exponent is
        k: 2cos(2pi k/E) over {x, -x}, and zeta_E^-k = +-1, half of it, over x = -x;
        its ring coordinates and its conductor."""
        x = ring.cos[k] if size == 2 else tuple(c // 2 for c in ring.cos[k])
        return x, root_conductor(E, k) if any(x[1:]) else 1

    one, zero = (ring.one, 1), (ring.zero, 1)
    entries = [[one if t == j else zero for t in range(basis.dim)] for j in range(basis.dim)]
    entries += [[coefficient(table[rep][orbit[0]], len(orbit)) for orbit in basis.orbits]
                for rep in basis.orbit_reps]  # dual orbits have the same representatives
    rows, conds = zip(*[tuple(zip(*row)) for row in entries])  # split each (x, cond) pair
    return PolyhedralCone(basis, rows, conds)


def _scalars(ring: CosRing, vecs, conds) -> list[tuple]:
    """The exact values of integer ring vectors, coordinate j of vecs[i] at
    conductor conds[i][j]: ring.scalar, built once per distinct pair."""
    value = lru_cache(maxsize=None)(ring.scalar)
    return [tuple(map(value, vec, cs)) for vec, cs in zip(vecs, conds)]


# -- membership ---------------------------------------------------------------------


def _inequality_signs(f: GroupFunction, cone: PolyhedralCone):
    """The sign of each inequality at f, in listed order, one at a time.

    Inequality i sums rows[i][j] * v_j into ring coordinates t_k, of value
    sum_k t_k * b_k: CosRing.sign reads the integers t_k of a rational
    vector's numerators v_j over their common denominator; the t_k of any
    other exact vector meet the b_k built at conductor e, and those of a
    float vector's real parts meet CosRing.approx.  A vector that is not
    real fails condition 2.1.1: its one sign is -1."""
    vec = cone.basis.vector_from_function(f)
    mode = f.mode
    ring = cos_ring(cone.basis.group.exponent())
    if mode.exact and all(map(is_rational, vec)):
        vec, sign = over_common_denominator(vec)[0], ring.sign
    elif not all(map(mode.real, vec)):
        yield -1
        return
    elif mode.exact:
        basis = [1] + [ring.scalar(b, ring.e) for b in ring.cos[1:ring.m]]
        sign = lambda total: real_sign(sum(map(mul, total, basis), Fraction(0)))
    else:
        scale, vec = mode.scale(vec), [v.real for v in mode.values(vec)]
        sign = lambda total: mode.sign(sum(map(mul, total, ring.approx)), scale)
    terms = [(j, v) for j, v in enumerate(vec) if v]
    for row in cone.rows:
        total = [0] * ring.m
        for j, v in terms:
            for k, c in enumerate(row[j]):
                if c:
                    total[k] += c * v
        yield sign(total)


def is_interior(f: GroupFunction, cone: PolyhedralCone) -> bool:
    """Strict membership: every inequality positive.  Agrees with goodness."""
    return all(s > 0 for s in _inequality_signs(f, cone))


def is_member(f: GroupFunction, cone: PolyhedralCone) -> bool:
    """Closed membership: every inequality nonnegative.  Agrees with PPD."""
    return all(s >= 0 for s in _inequality_signs(f, cone))


# -- integer ring coordinates ------------------------------------------------------


def _dot_conductor(ring: CosRing, row, vec, conds) -> int:
    """The conductor a Cyc sum of <row, vec> in term order is stored at, for
    conds the conductors of the entries of row and of vec (conductor_step)."""
    total, cond = ring.zero, 1
    for c, v, rc, vc in zip(row, vec, *conds):
        if any(c) and any(v):
            term = ring.mul(c, v)
            total = ring.add(total, term)
            cond = conductor_step(cond, conductor_step(rc, vc, term), total)
    return cond


def _row_matrix(ring: CosRing, row) -> tuple:
    """The integer matrix of v -> <row, v>: m rows over v's d*m flattened ring
    coordinates, the column of coordinate (j, k) being row[j] * b_k."""
    basis = [tuple(int(i == k) for i in range(ring.m)) for k in range(ring.m)]
    return tuple(zip(*[ring.mul(c, b) for c in row for b in basis]))


def _apply(mat, flat) -> tuple:
    """<row, v> from row's _row_matrix and v's flattened ring coordinates."""
    return tuple(sum(map(mul, r, flat)) for r in mat)


# -- canonical ray form ------------------------------------------------------------


def _primitive_form(ring: CosRing, vec) -> tuple:
    """The primitive integer ray through vec, leading coordinate a positive integer.

    A non-rational leading coordinate a is made rational without inversion:
    multiplying by the product of its nontrivial conjugates turns it into its norm.
    """
    lead = next((i for i, v in enumerate(vec) if any(v)), None)
    if lead is None:
        raise ValueError("zero vector is not a ray")
    if any(vec[lead][1:]):
        cof = ring.norm_cofactor(vec[lead])
        vec = [ring.mul(v, cof) for v in vec]
    g = gcd(*[c for v in vec for c in v])
    if vec[lead][0] < 0:
        g = -g
    return tuple(tuple(c // g for c in v) for v in vec)


def _ray_conds(coords, conds) -> tuple:
    """The conductors of a canonical ray's coordinates: conds, those of the
    ray it was scaled from, stepped by the division by its leading coordinate."""
    lead = conds[next(i for i, v in enumerate(coords) if any(v))]
    return tuple(conductor_step(c, lead, v) for v, c in zip(coords, conds))


def canonical_ray(vec, e: int) -> tuple:
    """Primitive integral form over the real-subfield basis, leading coord positive:
    one tuple of integer coordinates over {1, 2cos(2pi j/e)} per ray coordinate."""
    exps = [expand_in_cos_basis(v, e) for v in vec]
    if None in exps:
        raise AssertionError(f"ray coordinate {vec[exps.index(None)]!r} left the "
                             f"real subfield of conductor {e}")
    den = lcm(*[c.denominator for exp in exps for c in exp])
    return _primitive_form(cos_ring(e), [tuple(int(c * den) for c in exp) for exp in exps])


# -- double description --------------------------------------------------------------


def extremal_rays(cone: PolyhedralCone) -> PolyhedralCone:
    """Fill in the V-representation by incremental double description.

    Starts from the nonnegative orthant cut out by the point inequalities
    (rows 0..d-1; its rays are the coordinate axes) and inserts the dual
    inequalities (rows d..2d-1) in order, keeping only adjacent pairs when
    generating new rays.
    Rays are primitive integer vectors in ring coordinates, each coordinate
    carrying the conductor its exact value prints at; tight sets are
    bitmasks over the inequality list.
    """
    basis = cone.basis
    d = basis.dim
    ring = cos_ring(basis.group.exponent())
    rows, row_conds = cone.rows, cone.row_conds
    mats = [_row_matrix(ring, row) for row in rows[d:]]  # point rows are unit vectors
    point_mask = (1 << d) - 1
    rays = [tuple(ring.one if t == j else ring.zero for t in range(d)) for j in range(d)]
    conds = [(1,) * d] * d
    tights = [point_mask & ~(1 << j) for j in range(d)]
    for q in range(d, 2 * d):
        bit = 1 << q
        vals = [_apply(mats[q - d], [c for z in r for c in z]) for r in rays]
        signs = [ring.sign(v) for v in vals]
        val_conds: dict[int, int] = {}

        def val_cond(i: int) -> int:
            """Row q's product with ray i, traced only for a pair that needs it."""
            if i not in val_conds:
                val_conds[i] = _dot_conductor(ring, rows[q], rays[i], (row_conds[q], conds[i]))
            return val_conds[i]

        keep = [(rays[i], conds[i], tights[i] | (0 if s else bit))
                for i, s in enumerate(signs) if s >= 0]
        minus = [i for i, s in enumerate(signs) if s < 0]
        for ip in (i for i, s in enumerate(signs) if s > 0):
            for im in minus:
                common = tights[ip] & tights[im]
                # adjacent rays share at least d - 2 tight inequalities
                # (Fukuda & Prodon 1996): test that before the O(rays) scan
                if common.bit_count() < d - 2 or any(
                        k != ip and k != im and t & common == common
                        for k, t in enumerate(tights)):
                    continue
                vp, vm = vals[ip], vals[im]
                new, new_conds = [], []
                for a, ac, b, bc in zip(rays[ip], conds[ip], rays[im], conds[im]):
                    x, y = ring.mul(vp, b), ring.mul(vm, a)
                    z = ring.sub(x, y)
                    new.append(z)
                    # conductor_step stores a rational z at 1 whatever the path
                    new_conds.append(conductor_step(
                        conductor_step(val_cond(ip), bc, x),
                        conductor_step(val_cond(im), ac, y), z) if any(z[1:]) else 1)
                g = gcd(*[c for z in new for c in z])
                new = tuple(tuple(c // g for c in z) for z in new)
                keep.append((new, tuple(new_conds), common | bit))
        rays, conds, tights = (list(col) for col in zip(*keep))

    canon: dict[tuple, tuple] = {}
    for r, c, t in zip(rays, conds, tights):
        canon[_primitive_form(ring, r)] = (c, t)  # a later duplicate wins
    coords = tuple(sorted(canon))
    mod = _mod_rows(ring.e, rows)
    return cone._replace(
        ray_coords=coords,
        ray_conds=tuple(_ray_conds(k, canon[k][0]) for k in coords),
        ray_transforms=tuple(_verify_extremal(ring, rows, mats, mod, k, canon[k][1], d)
                             for k in coords),
    )


def _verify_extremal(ring: CosRing, rows, mats, mod, vec, tight: int, d: int) -> tuple:
    """Certify a canonical ray; returns its products <row, vec> with the dual
    rows d..2d-1, mats (their _row_matrix) applied to vec.

    Every product, vec's own coordinates for the point rows 0..d-1 (the unit
    vectors), gets a certified sign: none is negative and the zero ones are
    the tight set, so vec annihilates the tight rows and their rank is at
    most d - 1.  A minor maps to the minor of the image, so the rank of their
    image over F_p (mod = _mod_rows(e, rows)) is at most their rank, and
    rank_p = d - 1 proves rank = d - 1.  Only when rank_p falls short does the
    Smith form decide, on the tight rows' stacked _row_matrix blocks: v ->
    (<row_i, v>)_i is linear over the field Q(2cos(2pi/e)) of degree m, so the
    rank over Q of that integer matrix is m times the rank of the rows.
    """
    flat = [c for z in vec for c in z]
    transforms = tuple(_apply(mat, flat) for mat in mats)
    for i, v in enumerate(vec + transforms):
        s = ring.sign(v)
        if s < 0:
            raise AssertionError("ray violates an inequality")
        if (s == 0) != bool(tight >> i & 1):
            raise AssertionError("tight set inconsistent with ray values")
    tight_idx = [i for i in range(len(rows)) if tight >> i & 1]
    p, mod_rows = mod
    if (_mod_rank([mod_rows[i] for i in tight_idx], p, d) != d - 1
            and rank([r for i in tight_idx for r in _row_matrix(ring, rows[i])])
            != ring.m * (d - 1)):
        raise AssertionError("ray fails the tightness-rank extremality test")
    return transforms


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 17: the bases 2..17 decide every
    n < 341550071728321, far past the primes _mod_basis takes."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _mod_basis(e: int) -> tuple[int, tuple[int, ...]]:
    """The first prime p = 1 (mod e) above 2^30, and the images in F_p of the
    basis 1, 2cos(2pi j/e) under 2cos(2pi j/e) -> w^j + w^-j, w a primitive
    e-th root of unity mod p: a ring map from Z[2cos(2pi/e)] onto F_p."""
    step = 2 * e  # p = 1 (mod 2e) is odd and 1 (mod e)
    p = (2**30 // step + 1) * step + 1
    while not _is_prime(p):
        p += step
    w = next(w for w in (pow(g, (p - 1) // e, p) for g in range(2, p))
             if all(pow(w, k, p) != 1 for k in range(1, e) if e % k == 0))
    m = cos_ring(e).m
    return p, (1,) + tuple((pow(w, j, p) + pow(w, e - j, p)) % p for j in range(1, m))


def _mod_rows(e: int, rows):
    """(p, rows) with every ring entry mapped to F_p by _mod_basis(e)."""
    p, images = _mod_basis(e)
    return p, [tuple(sum(c * b for c, b in zip(x, images)) % p for x in row)
               for row in rows]


def _mod_rank(rows, p: int, width: int) -> int:
    """Rank over F_p of rows with entries in [0, p), by Gaussian elimination."""
    mat = [list(r) for r in rows]
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        prow = [x * inv % p for x in mat[r]]
        for i in range(r + 1, len(mat)):
            f = mat[i][c]
            if f:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], prow)]
        r += 1
    return r


def brute_force_rays(cone: PolyhedralCone) -> tuple[tuple, ...]:
    """Oracle: the line cut out by each independent (dim-1)-subset of
    inequalities, kept when one of its two directions satisfies all of them.

    Subsets are enumerated depth first on an incremental echelon form.  A
    prefix whose rows are dependent is pruned: every subset through it has a
    nullspace of dimension >= 2 and cuts out no line.  Exponential; intended
    for the completeness cross-check on tiny groups.  Returns the rays'
    canonical_ray coordinates, sorted as extremal_rays sorts ray_coords.
    """
    d = cone.basis.dim
    e = cone.basis.group.exponent()
    ineqs = _scalars(cos_ring(e), cone.rows, cone.row_conds)
    found = set()

    def keep(echelon, subset):
        # back-substitute in reverse order: row k is 0 at earlier rows' pivots
        vec = [Fraction(0)] * d
        vec[next(c for c in range(d) if c not in {p for p, _ in echelon})] = Fraction(1)
        for p, row in reversed(echelon):
            vec[p] = -sum((c * v for c, v in zip(row, vec) if c and v), Fraction(0))
        side = 0  # the first nonzero sign; the line is a ray only if no other shows
        for i, q in enumerate(ineqs):
            if i not in subset:
                s = real_sign(sum((c * v for c, v in zip(q, vec) if c and v), Fraction(0)))
                if side and s == -side:
                    return
                side = side or s
        found.add(canonical_ray(tuple(-v for v in vec) if side < 0 else tuple(vec), e))

    def extend(rows, echelon, subset):
        """rows: (index, row reduced by echelon) for the inequalities after subset."""
        if len(echelon) == d - 1:
            keep(echelon, subset)
            return
        for t, (i, row) in enumerate(rows):
            p = next((j for j, c in enumerate(row) if c), None)
            if p is None:
                continue  # dependent prefix
            inv = scalar_inv(row[p])
            prow = [c * inv for c in row]
            rest = [] if len(echelon) == d - 2 else [  # a leaf reads no rows
                (j, [a - r[p] * b for a, b in zip(r, prow)] if r[p] else r)
                for j, r in rows[t + 1:]]
            extend(rest, echelon + [(p, prow)], subset + [i])

    extend([(i, list(q)) for i, q in enumerate(ineqs)], [], [])
    return tuple(sorted(found))


# -- reports --------------------------------------------------------------------------


def report_rows(cone: PolyhedralCone) -> dict:
    """The printed inequalities and, once computed, the rays with their tight sets."""
    e = cone.basis.group.exponent()
    d, reps = cone.basis.dim, cone.basis.orbit_reps
    rows = {"inequalities": [
        {"kind": "point" if i < d else "dual", "orbit_rep": reps[i % d],
         "coeffs": [cos_basis_string(c, e) for c in row]}
        for i, row in enumerate(cone.rows)
    ]}
    if cone.ray_coords is not None:
        rows["rays"] = [
            {"coords": [cos_basis_string(c, e) for c in ray],
             "tight": [i for i, x in enumerate(ray + transform) if not any(x)]}
            for ray, transform in zip(cone.ray_coords, cone.ray_transforms)
        ]
    return rows


def field_of_definition_check(cone: PolyhedralCone) -> dict:
    """The field report: every coefficient and ray coordinate in Z[2cos(2pi/e)].

    Each entry prints its location, its value and its integer coordinates
    over the basis {1, 2cos(2pi j/e)}: the H-rep row or ray_coords entry, whose
    row_conds or ray_conds entry is the conductor the value is built at
    (_scalars).  Those rows and rays are integer vectors over an integral
    basis of Z[2cos(2pi/e)], so every entry is integral, and CosRing.scalar
    checks each value's descent to its conductor.
    """
    if cone.ray_coords is None:
        raise ValueError("V-representation not computed yet")
    e = cone.basis.group.exponent()
    n = len(cone.rows)
    vecs = cone.rows + cone.ray_coords
    values = _scalars(cos_ring(e), vecs, cone.row_conds + cone.ray_conds)
    return {"exponent": e, "all_integral": True, "entries": [
        {"location": f"inequality[{i}].coeff[{j}]" if i < n else f"ray[{i - n}].coord[{j}]",
         "value": str(c), "expansion": cos_basis_string(x, e), "integral": True}
        for i, (vec, cs) in enumerate(zip(vecs, values))
        for j, (c, x) in enumerate(zip(cs, vec))]}


class SelfDualityReport(NamedTuple):
    pairing: tuple[int, ...]  # ray index -> ray index of its transform direction

    @property
    def is_involution(self) -> bool:
        return all(self.pairing[j] == i for i, j in enumerate(self.pairing))

    def to_dict(self):
        return {"pairing": list(self.pairing), "involution": self.is_involution}


def self_duality_check(cone: PolyhedralCone) -> SelfDualityReport:
    """Match each ray's transform direction, its ray_transforms entry, against
    the (self-dual) ray list."""
    if cone.ray_transforms is None:
        raise ValueError("V-representation not computed yet")
    ring = cos_ring(cone.basis.group.exponent())
    keys = {k: i for i, k in enumerate(cone.ray_coords)}
    pairing = []
    for vec in cone.ray_transforms:
        j = keys.get(_primitive_form(ring, vec))
        if j is None:
            raise AssertionError("transform of an extremal ray is not a listed ray")
        pairing.append(j)
    return SelfDualityReport(tuple(pairing))
