"""Divisor support data, lifted complexes, connecting maps, and Hodge-level
checks for complete fans.

A rational support function on a complete fan lifts each face to two cones in
one more dimension: the graph of the local linear form (the "hat" face) and
the epigraph wedge over it (the "tilde" face, which is the hat joined with
the vertical ray, whose annihilator is the fan face's padded by a zero).
Levelwise this produces a short exact sequence of labeled complexes

    0 -> [level p+1, fan]  ->  [level p+1, hat]  ->  [level p, fan] -> 0

whose inclusion is scaled blockwise by the vertical lattice index of each
face and whose projection is a sign-twisted contraction with the vertical
normal.  The snake-lemma connecting maps of this sequence are the exact
analogue of cup product with the first Chern class of the divisor, and all
Lefschetz-type checks in this module reduce to ranks of those maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import exact_linalg as xl
from .errors import (
    InvariantViolation,
    NotAmple,
    NotComplete,
    NotQCartier,
    ValidationError,
    WrongDimension,
)
from .ishida import LabeledComplex, _checked_level, cohomology, face_complex
from .ishida import fan_cohomology_table, ishida_cone, ishida_fan
from .polyhedral import Cone, Face, FacePoset, Fan, _annihilators, _dot, star_quotient


@dataclass(eq=False)
class DivisorData:
    """A rational divisor class on a fan, as support-function data.

    ``alpha`` are the values on the primitive rays, ``u`` the local linear
    forms per maximal cone, and ``cartier_denominator`` the least positive C
    with all C*u integral.  ``hat`` is the fan's faces as a poset in one
    more coordinate, the hat annihilators with the hats as rays; the tilde
    lifts need no poset of their own, their complexes being the fan's.
    :meth:`vertical_index` is the index of the vertical ray plus a face's
    hat lattice in its tilde lattice (see :func:`support_data`).
    """

    fan: Fan
    alpha: tuple[Fraction, ...]
    u: dict[tuple[int, ...], tuple[Fraction, ...]]
    cartier_denominator: int
    hat: FacePoset = field(repr=False)
    _vertical_indices: dict[frozenset, int] = field(repr=False)
    _memo: dict = field(default_factory=dict, repr=False)

    def vertical_index(self, face_key) -> int:
        return self._vertical_indices[frozenset(face_key)]

    def scaled(self, k: int) -> "DivisorData":
        """Support data of the k-fold multiple of the divisor."""
        return support_data(self.fan, [k * a for a in self.alpha])


def support_data(fan: Fan, alpha) -> DivisorData:
    """Validate a ray-value assignment as a rational Cartier support function
    and compute all lift data.  Raises NOT_Q_CARTIER when some maximal cone
    admits no linear form matching the prescribed ray values.

    Each fan face's hat annihilator, its ``hat.perps`` rows, is the fold of
    its hat rays through one prefix memo
    (:func:`~toricdef.polyhedral._annihilators`), so a simplicial face costs
    one cut and no integer kernel is taken.  (The quotient fan of
    :func:`~toricdef.polyhedral.star_quotient` comes with these rows, folded
    there the same way, and shares the rest of this function,
    :func:`_support_data`.)  The vertical index is the gcd of
    the last coordinates of these rows.  Proof: let ``H`` be the
    saturated span of the hat rays and ``T = H + Q e`` (``e`` the vertical
    ray) meet ``Z^{n+1}`` in the tilde lattice.  ``T / H`` is a saturated
    rank-1 subgroup of ``Z^{n+1} / H``, generated by the class of some
    ``g``, and ``e = c g + h`` with ``h`` in ``H``; the index is ``|c|``.
    The hat annihilator rows are a basis of the functionals vanishing on ``H``,
    that is of coordinates on ``Z^{n+1} / H``.  Each pairs ``e`` to ``c``
    times its value on ``g``, and because ``H + Z g`` is saturated some
    integer functional vanishes on ``H`` and is 1 on ``g``.  So the pairings
    with ``e``, the last coordinates, generate ``c Z``.  A gcd of 0 means
    ``e`` is in ``H``, so the two lifts have the same rank: an
    INVARIANT_VIOLATION."""
    return _support_data(fan, alpha, None)


def _support_data(fan: Fan, alpha, hat_perps) -> DivisorData:
    """:func:`support_data`, with the hat annihilators taken from
    ``hat_perps`` (a Hermite basis per face key) when it is given."""
    alpha = tuple(alpha)
    if any(isinstance(a, float) for a in alpha):
        raise ValidationError("ray values must be exact (ints, Fractions or strings), not floats")
    try:
        values = tuple(Fraction(a) for a in alpha)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValidationError(f"ray values must be exact numbers, got {alpha!r}") from None
    if len(values) != len(fan.rays):
        raise ValidationError("need exactly one value per ray")
    n = fan.rank
    u: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    for cone_key in fan.maximal:
        rays = [fan.rays[i] for i in cone_key]
        rhs = xl.Matrix.from_dense([[values[i]] for i in cone_key], 1)
        sol = xl.solve_matrix(xl.Matrix.from_dense(rays, n), rhs)
        if sol is None:
            raise NotQCartier(f"no linear form matches the values on cone {cone_key}")
        u[cone_key] = tuple(Fraction(row.get(0, 0)) for row in sol.rows)
    denom = lcm(1, *(x.denominator for f in u.values() for x in f))

    hats = tuple(tuple(v.denominator * c for c in r) + (v.numerator,) for v, r in zip(values, fan.rays))
    perp = _annihilators(hats, n + 1) if hat_perps is None else hat_perps.__getitem__
    perps, vertical = {}, {}
    for key in fan.by_key:
        perps[key] = perp(key)
        vertical[key] = gcd(*(p[-1] for p in perps[key]))
        if vertical[key] == 0:
            raise InvariantViolation(f"the lifts of face {sorted(key)} differ in rank")
    hat = FacePoset(n + 1, fan.by_key.values(), perps, hats)
    return DivisorData(fan, values, u, denom, hat, vertical)


# ---------------------------------------------------------------------------
# the levelwise short exact sequence


@dataclass(eq=False)
class LiftedComplexes:
    """The three complexes of the levelwise short exact sequence at one
    level (top and middle at level p+1, bottom at level p), with the
    per-degree inclusion and projection matrices.  Cohomology is read off
    the complexes themselves (for example ``L.bottom.h(l)``), which compute
    each rank once and representatives only where ``H^i != 0``; a
    connecting map is computed afresh on every call."""

    top: LabeledComplex
    middle: LabeledComplex
    bottom: LabeledComplex
    include: tuple[xl.Matrix, ...]
    project: tuple[xl.Matrix, ...]

    def connecting(self, l: int) -> xl.Matrix:
        """Snake-lemma connecting map H^l(bottom) -> H^(l+1)(top)."""
        reps_b = self.bottom.representatives(l)
        ht = self.top.representatives(l + 1).ncols
        if reps_b.ncols == 0 or ht == 0:
            return xl.Matrix([{}] * ht, reps_b.ncols)
        lift = xl.solve_matrix(self.project[l], reps_b)
        if lift is None:
            raise InvariantViolation("projection is not surjective")
        dz = xl._sparse_product(self.middle.diff(l), lift)
        pre = xl.solve_matrix(self.include[l + 1], dz)
        if pre is None:
            raise InvariantViolation("snake step left the image of the inclusion")
        return self.top.class_coordinates(l + 1, pre)  # checks that pre is a cocycle


def _induced(src: LabeledComplex, dst: LabeledComplex, maps, i: int) -> xl.Matrix:
    """Induced map on degree-i cohomology of a levelwise chain map."""
    return dst.class_coordinates(i, xl._sparse_product(maps[i], src.representatives(i)))


def lifted_complex(fan: Fan, divisor: DivisorData, p: int) -> LiftedComplexes:
    """Build and verify the levelwise short exact sequence at level ``p``.

    Degree ``m`` of the middle complex is the sum over ``m``-dimensional fan
    faces of the ``(p+1-m)``-th exterior power of the hat face's annihilator;
    top and bottom are the fan's own complexes at levels ``p+1`` and ``p``
    (:func:`ishida_fan`; a tilde face's annihilator is the fan face's padded
    by a zero, which only the chain-map blocks see, :func:`_tilde_basis`), so
    this top is the bottom at ``p + 1`` for every divisor on the fan; the
    bottom keeps its own depth, at most one less.
    Chain-map and termwise-exactness properties are checked at build time.
    """
    _checked_level(p, fan.rank - 1)
    if divisor.fan is not fan:
        raise ValidationError("divisor belongs to a different fan")
    if ("lifted", p) in divisor._memo:
        return divisor._memo[("lifted", p)]

    top, bottom = ishida_fan(fan, p + 1), ishida_fan(fan, p)
    middle = face_complex(f"hat level {p + 1}", divisor.hat, p + 1)

    include, project = [], []
    for m in range(len(top.terms)):
        inc: list[dict] = [{} for _ in range(middle.dims[m])]
        prj: list[dict] = [{} for _ in range(bottom.dim(m))]
        sign = 1 if m % 2 == 0 else -1
        for f in fan.faces_by_dim[m]:  # each has a block of top and middle, not always of bottom
            st, sm, sb = top.block(m, f.key), middle.block(m, f.key), bottom.block(m, f.key)
            if st.size and sm.size:
                exp = xl.expansion_matrix(xl.ExteriorBasis(_tilde_basis(fan, f), st.basis.degree), sm.basis)
                xl._write_block(inc, sm.offset, st.offset, exp, divisor.vertical_index(f.ray_indices))
            if sb is not None and sm.size and sb.size:
                tilde = xl.ExteriorBasis(_tilde_basis(fan, f), sb.basis.degree)
                con = xl.contraction_matrix(_vertical_pairing(divisor, f), sm.basis, tilde)
                xl._write_block(prj, sb.offset, sm.offset, con, sign)
        include.append(xl.Matrix(inc, top.dims[m]))
        project.append(xl.Matrix(prj, middle.dims[m]))

    out = LiftedComplexes(top, middle, bottom, tuple(include), tuple(project))
    _verify_ses(out)
    divisor._memo[("lifted", p)] = out
    return out


def _tilde_basis(fan: Fan, face: Face) -> xl.SubspaceBasis:
    """The tilde annihilator of a fan face: the face's rows padded by a
    zero, which keeps them echelon with the same pivots.  Memoized on the
    fan, so every block and vertical pairing of every divisor on the fan
    shares one basis per face."""
    key = face.ray_indices
    if key not in fan._tilde:
        fan._tilde[key] = xl.SubspaceBasis(fan.width + 1, tuple(r + (0,) for r in fan.perps[key]))
    return fan._tilde[key]


def _vertical_pairing(divisor: DivisorData, face: Face) -> xl.Pairing:
    """The pairing of the normal of a hat face inside its tilde face with
    the hat annihilator rows, into the tilde annihilator (memoized per face).

    The vertical ray lies in the tilde face on the positive side of the hat,
    so it is ``c n + s`` with ``c > 0`` and ``s`` in the hat span, and its
    pairings, the last coordinates of the hat annihilator rows, are ``c``
    times those of the normal ``n``; these have gcd 1 (see
    :meth:`~toricdef.polyhedral.FacePoset.covering_pairing`), so they are
    the primitive vector of the last coordinates."""
    key = ("vertical", face.ray_indices)
    if key not in divisor._memo:
        hat_perp = divisor.hat.perps[face.ray_indices]
        p = xl.primitive_vector([a[-1] for a in hat_perp])
        divisor._memo[key] = xl.pairing(p, hat_perp, _tilde_basis(divisor.fan, face))
    return divisor._memo[key]


def _verify_ses(L: LiftedComplexes) -> None:
    depth = len(L.top.terms)
    for m in range(depth):
        inc, prj = L.include[m], L.project[m]
        if any(xl._sparse_product(prj, inc).rows):
            raise InvariantViolation(f"projection o inclusion != 0 in degree {m}")
        if xl.matrix_rank(inc) != L.top.dims[m]:
            raise InvariantViolation(f"inclusion not injective in degree {m}")
        if xl.matrix_rank(prj) != L.bottom.dim(m):
            raise InvariantViolation(f"projection not surjective in degree {m}")
        if L.middle.dims[m] != L.top.dims[m] + L.bottom.dim(m):
            raise InvariantViolation(f"term dims do not add up in degree {m}")
        if m + 1 < depth:
            lhs = xl._sparse_product(L.include[m + 1], L.top.diff(m))
            if lhs != xl._sparse_product(L.middle.diff(m), inc):
                raise InvariantViolation(f"inclusion is not a chain map in degree {m}")
        if m + 1 < len(L.bottom.terms):  # past the bottom's depth the projection is into 0
            lhs = xl._sparse_product(L.project[m + 1], L.middle.diff(m))
            if lhs != xl._sparse_product(L.bottom.diff(m), prj):
                raise InvariantViolation(f"projection is not a chain map in degree {m}")


def connecting_map(fan: Fan, divisor: DivisorData, p: int, l: int) -> xl.Matrix:
    """Matrix of the connecting homomorphism H^l(level p) -> H^(l+1)(level p+1)
    in the canonical cohomology bases (which depend only on the fan, not on
    the divisor, so scaling the divisor scales this matrix)."""
    return lifted_complex(fan, divisor, p).connecting(l)


# ---------------------------------------------------------------------------
# Hodge tables


@dataclass(frozen=True)
class HodgeTable:
    """Hodge numbers of a complete fan: entry (p, q) is the cohomology of the
    level-(n-p) complex in degree n-q."""

    rank: int
    table: tuple[tuple[int, ...], ...]

    def h(self, p: int, q: int) -> int:
        return self.table[p][q]

    def betti(self, k: int) -> int:
        return sum(
            self.table[p][k - p]
            for p in range(max(0, k - self.rank), min(k, self.rank) + 1)
        )


def hodge_table(fan: Fan) -> HodgeTable:
    """Hodge numbers via the fan's complexes; NOT_COMPLETE on other fans."""
    if not fan.is_complete():
        raise NotComplete("hodge numbers need a complete fan")
    n = fan.rank
    rows = fan_cohomology_table(fan).rows  # row l holds level l
    table = []
    for p in range(n + 1):
        cs = rows[n - p][2]
        table.append(tuple(cs[n - q] if n - q < len(cs) else 0 for q in range(n + 1)))
    return HodgeTable(n, tuple(table))


# ---------------------------------------------------------------------------
# Lefschetz-type checks


@dataclass(frozen=True)
class EquivalenceReport:
    """Two routes to the same vanishing statement: the cone complex's
    cohomology in one degree versus injectivity/surjectivity of adjacent
    connecting maps on the quotient fan."""

    cone_dim: int
    level: int  # the p of the check; complexes at level p+1
    degree: int  # the l of the check
    h_cone: int
    delta_in_injective: bool
    delta_out_surjective: bool
    theorem_applicable: bool

    @property
    def vanishes(self) -> bool:
        return self.h_cone == 0

    @property
    def agree(self) -> bool:
        return self.vanishes == (self.delta_in_injective and self.delta_out_surjective)


def lefschetz_equivalence_check(cone: Cone, p: int, l: int, rho=None) -> EquivalenceReport:
    """Check H^l of a cone's level-(p+1) complex against the connecting maps
    of its interior-ray quotient; the two must agree whenever p <= dim-2."""
    d = cone.dim
    if d != cone.rank:
        raise WrongDimension("the equivalence check needs a full-dimensional cone")
    if p < 0 or l < 0:
        raise ValidationError("negative indices")
    if p + 1 > d:
        return EquivalenceReport(d, p, l, 0, True, True, False)
    if rho is None:
        rho = tuple(sum(r[i] for r in cone.rays) for i in range(cone.rank))
    fan, divisor = star_quotient(cone, rho)
    h = ishida_cone(cone, p + 1).h(l)
    if p > d - 2:
        return EquivalenceReport(d, p, l, h, False, False, False)
    L = lifted_complex(fan, divisor, p)
    delta_l = L.connecting(l)
    inj = xl.matrix_rank(delta_l) == L.bottom.h(l)
    if l == 0:
        surj = L.top.h(0) == 0
    else:
        delta_prev = L.connecting(l - 1)
        surj = xl.matrix_rank(delta_prev) == L.top.h(l)
    report = EquivalenceReport(d, p, l, h, inj, surj, True)
    if not report.agree:
        raise InvariantViolation("equivalence of vanishing and connecting-map conditions failed")
    return report


@dataclass(frozen=True)
class LesRow:
    level: int
    h_cone: tuple[int, ...]
    h_middle: tuple[int, ...]
    h_top: tuple[int, ...]
    h_bottom: tuple[int, ...]
    exact: bool


@dataclass(frozen=True)
class LesReport:
    rows: tuple[LesRow, ...]

    @property
    def all_exact(self) -> bool:
        return all(r.exact for r in self.rows)

    def row(self, l: int) -> LesRow:
        for r in self.rows:
            if r.level == l:
                return r
        raise KeyError(l)


def les_theorem(cone: Cone, rho) -> LesReport:
    """Assemble, for each level l <= dim-1, the long exact sequence tying the
    cone's complex to the two adjacent quotient-fan complexes, and verify
    exactness at every node.

    The middle complex of the lift sequence is the cone's own complex in the
    lifted coordinates; its cohomology is compared against the direct
    computation in the cone's own coordinates.
    """
    d = cone.dim
    if d != cone.rank:
        raise WrongDimension("the quotient construction needs a full-dimensional cone")
    fan, divisor = star_quotient(cone, rho)
    rows = []
    for l in range(d):
        h_cone = cohomology(ishida_cone(cone, l))
        if l == 0:
            h_fan0 = cohomology(ishida_fan(fan, 0))
            exact = h_cone[0] == 1 and h_fan0[0] == 1
            rows.append(LesRow(0, h_cone, h_fan0, h_fan0, (), exact))
            continue
        L = lifted_complex(fan, divisor, l - 1)
        exact = _les_exact(L)
        h_mid, h_top = cohomology(L.middle), cohomology(L.top)
        if h_mid != h_cone:
            raise InvariantViolation("middle complex does not compute the cone's cohomology")
        h_bot = tuple(L.bottom.h(i) for i in range(len(h_top)))
        rows.append(LesRow(l, h_cone, h_mid, h_top, h_bot, exact))
    return LesReport(tuple(rows))


def _les_exact(L: LiftedComplexes) -> bool:
    """Exactness of ... -> H^i(top) -> H^i(middle) -> H^i(bottom) -> H^(i+1)(top) -> ...

    at every node, via rank bookkeeping of the three kinds of maps."""
    depth = len(L.top.terms)
    f = {i: _induced(L.top, L.middle, L.include, i) for i in range(depth)}
    g = {i: _induced(L.middle, L.bottom, L.project, i) for i in range(depth)}
    dl = {i: L.connecting(i) for i in range(-1, depth)}
    rf, rg, rdl = ({i: xl.matrix_rank(m) for i, m in maps.items()} for maps in (f, g, dl))

    for i in range(depth):
        # node H^i(top): incoming delta^(i-1), outgoing f_i
        if rdl[i - 1] + rf[i] != L.top.h(i):
            return False
        if any(xl._sparse_product(f[i], dl[i - 1]).rows):
            return False
        # node H^i(middle): incoming f_i, outgoing g_i
        if rf[i] + rg[i] != L.middle.h(i):
            return False
        if any(xl._sparse_product(g[i], f[i]).rows):
            return False
        # node H^i(bottom): incoming g_i, outgoing delta^i
        if rg[i] + rdl[i] != L.bottom.h(i):
            return False
        if any(xl._sparse_product(dl[i], g[i]).rows):
            return False
    return True


def lcdef4_via_exceptional(cone: Cone, rho) -> bool:
    """For a full four-dimensional cone: does the defect equal one?

    Decided on the interior-ray quotient fan: the defect is one exactly when
    the quotient's middle Betti number (the degree-2 cohomology of its
    level-2 complex) is at least two.
    """
    if cone.dim != 4 or cone.rank != 4:
        raise WrongDimension("this criterion is specific to dimension four")
    fan, _ = star_quotient(cone, rho)
    h2 = cohomology(ishida_fan(fan, 2))[2]
    return h2 >= 2


@dataclass(frozen=True)
class HardLefschetzReport:
    """Per ``p``: ``(p, rank of delta, dim of its target, rank == dim)``.
    ``rank == dim`` is surjectivity of the connecting map ``delta``, that is
    injectivity of the Lefschetz map it is dual to, which ``all_injective``
    names."""

    rank: int
    checks: tuple[tuple[int, int, int, bool], ...]

    @property
    def all_injective(self) -> bool:
        return all(ok for (_, _, _, ok) in self.checks)


def hard_lefschetz_injectivity_check(fan: Fan, divisor: DivisorData) -> HardLefschetzReport:
    """Check injectivity of the hard Lefschetz multiplication steps below the
    middle degree, through their duals: for ``p <= (n-1)/2`` the connecting
    map ``delta: H^(n-p-1)(level n-p-1) -> H^(n-p)(level n-p)`` must be
    surjective, ``rank delta == dim H^(n-p)`` of the top complex.

    Requires a divisor on this fan (VALIDATION_ERROR), a complete fan
    (NOT_COMPLETE) and a strictly convex divisor (NOT_AMPLE): each maximal
    cone's linear form undershoots the support values off the cone.
    """
    if divisor.fan is not fan:
        raise ValidationError("divisor belongs to a different fan")
    if not fan.is_complete():
        raise NotComplete("hard Lefschetz needs a complete fan")
    for cone_key, uu in divisor.u.items():
        inside = set(cone_key)
        for i, r in enumerate(fan.rays):
            val = _dot(uu, r)
            if i in inside:
                if val != divisor.alpha[i]:
                    raise InvariantViolation(f"the linear form of cone {cone_key} misses ray {i}")
            elif not val < divisor.alpha[i]:
                raise NotAmple(
                    f"support function is not strictly convex across cone {cone_key} at ray {i}"
                )
    n = fan.rank
    checks = []
    for p in range(0, (n - 1) // 2 + 1):
        L = lifted_complex(fan, divisor, n - p - 1)
        delta = L.connecting(n - p - 1)
        target = L.top.h(n - p)
        rank = xl.matrix_rank(delta)
        checks.append((p, rank, target, rank == target))
    return HardLefschetzReport(n, tuple(checks))
