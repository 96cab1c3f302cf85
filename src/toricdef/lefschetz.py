"""Divisor support data, lifted complexes, connecting maps, and Hodge-level
checks for complete fans.

A rational support function on a complete fan lifts each face to two cones in
one more dimension: the graph of the local linear form (the "hat" face) and
the epigraph wedge over it (the "tilde" face, which is the hat joined with
the vertical ray).  Levelwise this produces a short exact sequence of labeled
complexes

    0 -> [level p+1, tilde]  ->  [level p+1, hat]  ->  [level p, tilde] -> 0

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

import numpy as np

from . import exact_linalg as xl
from .errors import (
    InvariantViolation,
    NotAmple,
    NotComplete,
    NotQCartier,
    ValidationError,
    WrongDimension,
)
from .ishida import LabeledComplex, cohomology, face_complex, fan_cohomology_table, ishida_cone, ishida_fan
from .polyhedral import Cone, Face, FacePoset, Fan, _dot, star_quotient


@dataclass(frozen=True)
class LiftedFace:
    """Lattice data of the graph ("hat") and epigraph ("tilde") lifts of a
    fan face under a support function: the hat rays, the Hermite basis of
    the hat annihilator, and the index of the vertical ray over the hat
    lattice inside the tilde lattice, read off that annihilator (see
    :func:`support_data`).  Neither lift's span lattice is stored; nothing
    reads it."""

    hat_rays: tuple[tuple[int, ...], ...]
    hat_perp: tuple[tuple[int, ...], ...]
    vertical_index: int  # index of (vertical ray + hat lattice) in the tilde lattice


@dataclass(eq=False)
class DivisorData:
    """A rational divisor class on a fan, as support-function data.

    ``alpha`` are the values on the primitive rays, ``u`` the local linear
    forms per maximal cone, ``cartier_denominator`` the least positive C
    with all C*u integral, and ``lifted`` the per-face lift lattice data.
    ``hat`` and ``tilde`` are the fan's faces as posets in one more
    coordinate: the hat rows with the hats as rays, and the fan's own rows
    padded by a zero.
    """

    fan: Fan
    alpha: tuple[Fraction, ...]
    u: dict[tuple[int, ...], tuple[Fraction, ...]]
    cartier_denominator: int
    lifted: dict[frozenset, LiftedFace]
    hat: FacePoset = field(repr=False)
    tilde: FacePoset = field(repr=False)
    _memo: dict = field(default_factory=dict, repr=False)

    def vertical_index(self, face_key) -> int:
        return self.lifted[frozenset(face_key)].vertical_index

    def scaled(self, k: int) -> "DivisorData":
        """Support data of the k-fold multiple of the divisor."""
        return support_data(self.fan, [k * a for a in self.alpha])


def support_data(fan: Fan, alpha) -> DivisorData:
    """Validate a ray-value assignment as a rational Cartier support function
    and compute all lift data.  Raises NOT_Q_CARTIER when some maximal cone
    admits no linear form matching the prescribed ray values.

    Each fan face costs one integer kernel of its hat rays, its hat
    annihilator ``hat_perp``.  (The quotient fan of
    :func:`~toricdef.polyhedral.star_quotient` comes with these rows, read
    off the cone's own annihilators with no kernel, and shares the rest of
    this function, :func:`_support_data`.)  The vertical index is the gcd of
    the last coordinates of the ``hat_perp`` rows.  Proof: let ``H`` be the
    saturated span of the hat rays and ``T = H + Q e`` (``e`` the vertical
    ray) meet ``Z^{n+1}`` in the tilde lattice.  ``T / H`` is a saturated
    rank-1 subgroup of ``Z^{n+1} / H``, generated by the class of some
    ``g``, and ``e = c g + h`` with ``h`` in ``H``; the index is ``|c|``.
    The ``hat_perp`` rows are a basis of the functionals vanishing on ``H``,
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
    values = tuple(Fraction(a) for a in alpha)
    if len(values) != len(fan.rays):
        raise ValidationError("need exactly one value per ray")
    n = fan.rank
    u: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    for cone_key in fan.maximal:
        rays = [fan.rays[i] for i in cone_key]
        rhs = xl.rational_matrix([[values[i]] for i in cone_key], 1)
        sol = xl.solve_matrix(xl.integer_matrix(rays, n), rhs)
        if sol is None:
            raise NotQCartier(f"no linear form matches the values on cone {cone_key}")
        u[cone_key] = tuple(Fraction(sol[i, 0]) for i in range(n))
    denom = lcm(1, *(x.denominator for f in u.values() for x in f))

    hats = tuple(tuple(v.denominator * c for c in r) + (v.numerator,) for v, r in zip(values, fan.rays))
    lifted: dict[frozenset, LiftedFace] = {}
    for key in fan.by_key:
        hat_rays = tuple(hats[i] for i in sorted(key))
        hat_perp = tuple(xl.integer_kernel_rows(hat_rays, n + 1)) if hat_perps is None else hat_perps[key]
        a_idx = gcd(*(p[-1] for p in hat_perp))
        if a_idx == 0:
            raise InvariantViolation(f"the lifts of face {sorted(key)} differ in rank")
        lifted[key] = LiftedFace(hat_rays, hat_perp, a_idx)
    hat = FacePoset(n + 1, fan.by_key.values(), {k: lf.hat_perp for k, lf in lifted.items()}, hats)
    return DivisorData(fan, values, u, denom, lifted, hat, fan.padded())


# ---------------------------------------------------------------------------
# the levelwise short exact sequence


@dataclass(eq=False)
class LiftedComplexes:
    """The three complexes of the levelwise short exact sequence at one
    level (top and middle at level p+1, bottom at level p), with the
    per-degree inclusion and projection matrices.  Cohomology is read off
    the complexes themselves (for example ``L.bottom.h(l)``)."""

    top: LabeledComplex
    middle: LabeledComplex
    bottom: LabeledComplex
    include: tuple[np.ndarray, ...]
    project: tuple[np.ndarray, ...]
    _memo: dict = field(default_factory=dict, repr=False)

    def connecting(self, l: int) -> np.ndarray:
        """Snake-lemma connecting map H^l(bottom) -> H^(l+1)(top)."""
        if l not in self._memo:
            self._memo[l] = self._connecting(l)
        return self._memo[l]

    def _connecting(self, l: int) -> np.ndarray:
        reps_b = self.bottom.representatives(l)
        ht = self.top.representatives(l + 1).shape[1]
        if reps_b.shape[1] == 0 or ht == 0:
            return xl.zeros_matrix(ht, reps_b.shape[1])
        lift = xl.solve_matrix(self.project[l], reps_b)
        if lift is None:
            raise InvariantViolation("projection is not surjective")
        dz = xl.mat_mul(self.middle.diffs[l], lift)
        pre = xl.solve_matrix(self.include[l + 1], dz)
        if pre is None:
            raise InvariantViolation("snake step left the image of the inclusion")
        return self.top.class_coordinates(l + 1, pre)  # checks that pre is a cocycle


def _induced(src: LabeledComplex, dst: LabeledComplex, maps, i: int) -> np.ndarray:
    """Induced map on degree-i cohomology of a levelwise chain map."""
    return dst.class_coordinates(i, xl.mat_mul(maps[i], src.representatives(i)))


def lifted_complex(fan: Fan, divisor: DivisorData, p: int) -> LiftedComplexes:
    """Build and verify the levelwise short exact sequence at level ``p``.

    Degree ``m`` of the middle complex is the sum over ``m``-dimensional fan
    faces of the ``(p+1-m)``-th exterior power of the hat face's annihilator;
    top and bottom are the fan's own complexes at levels ``p+1`` and ``p``
    (the tilde annihilator of a face is the fan face's annihilator with a
    zero vertical coordinate), padded to the middle's coordinates and depth.
    Chain-map and termwise-exactness properties are checked at build time.
    """
    n = fan.rank
    if not 0 <= p <= n - 1:
        raise ValidationError(f"level {p} outside 0..{n - 1}")
    if divisor.fan is not fan:
        raise ValidationError("divisor belongs to a different fan")
    if ("lifted", p) in divisor._memo:
        return divisor._memo[("lifted", p)]

    depth = min(p + 1, max(fan.faces_by_dim)) + 1
    top = face_complex(f"tilde level {p + 1}", divisor.tilde, p + 1, depth)
    bottom = face_complex(f"tilde level {p}", divisor.tilde, p, depth)
    middle = face_complex(f"hat level {p + 1}", divisor.hat, p + 1, depth)

    include: list[np.ndarray] = []
    project: list[np.ndarray] = []
    for m in range(depth):
        inc: list[dict] = [{} for _ in range(middle.dims[m])]
        prj: list[dict] = [{} for _ in range(bottom.dims[m])]
        sign = 1 if m % 2 == 0 else -1
        for f in fan.faces_by_dim.get(m, ()):
            lf = divisor.lifted[f.ray_indices]
            st = top.block(m, f.key)
            sm = middle.block(m, f.key)
            if st is not None and sm is not None and st.size and sm.size:
                exp = xl.expansion_matrix(st.basis, sm.basis)
                xl._write_block(inc, sm.offset, st.offset, exp, lf.vertical_index)
            sbm = bottom.block(m, f.key)
            if sm is not None and sbm is not None and sm.size and sbm.size:
                con = xl.contraction_matrix(_vertical_pairing(divisor, f), sm.basis, sbm.basis)
                xl._write_block(prj, sbm.offset, sm.offset, con, sign)
        include.append(xl._dense(inc, top.dims[m]))
        project.append(xl._dense(prj, middle.dims[m]))

    out = LiftedComplexes(top, middle, bottom, tuple(include), tuple(project))
    _verify_ses(out)
    divisor._memo[("lifted", p)] = out
    return out


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
        divisor._memo[key] = xl.pairing(p, hat_perp, divisor.tilde.perps[face.ray_indices])
    return divisor._memo[key]


def _verify_ses(L: LiftedComplexes) -> None:
    depth = len(L.top.terms)
    for m in range(depth):
        inc, prj = L.include[m], L.project[m]
        if not xl.is_zero_matrix(xl.mat_mul(prj, inc)):
            raise InvariantViolation(f"projection o inclusion != 0 in degree {m}")
        if xl.matrix_rank(inc) != L.top.dims[m]:
            raise InvariantViolation(f"inclusion not injective in degree {m}")
        if xl.matrix_rank(prj) != L.bottom.dims[m]:
            raise InvariantViolation(f"projection not surjective in degree {m}")
        if L.middle.dims[m] != L.top.dims[m] + L.bottom.dims[m]:
            raise InvariantViolation(f"term dims do not add up in degree {m}")
        if m + 1 < depth:
            lhs = xl.mat_mul(L.include[m + 1], L.top.diffs[m])
            rhs = xl.mat_mul(L.middle.diffs[m], inc)
            if not xl.mat_eq(lhs, rhs):
                raise InvariantViolation(f"inclusion is not a chain map in degree {m}")
            lhs = xl.mat_mul(L.project[m + 1], L.middle.diffs[m])
            rhs = xl.mat_mul(L.bottom.diffs[m], prj)
            if not xl.mat_eq(lhs, rhs):
                raise InvariantViolation(f"projection is not a chain map in degree {m}")


def connecting_map(fan: Fan, divisor: DivisorData, p: int, l: int) -> np.ndarray:
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
    cohs = cohomology(ishida_cone(cone, p + 1))
    h = cohs[l] if l < len(cohs) else 0
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
        exact = _les_exact(L)  # first: its representatives give every rank
        h_mid, h_top, h_bot = (cohomology(cx) for cx in (L.middle, L.top, L.bottom))
        if h_mid != h_cone:
            raise InvariantViolation("middle complex does not compute the cone's cohomology")
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
        if not xl.is_zero_matrix(xl.mat_mul(f[i], dl[i - 1])):
            return False
        # node H^i(middle): incoming f_i, outgoing g_i
        if rf[i] + rg[i] != L.middle.h(i):
            return False
        if not xl.is_zero_matrix(xl.mat_mul(g[i], f[i])):
            return False
        # node H^i(bottom): incoming g_i, outgoing delta^i
        if rg[i] + rdl[i] != L.bottom.h(i):
            return False
        if not xl.is_zero_matrix(xl.mat_mul(dl[i], g[i])):
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

    Requires the fan complete (NOT_COMPLETE) and the divisor strictly convex
    (NOT_AMPLE): every maximal cone's linear form must undershoot the support
    values on all rays outside the cone.
    """
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
