"""Combinatorial sufficient criteria for the defect of four-dimensional
cones, and the facet filtration of the level-3 complex behind them.

All three criteria are one-sided: a ``FORCES_LCDEF_*`` verdict is a proof,
while ``INCONCLUSIVE`` claims nothing.  The defect of a full four-dimensional
cone is always 0 or 1, and it is not determined by the face lattice alone, so
no combinatorial test can decide every case.

Both shelling searches are :func:`~toricdef.polyhedral._search_shelling`,
which walks sets of placed facets, never walks a failed set twice, and at
every budget returns what the walk over facet orders returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact_linalg as xl
from .errors import InvalidShelling, InvariantViolation, ValidationError, WrongDimension
from .ishida import LabeledComplex, assemble_complex, cohomology, ishida_cone
from .polyhedral import (
    Cone,
    Face,
    Shelling,
    _prefix_allow,
    _search_shelling,
    face_lattice,
    is_shelling,
    line_shelling,
)

FORCES_LCDEF_0 = "FORCES_LCDEF_0"
FORCES_LCDEF_1 = "FORCES_LCDEF_1"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one sufficient criterion.

    The witness is the evidence for a FORCES verdict: the face counts
    (v, e, f) for the Euler test, the facet order for the shelling test, and
    the (ray index, ray vector) pair for the star test.
    """

    criterion: str
    verdict: str
    witness: tuple = ()

    @property
    def conclusive(self) -> bool:
        return self.verdict != INCONCLUSIVE


def _require_dim4(cone: Cone) -> None:
    if cone.rank != 4 or cone.dim != 4:
        raise WrongDimension("this criterion applies to full four-dimensional cones only")


def euler_criterion(cone: Cone) -> CriterionVerdict:
    """More facets than rays forces defect one.

    The level-3 complex of a full 4-cone has cohomology only in degrees 1
    and 2, and its Euler characteristic works out to (#facets - #rays); a
    positive value therefore forces a nonzero degree-2 group.  The identity
    is checked against the complex on every call (INVARIANT_VIOLATION).
    """
    _require_dim4(cone)
    counts = face_lattice(cone).face_counts()
    v, e, f = counts[1], counts[2], counts[3]
    if v - e + f != 2:
        raise InvariantViolation("face counts of a 4-cone must satisfy v - e + f = 2")
    coh = cohomology(ishida_cone(cone, 3))
    if coh[0] != 0 or coh[3] != 0:
        raise InvariantViolation("level-3 cohomology is not concentrated in degrees 1, 2")
    if coh[2] - coh[1] != f - v:
        raise InvariantViolation("Euler characteristic identity failed")
    verdict = FORCES_LCDEF_1 if f > v else INCONCLUSIVE
    return CriterionVerdict("euler", verdict, (v, e, f))


def _ray_condition(order, r: int) -> bool:
    """Every facet except the last two must bring a ray not covered by the
    union of the earlier facets."""
    covered: set[int] = set()
    for pos, face in enumerate(order):
        if pos <= r - 3 and not (face.ray_indices - covered):
            return False
        covered |= face.ray_indices
    return True


def _require_budget(budget: int) -> None:
    if budget < 0:
        raise ValidationError(f"search budget {budget} is negative")


def shelling_ray_criterion(cone: Cone, search_budget: int = 2048) -> CriterionVerdict:
    """Search for a shelling whose every facet except the last two brings a
    new ray; finding one forces defect zero.

    The criterion is existential: a few sweep shellings are tried first,
    then :func:`_search_shelling` with ``search_budget`` facet placements.
    INCONCLUSIVE only means the search found nothing within its budget.  A
    negative budget is a VALIDATION_ERROR.
    """
    _require_budget(search_budget)
    _require_dim4(cone)
    lat = face_lattice(cone)
    facets = lat.faces_by_dim[3]
    r = len(facets)
    for seed in range(8):
        try:
            sh = line_shelling(cone, seed)
        except InvalidShelling:
            continue
        if _ray_condition(sh.order, r):
            return CriterionVerdict("shelling_ray", FORCES_LCDEF_0, sh.keys())

    def allow(pos, g, covered):
        return pos > r - 3 or bool(g.ray_indices - covered)

    order = _search_shelling(lat, facets, allow, search_budget)
    if order is not None:
        if not (is_shelling(cone, order) and _ray_condition(order, r)):
            raise InvariantViolation("the searched facet order is not a new-ray shelling")
        return CriterionVerdict("shelling_ray", FORCES_LCDEF_0, tuple(f.key for f in order))
    return CriterionVerdict("shelling_ray", INCONCLUSIVE, ())


def simplicial_star_criterion(cone: Cone) -> CriterionVerdict:
    """A ray whose surrounding facets are all simplicial, while the other
    rays still span the whole space, forces defect one."""
    _require_dim4(cone)
    lat = face_lattice(cone)
    facets = lat.faces_by_dim[3]
    nrays = len(cone.rays)
    for ray_face in lat.faces_by_dim[1]:
        (i,) = tuple(ray_face.ray_indices)
        containing = [f for f in facets if i in f.ray_indices]
        if not all(len(f.ray_indices) == 3 for f in containing):
            continue
        others = [cone.rays[j] for j in range(nrays) if j != i]
        if xl.matrix_rank(xl.Matrix.from_dense(others, 4)) == 4:
            return CriterionVerdict("simplicial_star", FORCES_LCDEF_1, (i, tuple(cone.rays[i])))
    return CriterionVerdict("simplicial_star", INCONCLUSIVE, ())


def find_shelling(cone: Cone, prefix_keys=(), budget: int = 4096):
    """A shelling whose order starts with the given facet keys (in any
    order among themselves); None if :func:`_search_shelling` finds none
    within ``budget`` facet placements.  A negative budget, or a prefix key
    that is not a facet or is listed twice, is a VALIDATION_ERROR, and a
    dimension below two is WRONG_DIMENSION, all before the search."""
    _require_budget(budget)
    if cone.dim < 2:
        raise WrongDimension("shellings need dimension at least two")
    lat = face_lattice(cone)
    facets = lat.faces_by_dim[cone.dim - 1]
    try:
        keys = [frozenset(k) for k in prefix_keys]
    except TypeError as exc:
        raise ValidationError(f"prefix {prefix_keys!r} does not list facet keys") from exc
    wanted = frozenset(keys)
    if len(wanted) != len(keys) or not wanted <= {f.ray_indices for f in facets}:
        raise ValidationError(f"prefix {prefix_keys!r} does not list distinct facets")
    order = _search_shelling(lat, facets, _prefix_allow(wanted), budget)
    if order is None:
        return None
    if not is_shelling(cone, order):
        raise InvariantViolation("the searched facet order is not a shelling")
    return Shelling(cone, order)


# ---------------------------------------------------------------------------
# the facet filtration of the level-3 complex


def _slice_complex(cx: LabeledComplex, keep, label: str) -> LabeledComplex:
    """The complex spanned by the blocks whose face key satisfies ``keep``,
    with the induced differentials."""
    layers = [[(b.face_key, b.basis) for b in layer if keep(b.face_key)] for layer in cx.terms]

    def blocks(k):
        return ((s, t, cx.block_matrix(i, s, t)) for i, s, t in cx.pairs if i == k and keep(s) and keep(t))

    return assemble_complex(label, layers, blocks)


@dataclass(eq=False)
class ShellingFiltration:
    """The decreasing filtration of the level-3 complex of a 4-cone induced
    by a shelling: the k-th stage keeps the blocks of the faces not contained
    in the union of the first k facets.

    Each stage is verified to be a subcomplex; the quotients by the full
    complex are available as well.
    """

    cone: Cone
    order: tuple[Face, ...]
    full: LabeledComplex

    def __post_init__(self):
        self._memo: dict = {}

    def _keep_sub(self, k: int):
        prefix = [f.ray_indices for f in self.order[:k]]
        return lambda key: not any(frozenset(key) <= p for p in prefix)

    def sub(self, k: int) -> LabeledComplex:
        """Stage F^k: blocks of faces not contained in the first k facets."""
        if ("sub", k) not in self._memo:
            keep = self._keep_sub(k)
            cx = _slice_complex(self.full, keep, f"stage {k}")
            self._assert_closed(keep)
            self._memo[("sub", k)] = cx
        return self._memo[("sub", k)]

    def quotient(self, k: int) -> LabeledComplex:
        """The quotient of the full complex by stage F^k: blocks of the faces
        contained in the union of the first k facets."""
        if ("quot", k) not in self._memo:
            keep = self._keep_sub(k)
            cx = _slice_complex(self.full, lambda key: not keep(key), f"stage 0 / stage {k}")
            self._memo[("quot", k)] = cx
        return self._memo[("quot", k)]

    def _assert_closed(self, keep) -> None:
        """The differential must not map a kept block into a dropped block."""
        full = self.full
        for i, s, t in full.pairs:
            if keep(s) and not keep(t) and any(full.block_matrix(i, s, t).rows):
                raise InvariantViolation("filtration stage is not a subcomplex")

    @property
    def depth(self) -> int:
        return len(self.order)


def shelling_filtration(cone: Cone, shelling) -> ShellingFiltration:
    """Build the facet filtration for a verified shelling (INVALID_SHELLING
    otherwise)."""
    _require_dim4(cone)
    if isinstance(shelling, Shelling):
        order = shelling.order
    else:
        order = tuple(shelling)
    if not is_shelling(cone, order):
        raise InvalidShelling("the given facet order is not a shelling")
    lat = face_lattice(cone)
    order = tuple(lat.by_key[f.ray_indices] for f in order)
    return ShellingFiltration(cone, order, ishida_cone(cone, 3))
