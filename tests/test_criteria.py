"""Combinatorial certificates for the defect of four-dimensional cones, and
the facet-order filtration machinery behind the shelling certificate."""

import random

import pytest

from conftest import A_RAYS, order_prefix_shellable, order_search_shelling, random_cone, seed77_cones
from toricdef import (
    FORCES_LCDEF_0,
    FORCES_LCDEF_1,
    INCONCLUSIVE,
    InvalidShelling,
    ValidationError,
    WrongDimension,
    cohomology,
    cone_from_rays,
    euler_criterion,
    face_lattice,
    find_shelling,
    is_shelling,
    ishida_cone,
    lcdef_variety,
    line_shelling,
    shelling_filtration,
    shelling_ray_criterion,
    simplicial_star_criterion,
)
from toricdef import criteria, polyhedral
from toricdef.exact_linalg import Matrix, matrix_rank


# ---------------------------------------------------------------------------
# guards


def test_criteria_require_dimension_four(orthant3):
    for crit in (euler_criterion, shelling_ray_criterion, simplicial_star_criterion):
        with pytest.raises(WrongDimension):
            crit(orthant3)
    with pytest.raises(WrongDimension):
        shelling_filtration(orthant3, line_shelling(orthant3))


# ---------------------------------------------------------------------------
# the face-count certificate


def test_euler_counts(orthant4, cube_cone, glued_cone, cone_a, cone_13):
    expect = {
        id(orthant4): (INCONCLUSIVE, (4, 6, 4)),
        id(cube_cone): (INCONCLUSIVE, (8, 12, 6)),
        id(glued_cone): (FORCES_LCDEF_1, (6, 11, 7)),
        id(cone_a): (INCONCLUSIVE, (14, 24, 12)),
        id(cone_13): (INCONCLUSIVE, (13, 24, 13)),
    }
    for cone in (orthant4, cube_cone, glued_cone, cone_a, cone_13):
        verdict = euler_criterion(cone)
        assert (verdict.verdict, verdict.witness) == expect[id(cone)]
        v, e, f = verdict.witness
        assert v - e + f == 2
        assert (verdict.verdict == FORCES_LCDEF_1) == (f > v)
        assert verdict.conclusive == (verdict.verdict != INCONCLUSIVE)


# ---------------------------------------------------------------------------
# the shelling-order certificate


def _ray_condition_holds(cone, keys):
    lat = face_lattice(cone)
    covered = set()
    for pos, key in enumerate(keys):
        rays = set(key)
        if pos <= len(keys) - 3 and not (rays - covered):
            return False
        covered |= rays
    return True


def test_shelling_certificate_positive(orthant4, cube_cone):
    for cone in (orthant4, cube_cone):
        verdict = shelling_ray_criterion(cone)
        assert verdict.verdict == FORCES_LCDEF_0
        assert is_shelling(cone, [face_lattice(cone).by_key[frozenset(k)] for k in verdict.witness])
        assert _ray_condition_holds(cone, verdict.witness)
        assert lcdef_variety(cone) == 0


def test_shelling_certificate_negative(cone_a, cone_b, cone_13, glued_cone):
    for cone in (cone_a, cone_b, cone_13, glued_cone):
        assert shelling_ray_criterion(cone).verdict == INCONCLUSIVE


def test_the_search_finds_a_new_ray_shelling_where_a_line_shelling_did(
    cone_a, cone_b, cone_13, cube_cone, orthant4, monkeypatch
):
    """With every line shelling refused, the criterion's search must still
    certify each cone on which a line shelling met the new-ray condition.
    Of the fixtures, the rank-4 seed-77 cones and 120 random 4-cones, those
    are the cube, the orthant and 15 others."""
    rng = random.Random(1)
    cones = [cone_a, cone_b, cone_13, cube_cone, orthant4]
    cones += [c for c in seed77_cones() if c.rank == 4]
    cones += [random_cone(rng, 4) for _ in range(120)]

    def by_line(cone):
        r = len(face_lattice(cone).faces_by_dim[3])
        for seed in range(8):
            try:
                if criteria._ray_condition(line_shelling(cone, seed).order, r):
                    return True
            except InvalidShelling:
                pass
        return False

    certified = [cone for cone in cones if by_line(cone)]
    assert len(certified) == 17

    def refused(cone, seed=0):
        raise InvalidShelling("refused")

    monkeypatch.setattr(criteria, "line_shelling", refused)
    for cone in certified:
        lat = face_lattice(cone)
        verdict = shelling_ray_criterion(cone)
        assert verdict.verdict == FORCES_LCDEF_0
        order = [lat.by_key[frozenset(k)] for k in verdict.witness]
        assert is_shelling(cone, order)
        assert criteria._ray_condition(order, len(order))


def test_shelling_certificate_small_budget(cube_cone, cone_a):
    # line shellings are tried before the search, so a tiny budget still
    # certifies the cube; the negative case stays negative
    assert shelling_ray_criterion(cube_cone, search_budget=1).verdict == FORCES_LCDEF_0
    assert shelling_ray_criterion(cone_a, search_budget=1).verdict == INCONCLUSIVE


def test_shelling_searches_reject_a_negative_budget(cube_cone, glued_cone):
    # checked before the line shellings, which certify the cube on their own
    with pytest.raises(ValidationError):
        shelling_ray_criterion(cube_cone, search_budget=-1)
    with pytest.raises(ValidationError):
        find_shelling(glued_cone, budget=-1)
    assert find_shelling(glued_cone, budget=0) is None


# ---------------------------------------------------------------------------
# the simplicial-star certificate


def test_star_certificate(glued_cone, orthant4, cube_cone, cone_a, cone_13):
    verdict = simplicial_star_criterion(glued_cone)
    assert verdict.verdict == FORCES_LCDEF_1
    assert verdict.witness == (4, (0, 0, 2, 1))
    for cone in (orthant4, cube_cone, cone_a, cone_13):
        assert simplicial_star_criterion(cone).verdict == INCONCLUSIVE


def test_star_hypothesis_also_holds_at_glued_ray(glued_cone):
    # the scan returns the first qualifying ray; the ray used to glue the two
    # pieces qualifies as well, which we re-check from the definition
    lat = face_lattice(glued_cone)
    containing = [f for f in lat.faces_by_dim[3] if 5 in f.ray_indices]
    assert containing and all(len(f.ray_indices) == f.dim for f in containing)
    others = [r for i, r in enumerate(glued_cone.rays) if i != 5]
    assert matrix_rank(Matrix.from_dense(others, 4)) == 4


# ---------------------------------------------------------------------------
# soundness of conclusive verdicts


def test_conclusive_verdicts_match_defect(
    orthant4, cube_cone, glued_cone, cone_a, cone_b, cone_13
):
    for cone in (orthant4, cube_cone, glued_cone, cone_a, cone_b, cone_13):
        value = lcdef_variety(cone)
        for crit in (euler_criterion, shelling_ray_criterion, simplicial_star_criterion):
            verdict = crit(cone)
            if verdict.verdict == FORCES_LCDEF_0:
                assert value == 0
            elif verdict.verdict == FORCES_LCDEF_1:
                assert value == 1


# ---------------------------------------------------------------------------
# shelling search


def test_find_shelling_prefix(glued_cone):
    lat = face_lattice(glued_cone)
    keys = [f.key for f in lat.faces_by_dim[3]]
    sh = find_shelling(glued_cone, prefix_keys=(keys[0],))
    assert sh is not None and sh.keys()[0] == keys[0]
    assert is_shelling(glued_cone, sh)
    # a disconnected prefix admits no completion
    assert find_shelling(glued_cone, prefix_keys=((0, 1, 5), (2, 3, 4))) is None


def test_find_shelling_validates_before_searching(glued_cone, cone_b, orthant3, monkeypatch):
    def no_search(*args):
        raise AssertionError("searched an invalid input")

    monkeypatch.setattr(criteria, "_search_shelling", no_search)
    for prefix in (
        ((0, 1, 2),),
        ((0, 1, 5), (5, 1, 0)),
        ((0, 1, 2, 3), (0, 1)),
        ((0, 1, "x"),),
        (5,),
        (([0], [1], [5]),),
    ):
        with pytest.raises(ValidationError):
            find_shelling(glued_cone, prefix_keys=prefix)
    with pytest.raises(ValidationError):
        find_shelling(cone_b, prefix_keys=((99, 100, 101),))
    # a ray of a 3-cone is a one-dimensional cone
    ray = cone_from_rays([orthant3.rays[0]], 3)
    assert ray.dim == 1
    with pytest.raises(WrongDimension):
        find_shelling(ray)


def _permuted(cone, seed):
    rays = list(cone.rays)
    random.Random(seed).shuffle(rays)
    return cone_from_rays(rays, cone.rank)


def _first_found(search, top=4096):
    """``(b, search(b))`` for the smallest budget ``b <= top`` at which
    ``search`` finds something, or None; a search that succeeds at one
    budget succeeds at every larger one."""
    if search(top) is None:
        return None
    lo, hi = 0, top
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if search(mid) is not None else (mid + 1, hi)
    return lo, search(lo)


def test_set_search_returns_what_the_order_walk_returns(
    cone_a, cone_b, cone_13, cube_cone, orthant4, glued_cone, monkeypatch
):
    """The walk over sets of placed facets against the walk over orders,
    through both callers at the budgets listed and at the smallest budget at
    which each search succeeds, which pins the placement count; and the
    one-search ``_prefix_shellable`` against the nested walks on every
    boundary that the searches and ``is_shelling`` ask about."""
    base = [cone_a, cone_b, cone_13, cube_cone, orthant4, glued_cone]
    base += [c for c in seed77_cones() if c.rank == 4]
    cones = [_permuted(c, seed) for c in base for seed in (1, 2)]
    asked = set()
    real = polyhedral._prefix_shellable

    def recording(lat, face, initial):
        asked.add((lat, face, initial))
        return real(lat, face, initial)

    monkeypatch.setattr(polyhedral, "_prefix_shellable", recording)

    def both(call):
        lib = call()
        with monkeypatch.context() as m:
            m.setattr(criteria, "_search_shelling", order_search_shelling)
            return lib, call()

    found = deep = 0
    for cone in cones:
        lat = face_lattice(cone)
        facets = lat.faces_by_dim[3]
        keys = [f.key for f in facets]
        runs = [(lambda b: shelling_ray_criterion(cone, b).witness or None, (0, 1, 2, 5, 64, 2048))]
        for prefix in ((), keys[:1], keys[:2], (keys[0], keys[-1])):
            runs.append((lambda b, p=prefix: find_shelling(cone, p, b), (0, 1, 8, 64, 4096)))
        for run, budgets in runs:
            for b in budgets:
                lib, ora = both(lambda: run(b))
                assert lib == ora
                found += lib is not None
            lib, ora = both(lambda: _first_found(run))
            assert lib == ora
        # the criterion's new-ray condition with the last three or four
        # facets exempt: searches that revisit sets before they succeed
        for free in (3, 4):

            def allow(pos, g, covered, free=free):
                return pos >= len(facets) - free or bool(g.ray_indices - covered)

            first = _first_found(lambda b: polyhedral._search_shelling(lat, facets, allow, b))
            assert first == _first_found(lambda b: order_search_shelling(lat, facets, allow, b))
            deep += first is not None and first[0] > len(facets)
        shuffled = list(facets)
        random.Random(len(keys)).shuffle(shuffled)
        for order in (shuffled, line_shelling(cone).order):
            is_shelling(cone, order)
    assert found and deep

    monkeypatch.undo()
    outcomes = set()
    for lat, face, initial in asked:
        outcome = polyhedral._prefix_shellable(lat, face, initial)
        assert outcome == order_prefix_shellable(lat, face, initial)
        outcomes.add(outcome)
    assert outcomes == {True, False}


def test_shelling_search_work(monkeypatch):
    """The searches of both callers on fixture A, counted in attachment
    checks; the walk over orders made 7,091 and 102 of them."""
    calls = 0
    real = polyhedral._attach_ok

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(polyhedral, "_attach_ok", counting)
    assert shelling_ray_criterion(cone_from_rays(A_RAYS, 4)).verdict == INCONCLUSIVE
    assert calls == 964
    calls = 0
    assert find_shelling(cone_from_rays(A_RAYS, 4)) is not None
    assert calls == 78


# ---------------------------------------------------------------------------
# the filtration by facet order


def test_filtration_values(glued_cone):
    filt = shelling_filtration(glued_cone, line_shelling(glued_cone, seed=0))
    assert filt.depth == 7
    full = ishida_cone(glued_cone, 3)
    assert full.dims == (4, 18, 22, 7)
    assert cohomology(full) == (0, 0, 1, 0)
    assert filt.sub(0).dims == full.dims
    assert filt.quotient(filt.depth).dims == full.dims
    assert cohomology(filt.quotient(filt.depth)) == (0, 0, 1, 0)
    # complementary dimensions at every stage
    for k in range(filt.depth + 1):
        s, q = filt.sub(k), filt.quotient(k)
        assert tuple(a + b for a, b in zip(s.dims, q.dims)) == full.dims
    # spot values along the way
    assert filt.sub(3).dims == (0, 0, 6, 4)
    assert cohomology(filt.sub(3)) == (0, 0, 2, 0)
    assert filt.quotient(3).dims == (4, 18, 16, 3)
    assert cohomology(filt.quotient(3)) == (0, 1, 0, 0)
    assert filt.sub(5).dims == (0, 0, 2, 2)
    assert cohomology(filt.sub(5)) == (0, 0, 0, 0)
    assert cohomology(filt.sub(6)) == (0, 0, 0, 1)


def test_filtration_rejects_non_shellings(glued_cone):
    lat = face_lattice(glued_cone)
    order = [
        lat.by_key[frozenset(k)]
        for k in ((0, 1, 5), (2, 3, 4), (0, 1, 2, 3), (0, 2, 4), (0, 4, 5), (1, 4, 5), (1, 3, 4))
    ]
    assert not is_shelling(glued_cone, order)
    with pytest.raises(InvalidShelling):
        shelling_filtration(glued_cone, order)


def test_filtration_accepts_raw_face_order(cube_cone):
    sh = line_shelling(cube_cone, seed=2)
    lat = face_lattice(cube_cone)
    faces = [lat.by_key[frozenset(k)] for k in sh.keys()]
    filt = shelling_filtration(cube_cone, faces)
    assert filt.depth == 6
    assert cohomology(filt.sub(0)) == cohomology(ishida_cone(cube_cone, 3))
