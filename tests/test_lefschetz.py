"""Divisor lifts, the levelwise extension of complexes, connecting maps,
Hodge tables, and the Lefschetz-type checks built on them."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from conftest import (
    A_RAYS,
    B_RAYS,
    T13_RAYS,
    assert_pairings_match_normals,
    betti_oracle,
    cyclic_cone,
    interior_vector,
    lattice_index,
    lift_identities,
    lift_spans,
    normal_generator,
    normal_of,
    pairing_of_normal,
    random_complete_simplicial_fan,
    random_cone,
)
from toricdef import (
    NotAmple,
    NotComplete,
    NotQCartier,
    ValidationError,
    WrongDimension,
    cohomology,
    cone_from_rays,
    connecting_map,
    fan_from_cones,
    hard_lefschetz_injectivity_check,
    hodge_table,
    ishida_fan,
    lcdef4_via_exceptional,
    lefschetz_equivalence_check,
    les_theorem,
    lifted_complex,
    star_quotient,
    support_data,
)
from toricdef import exact_linalg as xl
from toricdef.exact_linalg import matrix_rank
from toricdef.lefschetz import _vertical_pairing


# ---------------------------------------------------------------------------
# support data


def test_weighted_plane_support_data(p112_fan):
    D = support_data(p112_fan, (0, 0, 1))
    assert D.cartier_denominator == 2
    assert D.alpha == (Fraction(0), Fraction(0), Fraction(1))
    for key in p112_fan.by_key:
        expected = 2 if key == frozenset({0, 2}) else 1
        assert D.vertical_index(key) == expected


def test_vertical_index_is_the_smith_lattice_index(p112_fan):
    """The vertical index read off the hat annihilator is the index of the
    vertical ray plus the hat lattice in the tilde lattice, by Smith forms
    of the Smith-reference spans, on P(1,1,2), the stellar fan with seeded
    rational values, and the star quotients of the fixtures and cyclic
    (5, 9)."""
    stellar = random_complete_simplicial_fan(random.Random("stellar"), 4, 10)
    rng = random.Random(3)
    values = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in stellar.rays]
    cases = [(p112_fan, support_data(p112_fan, (0, 0, 1))), (stellar, support_data(stellar, values))]
    cones = [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS)] + [cyclic_cone(range(-4, 5), 5)]
    cases += [star_quotient(c, tuple(map(sum, zip(*c.rays)))) for c in cones]
    indices = []
    for fan, divisor in cases:
        vertical = (0,) * fan.rank + (1,)
        for f in fan.all_faces:
            hat_span, tilde_span = lift_spans(divisor, f)
            index = lattice_index([vertical, *hat_span], tilde_span, fan.rank + 1)
            assert divisor.vertical_index(f.ray_indices) == index, (fan.rays, f.key)
            indices.append(index)
    assert max(indices) > 1


def test_support_data_validates_length(p2_fan):
    with pytest.raises(ValidationError):
        support_data(p2_fan, (1, 1))


def test_not_locally_solvable():
    fan = fan_from_cones(
        ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), ((0, 1, 2, 3),), 3
    )
    with pytest.raises(NotQCartier):
        support_data(fan, (0, 0, 0, 1))


def test_scaled_support_data(p112_fan):
    D = support_data(p112_fan, (0, 0, 1))
    D3 = D.scaled(3)
    assert D3.alpha == (Fraction(0), Fraction(0), Fraction(3))
    assert D3.cartier_denominator == 2


# ---------------------------------------------------------------------------
# the lifted complexes and their exact structure


def test_top_complex_matches_plain_fan_complex(cone_a):
    fan, D = star_quotient(cone_a, (0, 0, 0, 1))
    L = lifted_complex(fan, D, 2)
    plain = ishida_fan(fan, 3)
    assert L.top.dims == plain.dims
    assert len(L.top.diffs) == len(plain.diffs)
    for a, b in zip(L.top.diffs, plain.diffs):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("source", ["star quotient", "stellar fan"])
def test_tilde_complexes_are_the_fan_complexes(source, cone_13):
    if source == "star quotient":
        fan, D = star_quotient(cone_13, interior_vector(cone_13))
    else:
        rng = random.Random(5)
        fan = random_complete_simplicial_fan(rng, 3, 4)
        alpha = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in fan.rays]
        D = support_data(fan, alpha)
    for p in range(fan.rank):
        L = lifted_complex(fan, D, p)
        for tilde, level in ((L.top, p + 1), (L.bottom, p)):
            plain = ishida_fan(fan, level)
            k = len(plain.terms)
            # the bottom complex is padded with zero terms to the common depth
            assert tilde.dims[:k] == plain.dims and not any(tilde.dims[k:])
            for a, b in zip(tilde.diffs, plain.diffs):
                assert np.array_equal(a, b)


def test_tilde_poset_is_the_fan_padded(monkeypatch):
    fan = random_complete_simplicial_fan(random.Random(5), 3, 4)
    tilde = support_data(fan, [1] * len(fan.rays)).tilde
    assert tilde.width == fan.rank + 1 and tilde.faces_by_dim == fan.faces_by_dim
    for key in fan.by_key:
        assert tilde.perps[key] == tuple(r + (0,) for r in fan.perps[key])
    pairs = [
        (mu, tau)
        for tau in fan.all_faces
        for mu in fan.all_faces
        if mu.dim + 1 == tau.dim and mu.ray_indices < tau.ray_indices
    ]
    own = {(mu.key, tau.key): fan.covering_pairing(mu, tau) for mu, tau in pairs}
    # the padded pairings are the fan's own, computed once for both posets
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(xl, "pairing", lambda *a: calls.append(a))
        got = {(mu.key, tau.key): tilde.covering_pairing(mu, tau) for mu, tau in pairs}
    assert calls == [] and all(got[k] is own[k] for k in own)
    for mu, tau in pairs:
        direct = normal_of(tilde, mu, tau)
        assert pairing_of_normal(tilde, mu, tau, direct) == own[mu.key, tau.key]
        assert direct == normal_of(fan, mu, tau) + (0,)


def test_lift_pairings_are_the_pairings_of_the_normals():
    fan = random_complete_simplicial_fan(random.Random("stellar"), 4, 10)
    rng = random.Random(3)
    divisor = support_data(fan, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in fan.rays])
    assert assert_pairings_match_normals(divisor.hat) > 0
    assert assert_pairings_match_normals(divisor.tilde) > 0
    vertical = (0,) * fan.rank + (1,)
    for f in fan.all_faces:
        lf = divisor.lifted[f.ray_indices]
        n = normal_generator(*lift_spans(divisor, f), [vertical])
        got = _vertical_pairing(divisor, f)
        values = [sum(x * y for x, y in zip(n, a)) for a in lf.hat_perp]
        assert got == xl.pairing(values, lf.hat_perp, divisor.tilde.perps[f.ray_indices])
        assert gcd(*got.values) == 1 and _vertical_pairing(divisor, f) is got


def test_middle_dims_are_sums(p112_fan):
    D = support_data(p112_fan, (0, 0, 1))
    for p in range(2):
        L = lifted_complex(p112_fan, D, p)
        for t, m, b in zip(L.top.dims, L.middle.dims, L.bottom.dims):
            assert m == t + b


def test_termwise_exactness(p112_fan):
    D = support_data(p112_fan, (0, 0, 1))
    L = lifted_complex(p112_fan, D, 1)
    for inc, proj, t, b in zip(L.include, L.project, L.top.dims, L.bottom.dims):
        assert matrix_rank(inc) == t
        assert matrix_rank(proj) == b
        if t and b:
            assert not np.any(proj @ inc)


# ---------------------------------------------------------------------------
# lattice identities of the two lifts


def test_lift_identities_weighted_plane(p112_fan):
    lift_identities(p112_fan, support_data(p112_fan, (0, 0, 1)))


def test_lift_identities_quotient_of_defect_cone(cone_a):
    fan, D = star_quotient(cone_a, (0, 0, 0, 1))
    lift_identities(fan, D)


# ---------------------------------------------------------------------------
# connecting maps


def test_connecting_map_plane(p2_fan):
    D = support_data(p2_fan, (1, 1, 1))
    assert connecting_map(p2_fan, D, 1, 1).tolist() == [[-3]]


def test_connecting_map_quadric(p1p1_fan):
    D = support_data(p1p1_fan, (1, 1, 1, 1))
    assert connecting_map(p1p1_fan, D, 1, 1).tolist() == [[-2, -2]]


def test_connecting_map_weighted(p112_fan):
    D = support_data(p112_fan, (0, 0, 1))
    assert connecting_map(p112_fan, D, 1, 1).tolist() == [[Fraction(-1, 2)]]
    assert connecting_map(p112_fan, D.scaled(3), 1, 1).tolist() == [[Fraction(-3, 2)]]


def test_connecting_scales_linearly(cone_a):
    fan, D = star_quotient(cone_a, (0, 0, 0, 1))
    D2 = D.scaled(2)
    for p in (1, 2):
        for l in range(3):
            m1 = connecting_map(fan, D, p, l)
            m2 = connecting_map(fan, D2, p, l)
            assert np.array_equal(m2, 2 * m1)


# ---------------------------------------------------------------------------
# Hodge tables


def test_hodge_plane(p2_fan):
    H = hodge_table(p2_fan)
    for p in range(3):
        for q in range(3):
            assert H.h(p, q) == (1 if p == q else 0)
    assert [H.betti(k) for k in range(5)] == [1, 0, 1, 0, 1]


def test_hodge_quadric(p1p1_fan):
    H = hodge_table(p1p1_fan)
    assert H.h(1, 1) == 2
    assert [H.betti(k) for k in range(5)] == [1, 0, 2, 0, 1]


def test_hodge_weighted(p112_fan):
    H = hodge_table(p112_fan)
    assert [H.h(p, p) for p in range(3)] == [1, 1, 1]
    assert H.h(0, 1) == 0 and H.h(1, 0) == 0


def test_hodge_betti_oracle(p2_fan, p1p1_fan, p112_fan):
    for fan in (p2_fan, p1p1_fan, p112_fan):
        H = hodge_table(fan)
        halves = betti_oracle(fan)
        for k in range(fan.rank + 1):
            assert H.betti(2 * k) == halves[k]
            assert H.betti(2 * k + 1) == 0


def test_hodge_requires_complete():
    fan = fan_from_cones(((1, 0), (0, 1)), ((0, 1),), 2)
    with pytest.raises(NotComplete):
        hodge_table(fan)


# ---------------------------------------------------------------------------
# long exact sequences


def test_les_defect_cone(cone_a):
    rep = les_theorem(cone_a, (0, 0, 0, 1))
    assert rep.all_exact
    assert {r.level for r in rep.rows} == {0, 1, 2, 3}
    row = rep.row(3)
    assert row.h_cone == (0, 3, 1, 0)
    assert row.h_middle == row.h_cone
    assert row.h_top == (0, 0, 0, 1)
    assert row.h_bottom == (0, 3, 2, 0)


def test_each_differential_is_eliminated_at_most_once(cone_a, p112_fan, monkeypatch):
    """``les_theorem`` at the ray sum, and ``hodge_table`` with every
    ``connecting_map(p, p)``, take each complex differential through at most
    one elimination as a whole matrix.  The ``[image | kernel]``
    concatenations are new matrices and do not count, nor does the
    ``pivot_columns`` call inside ``matrix_rank``."""
    from toricdef import ishida

    assemble, diffs, eliminated, depth = ishida.assemble_complex, {}, [], [0]

    def recording(*args):
        cx = assemble(*args)
        diffs.update((id(m), m) for m in cx.diffs)  # kept alive, so ids stay unique
        return cx

    def counted(f):
        def wrapper(m):
            if not depth[0] and id(m) in diffs:
                eliminated.append(id(m))
            depth[0] += 1
            try:
                return f(m)
            finally:
                depth[0] -= 1

        return wrapper

    monkeypatch.setattr(ishida, "assemble_complex", recording)
    for name in ("matrix_rank", "rank_and_kernel", "pivot_columns"):
        monkeypatch.setattr(xl, name, counted(getattr(xl, name)))
    rep = les_theorem(cone_a, interior_vector(cone_a))
    assert rep.all_exact
    D = support_data(p112_fan, (1, 1, 1))
    assert hodge_table(p112_fan).table == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert [matrix_rank(connecting_map(p112_fan, D, p, p)) for p in range(2)] == [1, 1]
    assert eliminated and len(set(eliminated)) == len(eliminated)


def test_les_cube(cube_cone):
    rep = les_theorem(cube_cone, (0, 0, 0, 1))
    assert rep.all_exact


def test_les_random_cones():
    rng = random.Random(7)
    for _ in range(3):
        cone = random_cone(rng, 3)
        rho = tuple(sum(r[i] for r in cone.rays) for i in range(3))
        assert les_theorem(cone, rho).all_exact


# ---------------------------------------------------------------------------
# the vanishing equivalence


def test_equivalence_on_defect_cone(cone_a):
    rep = lefschetz_equivalence_check(cone_a, 2, 2)
    assert rep.theorem_applicable
    assert rep.h_cone == 1 and not rep.vanishes
    assert not rep.delta_in_injective
    assert rep.delta_out_surjective
    assert rep.agree


def test_equivalence_on_simplicial_cone(orthant4):
    rep = lefschetz_equivalence_check(orthant4, 1, 1)
    assert rep.theorem_applicable and rep.vanishes and rep.agree


def test_equivalence_trivial_range(orthant4):
    rep = lefschetz_equivalence_check(orthant4, 4, 1)
    assert not rep.theorem_applicable and rep.h_cone == 0


@pytest.mark.parametrize("rho", [(1, 1, 1), (0, 0, 0, 1, 0)])
def test_interior_ray_needs_rank_coordinates(cone_a, rho):
    for call in (
        lambda: star_quotient(cone_a, rho),
        lambda: les_theorem(cone_a, rho),
        lambda: lefschetz_equivalence_check(cone_a, 0, 0, rho),
    ):
        with pytest.raises(ValidationError, match="needs 4 coordinates"):
            call()


def test_boundary_rho_is_refused_before_any_complex(cone_a, monkeypatch):
    from toricdef import NotInterior, lefschetz

    built = []
    build = lefschetz.ishida_cone
    monkeypatch.setattr(lefschetz, "ishida_cone", lambda cone, l: built.append(l) or build(cone, l))
    with pytest.raises(NotInterior):
        lefschetz_equivalence_check(cone_a, 1, 1, cone_a.rays[0])
    assert built == []


# ---------------------------------------------------------------------------
# dimension-four defect via the exceptional route


def test_defect_via_quotient(cone_a, cone_b, cone_13):
    assert lcdef4_via_exceptional(cone_a, (0, 0, 0, 1)) is True
    assert lcdef4_via_exceptional(cone_b, interior_vector(cone_b)) is False
    assert lcdef4_via_exceptional(cone_13, interior_vector(cone_13)) is True


def test_defect_via_quotient_needs_dim_four(orthant3):
    with pytest.raises(WrongDimension):
        lcdef4_via_exceptional(orthant3, (1, 1, 1))


# ---------------------------------------------------------------------------
# hard Lefschetz-type injectivity


def test_injectivity_on_surfaces(p2_fan, p112_fan, p1p1_fan):
    for fan, alpha in (
        (p2_fan, (1, 1, 1)),
        (p112_fan, (0, 0, 1)),
        (p1p1_fan, (1, 1, 1, 1)),
    ):
        rep = hard_lefschetz_injectivity_check(fan, support_data(fan, alpha))
        assert rep.all_injective


def test_injectivity_on_quotient_fans(cone_a, cone_b, glued_cone, cube_cone, cone_13):
    for cone in (cone_a, cone_b, glued_cone, cube_cone, cone_13):
        fan, D = star_quotient(cone, interior_vector(cone))
        rep = hard_lefschetz_injectivity_check(fan, D)
        assert rep.all_injective
        for p, rank, target, ok in rep.checks:
            assert ok and rank == target


def test_injectivity_check_values(cone_a):
    fan, D = star_quotient(cone_a, (0, 0, 0, 1))
    rep = hard_lefschetz_injectivity_check(fan, D)
    assert rep.checks == ((0, 1, 1, True), (1, 2, 2, True))


def test_injectivity_requires_ample(p2_fan):
    with pytest.raises(NotAmple):
        hard_lefschetz_injectivity_check(p2_fan, support_data(p2_fan, (0, 0, 0)))


def test_injectivity_requires_complete():
    fan = fan_from_cones(((1, 0), (0, 1)), ((0, 1),), 2)
    D = support_data(fan, (1, 1))
    with pytest.raises(NotComplete):
        hard_lefschetz_injectivity_check(fan, D)


# ---------------------------------------------------------------------------
# quotient complexes really compute the cone cohomology


def test_middle_complex_matches_cone(cone_13):
    from toricdef import ishida_cone

    fan, D = star_quotient(cone_13, interior_vector(cone_13))
    for l in (1, 2, 3):
        L = lifted_complex(fan, D, l - 1)
        cone_h = cohomology(ishida_cone(cone_13, l))
        mid_h = tuple(L.middle.h(i) for i in range(len(cone_h)))
        assert mid_h == cone_h
