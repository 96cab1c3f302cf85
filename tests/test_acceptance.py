"""End-to-end acceptance checks for the whole package.

Each test is one verdict line under ``pytest -v``; together they cover the
ten headline behaviours: the two 14-ray cones, the 13-ray cone, the
dimension-four quotient route, the long exact sequence, pyramid invariance,
the structural identity suite, vanishing and bounds, Hodge tables against the
h-vector oracle, hard-Lefschetz-type injectivity, and the dimension-four
Euler identity.
"""

import random
from fractions import Fraction

import numpy as np

from conftest import (
    betti_oracle,
    interior_vector,
    lift_identities,
    normal_of,
    pairing_of_normal,
    random_apex,
    random_complete_simplicial_fan,
    random_cone,
    random_interior,
    span_of,
)
from toricdef import (
    INCONCLUSIVE,
    cohomology,
    connecting_map,
    euler_criterion,
    face_lattice,
    graded_piece,
    hard_lefschetz_injectivity_check,
    hodge_table,
    ishida_cone,
    ishida_fan,
    lcdef4_via_exceptional,
    lcdef_cone,
    lcdef_variety,
    les_theorem,
    lifted_complex,
    pyramid,
    restricted_complex,
    simplicial_star_criterion,
    star_quotient,
    support_data,
)
from toricdef.exact_linalg import matrix_rank


def _cone_fixtures(cone_a, cone_b, cone_13, glued_cone, cube_cone, orthant4):
    return (cone_a, cone_b, cone_13, glued_cone, cube_cone, orthant4)


# 1 -------------------------------------------------------------------------


def test_fourteen_ray_pair_has_defects_one_and_zero(cone_a, cone_b):
    assert lcdef_variety(cone_a) == 1
    assert lcdef_variety(cone_b) == 0


# 2 -------------------------------------------------------------------------


def test_thirteen_ray_cone_profile(cone_13):
    lat = face_lattice(cone_13)
    assert lat.face_counts()[1:4] == (13, 24, 13)
    coh = cohomology(ishida_cone(cone_13, 3))
    assert coh[1] == 1 and coh[2] == 1
    assert lcdef_cone(cone_13) == 1
    assert euler_criterion(cone_13).verdict == INCONCLUSIVE
    assert simplicial_star_criterion(cone_13).verdict == INCONCLUSIVE


# 3 -------------------------------------------------------------------------


def test_quotient_route_agrees_with_direct_defect(cone_a, cone_b, cone_13):
    rng = random.Random(2024)
    cones = [cone_a, cone_b, cone_13]
    cones += [random_cone(rng, 4) for _ in range(20)]
    for cone in cones:
        expected = lcdef_variety(cone) == 1
        rho_one = interior_vector(cone)
        rho_two = random_interior(rng, cone)
        if rho_two == rho_one:
            rho_two = interior_vector(cone, [2] + [1] * (len(cone.rays) - 1))
        assert rho_one != rho_two
        assert lcdef4_via_exceptional(cone, rho_one) is expected
        assert lcdef4_via_exceptional(cone, rho_two) is expected


# 4 -------------------------------------------------------------------------


def test_long_exact_sequence_of_the_defect_cone(cone_a):
    rho = (0, 0, 0, 1)
    report = les_theorem(cone_a, rho)
    assert report.all_exact
    fan, divisor = star_quotient(cone_a, rho)
    L = lifted_complex(fan, divisor, 2)
    delta = L.connecting(2)
    assert L.bottom.h(2) == 2
    rank = matrix_rank(delta)
    assert rank == 1
    kernel_dim = L.bottom.h(2) - rank
    assert kernel_dim == 1
    assert cohomology(ishida_cone(cone_a, 3))[2] == kernel_dim


# 5 -------------------------------------------------------------------------


def test_pyramids_preserve_the_defect():
    rng = random.Random(77)
    for i in range(50):
        d = 3 + i % 3
        cone = random_cone(rng, d)
        apex = random_apex(rng, d)
        assert lcdef_variety(pyramid(cone, apex)) == lcdef_variety(cone)


# 6 -------------------------------------------------------------------------


def _assert_squares_to_zero(cx):
    for d1, d2 in zip(cx.diffs, cx.diffs[1:]):
        if d1.size and d2.size:
            assert not np.any(d2 @ d1)


def _assert_diamonds_anticommute(cx):
    checked = 0
    for m in range(len(cx.terms) - 2):
        d1, d2 = cx.diffs[m], cx.diffs[m + 1]
        for bmu in cx.terms[m]:
            mu = frozenset(bmu.face_key)
            for btau in cx.terms[m + 2]:
                tau = frozenset(btau.face_key)
                if not mu < tau:
                    continue
                mids = [
                    bnu
                    for bnu in cx.terms[m + 1]
                    if mu < frozenset(bnu.face_key) < tau
                ]
                if not mids:
                    continue
                assert len(mids) == 2
                paths = [
                    d2[btau.offset : btau.offset + btau.size,
                       bnu.offset : bnu.offset + bnu.size]
                    @ d1[bnu.offset : bnu.offset + bnu.size,
                         bmu.offset : bmu.offset + bmu.size]
                    for bnu in mids
                ]
                assert np.array_equal(paths[0], -paths[1])
                checked += 1
    return checked


def test_structural_identities(
    cone_a, cone_b, cone_13, glued_cone, cube_cone, orthant4,
    p2_fan, p1p1_fan, p112_fan, monkeypatch,
):
    cones = _cone_fixtures(cone_a, cone_b, cone_13, glued_cone, cube_cone, orthant4)
    quotients = [star_quotient(c, interior_vector(c)) for c in (cone_a, glued_cone)]
    fan_divisors = [
        (p2_fan, support_data(p2_fan, (1, 1, 1))),
        (p112_fan, support_data(p112_fan, (0, 0, 1))),
        (p1p1_fan, support_data(p1p1_fan, (1, 1, 1, 1))),
    ] + quotients

    # d^2 = 0 and the two-path identity on every fixture complex
    diamonds = 0
    for cone in cones:
        for l in range(cone.dim + 1):
            cx = ishida_cone(cone, l)
            _assert_squares_to_zero(cx)
            diamonds += _assert_diamonds_anticommute(cx)
    for fan, _ in fan_divisors:
        for l in range(fan.rank + 1):
            cx = ishida_fan(fan, l)
            _assert_squares_to_zero(cx)
            diamonds += _assert_diamonds_anticommute(cx)
    assert diamonds > 100

    # termwise exactness of the levelwise extension, on every divisor
    for fan, divisor in fan_divisors:
        for p in range(fan.rank):
            L = lifted_complex(fan, divisor, p)
            for inc, proj, t, b, m in zip(
                L.include, L.project, L.top.dims, L.bottom.dims, L.middle.dims
            ):
                assert m == t + b
                assert matrix_rank(inc) == t
                assert matrix_rank(proj) == b
                if t and b:
                    assert not np.any(proj @ inc)
            _assert_squares_to_zero(L.middle)

    # graded pieces match restricted complexes
    for cone in (cone_a, cone_13):
        lat = face_lattice(cone)
        for tau in lat.faces_by_dim[3][:2]:
            for l in (1, 2):
                assert cohomology(graded_piece(cone, l, tau.key)) == cohomology(
                    restricted_complex(cone, l, tau.key)
                )

    # the differential does not depend on the normal representatives
    lat13 = face_lattice(cone_13)

    def shifted(mu, tau):
        n = normal_of(lat13, mu, tau)
        rows = span_of(lat13, mu)
        n = n if not rows else tuple(a + 2 * b for a, b in zip(n, rows[0]))
        return pairing_of_normal(lat13, mu, tau, n)

    plain = ishida_cone(cone_13, 2)
    with monkeypatch.context() as mp:
        mp.setattr(lat13, "covering_pairing", shifted)
        moved = ishida_cone(cone_13, 2)
    assert all(np.array_equal(a, b) for a, b in zip(plain.diffs, moved.diffs))

    # lattice identities of the graph and epigraph lifts
    for fan, divisor in fan_divisors:
        lift_identities(fan, divisor)

    # the connecting map scales linearly in the divisor
    for fan, divisor in fan_divisors:
        C = divisor.cartier_denominator
        for k in {2, C}:
            scaled = divisor.scaled(k)
            for l in range(fan.rank):
                m1 = connecting_map(fan, divisor, 1, l)
                m2 = connecting_map(fan, scaled, 1, l)
                assert np.array_equal(m2, k * m1)


# 7 -------------------------------------------------------------------------


def test_vanishing_and_defect_bounds(
    cone_a, cone_b, cone_13, glued_cone, cube_cone, orthant4
):
    rng = random.Random(11)
    cones = list(_cone_fixtures(cone_a, cone_b, cone_13, glued_cone, cube_cone, orthant4))
    cones += [random_cone(rng, rng.randrange(2, 6)) for _ in range(100)]
    for cone in cones:
        d = cone.dim
        value = lcdef_cone(cone)
        assert 0 <= value <= max(0, d - 3)
        for p in range((d + 1) // 2, d + 1):
            assert cohomology(ishida_cone(cone, p))[p] == 0


# 8 -------------------------------------------------------------------------


def test_hodge_tables_match_betti_oracle(p2_fan, p1p1_fan, p112_fan):
    rng = random.Random(5)
    fans = [p2_fan, p1p1_fan, p112_fan]
    fans += [
        random_complete_simplicial_fan(rng, rng.choice((2, 3)), rng.randrange(0, 4))
        for _ in range(10)
    ]
    for fan in fans:
        table = hodge_table(fan)
        halves = betti_oracle(fan)
        for k in range(fan.rank + 1):
            assert table.betti(2 * k) == halves[k]
            assert table.betti(2 * k + 1) == 0


# 9 -------------------------------------------------------------------------


def test_no_injectivity_violation_for_convex_divisors(
    p2_fan, p1p1_fan, p112_fan, cone_a, cone_b, cone_13, glued_cone, cube_cone
):
    cases = [
        (p2_fan, support_data(p2_fan, (1, 1, 1))),
        (p112_fan, support_data(p112_fan, (0, 0, 1))),
        (p1p1_fan, support_data(p1p1_fan, (1, 1, 1, 1))),
    ]
    for cone in (cone_a, cone_b, cone_13, glued_cone, cube_cone):
        cases.append(star_quotient(cone, interior_vector(cone)))
    for fan, divisor in cases:
        report = hard_lefschetz_injectivity_check(fan, divisor)
        assert report.all_injective
        assert report.checks  # at least one p was actually checked


# 10 ------------------------------------------------------------------------


def test_euler_identity_in_dimension_four(
    cone_a, cone_b, cone_13, glued_cone, cube_cone, orthant4
):
    rng = random.Random(13)
    cones = list(_cone_fixtures(cone_a, cone_b, cone_13, glued_cone, cube_cone, orthant4))
    cones += [random_cone(rng, 4) for _ in range(50)]
    for cone in cones:
        v, e, f = face_lattice(cone).face_counts()[1:4]
        coh = cohomology(ishida_cone(cone, 3))
        assert coh[2] - coh[1] == f - v
        # the certificate built on the identity stays internally consistent
        euler_criterion(cone)
