"""Divisor lifts, the levelwise extension of complexes, connecting maps,
Hodge tables, and the Lefschetz-type checks built on them."""

import random
from fractions import Fraction
from math import gcd

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
    make_p112,
    normal_generator,
    normal_of,
    pairing_of_normal,
    random_complete_simplicial_fan,
    random_cone,
    scaled_matrix,
    tilde_poset,
)
from toricdef import (
    NotAmple,
    NotComplete,
    NotQCartier,
    ValidationError,
    WrongDimension,
    cohomology,
    cone_cohomology_table,
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
from toricdef.ishida import face_complex
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


def test_support_data_takes_exact_values_only(p112_fan):
    """A float is refused (0.1 would become a Fraction with denominator
    2**55), and so is a value that is no number; ints, Fractions and exact
    strings are taken as they are."""
    with pytest.raises(ValidationError, match="not floats"):
        support_data(p112_fan, (0, 0, 0.1))
    for bad in ("x", None, "1/0"):
        with pytest.raises(ValidationError, match="must be exact numbers"):
            support_data(p112_fan, (0, 0, bad))
    for values in ((0, 0, 1), (Fraction(0), Fraction(0), Fraction(1)), ("0", "0/3", "1")):
        assert support_data(p112_fan, values).alpha == (0, 0, 1)
    assert support_data(p112_fan, ("0", "0", "0.1")).alpha == (0, 0, Fraction(1, 10))


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
        assert a == b


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
        assert L.top is ishida_fan(fan, p + 1)
        assert L.bottom is ishida_fan(fan, p)


def test_tilde_poset_is_the_fan_padded():
    """The fact the lifted sequences rest on: the tilde poset, built on its
    own as the fan padded by a zero, has the fan's normals padded, the
    fan's covering pairings and so the fan's complexes."""
    fan = random_complete_simplicial_fan(random.Random(5), 3, 4)
    tilde = tilde_poset(fan)
    assert tilde.width == fan.rank + 1 and tilde.faces_by_dim == fan.faces_by_dim
    pairs = [
        (mu, tau)
        for tau in fan.all_faces
        for mu in fan.all_faces
        if mu.dim + 1 == tau.dim and mu.ray_indices < tau.ray_indices
    ]
    assert pairs
    for mu, tau in pairs:
        assert tilde.covering_pairing(mu, tau) == fan.covering_pairing(mu, tau)
        direct = normal_of(tilde, mu, tau)
        assert direct == normal_of(fan, mu, tau) + (0,)
        assert pairing_of_normal(tilde, mu, tau, direct) == fan.covering_pairing(mu, tau)
    for level in range(fan.rank + 1):
        own, padded = ishida_fan(fan, level), face_complex("tilde", tilde, level)
        assert padded.dims == own.dims and padded.diffs == own.diffs


def test_lift_pairings_are_the_pairings_of_the_normals():
    fan = random_complete_simplicial_fan(random.Random("stellar"), 4, 10)
    rng = random.Random(3)
    divisor = support_data(fan, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in fan.rays])
    assert assert_pairings_match_normals(divisor.hat) > 0
    tilde = tilde_poset(fan)
    assert assert_pairings_match_normals(tilde) > 0
    vertical = (0,) * fan.rank + (1,)
    for f in fan.all_faces:
        hat_perp = divisor.hat.perps[f.ray_indices]
        n = normal_generator(*lift_spans(divisor, f), [vertical])
        got = _vertical_pairing(divisor, f)
        values = [sum(x * y for x, y in zip(n, a)) for a in hat_perp]
        assert got == xl.pairing(values, hat_perp, tilde.basis(f.ray_indices))
        assert gcd(*got.values) == 1 and _vertical_pairing(divisor, f) is got


def test_tilde_bases_are_validated_once_per_fan_face(monkeypatch):
    """Every lifted sequence of every divisor on a fan reads one tilde basis
    per fan face, memoized on the fan: the face's basis padded by a zero,
    with the same pivots.  A second divisor validates only its own hat
    bases."""
    fan = random_complete_simplicial_fan(random.Random(5), 3, 4)
    rng = random.Random(8)
    first, second = (
        support_data(fan, [Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in fan.rays]) for _ in range(2)
    )
    pivots, calls = xl._echelon_pivots, []
    monkeypatch.setattr(xl, "_echelon_pivots", lambda rows: calls.append(rows) or pivots(rows))
    for p in range(fan.rank):
        lifted_complex(fan, first, p)
    assert len(calls) == len(fan._bases) + len(first.hat._bases) + len(fan._tilde)
    tilde = dict(fan._tilde)
    assert tilde and tilde.keys() <= fan.by_key.keys()
    for key, basis in tilde.items():
        assert basis.vectors == tuple(r + (0,) for r in fan.perps[key])
        assert basis.pivots == fan.basis(key).pivots
    calls.clear()
    for p in range(fan.rank):
        lifted_complex(fan, second, p)
    assert len(calls) == len(second.hat._bases) + len(fan._tilde) - len(tilde)
    assert all(fan._tilde[key] is basis for key, basis in tilde.items())


def test_middle_dims_are_sums(p112_fan):
    D = support_data(p112_fan, (0, 0, 1))
    for p in range(2):
        L = lifted_complex(p112_fan, D, p)
        assert len(L.top.terms) == len(L.middle.terms) >= len(L.bottom.terms)
        for m in range(len(L.middle.terms)):
            assert L.middle.dims[m] == L.top.dims[m] + L.bottom.dim(m)


def test_termwise_exactness(p112_fan):
    D = support_data(p112_fan, (0, 0, 1))
    L = lifted_complex(p112_fan, D, 1)
    assert len(L.include) == len(L.project) == len(L.top.terms)
    for m, (inc, proj) in enumerate(zip(L.include, L.project)):
        t, b = L.top.dims[m], L.bottom.dim(m)
        assert matrix_rank(inc) == t
        assert matrix_rank(proj) == b
        if t and b:
            assert not any(xl._sparse_product(proj, inc).rows)


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
            assert m2 == scaled_matrix(2, m1)


def test_connecting_maps_keep_their_shape_between_zero_spaces(cone_a):
    fan, D = star_quotient(cone_a, (0, 0, 0, 1))
    shapes = set()
    for p in range(fan.rank):
        L = lifted_complex(fan, D, p)
        for l in range(-1, len(L.top.terms)):
            m = L.connecting(l)
            assert m.shape == (L.top.h(l + 1), L.bottom.h(l))
            shapes.add(m.shape)
    assert {(0, 0), (3, 0), (0, 3)} <= shapes


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


def _count_eliminations(monkeypatch):
    """Record every complex assembled from now on, and count, per
    differential, the calls of ``matrix_rank``, ``rank_and_kernel`` and
    ``pivot_columns`` that take it as a whole matrix.  The ``[image |
    kernel]`` concatenations are new matrices and do not count, nor does a
    call that one of the three makes inside another.

    Returns ``(diffs, calls)``: ``diffs`` maps the id of a differential to
    ``(complex, degree)`` (the matrices are kept alive, so ids stay unique),
    ``calls`` maps ``(name, id)`` to a count."""
    from toricdef import ishida

    assemble, diffs, calls, depth = ishida.assemble_complex, {}, {}, [0]

    def recording(*args):
        cx = assemble(*args)
        diffs.update((id(m), (cx, k)) for k, m in enumerate(cx.diffs))
        return cx

    def counted(name, f):
        def wrapper(m):
            if not depth[0] and id(m) in diffs:
                calls[name, id(m)] = calls.get((name, id(m)), 0) + 1
            depth[0] += 1
            try:
                return f(m)
            finally:
                depth[0] -= 1

        return wrapper

    monkeypatch.setattr(ishida, "assemble_complex", recording)
    for name in ("matrix_rank", "rank_and_kernel", "pivot_columns"):
        monkeypatch.setattr(xl, name, counted(name, getattr(xl, name)))
    return diffs, calls


def test_each_differential_is_ranked_once_and_kernels_only_where_cohomology_is_nonzero(monkeypatch):
    """``les_theorem`` at the ray sum, and ``hodge_table`` with every
    ``connecting_map(p, p)``: each complex differential is ranked by
    ``matrix_rank`` at most once, goes through ``rank_and_kernel`` at most
    once and only where its complex has ``H^i != 0`` at its source degree
    ``i``, and never through ``pivot_columns`` on its own.  The cone and fan
    are built here: complexes are memoized on them, and a session
    fixture's may have been built and ranked by earlier tests."""
    cone_a, p112_fan = cone_from_rays(A_RAYS, 4), make_p112()
    diffs, calls = _count_eliminations(monkeypatch)
    rep = les_theorem(cone_a, interior_vector(cone_a))
    assert rep.all_exact
    D = support_data(p112_fan, (1, 1, 1))
    assert hodge_table(p112_fan).table == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert [matrix_rank(connecting_map(p112_fan, D, p, p)) for p in range(2)] == [1, 1]
    assert set(calls.values()) == {1}
    ranked = [i for name, i in calls if name == "matrix_rank"]
    kernels = [i for name, i in calls if name == "rank_and_kernel"]
    assert (len(ranked), len(kernels)) == (21, 4) and len(calls) == 25  # none by pivot_columns
    assert all(cx.h(k) for cx, k in map(diffs.get, kernels))


def test_cohomology_does_not_depend_on_the_order_it_is_asked_in(monkeypatch):
    """The complexes of ``les_theorem`` on fixture A at the ray sum and of
    P(1,1,2) with a divisor, built twice from fresh cones and fans: one copy
    is asked for every rank first, the other for every representative
    first.  Both give the same representatives, class coordinates and
    connecting maps, and take each differential through the same
    ``matrix_rank`` and ``rank_and_kernel`` calls."""
    from toricdef.lefschetz import _induced

    def sequences():
        cone = cone_from_rays(A_RAYS, 4)
        fan, divisor = star_quotient(cone, interior_vector(cone))
        p112 = make_p112()
        D = support_data(p112, (1, 1, 1))
        seqs = [lifted_complex(fan, divisor, p) for p in range(3)]
        seqs += [lifted_complex(p112, D, p) for p in range(2)]
        return seqs

    def run(ranks_first):
        with monkeypatch.context() as m:
            diffs, calls = _count_eliminations(m)
            seqs = sequences()
            # in the order they were assembled, which does not depend on the copy
            complexes = list({id(cx): cx for cx, _ in diffs.values()}.values())
            if ranks_first:
                for cx in complexes:
                    for k in range(len(cx.diffs)):
                        cx.rank(k)
            reps = [[cx.representatives(i) for i in range(len(cx.terms))] for cx in complexes]
            maps = [
                (L.connecting(l), _induced(L.top, L.middle, L.include, l), _induced(L.middle, L.bottom, L.project, l))
                for L in seqs
                for l in range(len(L.top.terms))
            ]
            hs = [cohomology(cx) for cx in complexes]
            index = {id(cx): n for n, cx in enumerate(complexes)}
            per_diff = {(name, index[id(diffs[i][0])], diffs[i][1]): n for (name, i), n in calls.items()}
        return reps, maps, hs, per_diff

    ranks_first = run(True)
    assert ranks_first == run(False)
    *_, per_diff = ranks_first
    assert set(per_diff.values()) == {1}


@pytest.fixture
def assembled(monkeypatch):
    """The labels of the complexes assembled while the test runs."""
    from toricdef import ishida

    labels, assemble = [], ishida.assemble_complex
    monkeypatch.setattr(ishida, "assemble_complex", lambda label, *a: labels.append(label) or assemble(label, *a))
    return labels


def test_les_theorem_assembles_each_complex_once(assembled):
    """The cone's four levels, and the three lifted sequences' hat levels
    1..3 and fan levels 0..3: the fan's level 0 is the first sequence's
    bottom, and consecutive sequences share the fan level that joins them.
    The exceptional criterion then reads the fan's level 2 as built."""
    cone = cone_from_rays(A_RAYS, 4)
    rho = interior_vector(cone)
    assert les_theorem(cone, rho).all_exact
    assert len(assembled) == 11 and len(set(assembled)) == 11
    for kind, levels in (("cone", range(4)), ("fan", range(4)), ("hat", range(1, 4))):
        assert sorted(x for x in assembled if x.startswith(kind)) == [f"{kind} level {k}" for k in levels]
    del assembled[:]
    assert lcdef4_via_exceptional(cone, rho) is True
    assert assembled == []


def test_divisors_on_a_fan_share_the_fan_complexes(assembled):
    fan = make_p112()
    D = support_data(fan, (1, 1, 1))
    hodge_table(fan)
    del assembled[:]
    for E in (D, D.scaled(2)):
        for p in range(fan.rank):
            connecting_map(fan, E, p, p)
    assert sorted(assembled) == ["hat level 1"] * 2 + ["hat level 2"] * 2
    for p in range(fan.rank - 1):
        assert lifted_complex(fan, D, p).top is lifted_complex(fan, D.scaled(2), p + 1).bottom


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


def test_equivalence_outside_the_theorem_reports_the_cone_cohomology(cone_a):
    # p = d - 1 has a level-d complex but no theorem to check against
    level = cone_cohomology_table(cone_a).level(4)
    for l in range(5):
        rep = lefschetz_equivalence_check(cone_a, 3, l)
        assert rep.h_cone == level[l] and rep.theorem_applicable is False


def test_equivalence_in_degree_zero_reads_surjectivity_off_the_top(cone_a):
    rep = lefschetz_equivalence_check(cone_a, 1, 0)
    fan, divisor = star_quotient(cone_a, interior_vector(cone_a))
    assert rep.theorem_applicable and rep.agree
    assert rep.delta_out_surjective == (lifted_complex(fan, divisor, 1).top.h(0) == 0)


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


def test_a_divisor_from_another_fan_is_a_validation_error(p2_fan, p112_fan):
    """A divisor made on another fan is refused before anything reads it;
    the hard Lefschetz check would otherwise test the linear forms of
    P(1,1,2) against the rays of P^2 and report a broken invariant."""
    D = support_data(p112_fan, (0, 0, 1))
    calls = (
        lambda: hard_lefschetz_injectivity_check(p2_fan, D),
        lambda: lifted_complex(p2_fan, D, 0),
        lambda: connecting_map(p2_fan, D, 0, 0),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="different fan"):
            call()


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
