"""Pinned cohomology bases and connecting maps.

The connecting maps are matrices in chosen cohomology bases, so their
entries (not only their ranks) depend on which kernel columns
``LabeledComplex.representatives`` picks.  ``tests/expected/connecting_maps.txt``
holds every connecting map and every chosen representative for the star
quotient of fixture A and for a seeded stellar fan; regenerate it with
``PYTHONPATH=src python tests/test_connecting_pinned.py``.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from conftest import A_RAYS, interior_vector, random_complete_simplicial_fan
from toricdef import cone_from_rays, lifted_complex, star_quotient, support_data
from toricdef import exact_linalg as xl

EXPECTED = Path(__file__).resolve().parent / "expected" / "connecting_maps.txt"


def _cases():
    cone = cone_from_rays(A_RAYS, 4)
    yield "fixture A star quotient", star_quotient(cone, interior_vector(cone))
    rng = random.Random(11)
    fan = random_complete_simplicial_fan(rng, 4, 3)
    alpha = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in fan.rays]
    yield "stellar fan (rank 4, 3 splits, seed 11)", (fan, support_data(fan, alpha))


def _matrix_lines(m):
    return [f"  shape {m.shape[0]}x{m.shape[1]}"] + ["  " + " ".join(map(str, row)) for row in m.tolist()]


def dump() -> str:
    lines = []
    for name, (fan, divisor) in _cases():
        lines.append(f"# {name}")
        for p in range(fan.rank):
            L = lifted_complex(fan, divisor, p)
            for which, cx in (("top", L.top), ("middle", L.middle), ("bottom", L.bottom)):
                for i in range(len(L.top.terms)):  # the bottom may be one degree shorter
                    lines.append(f"level {p} {which} H^{i} representatives")
                    lines += _matrix_lines(cx.representatives(i))
            for l in range(len(L.top.terms)):
                lines.append(f"level {p} connecting {l}")
                lines += _matrix_lines(L.connecting(l))
    return "\n".join(lines) + "\n"


def test_connecting_maps_and_representatives_are_pinned():
    assert dump() == EXPECTED.read_text()


def _rank(cols, height):
    rows = [[QQ(x.numerator, x.denominator) for x in col] for col in cols]
    return DomainMatrix(rows, (len(rows), height), QQ).rank() if rows else 0


def _columns(m):
    return [[row[j] for row in m.tolist()] for j in range(m.ncols)]


def _greedy(kern, d_in):
    """Kernel columns in order, each kept when it raises the sympy rank of
    the columns of ``d_in`` plus the columns kept so far."""
    cols = _columns(d_in)
    rank, chosen = _rank(cols, d_in.shape[0]), []
    for j, col in enumerate(_columns(kern)):
        if _rank(cols + [col], kern.shape[0]) > rank:
            chosen.append(j)
            cols, rank = cols + [col], rank + 1
    return chosen


@pytest.mark.parametrize("case", range(2))
def test_chosen_representatives_are_the_greedy_columns(case):
    fan, divisor = list(_cases())[case][1]
    for p in range(fan.rank):
        L = lifted_complex(fan, divisor, p)
        for cx in (L.top, L.middle, L.bottom):
            for i in range(len(cx.terms)):
                reps = cx.representatives(i)
                d_out = cx.diffs[i] if i < len(cx.diffs) else xl.Matrix((), cx.dims[i])
                _, kern = xl.rank_and_kernel(d_out)
                chosen = _greedy(kern, cx.diffs[i - 1] if i else xl.Matrix([{}] * cx.dims[0], 0))
                assert cx.h(i) == reps.shape[1] == len(chosen)
                assert reps.tolist() == [[row[j] for j in chosen] for row in kern.tolist()]


if __name__ == "__main__":
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(dump())
