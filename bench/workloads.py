"""Seeded inputs, ops and output oracles for the benchmark's workloads.

Nothing here imports ``toricdef`` at module level or reads the test suite:
inputs are generated from the seed as plain integer and ``Fraction`` lists,
and an op receives the imported package to call into.  Every op rebuilds
its cones, fans and divisors from those lists, so no object memo
(``Cone._lattice``, ``DivisorData._memo``, ``LiftedComplexes._memo``) is
shared between two ops.

A workload is one *round* of ops generated from the seed.  A run repeats
the round, so every op is measured several times on the same input.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

# The three cones shipped in fixtures/, copied so that an edit there cannot
# silently change the benchmark's inputs.  Known defects are from the paper.
FIXTURES = {
    "A": (
        (1, 0, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (0, 1, 0, 1),
        (0, 0, 1, 1), (0, 0, -1, 1),
        (1, 1, 1, 2), (-1, 1, 1, 2), (1, -1, 1, 2), (-1, -1, 1, 2),
        (1, 1, -1, 2), (-1, 1, -1, 2), (1, -1, -1, 2), (-1, -1, -1, 2),
    ),
    "B": (
        (1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 1, 2), (-1, 0, 0, 1),
        (0, -1, 0, 1), (0, 0, -1, 1),
        (2, 3, 1, 5), (1, 1, -1, 2), (2, -3, 1, 5), (1, -1, -1, 2),
        (-2, 1, 1, 3), (-1, 1, -1, 2), (-2, -1, 1, 3), (-1, -1, -1, 2),
    ),
    "13": (
        (1, 1, 0, 1), (1, 0, 1, 1), (1, -1, 0, 1), (1, 0, -1, 1),
        (1, 1, 1, 0), (1, 1, -1, 0), (1, -1, 1, 0), (1, -1, -1, 0),
        (1, 1, 0, -1), (1, -1, 0, -1), (1, 0, -1, -1), (1, 0, 1, -1),
        (1, 1, 1, 1),
    ),
}
FIXTURE_DEFECT = {"A": 1, "B": 0, "13": 1}

DEFAULT_SEED = 0
CLI_COMMANDS = ("criteria", "verify", "lcdef", "subdivide")
CYCLIC_CASES = ((5, 9), (5, 11), (6, 9))
STELLAR_RANK = 4
STELLAR_SPLITS = 10


@dataclass
class Op:
    """One op: a kind, the generated plain-data arguments, and a reference
    key for inputs that do not depend on the seed (the fixtures)."""

    kind: str
    args: tuple
    key: str | None = None


# ---------------------------------------------------------------------------
# generators


def _exact_rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def polytope_cone_rays(rng: random.Random, rank: int, extra: int) -> list:
    """Generators of the cone over a random lattice polytope at height one:
    ``rank + extra`` distinct points of [-3, 3]^(rank-1) x {1} spanning the
    space.  Points that are not vertices stay in the list; dropping them is
    part of the work measured."""
    want = rank + extra
    while True:
        pts = set()
        while len(pts) < want:
            pts.add(tuple(rng.randrange(-3, 4) for _ in range(rank - 1)) + (1,))
        rays = sorted(pts)
        if _exact_rank(rays) == rank:
            return rays


def pyramid_apex(rng: random.Random, rank: int, reach: int = 2) -> tuple:
    """An apex off the hyperplane, with entries of size at most ``reach``."""
    head = [rng.randrange(-reach, reach + 1) for _ in range(rank)]
    return tuple(head) + (rng.choice([k for k in range(-reach, reach + 1) if k]),)


def interior_ray(rng: random.Random, rays) -> tuple:
    """A strictly positive combination of all generators: interior."""
    w = [rng.randrange(1, 4) for _ in rays]
    return tuple(sum(c * r[i] for c, r in zip(w, rays)) for i in range(len(rays[0])))


def ray_sum(rays) -> tuple:
    return tuple(sum(r[i] for r in rays) for i in range(len(rays[0])))


def cyclic_rays(params, rank: int) -> list:
    """Rays of the cone over the cyclic polytope with the given moment-curve
    parameters, in increasing parameter order."""
    return [tuple(t**k for k in range(1, rank)) + (1,) for t in sorted(params)]


def _primitive(v):
    g = 0
    for c in v:
        g = gcd(g, c)
    return tuple(c // g for c in v)


def stellar_fan(rng: random.Random, rank: int, splits: int):
    """Random stellar subdivisions of the simplex fan: (rays, maximal cones)."""
    rays = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    rays.append(tuple(-1 for _ in range(rank)))
    maximal = [tuple(sorted(set(range(rank + 1)) - {i})) for i in range(rank + 1)]
    for _ in range(splits):
        cone = maximal.pop(rng.randrange(len(maximal)))
        rays.append(_primitive(tuple(sum(rays[i][k] for i in cone) for k in range(rank))))
        j = len(rays) - 1
        for drop in cone:
            maximal.append(tuple(sorted((set(cone) - {drop}) | {j})))
    return rays, maximal


# One fixed subdivision sequence: seeded sequences differ in cost by a
# third, so the seed varies the fan's coordinates and the divisor instead.
STELLAR_FAN = stellar_fan(random.Random("stellar"), STELLAR_RANK, STELLAR_SPLITS)


def relabeled_fan(rng: random.Random, rays, maximal):
    """The same fan under a seeded signed permutation of the coordinates and
    a seeded ray order."""
    n = len(rays[0])
    order = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    perm = rng.sample(range(len(rays)), len(rays))  # new position of each ray
    out = [None] * len(rays)
    for i, r in enumerate(rays):
        out[perm[i]] = tuple(signs[k] * r[order[k]] for k in range(n))
    return out, [tuple(sorted(perm[i] for i in cone)) for cone in maximal]


def rational_values(rng: random.Random, count: int) -> list:
    return [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(count)]


def seed77_family(count: int) -> list:
    """The first ``count`` cones of the pyramid family the acceptance test
    draws from ``random.Random(77)``: cone i has rank 3 + i % 3."""
    rng = random.Random(77)
    out = []
    for i in range(count):
        rank = 3 + i % 3
        out.append((polytope_cone_rays(rng, rank, rng.randrange(1, 4)), rank))
        pyramid_apex(rng, rank)  # keep the draws aligned with the test's
    return out


# Nine cones, three of each rank.  The seed varies their coordinates, not
# the cones: freshly drawn cones differ in cost from seed to seed by more
# than any useful bound.
SEED77_FAMILY = seed77_family(9)


def presented(rng: random.Random, rays) -> list:
    """The same cone in seeded lattice coordinates: a signed permutation of
    the coordinates of the polytope at height one, and a shuffled ray order.
    Face lattice and defect do not change, and neither does the size of any
    number (a translation of the polytope changed the cost by up to 20 %)."""
    n = len(rays[0]) - 1
    order = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    out = [tuple(signs[k] * r[order[k]] for k in range(n)) + (r[n],) for r in rays]
    rng.shuffle(out)
    return out


def cli_document(rays, perm) -> str:
    """Key-value document of a cone with its rays listed in ``perm`` order
    and the sum of the rays as interior ray."""
    lines = ["rank: %d" % len(rays[0]), "rays:"]
    lines += ["  " + " ".join(map(str, rays[i])) for i in perm]
    lines.append("interior_ray: " + " ".join(map(str, ray_sum(rays))))
    return "\n".join(lines) + "\n"


def round_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one round of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    if workload == "pyramids":
        for i, (rays, rank) in enumerate(SEED77_FAMILY):
            apex = pyramid_apex(rng, rank, reach=1)
            ops.append(Op("pyramid", (presented(rng, rays), rank, apex), key=f"pyramid:{i}"))
    elif workload == "cyclic":
        for rank, n in CYCLIC_CASES:
            # n of the n + 2 integers nearest zero: the lattice data varies,
            # the size of the numbers (and so the cost) hardly does
            rays = cyclic_rays(rng.sample(range(-(n // 2) - 1, n // 2 + 2), n), rank)
            for kind in ("face_lattice", "lcdef_variety", "star_quotient"):
                ops.append(Op(kind, (rays, rank)))
    elif workload == "divisors":
        for rays, rank in SEED77_FAMILY:
            if rank == 4:
                rays = presented(rng, rays)
                ops.append(Op("les", (rays, interior_ray(rng, rays))))
        for name, frays in FIXTURES.items():
            ops.append(Op("les", (list(frays), ray_sum(frays)), key=f"les:{name}"))
        frays, maximal = relabeled_fan(rng, *STELLAR_FAN)
        ops.append(Op("hodge", (frays, maximal, rational_values(rng, len(frays)))))
    elif workload == "cli_fixtures":
        for name, frays in FIXTURES.items():
            perm = list(range(len(frays)))
            if seed != DEFAULT_SEED:
                rng.shuffle(perm)
            doc = cli_document(frays, perm)
            for cmd in CLI_COMMANDS:
                ops.append(Op("cli", (cmd, doc, perm), key=f"cli:{name}:{cmd}"))
    else:
        raise KeyError(workload)
    return ops


WORKLOADS = {
    "pyramids": "many small cones (rank 3-5 over lattice polytopes, seed-77 family) and "
    "their pyramids; complex assembly and contraction dominate",
    "cyclic": "few large face lattices (cones over cyclic polytopes); fan validation, "
    "simplex LPs and lattice data dominate",
    "divisors": "long exact sequences and Hodge tables with rational divisors; "
    "Fraction solves and ranks dominate",
    "cli_fixtures": "the CLI on the paper fixtures with permuted rays; the only "
    "workload running criteria, parsing and the per-face defect loop",
}


# ---------------------------------------------------------------------------
# calibration

# Fixed integer matrices for the calibration kernel.
CALIBRATION = [
    [[r.randrange(-9, 10) for _ in range(9)] for _ in range(7)]
    for r in [random.Random("calibration")] for _ in range(24)
]


def calibration_kernel() -> int:
    """Fraction-free (Bareiss) ranks of the fixed calibration matrices,
    about 1 ms of work.

    Plain integer and list work like the library's, but no code the
    benchmark measures can change its speed; its time tracks only how fast
    the machine is running right now."""
    total = 0
    for rows in CALIBRATION:
        m = [list(r) for r in rows]
        rank, prev = 0, 1
        for c in range(len(m[0])):
            piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            p = m[rank][c]
            for i in range(rank + 1, len(m)):
                q = m[i][c]
                m[i] = [(p * a - q * b) // prev for a, b in zip(m[i], m[rank])]
            prev = p
            rank += 1
        total += rank
    return total


# ---------------------------------------------------------------------------
# ops: each returns a JSON-able summary of basis-independent outputs


def _counts(lat) -> list:
    return list(lat.face_counts())


def run_op(td, op: Op):
    """Execute one op against the imported ``toricdef`` package ``td``."""
    if op.kind == "pyramid":
        rays, rank, apex = op.args
        cone = td.cone_from_rays(rays, rank)
        base = td.lcdef_variety(cone)
        pyr = td.pyramid(cone, apex)
        top = td.lcdef_variety(pyr)
        return {
            "dim": cone.dim,
            "lcdef": base,
            "lcdef_pyramid": top,
            "faces": _counts(td.face_lattice(cone)),
            "faces_pyramid": _counts(td.face_lattice(pyr)),
        }
    if op.kind == "face_lattice":
        rays, rank = op.args
        lat = td.face_lattice(td.cone_from_rays(rays, rank))
        facets = sorted(f.key for f in lat.faces_by_dim[lat.cone.dim - 1])
        return {"rays": len(lat.cone.rays), "faces": _counts(lat), "facets": [list(k) for k in facets]}
    if op.kind == "lcdef_variety":
        rays, rank = op.args
        cone = td.cone_from_rays(rays, rank)
        return {"dim": cone.dim, "lcdef": td.lcdef_variety(cone)}
    if op.kind == "star_quotient":
        rays, rank = op.args
        cone = td.cone_from_rays(rays, rank)
        fan, divisor = td.star_quotient(cone, ray_sum(rays))
        return {
            "faces_cone": _counts(td.face_lattice(cone)),
            "faces_fan": list(fan.face_counts()),
            "complete": fan.is_complete(),
            "cartier_denominator": divisor.cartier_denominator,
        }
    if op.kind == "les":
        rays, rho = op.args
        cone = td.cone_from_rays(rays, 4)
        les = td.les_theorem(cone, rho)
        return {
            "all_exact": les.all_exact,
            "rows": [
                [r.level, list(r.h_cone), list(r.h_middle), list(r.h_top), list(r.h_bottom), r.exact]
                for r in les.rows
            ],
            "lcdef_one": td.lcdef4_via_exceptional(cone, rho),
        }
    if op.kind == "hodge":
        rays, maximal, values = op.args
        fan = td.fan_from_cones(rays, maximal, len(rays[0]))
        table = td.hodge_table(fan)
        divisor = td.support_data(fan, values)
        maps = []
        for p in range(fan.rank):
            m = td.connecting_map(fan, divisor, p, p)
            maps.append([m.shape[0], m.shape[1], td.exact_linalg.matrix_rank(m)])
        return {"hodge": [list(row) for row in table.table], "maps": maps}
    if op.kind == "cli":
        cmd, doc, _ = op.args
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = _run_cli(td, [cmd, "-"], doc)
        return {"exit": code, "output": json.loads(out.getvalue())}
    raise KeyError(op.kind)


def _run_cli(td, argv, doc: str) -> int:
    saved = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        return td.cli.run(argv)
    finally:
        sys.stdin = saved


# ---------------------------------------------------------------------------
# oracles


def gale_facets(n: int, k: int) -> list:
    """Facets of the k-dimensional cyclic polytope on n ordered vertices, by
    Gale's evenness condition."""
    out = []
    for s in combinations(range(n), k):
        members = set(s)
        outside = [i for i in range(n) if i not in members]
        if all(sum(1 for m in s if a < m < b) % 2 == 0 for a, b in combinations(outside, 2)):
            out.append(list(s))
    return sorted(out)


def simplicial_betti_halves(maximal, rank: int) -> list:
    """Even Betti numbers of a complete simplicial fan from its h-vector,
    counting faces straight from the maximal cones."""
    faces = {frozenset()}
    for cone in maximal:
        for k in range(1, len(cone) + 1):
            faces.update(frozenset(c) for c in combinations(cone, k))
    f = [sum(1 for x in faces if len(x) == j) for j in range(rank + 1)]
    return [
        sum((-1) ** (i - k) * comb(i, k) * f[rank - i] for i in range(k, rank + 1))
        for k in range(rank + 1)
    ]


def oracle_problems(op: Op, s) -> list[str]:
    """Independent checks of one op's summary; an empty list means pass."""
    bad = []
    if op.kind == "pyramid":
        f, fp = s["faces"], s["faces_pyramid"]
        want = [(f[k] if k < len(f) else 0) + (f[k - 1] if k else 0) for k in range(len(f) + 1)]
        if fp != want:
            bad.append(f"pyramid face counts {fp} != {want}")
        if s["lcdef"] != s["lcdef_pyramid"]:
            bad.append("defect not invariant under the pyramid")
        if not 0 <= s["lcdef"] <= max(0, s["dim"] - 3):
            bad.append(f"defect {s['lcdef']} outside 0..dim-3")
    elif op.kind == "face_lattice":
        rays, rank = op.args
        if s["rays"] != len(rays):
            bad.append("a moment-curve point was dropped")
        if s["facets"] != gale_facets(len(rays), rank - 1):
            bad.append("facets disagree with Gale's evenness condition")
    elif op.kind == "lcdef_variety":
        if not 0 <= s["lcdef"] <= max(0, s["dim"] - 3):
            bad.append(f"defect {s['lcdef']} outside 0..dim-3")
    elif op.kind == "star_quotient":
        if s["faces_fan"] != s["faces_cone"][:-1]:
            bad.append("quotient face counts differ from the cone's")
        if not s["complete"]:
            bad.append("quotient fan is not complete")
    elif op.kind == "les":
        if not s["all_exact"]:
            bad.append("long exact sequence not exact")
        level3 = next(r for r in s["rows"] if r[0] == 3)
        if s["lcdef_one"] != (level3[1][2] != 0):
            bad.append("quotient route and direct cohomology disagree on the defect")
        if op.key and s["lcdef_one"] != (FIXTURE_DEFECT[op.key.split(":")[1]] == 1):
            bad.append("fixture defect differs from the paper's")
    elif op.kind == "hodge":
        rays, maximal, _ = op.args
        n = len(rays[0])
        halves = simplicial_betti_halves(maximal, n)
        betti = [
            sum(s["hodge"][p][k - p] for p in range(max(0, k - n), min(k, n) + 1))
            for k in range(2 * n + 1)
        ]
        if betti != [halves[k // 2] if k % 2 == 0 else 0 for k in range(2 * n + 1)]:
            bad.append("Betti numbers disagree with the h-vector")
        for p, (rows, cols, rank) in enumerate(s["maps"]):
            if (rows, cols) != (halves[n - p - 1], halves[n - p]) or not 0 <= rank <= min(rows, cols):
                bad.append(f"connecting map at p={p} has shape {rows}x{cols}, rank {rank}")
    elif op.kind == "cli":
        if s["exit"] != 0:
            bad.append(f"exit code {s['exit']}")
        name = op.key.split(":")[1]
        rep = s["output"]["report"]
        cmd = op.args[0]
        if cmd == "lcdef" and rep["lcdef_variety"] != FIXTURE_DEFECT[name]:
            bad.append("fixture defect differs from the paper's")
        if cmd == "verify" and not rep["all_ok"]:
            bad.append("verify reported a failed check")
        if cmd == "subdivide" and not rep["les_all_exact"]:
            bad.append("long exact sequence not exact")
    return bad


def cli_canonical(summary, perm) -> dict:
    """The parts of a CLI report that must not depend on the ray order, with
    ray indices mapped back to the fixture's own order."""
    env = summary["output"]
    rep = env["report"]
    cmd = env["command"]
    back = [0] * len(perm)
    for pos, orig in enumerate(perm):
        back[orig] = pos
    out = {"command": cmd, "input": env["input"], "exit": summary["exit"]}
    if cmd == "lcdef":
        out.update({k: rep[k] for k in ("face_counts", "lcdef_cone", "lcdef_variety", "simplicial")})
        out["per_face"] = sorted(
            (f["dim"], sorted(perm[i] for i in f["rays"]), f["lcdef"]) for f in rep["per_face"]
        )
    elif cmd == "criteria":
        out["verdicts"] = [
            [v["criterion"], v["verdict"], v["witness"] if v["criterion"] == "euler" else None]
            for v in rep["verdicts"]
        ]
    elif cmd == "verify":
        out["report"] = rep
    elif cmd == "subdivide":
        out.update({k: rep[k] for k in ("les", "les_all_exact", "lcdef_one_via_quotient", "cartier_denominator")})
        out["fan_rays"] = [rep["fan_rays"][back[j]] for j in range(len(perm))]
        out["alpha"] = [rep["alpha"][back[j]] for j in range(len(perm))]
        out["fan_maximal"] = sorted(sorted(perm[i] for i in c) for c in rep["fan_maximal"])
    return out


def normalized(x):
    """JSON round trip, so summaries compare equal to recorded ones."""
    return json.loads(json.dumps(x, default=str))


@dataclass
class Reference:
    """Recorded outputs: by key for inputs that do not depend on the seed,
    and by position in the default seed's round for the others (None where
    the op is keyed)."""

    by_key: dict = field(default_factory=dict)
    default_round: dict = field(default_factory=dict)

    def problems(self, workload: str, seed: int, index: int, op: Op, summary) -> list[str]:
        if op.key is None:
            if seed != DEFAULT_SEED:
                return []
            recorded = self.default_round.get(workload, [])
            if index >= len(recorded) or recorded[index] is None:
                return [f"op {index}: no recorded reference on the default seed"]
            if summary != recorded[index]:
                return [f"op {index}: output differs from the recorded one"]
            return []
        ref = self.by_key.get(op.key)
        if ref is None:
            return [f"no recorded reference for {op.key}"]
        if op.kind != "cli":
            return [] if summary == ref else [f"{op.key}: output differs from the recorded one"]
        bad = []
        perm = op.args[2]
        if perm == sorted(perm) and summary != ref:
            bad.append(f"{op.key}: JSON report differs from the recorded one")
        if cli_canonical(summary, perm) != cli_canonical(ref, list(range(len(perm)))):
            bad.append(f"{op.key}: report, ray indices mapped back, differs from the recorded one")
        return bad
