"""Self-test of the benchmark's tracing on a tiny seeded input.

    python3 bench/selftest.py

Checks three things and exits non-zero if any fails:

1. the traced call count of every layer equals cProfile's ``ncalls`` for
   the same function, so no binding of a traced name was missed;
2. traced outputs equal untraced outputs;
3. per op, the self times of all spans (the op's own span holds the
   untraced remainder) add up to the op's wall time as ``Runner.execute``
   measures it around the call, within the cost of opening and closing the
   op's span, and none is negative.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import sys

import run as bench
import spans
import workloads as wl

SEED = 7
# The op's span opens just before and closes just after the runner's own
# clock reads, so the self times may exceed the measured wall time by that
# much and no more.
SPAN_SLACK_S = 0.002


def tiny_ops() -> list[wl.Op]:
    """Small inputs that reach every traced layer at least once."""
    rng = random.Random(SEED)
    ops = [wl.Op("pyramid", (wl.polytope_cone_rays(rng, 3, 1), 3, wl.pyramid_apex(rng, 3)))]
    cyc = wl.cyclic_rays(rng.sample(range(-4, 5), 6), 4)
    ops += [wl.Op(kind, (cyc, 4)) for kind in ("face_lattice", "lcdef_variety", "star_quotient")]
    rays = wl.polytope_cone_rays(rng, 4, 1)
    ops.append(wl.Op("les", (rays, wl.interior_ray(rng, rays))))
    frays, maximal = wl.stellar_fan(rng, 3, 1)
    ops.append(wl.Op("hodge", (frays, maximal, wl.rational_values(rng, len(frays)))))
    doc = wl.cli_document(rays, list(range(len(rays))))
    ops += [wl.Op("cli", (cmd, doc, None)) for cmd in wl.CLI_COMMANDS]
    return ops


def main() -> int:
    td, _, caches, _ = bench.setup("pyramids", SEED)
    ops = tiny_ops()

    def each(fn):
        out = []
        for op in ops:
            for c in caches:
                c.cache_clear()
            out.append(fn(op))
        return out

    profile = cProfile.Profile()

    def profiled(op):
        profile.enable()
        try:
            return wl.normalized(wl.run_op(td, op))
        finally:
            profile.disable()

    each(profiled)
    ncalls = {key: row[1] for key, row in pstats.Stats(profile).stats.items()}
    plain = each(lambda op: wl.normalized(wl.run_op(td, op)))

    tracer = spans.Tracer()
    runner = bench.Runner(td, caches, "selftest", SEED, wl.Reference())
    traced, op_wall = [], []
    tracer.install()
    try:
        for i, op in enumerate(ops):
            dt, _, summary, err = runner.execute(op, before=lambda: tracer.begin_op(i), after=tracer.end_op)
            if err:
                print(err, file=sys.stderr)
            traced.append(summary)
            op_wall.append(dt)
    finally:
        tracer.uninstall()

    bad = []
    for layer in spans.LAYERS:
        found = spans.resolve(layer)
        if found is None:
            bad.append(f"{layer.name}: not in the package")
            continue
        code = found[3].__code__
        want = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        got = tracer.counters[layer.name].calls
        status = "ok" if got == want and got > 0 else "MISMATCH"
        print(f"{status:8} {layer.name:45} traced {got:7}  cProfile {want:7}")
        if status != "ok":
            bad.append(f"{layer.name}: traced {got} calls, cProfile {want}")
    if traced != plain:
        bad.append("traced outputs differ from untraced outputs")

    selfs = tracer.self_times()
    for i, wall in enumerate(op_wall):
        idx = [j for j, op in enumerate(tracer.ops) if op == i]
        root = next(j for j in idx if tracer.name_ids[j] == 0)
        total = sum(selfs[j] for j in idx)
        if not 0 <= total - wall <= SPAN_SLACK_S or min(selfs[j] for j in idx) < -1e-9:
            bad.append(f"op {i}: self times add to {total!r}, measured wall {wall!r}")
        print(f"op {i:2} {ops[i].kind:14} wall {wall:.6f} s  self times {total:.6f} s  "
              f"untraced remainder {selfs[root]:.6f} s  spans {len(idx)}")

    for b in bad:
        print("FAIL", b, file=sys.stderr)
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
