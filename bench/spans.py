"""Outside-in tracing of ``toricdef``: spans and counters recorded by
wrapping the package's public functions from the benchmark, so nothing
under ``src/`` changes.

A wrapped function replaces every binding of the original in every loaded
``toricdef`` module, including names copied by ``from .x import y``; methods
are replaced on their class.  Each call records one span (name, start, end,
parent span, op id) in typed arrays and bumps the function's counters.
Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from dataclasses import dataclass


def _shape_entries(m) -> int:
    return int(m.shape[0]) * int(m.shape[1])


def _solve_entries(args, kwargs, result) -> int:
    a, b = args[0], args[1]
    return int(a.shape[0]) * (int(a.shape[1]) + int(b.shape[1]))


@dataclass(frozen=True)
class Layer:
    """One traced function: where it lives, what it reports, and which
    end-to-end metric on which workload it should move."""

    module: str
    qualname: str
    stats: tuple
    moves: str

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


_RANK = ("calls", "self_s", "entries")
_CS = ("calls", "self_s")

LAYERS = (
    Layer("exact_linalg", "matrix_rank", _RANK, "ops_per_s on divisors; barely pyramids"),
    Layer("exact_linalg", "rank_and_kernel", _RANK, "ops_per_s on divisors; barely pyramids"),
    Layer("exact_linalg", "rref", _RANK, "ops_per_s on divisors; barely pyramids"),
    Layer("exact_linalg", "solve_matrix", _RANK, "ops_per_s on divisors; barely pyramids"),
    Layer("exact_linalg", "contraction_matrix", _RANK, "op_p50_s and ops_per_s on pyramids; not divisors"),
    Layer("exact_linalg", "expansion_matrix", _RANK, "op_p50_s and ops_per_s on pyramids; not divisors"),
    Layer("exact_linalg", "nonnegative_combination", ("calls", "self_s", "feasible_ratio"), "ops_per_s on cyclic and pyramids"),
    Layer("exact_linalg", "saturation_rows", _CS, "ops_per_s on cyclic"),
    Layer("exact_linalg", "integer_kernel_rows", _CS, "ops_per_s on cyclic"),
    Layer("exact_linalg", "hermite_rows", _CS, "ops_per_s on cyclic"),
    Layer("exact_linalg", "smith_normal_form", _CS, "ops_per_s on cyclic"),
    Layer("polyhedral", "cone_from_rays", _CS, "ops_per_s on pyramids (construction) and cyclic"),
    Layer("polyhedral", "FaceLattice", ("builds", "self_s", "faces"), "ops_per_s on pyramids and cyclic"),
    Layer("polyhedral", "normal_generator", _CS, "ops_per_s on pyramids and cyclic"),
    Layer("polyhedral", "fan_from_cones", _CS, "ops_per_s on cyclic (fan validation)"),
    Layer("polyhedral", "Fan.is_complete", _CS, "ops_per_s on cyclic (fan validation)"),
    Layer("polyhedral", "star_quotient", _CS, "ops_per_s on cyclic"),
    Layer("polyhedral", "pyramid", _CS, "ops_per_s on pyramids"),
    Layer("ishida", "assemble_complex", ("calls", "self_s", "blocks", "diff_entries"), "ops_per_s on pyramids"),
    Layer("ishida", "cohomology", _CS, "ops_per_s on pyramids"),
    Layer("ishida", "ishida_cone", _CS, "ops_per_s on pyramids"),
    Layer("ishida", "ishida_fan", _CS, "ops_per_s on pyramids"),
    Layer("ishida", "lcdef_cone", ("calls", "distinct_ratio"), "ops_per_s on pyramids; distinct_ratio on cli_fixtures"),
    Layer("lefschetz", "lifted_complex", ("calls", "self_s", "reuse_ratio"), "ops_per_s on divisors"),
    Layer("lefschetz", "LiftedComplexes.connecting", _CS, "ops_per_s on divisors"),
    Layer("lefschetz", "support_data", _CS, "ops_per_s on divisors"),
    Layer("lefschetz", "les_theorem", _CS, "ops_per_s on divisors"),
    Layer("lefschetz", "hodge_table", _CS, "ops_per_s on divisors"),
    Layer("criteria", "euler_criterion", _CS, "ops_per_s on cli_fixtures"),
    Layer("criteria", "shelling_ray_criterion", _CS, "ops_per_s on cli_fixtures"),
    Layer("criteria", "simplicial_star_criterion", _CS, "ops_per_s on cli_fixtures"),
    Layer("cli", "parse_document", _CS, "ops_per_s on cli_fixtures"),
    Layer("cli", "run", _CS, "ops_per_s on cli_fixtures"),
)

OVERHEAD_METRIC = "trace.overhead_ratio"

# per-layer counters beyond the call count, fed from (args, kwargs, result)
_ENTRIES = {
    "exact_linalg.matrix_rank": lambda a, k, r: _shape_entries(a[0]),
    "exact_linalg.rank_and_kernel": lambda a, k, r: _shape_entries(a[0]),
    "exact_linalg.rref": lambda a, k, r: _shape_entries(a[0]),
    "exact_linalg.solve_matrix": _solve_entries,
    "exact_linalg.contraction_matrix": lambda a, k, r: _shape_entries(r),
    "exact_linalg.expansion_matrix": lambda a, k, r: _shape_entries(r),
}

UNITS = {
    "calls": "count",
    "builds": "count",
    "self_s": "s",
    "entries": "count",
    "faces": "count",
    "blocks": "count",
    "diff_entries": "count",
    "feasible_ratio": "ratio",
    "distinct_ratio": "ratio",
    "reuse_ratio": "ratio",
}
BETTER = {"feasible_ratio": "higher", "distinct_ratio": "higher", "reuse_ratio": "higher"}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        (f"{layer.name}.{stat}", UNITS[stat], BETTER.get(stat, "lower"))
        for layer in LAYERS
        for stat in layer.stats
    ]
    out.append((OVERHEAD_METRIC, "ratio", "lower"))
    return out


def resolve(layer: Layer):
    """(module, owner, attribute, function) of a layer, or None if the
    package no longer has it.  A class stands for its ``__init__``."""
    mod = importlib.import_module(f"toricdef.{layer.module}")
    owner, attr = mod, layer.qualname
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(mod, cls_name, None)
    target = getattr(owner, attr, None) if owner is not None else None
    if target is None:
        return None
    if isinstance(target, type):
        owner, attr, target = target, "__init__", target.__init__
    return mod, owner, attr, target


class _Counters:
    __slots__ = ("calls", "entries", "hits", "faces", "blocks", "diff_entries", "keys", "seen")

    def __init__(self):
        self.calls = 0
        self.entries = 0
        self.hits = 0  # feasible LPs, or reused lifted complexes
        self.faces = 0
        self.blocks = 0
        self.diff_entries = 0
        self.keys = set()  # distinct (op, cone) pairs
        self.seen = {}  # op -> {id: object} of returned objects


class Tracer:
    """Installs wrappers around :data:`LAYERS` and records spans."""

    def __init__(self):
        self.names: list[str] = ["op"] + [layer.name for layer in LAYERS]
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters = {layer.name: _Counters() for layer in LAYERS}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "toricdef" or n.startswith("toricdef.")]
        self.missing.clear()
        for idx, layer in enumerate(LAYERS, start=1):
            found = resolve(layer)
            if found is None:
                self.missing.append(layer.name)
                continue
            mod, owner, attr, target = found
            wrapper = self._wrap(idx, layer, target)
            if owner is mod:
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is target:
                            self._restore.append((m, key, val))
                            setattr(m, key, wrapper)
            else:
                self._restore.append((owner, attr, target))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    def _wrap(self, idx: int, layer: Layer, fn):
        c = self.counters[layer.name]
        name_ids, starts, ends, parents, ops, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.ops, self.stack,
        )
        clock = time.perf_counter
        entries = _ENTRIES.get(layer.name)
        extra = layer.stats[-1]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(idx)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            c.calls += 1
            if entries is not None:
                c.entries += entries(args, kwargs, result)
            if extra == "feasible_ratio":
                c.hits += result is not None
            elif extra == "faces":
                c.faces += len(args[0].by_key)
            elif extra == "diff_entries":
                c.blocks += sum(len(t) for t in result.terms)
                c.diff_entries += sum(_shape_entries(d) for d in result.diffs)
            elif extra == "distinct_ratio":
                c.keys.add((tracer.op_id, args[0].rank, args[0].rays))
            elif extra == "reuse_ratio":
                seen = c.seen.setdefault(tracer.op_id, {})
                if id(result) in seen:
                    c.hits += 1
                else:
                    seen[id(result)] = result
            return result

        return wrapper

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        i = len(self.starts)
        self.name_ids.append(0)
        self.parents.append(-1)
        self.ops.append(op_id)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())

    def end_op(self) -> None:
        i = self.stack.pop()
        self.ends[i] = time.perf_counter()
        if self.stack:
            raise RuntimeError("span stack not empty at the end of an op")
        for c in self.counters.values():
            c.seen.clear()

    def reset_counters(self) -> None:
        for c in self.counters.values():
            c.__init__()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        out = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def totals(self, op_ids) -> dict[str, dict[str, float]]:
        """Self and inclusive seconds per span name over the given ops.
        Inclusive time counts a span only when no ancestor has its name."""
        wanted = set(op_ids)
        selfs = self.self_times()
        out = {n: {"self_s": 0.0, "incl_s": 0.0} for n in self.names}
        for i, op in enumerate(self.ops):
            if op not in wanted:
                continue
            nid = self.name_ids[i]
            row = out[self.names[nid]]
            row["self_s"] += selfs[i]
            p = self.parents[i]
            while p >= 0 and self.name_ids[p] != nid:
                p = self.parents[p]
            if p < 0:
                row["incl_s"] += self.ends[i] - self.starts[i]
        return out

    def layer_metrics(self, self_s: dict[str, float]) -> dict[str, float]:
        """Per-layer metric values from the current counters and the given
        self seconds per layer."""
        out = {}
        for layer in LAYERS:
            c = self.counters[layer.name]
            calls = c.calls
            values = {
                "calls": calls,
                "builds": calls,
                "self_s": self_s.get(layer.name, 0.0),
                "entries": c.entries,
                "faces": c.faces,
                "blocks": c.blocks,
                "diff_entries": c.diff_entries,
                "feasible_ratio": c.hits / calls if calls else 0.0,
                "distinct_ratio": len(c.keys) / calls if calls else 0.0,
                "reuse_ratio": c.hits / calls if calls else 0.0,
            }
            for stat in layer.stats:
                out[f"{layer.name}.{stat}"] = values[stat]
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\top\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{self.ops[i]}\t{self.names[self.name_ids[i]]}\t{self.parents[i]}\t"
                    f"{self.starts[i]!r}\t{self.ends[i]!r}\n"
                )
