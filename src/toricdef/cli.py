"""Command-line interface: document parsing, command dispatch, and
machine-readable reports.

Input documents are plain text.  The primary grammar is key-value:

    rank: 4
    rays:
      1 0 0 1
      -1 0 0 1
    cones:
      0 1
    divisor: 0 0
    interior_ray: 0 0 0 1
    apex: 0 0 0 0 1

``rays`` (and ``cones``, when present) take one row per line; ``divisor``
takes one rational per ray (``a/b`` or integers).  ``rank`` defaults to the
width of the rays.  A document with no ``:`` is the plain form, the keyed
form with an implied ``rays:`` header: one ray per line, integers
whitespace-separated, which holds any cone.  Text after ``#`` is a comment.
Reports are JSON on stdout (``--table`` renders aligned text instead); the
exit code is zero exactly on success, and each error class has its own
nonzero code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import exact_linalg as xl
from .criteria import euler_criterion, shelling_ray_criterion, simplicial_star_criterion
from .errors import ParseError, SizeGuard, ToricError, ValidationError
from .ishida import (
    _checked_level,
    cohomology,
    cone_cohomology_table,
    fan_cohomology_table,
    graded_piece,
    is_simplicial,
    lcdef_cone,
    lcdef_faces,
    lcdef_variety,
    restricted_complex,
)
from .lefschetz import (
    connecting_map,
    hodge_table,
    lcdef4_via_exceptional,
    les_theorem,
    lifted_complex,
    support_data,
)
from .polyhedral import cone_from_rays, face_lattice, fan_from_cones, pyramid, star_quotient

MAX_RANK = 8
MAX_RAYS = 64


@dataclass(frozen=True)
class InputDocument:
    """One parsed input: a cone or fan plus optional divisor/ray/apex data."""

    rank: int
    rays: tuple
    cones: tuple | None = None
    divisor: tuple | None = None
    interior_ray: tuple | None = None
    apex: tuple | None = None


def _int_token(tok: str) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise ParseError(f"expected an integer, got {tok!r}") from None


def _fraction_token(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational number, got {tok!r}") from None


# each key: the parser of its tokens, and whether it takes one row per line
# (else one flat row), in the order of the canonical form
_KEYS = {
    "rank": (_int_token, False),
    "rays": (_int_token, True),
    "cones": (_int_token, True),
    "divisor": (_fraction_token, False),
    "interior_ray": (_int_token, False),
    "apex": (_int_token, False),
}


def _values(key: str, lines: list[str]) -> tuple:
    token, per_line = _KEYS[key]
    if per_line:
        return tuple(tuple(map(token, line.split())) for line in lines)
    return tuple(token(t) for line in lines for t in line.split())


def parse_document(text: str) -> InputDocument:
    """Parse a document into a validated InputDocument.

    A document with no ``:`` is the plain form: its lines are rays, under an
    implied ``rays:`` header.  The rays are read and their widths checked
    first, then ``rank``, then the other keys in the order of ``_KEYS``,
    whatever their order in the document.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            lines.append(line)
    if not lines:
        raise ParseError("empty document")
    if not any(":" in line for line in lines):
        lines.insert(0, "rays:")

    blocks: dict[str, list[str]] = {}
    current: str | None = None
    for line in lines:
        head, colon, rest = line.partition(":")
        key = head.strip()
        if colon and key in _KEYS:
            if key in blocks:
                raise ParseError(f"duplicate key {key!r}")
            blocks[key] = []
            current = key
            if rest.strip():
                blocks[key].append(rest.strip())
        elif colon and not line[0].isspace():
            raise ParseError(f"unknown key {key!r}")
        else:
            if current is None:
                raise ParseError(f"value line before any key: {line.strip()!r}")
            blocks[current].append(line.strip())

    if not blocks.get("rays"):
        raise ParseError("document has no rays")
    rays = _values("rays", blocks.pop("rays"))
    widths = {len(r) for r in rays}
    if len(widths) != 1:
        raise ValidationError("rays must all have the same length")
    if "rank" in blocks and len(" ".join(blocks["rank"]).split()) != 1:
        raise ParseError("rank takes a single integer")
    fields = {key: _values(key, blocks[key]) for key in _KEYS if key in blocks}
    (rank,) = fields.pop("rank", widths)
    return _validated(InputDocument(rank, rays, **fields))


def _validated(doc: InputDocument) -> InputDocument:
    if doc.rank < 1:
        raise ValidationError("rank must be positive")
    for r in doc.rays:
        if len(r) != doc.rank:
            raise ValidationError("every ray must have exactly `rank` coordinates")
    if doc.cones is not None:
        for c in doc.cones:
            for i in c:
                if not 0 <= i < len(doc.rays):
                    raise ValidationError(f"cone ray index {i} out of range")
            if len(set(c)) != len(c):
                raise ValidationError("repeated ray index inside a cone")
    if doc.divisor is not None and len(doc.divisor) != len(doc.rays):
        raise ValidationError("divisor needs exactly one coefficient per ray")
    if doc.interior_ray is not None and len(doc.interior_ray) != doc.rank:
        raise ValidationError("interior_ray must have exactly `rank` coordinates")
    return doc


def serialize_document(doc: InputDocument) -> str:
    """Canonical text form; parse(serialize(doc)) reproduces doc."""
    out = []
    for key, (_, per_line) in _KEYS.items():
        value = (doc.rank,) if key == "rank" else getattr(doc, key)
        if value is None:
            continue
        if per_line:
            out.append(f"{key}:")
            out.extend("  " + " ".join(map(str, row)) for row in value)
        else:
            out.append(f"{key}: " + " ".join(map(str, value)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if hasattr(x, "tolist"):
        return _jsonable(x.tolist())
    return str(x)


def _need_cone(doc: InputDocument):
    return cone_from_rays(doc.rays, doc.rank)


def _need_fan(doc: InputDocument):
    if doc.cones is None:
        raise ValidationError("this command needs a fan: add a `cones:` block")
    return fan_from_cones(doc.rays, doc.cones, doc.rank)


def _need(doc_field, name: str):
    if doc_field is None:
        raise ValidationError(f"this command needs `{name}:` in the document")
    return doc_field


# ---------------------------------------------------------------------------
# commands


def _cmd_lcdef(doc: InputDocument, args) -> dict:
    cone = _need_cone(doc)
    faces = lcdef_faces(cone)
    return {
        "face_counts": list(face_lattice(cone).face_counts()),
        "lcdef_cone": faces[-1][1],
        "lcdef_variety": max(v for _, v in faces),
        "per_face": [{"rays": sorted(f.ray_indices), "dim": f.dim, "lcdef": v} for f, v in faces],
        "simplicial": is_simplicial(cone),
    }


def _cmd_ishida(doc: InputDocument, args) -> dict:
    if doc.cones is not None:
        table = fan_cohomology_table(_need_fan(doc))
    else:
        table = cone_cohomology_table(_need_cone(doc))
    rows = [
        {"l": l, "dims": list(dims), "cohomology": list(coh)}
        for (l, dims, coh) in table.rows
        if args.l is None or l == args.l
    ]
    if args.l is not None and not rows:
        raise ValidationError(f"level {args.l} is out of range for this input")
    return {"kind": table.label, "levels": rows}


def _cmd_hodge(doc: InputDocument, args) -> dict:
    fan = _need_fan(doc)
    table = hodge_table(fan)
    return {
        "rank": table.rank,
        "hodge": [list(row) for row in table.table],
        "betti": [table.betti(k) for k in range(2 * table.rank + 1)],
    }


def _cmd_lefschetz(doc: InputDocument, args) -> dict:
    fan = _need_fan(doc)
    alpha = _need(doc.divisor, "divisor")
    if args.p is None or args.l is None:
        raise ValidationError("this command needs --p and --l")
    depth = fan.depth(_checked_level(args.p, fan.rank - 1) + 1)  # of the sequence's top complex
    if not 0 <= args.l < depth:
        raise ValidationError(f"degree {args.l} outside 0..{depth - 1}")
    divisor = support_data(fan, alpha)
    L = lifted_complex(fan, divisor, args.p)
    delta = L.connecting(args.l)
    return {
        "p": args.p,
        "l": args.l,
        "cartier_denominator": divisor.cartier_denominator,
        "source_dim": L.bottom.h(args.l),
        "target_dim": L.top.h(args.l + 1),
        "rank": xl.matrix_rank(delta),
        "matrix": delta,
    }


def _cmd_subdivide(doc: InputDocument, args) -> dict:
    cone = _need_cone(doc)
    rho = _need(doc.interior_ray, "interior_ray")
    fan, divisor = star_quotient(cone, rho)
    les = les_theorem(cone, rho)
    report = {
        "fan_rays": [list(r) for r in fan.rays],
        "fan_maximal": [list(c) for c in fan.maximal],
        "alpha": [_jsonable(a) for a in divisor.alpha],
        "cartier_denominator": divisor.cartier_denominator,
        "les": [
            {
                "l": row.level,
                "cone": list(row.h_cone),
                "middle": list(row.h_middle),
                "top": list(row.h_top),
                "bottom": list(row.h_bottom),
                "exact": row.exact,
            }
            for row in les.rows
        ],
        "les_all_exact": les.all_exact,
        "lcdef_one_via_quotient": (
            lcdef4_via_exceptional(cone, rho) if cone.dim == 4 else None
        ),
    }
    return report


def _cmd_pyramid(doc: InputDocument, args) -> dict:
    cone = _need_cone(doc)
    apex = _need(doc.apex, "apex")
    if len(apex) != doc.rank + 1:
        raise ValidationError("apex must have exactly rank+1 coordinates")
    top = pyramid(cone, apex)
    before = lcdef_variety(cone)
    after = lcdef_variety(top)
    return {
        "pyramid_rays": [list(r) for r in top.rays],
        "lcdef_base": before,
        "lcdef_pyramid": after,
        "invariant": before == after,
    }


def _cmd_criteria(doc: InputDocument, args) -> dict:
    cone = _need_cone(doc)
    verdicts = [
        euler_criterion(cone),
        shelling_ray_criterion(cone, search_budget=args.budget),
        simplicial_star_criterion(cone),
    ]
    return {
        "verdicts": [
            {"criterion": v.criterion, "verdict": v.verdict, "witness": _jsonable(v.witness)}
            for v in verdicts
        ]
    }


def _cmd_verify(doc: InputDocument, args) -> dict:
    checks: list[dict] = []

    def record(name: str, ok: bool, detail=""):
        checks.append({"check": name, "ok": bool(ok), "detail": _jsonable(detail)})

    round_trip = parse_document(serialize_document(doc)) == doc
    record("document round-trip", round_trip)

    if doc.cones is None:
        cone = _need_cone(doc)
        lat = face_lattice(cone)
        record("diamond property", lat.check_diamond())
        counts = lat.face_counts()
        if cone.dim == 4:
            v, e, f = counts[1], counts[2], counts[3]
            record("face count Euler relation", v - e + f == 2, (v, e, f))
        cohs = {l: coh for l, _, coh in cone_cohomology_table(cone).rows}
        record("differentials square to zero (all levels)", True)
        mid = all(
            cohs[p][p] == 0 for p in range(cone.dim + 1) if 2 * p >= cone.dim and p < len(cohs[p])
        )
        record("level-p degree-p vanishing above the middle", mid)
        # the defect read off the whole table, so that the bound is computed
        # and not implied by the scan of lcdef_cone, which skips the cells
        # of value above dim - 3
        d = cone.dim
        val = max([0] + [i + l - d for l, coh in cohs.items() for i, h in enumerate(coh) if h])
        record("defect within bounds", 0 <= val <= max(0, d - 3), val)
        record(
            "defect shortcut agrees with direct computation",
            val == lcdef_cone(cone) == lcdef_cone(cone, shortcut_simplicial=False),
        )
        if cone.dim == 4:
            euler_criterion(cone)  # raises INVARIANT_VIOLATION if the identity fails
            record("Euler characteristic identity", True)
        sample = lat.faces_by_dim.get(cone.dim - 1, ())[:2]
        graded_ok = True
        for tau in sample:
            for l in (1, 2):
                if l > cone.dim:
                    continue
                a = cohomology(graded_piece(cone, l, tau))
                b = cohomology(restricted_complex(cone, l, tau))
                graded_ok = graded_ok and a == b
        record("graded pieces match restricted complexes", graded_ok)
    else:
        fan = _need_fan(doc)
        fan_cohomology_table(fan)
        record("differentials square to zero (all levels)", True)
        complete = fan.is_complete()
        record("fan completeness decided", True, "complete" if complete else "not complete")
        if complete:
            table = hodge_table(fan)
            record(
                "corner Hodge numbers equal one",
                table.h(0, 0) == 1 and table.h(fan.rank, fan.rank) == 1,
            )
        if doc.divisor is not None:
            divisor = support_data(fan, doc.divisor)
            for p in range(fan.rank):
                lifted_complex(fan, divisor, p)  # verifies the SES at build time
            record("divisor sequences exact at every level", True)
            p = l = fan.rank - 1
            one = connecting_map(fan, divisor, p, l)
            two = connecting_map(fan, divisor.scaled(2), p, l)
            doubled = xl.Matrix([{j: 2 * x for j, x in row.items()} for row in one.rows], one.ncols)
            record("connecting map scales linearly with the divisor", two == doubled)

    ok = all(c["ok"] for c in checks)
    return {"checks": checks, "all_ok": ok}


_COMMANDS = {
    "lcdef": _cmd_lcdef,
    "ishida": _cmd_ishida,
    "hodge": _cmd_hodge,
    "lefschetz": _cmd_lefschetz,
    "subdivide": _cmd_subdivide,
    "pyramid": _cmd_pyramid,
    "criteria": _cmd_criteria,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# table rendering


def _render_table(command: str, report: dict) -> str:
    lines: list[str] = []

    def grid(rows):
        widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
        for r in rows:
            lines.append("  ".join(str(c).rjust(w) for c, w in zip(r, widths)))

    if command == "ishida":
        lines.append(f"kind: {report['kind']}")
        grid(
            [("l", "term dims", "cohomology")]
            + [(row["l"], " ".join(map(str, row["dims"])), " ".join(map(str, row["cohomology"])))
               for row in report["levels"]]
        )
    elif command == "hodge":
        n = report["rank"]
        grid(
            [("p\\q", *range(n + 1))]
            + [(p, *report["hodge"][p]) for p in range(n + 1)]
        )
        lines.append("betti: " + " ".join(map(str, report["betti"])))
    elif command == "lcdef":
        lines.append(f"lcdef_variety: {report['lcdef_variety']}")
        lines.append(f"lcdef_cone:    {report['lcdef_cone']}")
        grid([("dim", "rays", "lcdef")] + [
            (f["dim"], ",".join(map(str, f["rays"])) or "-", f["lcdef"]) for f in report["per_face"]
        ])
    elif command == "criteria":
        grid([("criterion", "verdict", "witness")] + [
            (v["criterion"], v["verdict"], json.dumps(v["witness"])) for v in report["verdicts"]
        ])
    elif command == "verify":
        grid([("check", "ok", "detail")] + [
            (c["check"], "yes" if c["ok"] else "NO", json.dumps(c["detail"])) for c in report["checks"]
        ])
    else:
        for k in sorted(report):
            lines.append(f"{k}: {json.dumps(_jsonable(report[k]), sort_keys=True)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toricdef",
        description="Exact computations on the cochain complexes of rational cones and fans.",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("input", help="input document path, or - for stdin")
    ap.add_argument("--l", type=int, default=None, help="complex level / degree selector")
    ap.add_argument("--p", type=int, default=None, help="level of the divisor sequence")
    ap.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
    ap.add_argument("--table", action="store_true", help="render aligned tables, not JSON")
    ap.add_argument("--force", action="store_true", help="disable the input size guard")
    ap.add_argument("--budget", type=int, default=2048, help="shelling search budget")
    ap.add_argument("--timing", action="store_true", help="include wall-clock timing")
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read input: {exc}") from None
    doc = parse_document(text)
    if (doc.rank > MAX_RANK or len(doc.rays) > MAX_RAYS) and not args.force:
        raise SizeGuard(
            f"input size (rank {doc.rank}, {len(doc.rays)} rays) exceeds the default "
            f"guard (rank {MAX_RANK}, {MAX_RAYS} rays); pass --force to proceed"
        )
    report = _COMMANDS[args.command](doc, args)
    envelope = {
        "command": args.command,
        "seed": args.seed,
        "input": {"rank": doc.rank, "rays": len(doc.rays), "cones": None if doc.cones is None else len(doc.cones)},
        "report": _jsonable(report),
    }
    if args.timing:
        envelope["timing_seconds"] = round(time.monotonic() - started, 3)
    if args.table:
        sys.stdout.write(_render_table(args.command, report))
    else:
        sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    if args.command == "verify" and not report["all_ok"]:
        return 1
    return 0


def main() -> None:
    try:
        code = run()
    except ToricError as exc:
        sys.stderr.write(f"{exc}\n")
        sys.exit(exc.exit_code)
    except BrokenPipeError:
        sys.exit(0)
    sys.exit(code)


if __name__ == "__main__":
    main()
