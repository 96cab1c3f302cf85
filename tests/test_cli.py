"""The command-line surface: input documents, subcommands, exit codes."""

import io
import json
import os
import re
import subprocess
import sys

import pytest

from pathlib import Path

from toricdef import NotStronglyConvex, ParseError, SizeGuard, ValidationError, ishida
from toricdef.cli import (
    InputDocument,
    build_parser,
    main,
    parse_document,
    run,
    serialize_document,
)

P2_DOC = """\
# the plane, as a complete fan with an anticanonical divisor
rank: 2
rays:
  1 0
  0 1
  -1 -1
cones:
  0 1
  1 2
  0 2
divisor: 1 1 1
"""

P112_DOC = """\
rank: 2
rays:
  1 0
  0 1
  -1 -2
cones:
  0 1
  1 2
  0 2
divisor: 0 0 1
"""


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def cone_a_path():
    return str(FIXTURES / "paper_cone_A.txt")


# ---------------------------------------------------------------------------
# the document format


def test_parse_plain_rows():
    doc = parse_document("1 0\n0 1\n-1 -1\n")
    assert doc.rank == 2
    assert doc.rays == ((1, 0), (0, 1), (-1, -1))
    assert doc.cones is None and doc.divisor is None


def test_parse_comments_and_blanks():
    doc = parse_document("# a cone\n\n2 0 1\n\n0 0 1  # inline note\n")
    assert doc.rays == ((2, 0, 1), (0, 0, 1))


def test_parse_key_value(tmp_path):
    doc = parse_document(P2_DOC)
    assert doc.rank == 2
    assert doc.cones == ((0, 1), (1, 2), (0, 2))
    assert [str(a) for a in doc.divisor] == ["1", "1", "1"]


def test_round_trip():
    doc = parse_document(P2_DOC)
    text = serialize_document(doc)
    assert parse_document(text) == doc
    # canonical form is a fixed point
    assert serialize_document(parse_document(text)) == text


def test_round_trip_all_fields():
    doc = parse_document(
        "rank: 3\nrays:\n 1 0 1\n 0 1 1\n -1 0 1\n 0 -1 1\n"
        "interior_ray: 0 0 1\napex: 0 0 0 1\ndivisor: 1 1 1 1\n"
    )
    assert doc.interior_ray == (0, 0, 1)
    assert doc.apex == (0, 0, 0, 1)
    assert parse_document(serialize_document(doc)) == doc


def test_parse_fractions_in_divisor():
    doc = parse_document("rank: 2\nrays:\n 1 0\n 0 1\ndivisor: 1/2 -3/4\n")
    assert [str(a) for a in doc.divisor] == ["1/2", "-3/4"]


@pytest.mark.parametrize(
    "text",
    [
        "rank: 2\nrank: 3\nrays:\n 1 0\n",  # duplicate key
        "wibble: 3\n",  # unknown key
        "  1 0\nrays:\n 1 0\n",  # value before any key... plain then key
        "rank: x\n",  # bad integer
        "rays:\n 1 y\n",  # bad coordinate
        "divisor: 1/0\n",  # bad fraction
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_document(text)


def test_validation_errors():
    with pytest.raises(ValidationError):
        parse_document("rank: 2\nrays:\n 1 0 0\n")  # width mismatch
    with pytest.raises(ValidationError):
        parse_document("rank: 2\nrays:\n 1 0\ncones:\n 0 5\n")  # bad index
    with pytest.raises(ValidationError):
        parse_document("rank: 2\nrays:\n 1 0\n 0 1\ndivisor: 1\n")  # short divisor


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("# only a comment\n\n", ParseError, "empty document"),
        ("1 0\n0 1 1\n", ValidationError, "rays must all have the same length"),
        ("rays:\n 1 0\n 0 1 1\n", ValidationError, "rays must all have the same length"),
        ("rank: 2 2\nrays:\n 1 0\n", ParseError, "rank takes a single integer"),
        ("rank: 0\nrays:\n 1 0\n", ValidationError, "rank must be positive"),
        ("rays:\n 1 0\n 0 1\ncones:\n 0 1 0\n", ValidationError, "repeated ray index inside a cone"),
        ("rays:\n 1 0\n 0 1\ninterior_ray: 1\n", ValidationError, "interior_ray must have exactly `rank` coordinates"),
        ("rays:\n 1 0\n 0 1\ndivisor: 1/0 1\n", ParseError, "expected a rational number, got '1/0'"),
        # a colon makes a key line only for a known key, spaces before the colon allowed
        ("foo: 3\nrays:\n 1 0\n", ParseError, "unknown key 'foo'"),
        ("rays:\n 1 0\n 1:2\n", ParseError, "expected an integer, got '1:2'"),
        # the rays are read and their widths checked first
        ("rank: 2 2\nrays:\n 1 x\n", ParseError, "expected an integer, got 'x'"),
        ("rank: 2 2\nrays:\n 1 0\n 0 1 1\n", ValidationError, "rays must all have the same length"),
        # then rank, whose tokens are counted before one is read
        ("rank: y z\nrays:\n 1 0\n", ParseError, "rank takes a single integer"),
        # then cones, divisor, interior_ray and apex in that order, whatever
        # their order in the document
        ("apex: a\ninterior_ray: b\ndivisor: 1/0\ncones:\n c\nrank: r\nrays:\n 1 0\n", ParseError, "expected an integer, got 'r'"),
        ("apex: a\ninterior_ray: b\ndivisor: 1/0\ncones:\n c\nrays:\n 1 0\n", ParseError, "expected an integer, got 'c'"),
        ("apex: a\ninterior_ray: b\ndivisor: 1/0\nrays:\n 1 0\n", ParseError, "expected a rational number, got '1/0'"),
        ("apex: a\ninterior_ray: b\nrays:\n 1 0\n", ParseError, "expected an integer, got 'b'"),
        ("apex: a\nrays:\n 1 0\n", ParseError, "expected an integer, got 'a'"),
    ],
)
def test_document_checks_and_their_order(text, error, message):
    with pytest.raises(error) as err:
        parse_document(text)
    assert str(err.value) == f"{error.ident}: {message}"


@pytest.mark.parametrize(
    "text",
    ["rank : 2\nrays:\n 1 0\n 0 1\n", "rays:\n 1 0\n 0 1\n rank : 2\n", "rays :\n 1 0\n 0 1\n"],
)
def test_a_key_may_have_spaces_before_its_colon(text):
    doc = parse_document(text)
    assert doc == InputDocument(2, ((1, 0), (0, 1)))
    assert serialize_document(doc) == "rank: 2\nrays:\n  1 0\n  0 1\n"


def test_a_keyed_document_without_rank_takes_the_ray_width():
    doc = parse_document("rays:\n 1 0 0\n 0 1 0\ncones:\n 0 1\n")
    assert doc.rank == 3
    assert doc.cones == ((0, 1),)


def test_the_plain_form_is_rays_with_the_header_implied():
    rows = "# a 2-dimensional cone in rank 3\n1 0 0\n0 1 0\n1 1 0\n"
    doc = parse_document(rows)
    assert doc == parse_document("rays:\n" + rows) == InputDocument(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    assert serialize_document(doc) == "rank: 3\nrays:\n  1 0 0\n  0 1 0\n  1 1 0\n"


# ---------------------------------------------------------------------------
# subcommands, through the public entry point


def test_lcdef_command(capsys, cone_a_path):
    code, env = run_json(capsys, ["lcdef", cone_a_path])
    assert code == 0
    assert env["command"] == "lcdef"
    assert env["input"] == {"rank": 4, "rays": 14, "cones": None}
    assert env["report"]["lcdef_cone"] == 1
    assert env["report"]["lcdef_variety"] == 1
    assert env["report"]["face_counts"] == [1, 14, 24, 12, 1]
    assert not env["report"]["simplicial"]


def test_lcdef_command_second_cone(capsys):
    code, env = run_json(capsys, ["lcdef", str(FIXTURES / "paper_cone_B.txt")])
    assert code == 0
    assert env["report"]["lcdef_cone"] == 0
    assert env["report"]["lcdef_variety"] == 0


def test_ishida_command(capsys):
    code, env = run_json(capsys, ["ishida", str(FIXTURES / "paper_cone_13.txt"), "--l", "3"])
    assert code == 0
    (row,) = env["report"]["levels"]
    assert row["l"] == 3
    assert row["dims"] == [4, 39, 48, 13]
    assert row["cohomology"] == [0, 1, 1, 0]


def test_ishida_level_out_of_range(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("1 0\n0 1\n")
    with pytest.raises(ValidationError):
        run(["ishida", str(path), "--l", "9"])


def test_ishida_command_on_a_fan(tmp_path, capsys, p112_fan):
    path = tmp_path / "p112.txt"
    path.write_text(P112_DOC)
    code, env = run_json(capsys, ["ishida", str(path)])
    assert code == 0
    assert env["report"]["kind"] == "fan"
    rows = [(row["l"], tuple(row["dims"]), tuple(row["cohomology"])) for row in env["report"]["levels"]]
    assert rows == list(ishida.fan_cohomology_table(p112_fan).rows)
    code, env = run_json(capsys, ["ishida", str(path), "--l", "1"])
    assert code == 0
    (one,) = env["report"]["levels"]
    assert (one["l"], tuple(one["dims"]), tuple(one["cohomology"])) == rows[1]
    for level in (-1, p112_fan.rank + 1):
        with pytest.raises(ValidationError) as err:
            run(["ishida", str(path), "--l", str(level)])
        assert str(err.value) == f"VALIDATION_ERROR: level {level} is out of range for this input"


def test_hodge_command(tmp_path, capsys):
    path = tmp_path / "p2.txt"
    path.write_text(P2_DOC)
    code, env = run_json(capsys, ["hodge", str(path)])
    assert code == 0
    assert env["report"]["hodge"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert env["report"]["betti"] == [1, 0, 1, 0, 1]


def test_lefschetz_command(tmp_path, capsys):
    path = tmp_path / "p2.txt"
    path.write_text(P2_DOC)
    code, env = run_json(capsys, ["lefschetz", str(path), "--p", "1", "--l", "1"])
    assert code == 0
    rep = env["report"]
    assert rep["cartier_denominator"] == 1
    assert rep["rank"] == 1
    assert rep["matrix"] == [[-3]]

    path2 = tmp_path / "p112.txt"
    path2.write_text(P112_DOC)
    code, env = run_json(capsys, ["lefschetz", str(path2), "--p", "1", "--l", "1"])
    assert env["report"]["cartier_denominator"] == 2
    assert env["report"]["matrix"] == [["-1/2"]]


def test_lefschetz_needs_indices(tmp_path):
    path = tmp_path / "p2.txt"
    path.write_text(P2_DOC)
    with pytest.raises(ValidationError):
        run(["lefschetz", str(path)])


@pytest.mark.parametrize("p, l", [(0, -3), (0, 7), (0, 2), (1, 3), (1, -1), (5, 0), (-1, 0)])
def test_lefschetz_rejects_indices_outside_the_sequence(tmp_path, monkeypatch, p, l):
    """``--p`` must be a level ``0..rank-1`` and ``--l`` a degree of the
    sequence's top complex; both are checked before the divisor is."""
    path = tmp_path / "p112.txt"
    path.write_text(P112_DOC)
    monkeypatch.setattr("toricdef.cli.support_data", lambda *a: pytest.fail("support_data ran"))
    monkeypatch.setattr("sys.argv", ["toricdef", "lefschetz", str(path), "--p", str(p), "--l", str(l)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 3


def test_lefschetz_accepts_every_degree_of_the_top_complex(tmp_path, capsys, p112_fan):
    from toricdef import lifted_complex, support_data

    path = tmp_path / "p112.txt"
    path.write_text(P112_DOC)
    D = support_data(p112_fan, (0, 0, 1))
    for p in range(p112_fan.rank):
        L = lifted_complex(p112_fan, D, p)
        for l in range(len(L.top.terms)):
            code, env = run_json(capsys, ["lefschetz", str(path), "--p", str(p), "--l", str(l)])
            assert code == 0 and env["report"]["target_dim"] == L.top.h(l + 1)
        with pytest.raises(ValidationError):
            run(["lefschetz", str(path), "--p", str(p), "--l", str(len(L.top.terms))])


def test_subdivide_command(tmp_path, capsys, cone_a_path):
    text = open(cone_a_path).read() + "\n"
    doc = parse_document(text)
    path = tmp_path / "a.txt"
    path.write_text(
        serialize_document(
            InputDocument(rank=doc.rank, rays=doc.rays, interior_ray=(0, 0, 0, 1))
        )
    )
    code, env = run_json(capsys, ["subdivide", str(path)])
    assert code == 0
    rep = env["report"]
    assert rep["les_all_exact"] is True
    assert rep["lcdef_one_via_quotient"] is True
    row3 = next(r for r in rep["les"] if r["l"] == 3)
    assert row3["cone"] == [0, 3, 1, 0]
    assert row3["bottom"] == [0, 3, 2, 0]


def test_pyramid_command(tmp_path, capsys, cone_a_path):
    doc = parse_document(open(cone_a_path).read())
    with_apex = InputDocument(rank=doc.rank, rays=doc.rays, apex=(0, 0, 0, 0, 1))
    # the shipped pyramid input is fixture A with that apex
    shipped = FIXTURES / "paper_cone_A_pyramid.txt"
    assert parse_document(shipped.read_text()) == with_apex
    path = tmp_path / "a.txt"
    path.write_text(serialize_document(with_apex))
    for p in (path, shipped):
        code, env = run_json(capsys, ["pyramid", str(p)])
        assert code == 0
        rep = env["report"]
        assert rep["lcdef_base"] == 1
        assert rep["lcdef_pyramid"] == 1
        assert rep["invariant"] is True


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("hodge", "1 0\n0 1\n", "this command needs a fan: add a `cones:` block"),
        ("subdivide", "1 0\n0 1\n", "this command needs `interior_ray:` in the document"),
        ("pyramid", "rays:\n 1 0\n 0 1\napex: 0 1\n", "apex must have exactly rank+1 coordinates"),
    ],
)
def test_commands_name_what_the_document_lacks(tmp_path, command, text, message):
    path = tmp_path / "doc.txt"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        run([command, str(path)])
    assert str(err.value) == f"VALIDATION_ERROR: {message}"


def test_an_unreadable_input_path_is_a_parse_error(tmp_path):
    missing = tmp_path / "missing.txt"
    with pytest.raises(ParseError) as err:
        run(["lcdef", str(missing)])
    assert str(err.value) == f"PARSE_ERROR: cannot read input: [Errno 2] No such file or directory: {str(missing)!r}"


def test_the_plain_form_holds_a_cone_that_is_not_full_dimensional(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("1 0 0\n0 1 0\n1 1 0\n")
    code, env = run_json(capsys, ["lcdef", str(path)])
    assert code == 0
    assert env["input"] == {"rank": 3, "rays": 3, "cones": None}
    assert env["report"]["face_counts"] == [1, 2, 1]
    assert env["report"]["per_face"][-1]["dim"] == 2


def test_criteria_command(tmp_path, capsys):
    path = tmp_path / "glued.txt"
    path.write_text(
        "2 2 0 1\n2 -2 0 1\n-2 2 0 1\n-2 -2 0 1\n0 0 2 1\n3 0 1 1\n"
    )
    code, env = run_json(capsys, ["criteria", str(path)])
    assert code == 0
    verdicts = {v["criterion"]: v for v in env["report"]["verdicts"]}
    assert verdicts["euler"]["verdict"] == "FORCES_LCDEF_1"
    assert verdicts["simplicial_star"]["verdict"] == "FORCES_LCDEF_1"
    assert verdicts["shelling_ray"]["verdict"] == "INCONCLUSIVE"


@pytest.mark.parametrize("budget", [-5, -1])
def test_criteria_rejects_a_negative_budget(monkeypatch, capsys, cone_a_path, budget):
    """A negative ``--budget`` is a VALIDATION_ERROR, as a level outside the
    complex is, not an INCONCLUSIVE shelling verdict."""
    monkeypatch.setattr("sys.argv", ["toricdef", "criteria", cone_a_path, "--budget", str(budget)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 3
    assert "VALIDATION_ERROR" in capsys.readouterr().err
    assert run(["criteria", cone_a_path, "--budget", "0"]) == 0


def test_verify_command_cone(capsys, cone_a_path):
    code, env = run_json(capsys, ["verify", cone_a_path])
    assert code == 0
    assert env["report"]["all_ok"] is True
    assert all(c["ok"] for c in env["report"]["checks"])


def test_verify_checks_the_defect_scan_against_the_table(monkeypatch, capsys, cone_a_path):
    """``verify`` reads the defect off every level's cohomology, so a scan
    that returns a wrong value fails the agreement row, while the bound row
    still carries the table's value."""
    monkeypatch.setattr(ishida, "_defect_scan", lambda cones: 0)
    code, env = run_json(capsys, ["verify", cone_a_path])
    rows = {c["check"]: c for c in env["report"]["checks"]}
    assert rows["defect shortcut agrees with direct computation"]["ok"] is False
    assert rows["defect within bounds"] == {"check": "defect within bounds", "ok": True, "detail": 1}
    assert env["report"]["all_ok"] is False
    assert code == 1


def test_verify_command_fan(tmp_path, capsys):
    path = tmp_path / "p112.txt"
    path.write_text(P112_DOC)
    code, env = run_json(capsys, ["verify", str(path)])
    assert code == 0
    assert env["report"]["all_ok"] is True


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n0 1\n-1 -1\n"))
    with pytest.raises(NotStronglyConvex):
        # these three rays positively span the whole plane
        run(["lcdef", "-"])


def test_determinism(capsys, cone_a_path):
    run(["criteria", cone_a_path, "--seed", "5"])
    first = capsys.readouterr().out
    run(["criteria", cone_a_path, "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second and first.strip()


def test_table_rendering(capsys, cone_a_path):
    code = run(["lcdef", cone_a_path, "--table"])
    out = capsys.readouterr().out
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "lcdef" in out


P112_TABLES = {
    ("hodge",): "p\\q  0  1  2\n  0  1  0  0\n  1  0  1  0\n  2  0  0  1\nbetti: 1 0 1 0 1\n",
    ("lefschetz", "--p", "1", "--l", "1"): (
        'cartier_denominator: 2\nl: 1\nmatrix: [["-1/2"]]\np: 1\nrank: 1\nsource_dim: 1\ntarget_dim: 1\n'
    ),
    ("verify",): (
        "                                          check   ok      detail\n"
        "                            document round-trip  yes          \"\"\n"
        "      differentials square to zero (all levels)  yes          \"\"\n"
        "                       fan completeness decided  yes  \"complete\"\n"
        "                 corner Hodge numbers equal one  yes          \"\"\n"
        "         divisor sequences exact at every level  yes          \"\"\n"
        "connecting map scales linearly with the divisor  yes          \"\"\n"
    ),
}
FIXTURE_TABLES = [
    (command, name)
    for command in ("ishida", "criteria")
    for name in ("paper_cone_A.txt", "paper_cone_B.txt", "paper_cone_13.txt", "paper_cone_A_pyramid.txt")
] + [("pyramid", "paper_cone_A_pyramid.txt")]


def _cell_texts(value) -> set:
    """The ways a table writes a report value: as text, a list as its
    space-separated items (term dims) or as JSON (witnesses, details)."""
    texts = {str(value), json.dumps(value)}
    if isinstance(value, list):
        texts.add(" ".join(map(str, value)))
    return texts


def _assert_report_in_table(command, report, table):
    """Every value of the JSON report is in the table: a report with a list
    of rows renders its other keys as ``key: value`` lines, then a header
    and one line per row, whose cells are the row's values; any other
    report renders one ``key: json`` line per key."""
    lines = table.splitlines()
    grids = [v for v in report.values() if isinstance(v, list) and v and isinstance(v[0], dict)]
    if not grids:
        assert lines == [f"{k}: {json.dumps(report[k], sort_keys=True)}" for k in sorted(report)]
        return
    (rows,) = grids
    rest = [k for k in sorted(report) if report[k] is not rows]
    assert lines[: len(rest)] == [f"{k}: {report[k]}" for k in rest], command
    lines = lines[len(rest):]
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        cells = re.split(" {2,}", line.strip())
        assert len(cells) == len(row)
        assert all(_cell_texts(v) & set(cells) for v in row.values()), (row, line)


@pytest.mark.parametrize("argv", sorted(P112_TABLES), ids=" ".join)
def test_table_rendering_on_a_fan_with_a_divisor(tmp_path, capsys, argv):
    path = tmp_path / "p112.txt"
    path.write_text(P112_DOC)
    assert run([argv[0], str(path), *argv[1:], "--table"]) == 0
    assert capsys.readouterr().out == P112_TABLES[argv]


@pytest.mark.parametrize("command, name", FIXTURE_TABLES)
def test_table_rendering_shows_the_whole_report(capsys, command, name):
    path = str(FIXTURES / name)
    code, env = run_json(capsys, [command, path])
    assert code == 0
    assert run([command, path, "--table"]) == 0
    _assert_report_in_table(command, env["report"], capsys.readouterr().out)


def test_timing_flag(capsys, cone_a_path):
    _, env = run_json(capsys, ["lcdef", cone_a_path, "--timing"])
    assert "timing_seconds" in env


# ---------------------------------------------------------------------------
# guards and exit codes


def test_size_guard(tmp_path, capsys):
    rows = "\n".join("1 " * 8 + str(i) for i in range(2))
    path = tmp_path / "big.txt"
    path.write_text("rank: 9\nrays:\n" + rows + "\n")
    with pytest.raises(SizeGuard):
        run(["lcdef", str(path)])


def test_exit_codes(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("wibble: 3\n")
    monkeypatch.setattr("sys.argv", ["toricdef", "lcdef", str(bad)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2

    line = tmp_path / "line.txt"
    line.write_text("1 0\n-1 0\n")
    monkeypatch.setattr("sys.argv", ["toricdef", "lcdef", str(line)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 4

    short = tmp_path / "short.txt"
    short.write_text("rank: 2\nrays:\n 1 0\n 0 1\ndivisor: 1\n")
    monkeypatch.setattr("sys.argv", ["toricdef", "lcdef", str(short)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 3

    big = tmp_path / "big.txt"
    big.write_text("rank: 9\nrays:\n" + "1 1 1 1 1 1 1 1 1\n")
    monkeypatch.setattr("sys.argv", ["toricdef", "lcdef", str(big)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 19


def test_the_package_and_its_cli_import_no_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, toricdef, toricdef.cli; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate", "-"])
