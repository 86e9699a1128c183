import dataclasses
import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

import plconvex as pc
import plconvex.formats as formats
import plconvex.surface as surface_mod
import plconvex.verifier as verifier
from plconvex.cli import run_cli
from plconvex.exactgeom import homogeneous
from plconvex.formats import (
    NonManifoldError,
    ParseError,
    SemanticError,
    emit_pls,
    parse_off,
    parse_pls,
)
from plconvex.poset import validate_poset
from plconvex.surface import as_equations
from plconvex.verifier import preflight

from conftest import geometry_families, replace_records

F = Fraction

CUBE_OFF = """OFF
8 6 12
0 0 0
1 0 0
0 1 0
1 1 0
0 0 1
1 0 1
0 1 1
1 1 1
4 0 1 3 2
4 4 5 7 6
4 0 1 5 4
4 2 3 7 6
4 0 2 6 4
4 1 3 7 5
"""

TETRA_OFF = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""


class TestPls:
    def test_round_trip_vertex_mode(self, cube, tesseract, schonhardt):
        for s in (cube, tesseract, schonhardt, pc.gen_cross_polytope(5)):
            assert parse_pls(emit_pls(s)) == s
        # generators, OFF and PLS derive incidences by the same containment rule
        families = [
            gen(n)
            for gen in (pc.gen_hypercube, pc.gen_cross_polytope, pc.gen_simplex)
            for n in (3, 4, 5)
        ]
        families += [pc.gen_prism(m) for m in (3, 4, 7)] + [schonhardt]
        families += [pc.gen_dented_cube(d) for d in range(1, 7)]
        families += [pc.split_facet_cube(False), pc.split_facet_cube(True)]
        families += [parse_off(CUBE_OFF), parse_off(TETRA_OFF)]
        for s in families:
            assert parse_pls(emit_pls(s)).poset == s.poset

    def test_round_trip_equations_mode(self, cube, schonhardt):
        for s in (cube, schonhardt, pc.gen_hypercube(4)):
            eq = as_equations(s)
            assert parse_pls(emit_pls(eq)) == eq

    def test_verdict_survives_round_trip(self, schonhardt):
        back = parse_pls(emit_pls(schonhardt))
        assert pc.verify(back).kind == "NOT_CONVEX"

    def test_zero_denominator(self, cube):
        doc = json.loads(emit_pls(cube))
        doc["vertices"][0][0] = "1/0"
        with pytest.raises(ParseError):
            parse_pls(json.dumps(doc))

    def test_float_rejected(self, cube):
        doc = json.loads(emit_pls(cube))
        doc["vertices"][0][0] = 0.5
        with pytest.raises(ParseError):
            parse_pls(json.dumps(doc))

    def test_unknown_vertex(self, cube):
        doc = json.loads(emit_pls(cube))
        doc["faces"]["2"][0]["vertices"] = [0, 1, 3, 99]
        with pytest.raises(SemanticError):
            parse_pls(json.dumps(doc))

    def test_missing_rank(self, cube):
        doc = json.loads(emit_pls(cube))
        del doc["faces"]["1"]
        with pytest.raises(ParseError):
            parse_pls(json.dumps(doc))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("mode", ["vertices", "equations"])
    def test_empty_rank(self, tmp_path, capsys, n, mode):
        surface = pc.gen_hypercube(n)
        if mode == "equations":
            surface = as_equations(surface)
        emptied = []
        for d in surface.poset.required_dims(mode):
            doc = json.loads(emit_pls(surface))
            if str(d) not in doc["faces"]:
                continue  # vertex-mode dimension 0 is the vertex list
            doc["faces"][str(d)] = []
            for rec in doc["faces"].get(str(d - 1), []):
                if "up" in rec:
                    rec["up"] = []  # nothing refers to the emptied rank
            text = json.dumps(doc)
            line = f"MISSING_RANK: no faces of dimension {d}"
            with pytest.raises(SemanticError) as err:
                parse_pls(text)
            assert str(err.value) == line
            p = tmp_path / "empty.pls"
            p.write_text(text)
            assert run_cli(["verify", str(p)]) == 2
            assert capsys.readouterr().out == f"INVALID SEMANTIC_ERROR: {line}\n"
            emptied.append(d)
        assert emptied == list(range(n - 3 if mode == "equations" else 1, n))

    @pytest.mark.parametrize("mode", ["vertices", "equations"])
    def test_parse_and_verify_validate_poset_once(self, monkeypatch, cube, mode):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return validate_poset(*args, **kwargs)

        monkeypatch.setattr(formats, "validate_poset", counting, raising=False)
        monkeypatch.setattr(verifier, "validate_poset", counting)
        surface = cube if mode == "vertices" else as_equations(cube)
        assert pc.verify(parse_pls(emit_pls(surface))).kind == "CONVEX"
        assert len(calls) == 1

    def test_duplicate_id(self, cube):
        doc = json.loads(emit_pls(cube))
        doc["faces"]["2"][1]["id"] = 0
        with pytest.raises(ParseError):
            parse_pls(json.dumps(doc))

    def test_empty_vertex_list(self, cube):
        doc = json.loads(emit_pls(cube))
        doc["faces"]["1"][0]["vertices"] = []
        with pytest.raises(ParseError):
            parse_pls(json.dumps(doc))

    @pytest.mark.parametrize("bad", ["0", [0], 0.0, True, None])
    def test_non_integer_face_id(self, cube, bad):
        doc = json.loads(emit_pls(cube))
        doc["faces"]["2"][0]["id"] = bad
        with pytest.raises(ParseError):
            parse_pls(json.dumps(doc))

    @pytest.mark.parametrize("bad", [3.5, 3.0, True, "3", None])
    def test_non_integer_n(self, cube, bad):
        doc = json.loads(emit_pls(cube))
        doc["n"] = bad
        with pytest.raises(ParseError):
            parse_pls(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ParseError) as err:
            parse_pls("n: 3\nmode: vertices\n")
        assert "line" in str(err.value)

    def test_rationals_are_exact(self, cube):
        scaled = pc.scale(cube, F(1, 3))
        back = parse_pls(emit_pls(scaled))
        assert back.vertices[7] == (F(1, 3), F(1, 3), F(1, 3))

    def test_row_matches_fraction(self):
        # _row reads a row of -?digits(/digits)? strings with int() and gcd
        # and hands any other row to _frac, which reads each value with
        # Fraction; either way the row, or the ParseError text built from
        # Fraction's own exception, must be homogeneous's of the values that
        # Fraction reads, and _frac's value an int exactly when it is an
        # integer.
        # Two exceptions are ParseErrors before Fraction sees the string:
        # one with '_', a non-ASCII character or whitespace inside it, which
        # Fraction reads differently from one Python version to the next or
        # from the OFF counts and facet rows ('\u0663' as 3), and one whose
        # exponent exceeds 4,300 in magnitude, before Fraction builds
        # 10**exponent.
        def version_dependent(value):
            if not isinstance(value, str):
                return False
            return "_" in value or not value.isascii() or any(c.isspace() for c in value.strip())

        def exponent_beyond_limit(value):
            # the text after the first e or E is a signed decimal integer above 4,300
            m = isinstance(value, str) and re.fullmatch(r"[^eE]*[eE][-+]?([\d_]*)\s*", value)
            digits = m.group(1).replace("_", "") if m else ""
            return digits != "" and int(digits) > 4300

        def expected(row):
            for value in row:
                try:
                    Fraction(value)
                except (ValueError, ZeroDivisionError, TypeError) as exc:
                    return f"at: bad rational {value!r} ({exc})"
            return homogeneous([Fraction(value) for value in row])

        def got(row):
            try:
                return formats._row(row, "at")
            except ParseError as exc:
                return str(exc)

        long = "7" * 4301
        values = ["1/0", "-0/5", "007/3", "+1/2", " 1/2", "1_0/3", "\u0663/4", "1.5", "1e3", "-", "", "/3"]
        values += ["1/", "1/-2", "--1", "-0/0", "-5/0", "12", "-12", "4/6", "-4/6", "0", "1/2 ", "1//2", "1/2/3"]
        values += ["1/ 2", "1 /2", "1/+2", "1/2_", "_1", "1,2", "1/2,3", "-1,-2"]  # int() takes these parts, Fraction not
        values += [long, "-" + long, long + "/3", "3/" + long, "-3/" + long, long + "/0", "0/" + long]
        values += [0, -7, 10**40, -(10**40)]  # JSON integers
        values += ["1e4300", "-1E-4300", "1e4301", "1e-4301", "1E+4_301", "1e\u0664\u0663\u0660\u0661", "e5000 "]
        values += ["1e999999999", "-1E+99999_9999", "2.5e-10000000"]  # Fraction would hang on these
        rng = random.Random(31)
        alphabet = "0123456789-/+ _.e\u0663"
        for _ in range(3000):
            values.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7))))
            values.append(f"{rng.choice(['', '-'])}{rng.randint(0, 10**12)}/{rng.randint(0, 10**12)}")
            values.append(rng.randint(-(10**30), 10**30))
        outcomes = Counter()
        refused = set()
        for value in values:
            if version_dependent(value) or exponent_beyond_limit(value):
                assert got([value]).startswith(f"at: bad rational {value!r} ("), value
                refused.add(value)
                continue
            want = expected([value])
            assert got([value]) == want, value
            kind = str if isinstance(want, str) else int if want[1] == 1 else Fraction
            if kind is not str:
                # the readers' number rule: an int exactly when the value is an integer
                assert type(formats._frac(value, "at")) is kind, value
            outcomes[kind] += 1
        assert min(outcomes.values()) >= 1000, outcomes
        # among them the seeded 6e5619\u0663 and 5e5561
        assert {"1e4301", "1e-4301", "1e999999999", "6e5619\u0663", "5e5561"} <= refused, refused
        assert {"1_0/3", "1/ 2", "1 /2", "1/2_", "_1", "1E+4_301", "\u0663/4"} <= refused, refused
        # rows of three: numbers over their least common denominator, or the first value's error
        accepted = [value for value in values if value not in refused]
        for _ in range(3000):
            row = rng.sample(accepted, 3)
            assert got(row) == expected(row), row

    def test_equations_mode_requires_witness(self, cube):
        doc = json.loads(emit_pls(as_equations(cube)))
        del doc["faces"]["0"][0]["witness"]
        with pytest.raises(ParseError):
            parse_pls(json.dumps(doc))


NOTCH_CUBE_OFF = """OFF
9 7 0
0 0 0
1 0 0
0 1 0
1 1 0
0 0 1
1 0 1
0 1 1
1 1 1
1/2 1/4 1
5 4 8 5 7 6
3 4 5 8
4 0 1 3 2
4 0 1 5 4
4 2 3 7 6
4 0 2 6 4
4 1 3 7 5
"""


def test_notch_cube_is_not_closed_in_every_reader(tmp_path, capsys):
    # the flat top is split into a non-convex pentagon and the triangle
    # filling its notch; the pentagon holds both ends of the triangle's
    # edge 4-5, so by containment that edge lies in three facets
    s = parse_off(NOTCH_CUBE_OFF)
    coords = list(s.vertices)
    polygons = [
        [4, 8, 5, 7, 6],
        [4, 5, 8],
        [0, 1, 3, 2],
        [0, 1, 5, 4],
        [2, 3, 7, 6],
        [0, 2, 6, 4],
        [1, 3, 7, 5],
    ]
    built = pc.surface_from_polygons(coords, polygons)
    assert built == s
    for surface in (s, built, parse_pls(emit_pls(built))):
        v = pc.verify(surface)
        assert (v.kind, v.witness, v.reason) == ("INVALID", pc.Face(1, 8), "NOT_CLOSED")
        assert surface.poset.vertex_lists[v.witness] == (4, 5)
    p = tmp_path / "notch.off"
    p.write_text(NOTCH_CUBE_OFF)
    assert run_cli(["verify", str(p)]) == 2
    assert capsys.readouterr().out == "INVALID NOT_CLOSED at e8\n"


class TestOff:
    def test_cube(self):
        s = parse_off(CUBE_OFF)
        assert s.poset.faces_per_dim == {0: 8, 1: 12, 2: 6}
        assert pc.verify(s).kind == "CONVEX"

    def test_tetrahedron(self):
        s = parse_off(TETRA_OFF)
        assert pc.verify(s).kind == "CONVEX"

    def test_decimals_exact(self):
        text = CUBE_OFF.replace("1 1 1", "0.1 1 1")
        s = parse_off(text)
        assert any(v[0] == F(1, 10) for v in s.vertices)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_off("8 6 12\n0 0 0\n")

    def test_repeated_facet_non_manifold(self):
        text = CUBE_OFF + "\n"
        text = text.replace("4 1 3 7 5", "4 1 3 7 5\n4 1 3 7 5").replace("8 6 12", "8 7 12")
        with pytest.raises(NonManifoldError):
            parse_off(text)

    @pytest.mark.parametrize("coord", ["1e5000", "1e-5000", "1e999999999"])
    def test_exponent_beyond_limit_refused(self, coord):
        with pytest.raises(ParseError, match="bad coordinate"):
            parse_off(CUBE_OFF.replace("1 1 1", f"{coord} 1 1"))

    def test_zero_counts_read_and_verify_as_missing_rank(self):
        # no vertices or no facets is a count, not a bad one
        for text in ("OFF\n0 0 0\n", "OFF\n1 0 0\n0 0 0\n"):
            assert pc.verify(parse_off(text)).reason == "MISSING_RANK"

    def test_facet_row_may_end_in_a_color(self):
        # the tokens after a facet's k indices are not indices
        assert parse_off(CUBE_OFF.replace("4 0 1 3 2", "4 0 1 3 2 255 0 0")) == parse_off(CUBE_OFF)

    def test_comments_ignored(self):
        text = "# a cube\n" + CUBE_OFF.replace("OFF", "OFF\n# counts follow")
        s = parse_off(text)
        assert s.poset.faces_per_dim[2] == 6

    def test_comments_may_hold_any_text(self):
        # a comment runs to '\n', '\r\n' or '\r' only; U+2028 and U+0085 inside
        # it end nothing, and the rows around it keep their line numbers
        text = CUBE_OFF.replace("8 6 12", "8 6 12 # côté\u2028 1 1 1\x85 \u3000").replace("\n", "\r\n", 3)
        assert parse_off(text) == parse_off(CUBE_OFF)
        with pytest.raises(ParseError, match="^line 11: bad facet row"):
            parse_off(text.replace("4 0 1 3 2", "4 0 1 3 x"))


def _pls(**fields):
    return json.dumps(fields)


_V = ["0", "0", "0"]
_NOT_RATIONAL = "rationals must be 'p/q' strings or integers"
_EQ_FACES = {"0": [{"id": 0, "witness": _V, "up": [0]}], "1": [{"id": 0, "witness": _V, "up": [0]}]}

# one minimal document per parse error: (parser, text, exception type, exact text)
PARSE_ERRORS = [
    (parse_pls, _pls(n=3, mode="vertices", vertices=[5], faces={}), ParseError, "vertices[0]: expected a coordinate list"),
    (parse_pls, _pls(n=3, mode="vertices", vertices=[_V], faces={"1": {}}), ParseError, "faces[1]: face records must be a list"),
    (parse_pls, _pls(n=3, mode="vertices", vertices=[_V], faces={"1": [{}]}), ParseError, "faces[1]: face record without id"),
    (parse_pls, _pls(n=3, mode="vertices", vertices=[_V], faces={"1": [{"id": 1}]}), ParseError, "faces[1]: face ids must be dense 0..0"),
    (parse_pls, "[]", ParseError, "top level must be an object"),
    (parse_pls, "{}", ParseError, "fields 'n' and 'mode' are required"),
    (parse_pls, _pls(n=2, mode="vertices"), ParseError, "n must be >= 3, got 2"),
    (parse_pls, _pls(n=3, mode="x"), ParseError, "unknown mode 'x'"),
    (parse_pls, _pls(n=3, mode="vertices"), ParseError, "field 'faces' must be an object keyed by dimension"),
    (parse_pls, _pls(n=3, mode="vertices", faces={}), ParseError, "vertex mode needs a nonempty 'vertices' list"),
    (parse_pls, _pls(n=3, mode="vertices", vertices=[["0", "0"]], faces={}), ParseError, "every vertex needs exactly n coordinates"),
    (
        parse_pls,
        _pls(n=3, mode="equations", faces={**_EQ_FACES, "0": [{"id": 0, "witness": _V, "up": "x"}], "2": [{"id": 0, "witness": _V}]}),
        ParseError,
        "faces[0][0]: 'up' must be a list of ints",
    ),
    (
        parse_pls,
        _pls(n=3, mode="equations", faces={**_EQ_FACES, "0": [{"id": 0, "witness": _V, "up": [5]}], "2": [{"id": 0, "witness": _V}]}),
        SemanticError,
        "faces[0][0]: up reference out of range",
    ),
    (
        parse_pls,
        _pls(n=3, mode="equations", faces={**_EQ_FACES, "2": [{"id": 0, "witness": _V}]}),
        ParseError,
        "faces[2][0]: facet needs 'normal' and 'offset'",
    ),
    # a JSON list, object or null is no rational, as a coordinate or as an offset
    *[
        (parse_pls, _pls(n=3, mode="vertices", vertices=[["0", "0", bad]], faces={}), ParseError, f"vertices[0]: {_NOT_RATIONAL}")
        for bad in ([1], {}, None)
    ],
    *[
        (
            parse_pls,
            _pls(n=3, mode="equations", faces={**_EQ_FACES, "2": [{"id": 0, "witness": _V, "normal": _V, "offset": bad}]}),
            ParseError,
            f"faces[2][0].offset: {_NOT_RATIONAL}",
        )
        for bad in ([1], {}, None)
    ],
    (parse_off, "OFF\n", ParseError, "missing counts line"),
    (parse_off, "OFF\n1 2\n", ParseError, "line 2: counts line needs three numbers"),
    (parse_off, "OFF\na b c\n", ParseError, "line 2: bad counts 'a b c'"),
    (parse_off, "OFF\n1 1 0\n", ParseError, "expected 1 vertex and 1 facet lines"),
    (parse_off, "OFF\n1 1 0\n0 0\n3 0 0 0\n", ParseError, "line 3: expected 3 coordinates"),
    (parse_off, "OFF\n1 1 0\n0 0 0\nx\n", ParseError, "line 4: bad facet row 'x'"),
    (parse_off, "OFF\n1 1 0\n0 0 0\n2 0 0\n", ParseError, "line 4: facet row '2 0 0' is inconsistent"),
    (parse_off, "OFF\n1 1 0\n0 0 0\n3 0 0 5\n", SemanticError, "line 4: facet lists unknown vertex"),
    (parse_off, "OFF\n-1 0 0\n", ParseError, "line 2: bad counts '-1 0 0'"),
    # int() takes '_' and non-ASCII digits, Fraction reads '\u0661' as 1: an OFF
    # integer may not hold a '_', and an OFF line outside a comment is ASCII
    (parse_off, CUBE_OFF.replace("8 6 12", "8 6 1_2"), ParseError, "line 2: bad counts '8 6 1_2'"),
    (parse_off, CUBE_OFF.replace("8 6 12", "8 6 1\u0662"), ParseError, "line 2: non-ASCII character in '8 6 1\u0662'"),
    (parse_off, CUBE_OFF.replace("4 1 3 7 5", "4 1 3 7 0_5"), ParseError, "line 16: bad facet row '4 1 3 7 0_5'"),
    (parse_off, CUBE_OFF.replace("4 0 1 3 2", "4 0 1 \u0663 2"), ParseError, "line 11: non-ASCII character in '4 0 1 \u0663 2'"),
    (parse_off, CUBE_OFF.replace("4 0 1 3 2", "\u0664 0 1 3 2"), ParseError, "line 11: non-ASCII character in '\u0664 0 1 3 2'"),
    (parse_off, CUBE_OFF.replace("1 1 1\n", "1 1 \u0661\n"), ParseError, "line 10: non-ASCII character in '1 1 \u0661'"),
    (
        parse_pls,
        _pls(n=3, mode="vertices", vertices=[["0", "0", "\u0661"]], faces={}),
        ParseError,
        "vertices[0]: bad rational '\u0661' ('_', non-ASCII text or inner whitespace)",
    ),
    # str.split() and str.splitlines() take non-ASCII spaces and line
    # separators; an OFF row is split at ASCII whitespace and '\n' only
    (parse_off, CUBE_OFF.replace("1 1 1\n", "1\u00a01 1\n"), ParseError, "line 10: non-ASCII character in '1\\xa01 1'"),
    (parse_off, CUBE_OFF.replace("8 6 12", "8\u00a06 12"), ParseError, "line 2: non-ASCII character in '8\\xa06 12'"),
    (parse_off, CUBE_OFF.replace("4 0 1 3 2", "4\u30000 1 3 2"), ParseError, "line 11: non-ASCII character in '4\\u30000 1 3 2'"),
    (parse_off, CUBE_OFF.replace("1 1 1\n", "1 1\u20281\n"), ParseError, "line 10: non-ASCII character in '1 1\\u20281'"),
    # a dimension without records, a repeated id (which must not read as
    # two records), and an equations-mode record without its witness
    (parse_pls, _pls(n=3, mode="vertices", vertices=[_V], faces={}), ParseError, "faces[1]: missing face records for dimension 1"),
    (
        parse_pls,
        _pls(n=3, mode="vertices", vertices=[_V], faces={"1": [{"id": 0}, {"id": 1}, {"id": 1}]}),
        ParseError,
        "faces[1]: duplicate face id 1",
    ),
    (
        parse_pls,
        _pls(n=3, mode="equations", faces={**_EQ_FACES, "0": [{"id": 0, "up": [0]}], "2": [{"id": 0, "witness": _V}]}),
        ParseError,
        "faces[0][0]: equations mode requires a witness",
    ),
    # records and vertex lists of the wrong type, and vertex ids just
    # outside 0..V-1 after a record that uses both ends of the range
    (parse_pls, _pls(n=3, mode="vertices", vertices=[_V], faces={"1": [5]}), ParseError, "faces[1]: face record without id"),
    (parse_pls, _pls(n=3, mode="vertices", vertices=[], faces={}), ParseError, "vertex mode needs a nonempty 'vertices' list"),
    *[
        (
            parse_pls,
            _pls(n=3, mode="vertices", vertices=[_V], faces={"1": [{"id": 0, "vertices": bad}]}),
            ParseError,
            "faces[1][0]: 'vertices' must be a nonempty list of ints",
        )
        for bad in (5, [0, 0.5])
    ],
    *[
        (
            parse_pls,
            _pls(n=3, mode="vertices", vertices=[_V, _V], faces={"1": [{"id": 0, "vertices": [0, 1]}, {"id": 1, "vertices": bad}]}),
            SemanticError,
            "faces[1][1]: vertex index out of range",
        )
        for bad in ([-1, 0], [1, 2])
    ],
    (
        parse_pls,
        _pls(n=3, mode="equations", faces={**_EQ_FACES, "0": [{"id": 0, "witness": _V, "up": [1]}], "2": [{"id": 0, "witness": _V}]}),
        SemanticError,
        "faces[0][0]: up reference out of range",
    ),
    (parse_off, "OFF\n0 -1 0\n", ParseError, "line 2: bad counts '0 -1 0'"),
    *[(parse_off, f"OFF\n1 1 0\n0 0 0\n3 0 0 {v}\n", SemanticError, "line 4: facet lists unknown vertex") for v in (1, -1)],
    (
        parse_pls,
        _pls(n=3, mode="equations", faces={**_EQ_FACES, "0": [{"id": 0, "witness": _V, "up": [-1]}], "2": [{"id": 0, "witness": _V}]}),
        SemanticError,
        "faces[0][0]: up reference out of range",
    ),
]


@pytest.mark.parametrize("parser, text, error, message", PARSE_ERRORS)
def test_parse_error_texts(parser, text, error, message):
    with pytest.raises(error) as info:
        parser(text)
    assert type(info.value) is error and str(info.value) == message


def _numbers(surface):
    """Every number a surface holds: coordinates, witnesses, normals and offsets."""
    for v in (*surface.vertices, *chain.from_iterable(surface.witnesses.values())):
        yield from v
    for eq in surface.equations:
        yield from eq.normal
        yield eq.offset


def _json_integers(doc):
    """A PLS document with every integral number of its records as a JSON integer."""

    def num(text):
        return int(text) if F(text).denominator == 1 else text

    if "vertices" in doc:
        doc["vertices"] = [[num(x) for x in v] for v in doc["vertices"]]
    for rec in (rec for recs in doc["faces"].values() for rec in recs):
        for key in ("witness", "normal"):
            if key in rec:
                rec[key] = [num(x) for x in rec[key]]
        if "offset" in rec:
            rec["offset"] = num(rec["offset"])
    return doc


def test_integer_values_parse_as_int():
    # the readers give an int for every integer value and a Fraction for any
    # other; the parsed surface answers exactly as the Fraction-typed one
    kinds = Counter()

    def check(parsed, built):
        assert all(type(x) is Fraction for x in _numbers(built))
        for x in _numbers(parsed):
            kinds[type(x)] += 1
            assert type(x) is (int if x.denominator == 1 else Fraction), x
        assert parsed == built
        assert preflight(parsed) == preflight(built)
        for collect_all in (False, True):
            assert pc.verify(parsed, collect_all=collect_all) == pc.verify(built, collect_all=collect_all)

    for label, built in geometry_families():
        text = emit_pls(built)
        parsed = parse_pls(text)
        assert emit_pls(parsed) == text, label
        check(parsed, built)
        # the same document with its integers as JSON integers, not strings
        parsed = parse_pls(json.dumps(_json_integers(json.loads(text))))
        assert emit_pls(parsed) == text, label
        check(parsed, built)
    for text in (CUBE_OFF, TETRA_OFF, CUBE_OFF.replace("1 1 1", "0.5 1 3/2").replace("0 0 1", "-2 0 1e0")):
        coords = [tuple(F(t) for t in ln.split()) for ln in text.splitlines()[2:] if len(ln.split()) == 3]
        polygons = [[int(t) for t in ln.split()[1:]] for ln in text.splitlines()[2:] if len(ln.split()) > 3]
        check(parse_off(text), pc.surface_from_polygons(coords, polygons))
    assert min(kinds[int], kinds[Fraction]) >= 1000, kinds


def _strict_family_texts():
    """Each geometry family, labelled, with its emitted text."""
    return [(label, built, emit_pls(built)) for label, built in geometry_families()]


def test_parsed_rows_reach_the_geometry_pass_as_they_are(monkeypatch):
    # parse_pls reads every coordinate, witness and normal row straight to
    # integers over its least common denominator, the HomPoint that
    # homogeneous gives; the geometry pass reads those rows as they are, so
    # verify answers as on the built surface with homogeneous made to raise,
    # in both modes, and builds none of the parsed surface's value tables
    cases = [(label, built, parse_pls(text)) for label, built, text in _strict_family_texts()]
    assert {parsed.mode for _, _, parsed in cases} == {"vertices", "equations"}
    want = [pc.verify(built, collect_all=True) for _, built, _ in cases]

    def refuse(row):
        raise AssertionError(f"homogeneous({row!r}) on a parsed surface")

    monkeypatch.setattr(surface_mod, "homogeneous", refuse)
    for (label, built, parsed), v in zip(cases, want):
        assert pc.verify(parsed, collect_all=True) == v, label
        assert not {"vertices", "equations", "witnesses"} & parsed.__dict__.keys(), label
    monkeypatch.undo()
    for label, built, parsed in cases:
        # the tables, read now, are the built surface's values
        assert (parsed.vertices, parsed.equations, parsed.witnesses) == (built.vertices, built.equations, built.witnesses), label
        assert preflight(parsed) == preflight(built), label


def test_strict_documents_build_no_fraction(monkeypatch):
    # a document whose numbers are all -?digits(/digits)? strings is read
    # and decided without a Fraction: the reader computes each row's
    # numerators and common denominator with int() and gcd alone
    texts = [text for _, _, text in _strict_family_texts()]
    calls = Counter()

    def counting(*args):
        calls["Fraction"] += 1
        return Fraction(*args)

    for module in (formats, surface_mod):
        monkeypatch.setattr(module, "Fraction", counting)
    for text in texts:
        pc.verify(parse_pls(text), collect_all=True)
    assert calls["Fraction"] == 0
    # the spy sees a row that holds a decimal: Fraction reads each of its values
    doc = json.loads(texts[0])
    doc["vertices"][0][0] = "0.5"
    parse_pls(json.dumps(doc))
    assert calls["Fraction"] == len(doc["vertices"][0])


@pytest.mark.parametrize("m", [3, 8, 33])
def test_emitted_layout_is_one_line_per_record(m):
    # a first line with the header, then one line per vertex row and face
    # record, in document order; the text reads back to itself
    prism = pc.gen_prism(m)
    for s in (prism, as_equations(prism)):
        text = emit_pls(s)
        doc = json.loads(text)
        rows = doc.get("vertices", [])
        records = [r for d in sorted(doc["faces"], key=int) for r in doc["faces"][d]]
        lines = text.split("\n")
        assert len(lines) == 1 + len(rows) + len(records)
        assert lines[0] == f'{{"n": 3, "mode": "{s.mode}", ' + ('"vertices": [' if rows else '"faces": {"0": [')
        for line, row in zip(lines[1:], rows):
            assert line.startswith(" " + json.dumps(row)), line
        for line, rec in zip(lines[1 + len(rows) :], records):
            assert line.startswith(" " + json.dumps(rec)), line
        assert emit_pls(parse_pls(text)) == text


# numbers that Fraction reads on some supported Pythons only: '_' from 3.11
# on, whitespace around '/' from 3.12 on; both readers refuse them
VERSION_DEPENDENT_NUMBERS = ["1_000", "1_0/3", "1/3_0", "0.1_5", "1e1_0", "2 / 3", "2/ 3", "2 /3"]


@pytest.mark.parametrize("number", VERSION_DEPENDENT_NUMBERS)
def test_version_dependent_numbers_refused(cube, number):
    doc = json.loads(emit_pls(cube))
    doc["vertices"][0][0] = number
    with pytest.raises(ParseError, match="bad rational"):
        parse_pls(json.dumps(doc))
    # an OFF coordinate is one whitespace-free token
    if " " not in number:
        with pytest.raises(ParseError, match="bad coordinate"):
            parse_off(CUBE_OFF.replace("1 1 1", f"{number} 1 1"))


@pytest.mark.parametrize("index, name", [(4, "top.pls"), (21, "facet.off")])
def test_parse_errors_through_verify_cli(tmp_path, capsys, index, name):
    _, text, error, message = PARSE_ERRORS[index]
    p = tmp_path / name
    p.write_text(text)
    assert run_cli(["verify", str(p)]) == 2
    assert capsys.readouterr().out.strip() == f"INVALID {error.code}: {message}"


def test_repeated_id_in_a_list_reads_as_its_set(cube):
    # the text readers read a list that repeats an id as its set: edge 0
    # listing "vertices": [0, 1, 0], or in equations mode edge 0 listing
    # its first facet twice in "up", is the clean cube.  A hand-built
    # vertex list reads the same way, since the poset derives its
    # incidences from the lists' sets; a hand-built equations-mode upward
    # record that repeats a reference is INVALID_ID instead
    clean = pc.verify(cube, collect_all=True)
    for surface, key in ((cube, "vertices"), (as_equations(cube), "up")):
        doc = json.loads(emit_pls(surface))
        record = doc["faces"]["1"][0]
        record[key] = record[key] + record[key][:1]
        assert len(set(record[key])) < len(record[key])
        parsed = parse_pls(json.dumps(doc))
        assert parsed.poset == surface.poset
        assert pc.verify(parsed, collect_all=True) == clean
    repeated = replace_records(cube.poset, verts={pc.Face(1, 0): (*cube.poset.vertex_ids[1][0], cube.poset.vertex_ids[1][0][0])})
    assert repeated.up_ids == cube.poset.up_ids
    assert pc.verify(pc.PLSurface(repeated, vertices=cube.vertices), collect_all=True) == clean
    eq = as_equations(cube)
    ups = eq.poset.up_ids[1][0]
    twice = pc.PLSurface(replace_records(eq.poset, up={pc.Face(1, 0): ups + ups[:1]}), equations=eq.equations, witnesses=eq.witnesses)
    v = pc.verify(twice)
    assert (v.kind, v.witness, v.reason) == ("INVALID", pc.Face(1, 0), "INVALID_ID")
    assert validate_poset(twice.poset, twice.mode).violations[0].message == "duplicate upward reference"


def _short(table, d):
    """``table`` with the last row of dimension d dropped, the others copied."""
    return {k: list(rows[:-1] if k == d else rows) for k, rows in table.items()}


def _none_at(rows, i):
    return [None if k == i else row for k, row in enumerate(rows)]


# each corruption of a cube's tables, the face it leaves without a record,
# and the code that verify reports there
def _incomplete_cubes():
    cube = pc.gen_hypercube(3)
    eq = as_equations(cube)
    poset, w = eq.poset, eq.witnesses

    def verts(table):
        return pc.PLSurface(pc.FacePoset(3, {0: 8}, vertex_ids=table), vertices=cube.vertices)

    def eqs(up=poset.up_ids, equations=eq.equations, witnesses=w):
        return pc.PLSurface(dataclasses.replace(poset, up_ids=up), equations=equations, witnesses=witnesses)

    vids = cube.poset.vertex_ids
    return [
        ("empty vertex list", verts({**vids, 2: _none_at(vids[2], 4)[:4] + [()] + vids[2][5:]}), pc.Face(2, 4), "MISSING_VERTEX_LIST"),
        ("None vertex list", verts({**vids, 1: _none_at(vids[1], 3)}), pc.Face(1, 3), "MISSING_VERTEX_LIST"),
        ("short upward table", eqs(up=_short(poset.up_ids, 1)), pc.Face(1, 11), "INVALID_ID"),
        ("long upward table", eqs(up={**poset.up_ids, 1: poset.up_ids[1] + [(0, 1)]}), pc.Face(1, 12), "INVALID_ID"),
        ("None equation", eqs(equations=_none_at(eq.equations, 2)), pc.Face(2, 2), "MISSING_EQUATION"),
        ("short equations", eqs(equations=eq.equations[:-1]), pc.Face(2, 5), "MISSING_EQUATION"),
        ("None witness", eqs(witnesses={**w, 0: _none_at(w[0], 6)}), pc.Face(0, 6), "BAD_WITNESS"),
        ("short witness table", eqs(witnesses=_short(w, 1)), pc.Face(1, 11), "BAD_WITNESS"),
        ("no witness table", eqs(witnesses={d: w[d] for d in (0, 1)}), pc.Face(2, 0), "BAD_WITNESS"),
        ("upward table at the facets", eqs(up={**poset.up_ids, 2: [(0,)] * 6}), pc.Face(2, 0), "INVALID_ID"),
        ("ninth coordinate row", pc.PLSurface(cube.poset, vertices=cube.vertices + cube.vertices[:1]), None, "MISSING_COORDS"),
        ("last coordinate row dropped", pc.PLSurface(cube.poset, vertices=cube.vertices[:-1]), None, "MISSING_COORDS"),
        ("coordinate row one short", pc.PLSurface(cube.poset, vertices=(cube.vertices[0][:-1], *cube.vertices[1:])), None, "MISSING_COORDS"),
        ("None upward record", eqs(up={**poset.up_ids, 1: _none_at(poset.up_ids[1], 3)}), pc.Face(1, 3), "INVALID_ID"),
        # two faults each, in tables that a writer reading them in table
        # order would meet the other way round: verify's first comes first
        ("short vertex table, then a bad reference", eqs(up={0: poset.up_ids[0][:-1], 1: [(0, 9), *poset.up_ids[1][1:]]}), pc.Face(1, 0), "INVALID_ID"),
        (
            "short vertex table, then a repeated reference",
            eqs(up={0: poset.up_ids[0][:-1], 1: [*poset.up_ids[1][:2], (poset.up_ids[1][2][0],) * 2, *poset.up_ids[1][3:]]}),
            pc.Face(1, 2),
            "INVALID_ID",
        ),
        ("bad reference, then no witness", eqs(up={0: poset.up_ids[0], 1: [*poset.up_ids[1][:-1], (-1, 0)]}, witnesses={**w, 0: _none_at(w[0], 0)}), pc.Face(1, 11), "INVALID_ID"),
        ("empty facet list after a bad edge list", verts({1: [*vids[1][:5], (0, 8), *vids[1][6:]], 2: [(), *vids[2][1:]]}), pc.Face(1, 5), "INVALID_ID"),
        (
            "bad edge list, then a short coordinate row",
            pc.PLSurface(pc.FacePoset(3, {0: 8}, vertex_ids={**vids, 1: [(0, -1), *vids[1][1:]]}), vertices=(cube.vertices[0][:2], *cube.vertices[1:])),
            pc.Face(1, 0),
            "INVALID_ID",
        ),
    ]


@pytest.mark.parametrize("label, surface, face, code", _incomplete_cubes(), ids=lambda x: x if isinstance(x, str) else "")
def test_writers_refuse_incomplete_tables(label, surface, face, code):
    # emit_pls and relabel raise ValueError with the code, face and message
    # of the first violation that verify reports among the records they
    # read, instead of writing a document without a record (or with a
    # record that verify rejects) or failing inside their record loops; a
    # coordinate count or row length that is wrong names no face
    v = pc.verify(surface)
    assert (v.kind, v.witness, v.reason) == ("INVALID", face, code)
    first = preflight(surface).report.violations[0]
    message = f"{code}: {first.message}" if face is None else f"{code}: {face}: {first.message}"
    for write in (emit_pls, lambda s: pc.relabel(s, 3)):
        with pytest.raises(ValueError) as info:
            write(surface)
        assert type(info.value) is ValueError and str(info.value) == message
