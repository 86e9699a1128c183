"""File formats: the PLS document (JSON) and a small OFF subset for n = 3.

PLS documents carry exact rationals as strings "p/q" (or JSON integers);
decimal floats are rejected so no rounding can sneak in.  ``parse_pls``
reads each number once: every coordinate, witness and normal row becomes
integer numerators over the row's least common denominator as it is read
(``_row``, the ``HomPoint`` that ``exactgeom.homogeneous`` gives for the
row's values), and every offset a numerator over a positive denominator
in lowest terms.  A row of strings of the strict form -?digits(/digits)?
is read with int() and gcd alone; any other goes through ``Fraction``
value by value.  The surface keeps these rows (``surface.SurfaceRows``)
and the geometry pass reads them as they are.  The values a surface
shows, from either reader, in vertex coordinates, witnesses, normals and
offsets, follow one rule (``_exact``): a value that is an integer is an
``int`` ("-12", "4/2", 7, and 3.0 in OFF), any other a ``Fraction``.  A
parsed surface derives them from its rows when they are first read, and
equals the ``Fraction``-typed one it was emitted from.  Vertex-mode
documents list coordinates plus per-face vertex lists.  Equations-mode
documents list facet hyperplanes plus explicit upward links and a
relative-interior witness point per face.

Vertex mode, schematically::

    {"n": 3, "mode": "vertices",
     "vertices": [["0", "0", "0"], ...],
     "faces": {"1": [{"id": 0, "vertices": [0, 1]}, ...],
               "2": [{"id": 0, "vertices": [0, 1, 2, 3]}, ...]}}

Equations mode replaces vertex lists with records
``{"id", "up": [...], "witness": [...]}`` and facet records
``{"id", "normal": [...], "offset": "p/q", "witness": [...]}``.
``parse_pls`` takes any JSON layout; ``emit_pls`` writes the header on
the first line and then one vertex row or face record per line.

OFF files (n = 3 only) are parsed with exact decimal-to-rational
conversion; edges are derived from consecutive facet-cycle pairs and
must each occur in exactly two facet cycles.  A line ends at '\n',
'\r\n' or '\r' only and is ASCII outside a '#' comment; counts and
facet rows are integers without '_'.
An integer literal longer than ``int()`` takes (4,300 digits), a
decimal exponent above 4,300 in magnitude, and a '_', a non-ASCII
character or whitespace inside a rational or coordinate are parse
errors in both, so every supported Python reads them alike.

Vertex-mode PLS, OFF and the generators share the one incidence rule of
a vertex-mode ``FacePoset``: a face lies in every face one rank up whose
vertex set contains its own.  So a non-convex facet that holds both
ends of another facet's edge also contains that edge, which then lies
in three facets and ``verify`` answers INVALID NOT_CLOSED.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import chain

from .exactgeom import HomPoint, Number, homogeneous
from .instances import surface_from_polygons
from .poset import FacePoset
from .surface import EQUATION_MODE, FacetRow, PLSurface, SurfaceRows, VERTEX_MODE, _require_records


class ParseError(Exception):
    code = "PARSE_ERROR"


class SemanticError(Exception):
    code = "SEMANTIC_ERROR"


class NonManifoldError(Exception):
    code = "NON_MANIFOLD"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _exact(value: Fraction) -> Number:
    """The readers' number rule: an integer value as an ``int``, any other as a ``Fraction``."""
    return value.numerator if value.denominator == 1 else value


def _decimal(text: str) -> Number:
    """``Fraction(text)`` on the syntax that every supported Python reads alike, as ``_exact``.

    ValueError for a '_' anywhere or whitespace other than at the ends
    (``Fraction`` takes '1_000' from Python 3.11 on and '2 / 3' from
    3.12 on), for any non-ASCII character (``Fraction`` reads the digit
    '\u0661' as 1), and for a text whose part after its first e or E is a
    signed decimal integer above 4300, before 10**exp is built: 1e5000
    stands for a digit string longer than ``int()`` takes.
    """
    if "_" in text or not text.isascii() or any(c.isspace() for c in text.strip()):
        raise ValueError("'_', non-ASCII text or inner whitespace")
    _, marker, exp = text.replace("E", "e").partition("e")
    digits = (exp[1:] if exp[:1] in ("+", "-") else exp).rstrip()
    if marker and digits.isdecimal() and int(digits) > 4300:
        raise ValueError("exponent beyond 4300")
    return _exact(Fraction(text))


def _frac(value, where: str) -> Number:
    """One exact number of a PLS document that ``_row`` does not read in one pass, as ``_exact``: a JSON integer or a rational string."""
    try:
        if type(value) is str:
            return _decimal(value)
        if type(value) is int:
            return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {value!r} ({exc})") from None
    # a bool, a float, or a JSON list, object or null
    raise ParseError(f"{where}: rationals must be 'p/q' strings or integers")


def _off_int(token: str) -> int:
    """An OFF count or vertex index: ``int(token)``, refusing the '_' that ``int()`` takes."""
    if "_" in token:
        raise ValueError(f"bad integer {token!r}")
    return int(token)


# a row of numbers in the strict form -?digits(/digits)?, joined by ','
_STRICT_ROW = re.compile(r"-?[0-9]+(?:/[0-9]+)?(?:,-?[0-9]+(?:/[0-9]+)?)*")


def _row(values, where: str) -> HomPoint:
    """A PLS coordinate list as integer numerators over their least common denominator: ``homogeneous`` of its values.

    A row of strings in the strict form -?digits(/digits)? is read with
    int() and gcd alone.  Any other row, and one with a zero denominator
    or a number longer than int() takes, goes through ``_frac`` value by
    value, which reads it with Fraction or raises its ParseError.
    """
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a coordinate list")
    try:
        if _STRICT_ROW.fullmatch(",".join(values)):
            nums, dens = [], []
            for x in values:
                p, slash, q = x.partition("/")
                nums.append(int(p))
                dens.append(int(q) if slash else 1)
            if 0 not in dens:
                w = math.lcm(*dens)
                nums = [p * (w // q) for p, q in zip(nums, dens)]
                # over the lcm of unreduced denominators a row may share a
                # factor with w; most share none, and skip the divisions
                g = math.gcd(w, *nums)
                if g > 1:
                    return tuple([x // g for x in nums]), w // g
                return tuple(nums), w
    except (TypeError, ValueError):  # a value that is no string, or one with a ',' or too long for int()
        pass
    return homogeneous([_frac(x, where) for x in values])


def _records(doc_faces, dim: int, where: str) -> list[dict]:
    recs = doc_faces.get(str(dim))
    if recs is None:
        raise ParseError(f"{where}: missing face records for dimension {dim}")
    if not isinstance(recs, list):
        raise ParseError(f"{where}: face records must be a list")
    # the common case in one pass: records that are objects with ids 0, 1, 2, ... in order
    if set(map(type, recs)) == {dict}:
        ids = [rec.get("id") for rec in recs]
        if set(map(type, ids)) == {int} and ids == list(range(len(ids))):
            return recs
    by_id: dict[int, dict] = {}
    for rec in recs:
        if not isinstance(rec, dict) or "id" not in rec:
            raise ParseError(f"{where}: face record without id")
        if not _is_int(rec["id"]):
            raise ParseError(f"{where}: face id {rec['id']!r} is not an integer")
        if rec["id"] in by_id:
            raise ParseError(f"{where}: duplicate face id {rec['id']}")
        by_id[rec["id"]] = rec
    if sorted(by_id) != list(range(len(by_id))):
        raise ParseError(f"{where}: face ids must be dense 0..{len(by_id) - 1}")
    return [by_id[i] for i in range(len(by_id))]


def parse_pls(text: str) -> PLSurface:
    """Parse a PLS document; exact round-trip partner of emit_pls.

    The parser checks the document's shape: fields, exact rationals,
    dense ids, references in range, and a nonempty record list for
    every required dimension (``MISSING_RANK``).  It builds every upward
    incidence itself, so the poset checks (closedness, connectedness,
    realization) are left to ``verify``.  The face records fill the
    per-dimension tables directly, without a ``Face`` per record: the
    poset's ``up_ids`` or ``vertex_ids`` and the surface's rows
    (``SurfaceRows``): its vertices, or in equations mode its
    ``witnesses[d][i]`` and ``equations[h]``, in id order.  The surface
    is built ``PLSurface.from_rows``, so no value table is made here.

    A list that repeats an id is read as its set, in both modes, as a
    hand-built vertex list is: "vertices" [0, 1, 0] is [0, 1], and "up"
    [0, 2, 0] is [0, 2].  A hand-built upward record that repeats one is
    INVALID_ID instead (``validate_poset``'s "duplicate upward reference").
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal longer than int() takes
        raise ParseError(str(exc)) from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if "n" not in doc or "mode" not in doc:
        raise ParseError("fields 'n' and 'mode' are required")
    n, mode = doc["n"], doc["mode"]
    if not _is_int(n):
        raise ParseError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise ParseError(f"n must be >= 3, got {n}")
    if mode not in (VERTEX_MODE, EQUATION_MODE):
        raise ParseError(f"unknown mode {mode!r}")
    faces_doc = doc.get("faces")
    if not isinstance(faces_doc, dict):
        raise ParseError("field 'faces' must be an object keyed by dimension")

    if mode == VERTEX_MODE:
        verts_doc = doc.get("vertices")
        if not isinstance(verts_doc, list) or not verts_doc:
            raise ParseError("vertex mode needs a nonempty 'vertices' list")
        coords = [_row(v, f"vertices[{i}]") for i, v in enumerate(verts_doc)]
        if any(len(c) != n for c, _ in coords):
            raise ParseError("every vertex needs exactly n coordinates")
        nv = len(coords)
        lists: dict[int, list[tuple[int, ...]]] = {}
        for d in sorted({n - 3, n - 2, n - 1} - {0}):
            recs = _records(faces_doc, d, f"faces[{d}]")
            # one bulk test of every list, then one pass that sorts them; a
            # document that fails the test is read record by record for the error
            vss = [rec.get("vertices") for rec in recs]
            if set(map(type, vss)) == {list} and all(vss):
                ids = list(chain.from_iterable(vss))
                if set(map(type, ids)) == {int} and min(ids) >= 0 and max(ids) < nv:
                    lists[d] = list(map(tuple, map(sorted, map(set, vss))))
                    continue
            lists[d] = []
            for i, rec in enumerate(recs):
                vs = rec.get("vertices")
                # json.loads gives no int subclass but bool, so this is _is_int per entry
                if not isinstance(vs, list) or not vs or not all(type(v) is int for v in vs):
                    raise ParseError(f"faces[{d}][{i}]: 'vertices' must be a nonempty list of ints")
                if min(vs) < 0 or max(vs) >= nv:
                    raise SemanticError(f"faces[{d}][{i}]: vertex index out of range")
                lists[d].append(tuple(sorted(set(vs))))
        poset = FacePoset(n, {0: nv}, vertex_ids=lists)
        counts = poset.faces_per_dim
        surface = PLSurface.from_rows(poset, SurfaceRows(tuple(coords), [], {}))
    else:
        dims = sorted({n - 3, n - 2, n - 1})
        recs_by_dim = {d: _records(faces_doc, d, f"faces[{d}]") for d in dims}
        counts = {d: len(recs) for d, recs in recs_by_dim.items()}
        up: dict[int, list[tuple[int, ...]]] = {}
        witnesses: dict[int, list[HomPoint]] = {}
        equations: list[FacetRow] = []
        for d in dims:
            if d < n - 1:
                rows = up[d] = []
            points = witnesses[d] = []
            for i, rec in enumerate(recs_by_dim[d]):
                w = rec.get("witness")
                if w is None:
                    raise ParseError(f"faces[{d}][{i}]: equations mode requires a witness")
                points.append(_row(w, f"faces[{d}][{i}].witness"))
                if d < n - 1:
                    ups = rec.get("up")
                    if not isinstance(ups, list) or not all(_is_int(u) for u in ups):
                        raise ParseError(f"faces[{d}][{i}]: 'up' must be a list of ints")
                    if any(u < 0 or u >= counts[d + 1] for u in ups):
                        raise SemanticError(f"faces[{d}][{i}]: up reference out of range")
                    rows.append(tuple(sorted(set(ups))))
                else:
                    if "normal" not in rec or "offset" not in rec:
                        raise ParseError(f"faces[{d}][{i}]: facet needs 'normal' and 'offset'")
                    normal = _row(rec["normal"], f"faces[{d}][{i}].normal")
                    # a row of one number is that number in lowest terms
                    (num,), den = _row([rec["offset"]], f"faces[{d}][{i}].offset")
                    equations.append(FacetRow(*normal, num, den))
        poset = FacePoset(n=n, faces_per_dim=counts, up_ids=up)
        surface = PLSurface.from_rows(poset, SurfaceRows((), equations, witnesses))

    empty = [d for d, c in sorted(counts.items()) if not c]
    if empty:
        raise SemanticError(f"MISSING_RANK: no faces of dimension {empty[0]}")
    return surface


def _text(value) -> str:
    """A value's PLS text, from its numerator and denominator: "p" or "p/q", so True is "1".

    ``_require_records`` refuses any other value that ``verify`` reads;
    only a facet whose normal ``verify`` rejects for its length or its
    zeros can still carry one, and it is written as ``str`` gives it.
    """
    try:
        num, den = value.numerator, value.denominator
    except AttributeError:
        return str(value)
    return str(num) if den == 1 else f"{num}/{den}"


def emit_pls(surface: PLSurface) -> str:
    """Serialize to the canonical PLS document (parse_pls round-trips it).

    The first line holds ``n``, ``mode`` and the opening of the first
    list; every vertex row and face record follows on a line of its own.
    A surface whose records ``verify`` rejects (a lacking, extra or
    repeated record, an id out of range, a coordinate row of another
    length than n, a value that is no exact number) is a ValueError with
    the code, face and message of the first violation ``verify`` reports
    there (``surface._require_records``).  Each number is written from
    its numerator and denominator (``_text``), so a bool is 0 or 1.
    """
    _require_records(surface)
    n = surface.n
    poset = surface.poset
    doc: dict = {"n": n, "mode": surface.mode}
    faces: dict[str, list] = {}
    if surface.mode == VERTEX_MODE:
        doc["vertices"] = [list(map(_text, v)) for v in surface.vertices]
        for d in sorted({n - 3, n - 2, n - 1} - {0}):
            faces[str(d)] = [{"id": i, "vertices": list(vs)} for i, vs in enumerate(poset.vertex_ids[d])]
    else:
        for d in sorted({n - 3, n - 2, n - 1}):
            recs = []
            points = surface.witnesses[d]
            for i in range(poset.count(d)):
                rec: dict = {"id": i, "witness": list(map(_text, points[i]))}
                if d < n - 1:
                    rec["up"] = list(poset.up_ids[d][i])
                else:
                    eq = surface.equations[i]
                    rec["normal"] = list(map(_text, eq.normal))
                    rec["offset"] = _text(eq.offset)
                recs.append(rec)
            faces[str(d)] = recs
    doc["faces"] = faces
    # json's C encoder runs only without an indent; every string in the
    # document is a number, a key or the mode, so these four patterns
    # occur only between (or before the first of) vertex rows and face
    # records, and each row and record gets a line of its own
    text = json.dumps(doc)
    return text.replace("}, {", "},\n {").replace("], [", "],\n [").replace("[[", "[\n [").replace(": [{", ": [\n {")


def parse_off(text: str) -> PLSurface:
    """Parse the OFF subset: header, counts, vertex rows, facet cycles (n = 3)."""
    lines = []
    for ln, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        stripped = raw.partition("#")[0].strip()
        if not stripped.isascii():
            raise ParseError(f"line {ln}: non-ASCII character in {stripped!r}")
        if stripped:
            lines.append((ln, stripped))
    if not lines or lines[0][1] != "OFF":
        raise ParseError("line 1: missing OFF header")
    if len(lines) < 2:
        raise ParseError("missing counts line")
    ln, counts_line = lines[1]
    parts = counts_line.split()
    if len(parts) != 3:
        raise ParseError(f"line {ln}: counts line needs three numbers")
    try:
        nv, nf, _ne = map(_off_int, parts)
    except ValueError:
        nv = nf = -1
    if nv < 0 or nf < 0:
        raise ParseError(f"line {ln}: bad counts {counts_line!r}")
    body = lines[2:]
    if len(body) < nv + nf:
        raise ParseError(f"expected {nv} vertex and {nf} facet lines")
    coords = []
    for ln, row in body[:nv]:
        toks = row.split()
        if len(toks) != 3:
            raise ParseError(f"line {ln}: expected 3 coordinates")
        try:
            coords.append(tuple(_decimal(t) for t in toks))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {ln}: bad coordinate in {row!r}") from None
    polygons = []
    for ln, row in body[nv : nv + nf]:
        toks = row.split()
        try:
            k = _off_int(toks[0])
            cyc = [_off_int(t) for t in toks[1 : 1 + k]]
        except (ValueError, IndexError):
            raise ParseError(f"line {ln}: bad facet row {row!r}") from None
        if len(cyc) != k or k < 3:
            raise ParseError(f"line {ln}: facet row {row!r} is inconsistent")
        if any(v < 0 or v >= nv for v in cyc):
            raise SemanticError(f"line {ln}: facet lists unknown vertex")
        polygons.append(cyc)

    edge_uses: dict[tuple[int, int], int] = {}
    for cyc in polygons:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edge_uses[(min(a, b), max(a, b))] = edge_uses.get((min(a, b), max(a, b)), 0) + 1
    bad = {e: c for e, c in edge_uses.items() if c != 2}
    if bad:
        e, c = next(iter(sorted(bad.items())))
        raise NonManifoldError(f"edge {e} occurs in {c} facets")
    return surface_from_polygons(coords, polygons)
