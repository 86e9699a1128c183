import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plconvex as pc
from plconvex.cli import run_cli
from plconvex.formats import emit_pls, parse_pls


@pytest.fixture
def cube_file(tmp_path, cube):
    p = tmp_path / "cube.pls"
    p.write_text(emit_pls(cube))
    return str(p)


@pytest.fixture
def schonhardt_file(tmp_path, schonhardt):
    p = tmp_path / "sch.pls"
    p.write_text(emit_pls(schonhardt))
    return str(p)


def test_verify_yes(cube_file, capsys):
    assert run_cli(["verify", cube_file]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_verify_no_with_witness(schonhardt_file, capsys):
    code = run_cli(["verify", schonhardt_file, "--witness"])
    out = capsys.readouterr().out.strip()
    assert code == 1
    assert out.startswith("NO witness=v0 reason=")


def test_verify_all_lists_failures(schonhardt_file, capsys):
    run_cli(["verify", schonhardt_file, "--witness", "--all"])
    out = capsys.readouterr().out
    assert out.count("failing v") == 6


def test_verify_oracle_agreement(schonhardt_file, cube_file, capsys):
    run_cli(["verify", cube_file, "--oracle"])
    assert "oracle=convex agreement=yes" in capsys.readouterr().out
    run_cli(["verify", schonhardt_file, "--oracle"])
    assert "oracle=not-convex agreement=yes" in capsys.readouterr().out


def test_verify_invalid_exit_2(tmp_path, cube, capsys):
    # cut away one facet: no longer closed
    doc = json.loads(emit_pls(cube))
    doc["faces"]["2"] = doc["faces"]["2"][:5]
    p = tmp_path / "open.pls"
    p.write_text(json.dumps(doc))
    assert run_cli(["verify", str(p)]) == 2
    assert "INVALID NOT_CLOSED" in capsys.readouterr().out


def test_verify_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "junk.pls"
    p.write_text("{not json")
    assert run_cli(["verify", str(p)]) == 2
    assert "INVALID PARSE_ERROR" in capsys.readouterr().out


# json.loads raises a plain ValueError, not a JSONDecodeError, on a 4,301-digit integer
@pytest.mark.parametrize(
    "content", [b"\xff\xfe", b"[" * 200_000, b'{"n": ' + b"1" * 4301 + b"}"], ids=["not_utf8", "deep", "long_int"]
)
def test_verify_unreadable_document_exit_2(tmp_path, capsys, content):
    p = tmp_path / "bad.pls"
    p.write_bytes(content)
    assert run_cli(["verify", str(p)]) == 2
    assert capsys.readouterr().out.startswith("INVALID PARSE_ERROR: ")


def test_example_gallery_script(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(pc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, str(repo / "scripts" / "make_example_surfaces.py"), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    verdicts = dict(line.split(": ") for line in run.stdout.splitlines()[:-1])
    assert verdicts == {
        "cube.pls": "CONVEX",
        "tesseract.pls": "CONVEX",
        "octahedron.pls": "CONVEX",
        "simplex4.pls": "CONVEX",
        "prism12.pls": "CONVEX",
        "schonhardt.pls": "NOT_CONVEX",
        "dented_cube.pls": "NOT_CONVEX",
        "split_top_cube.pls": "CONVEX",
        "cube_equations.pls": "CONVEX",
        "tetrahedron.off": "CONVEX",
    }
    assert run.stdout.splitlines()[-1] == f"wrote 10 files to {tmp_path}/"
    for name, kind in verdicts.items():
        assert run_cli(["verify", str(tmp_path / name)]) == (0 if kind == "CONVEX" else 1)


@pytest.mark.parametrize("face_key, bad", [("vertices", []), ("id", "0"), ("id", [0])])
def test_verify_malformed_face_exit_2(tmp_path, cube, capsys, face_key, bad):
    doc = json.loads(emit_pls(cube))
    doc["faces"]["2"][0][face_key] = bad
    p = tmp_path / "bad.pls"
    p.write_text(json.dumps(doc))
    assert run_cli(["verify", str(p)]) == 2
    assert capsys.readouterr().out.startswith("INVALID PARSE_ERROR")


def test_gen_families(tmp_path, capsys):
    for args, check in [
        (["gen", "hypercube", "--n", "4"], lambda s: s.poset.faces_per_dim[3] == 8),
        (["gen", "cross_polytope", "--n", "3"], lambda s: s.poset.faces_per_dim[2] == 8),
        (["gen", "simplex", "--n", "5"], lambda s: s.n == 5),
        (["gen", "prism", "--m", "7"], lambda s: s.poset.faces_per_dim[2] == 9),
        (["gen", "schonhardt"], lambda s: pc.verify(s).kind == "NOT_CONVEX"),
        (["gen", "dented", "--dents", "2"], lambda s: s.poset.faces_per_dim[0] == 10),
    ]:
        out_file = tmp_path / "out.pls"
        assert run_cli(args + ["-o", str(out_file)]) == 0
        s = parse_pls(out_file.read_text())
        assert check(s)


def test_gen_to_stdout(capsys):
    assert run_cli(["gen", "hypercube", "--n", "3"]) == 0
    s = parse_pls(capsys.readouterr().out)
    assert s.poset.faces_per_dim == {0: 8, 1: 12, 2: 6}


def test_gen_rigid_motion(tmp_path, cube, capsys):
    src = tmp_path / "cube.pls"
    src.write_text(emit_pls(cube))
    dst = tmp_path / "moved.pls"
    assert run_cli(["gen", "rigid_motion", "-i", str(src), "--seed", "4", "-o", str(dst)]) == 0
    moved = parse_pls(dst.read_text())
    assert moved.vertices != cube.vertices
    assert pc.verify(moved).kind == "CONVEX"


def test_gen_rigid_motion_equations_mode_exit_2(tmp_path, cube, capsys):
    src = tmp_path / "cube_eq.pls"
    src.write_text(emit_pls(pc.as_equations(cube)))
    assert run_cli(["gen", "rigid_motion", "-i", str(src), "--seed", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "INVALID: rigid_motion needs vertex coordinates\n"


def test_gen_seed_rejected_outside_rigid_motion(capsys):
    assert run_cli(["gen", "hypercube", "--n", "3", "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gen hypercube takes no --seed (only rigid_motion does)\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["hypercube", "--n", "3", "--m", "5"], "gen hypercube takes no --m (only prism does)"),
        (
            ["schonhardt", "--m", "5", "--n", "7", "--dents", "2"],
            "gen schonhardt takes no --n (only hypercube, cross_polytope, simplex do)",
        ),
        (["prism", "--m", "5", "--dents", "1"], "gen prism takes no --dents (only dented does)"),
        (["dented", "-i", "cube.pls"], "gen dented takes no -i/--input (only rigid_motion does)"),
        (
            ["rigid_motion", "-i", "cube.pls", "--n", "3"],
            "gen rigid_motion takes no --n (only hypercube, cross_polytope, simplex do)",
        ),
    ],
)
def test_gen_rejects_flags_the_family_does_not_take(capsys, args, message):
    assert run_cli(["gen", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_gen_missing_params(capsys):
    for family, flag in [("hypercube", "--n"), ("prism", "--m"), ("rigid_motion", "-i/--input")]:
        assert run_cli(["gen", family]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gen {family} needs {flag}\n"


def test_gen_bad_param_value(capsys):
    assert run_cli(["gen", "prism", "--m", "2"]) == 2
    assert capsys.readouterr().err == "bad generator parameters: need m >= 3\n"


def test_verify_equations_mode_skips_oracle(tmp_path, cube, capsys):
    p = tmp_path / "cube_eq.pls"
    p.write_text(emit_pls(pc.as_equations(cube)))
    assert run_cli(["verify", str(p), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["YES", "oracle=skipped"]


def test_verify_oracle_on_flat_surface(tmp_path, capsys):
    # two coplanar triangles glued along their edges: the verifier answers
    # NO, and the oracle refuses a surface that bounds no body
    tri = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    p = tmp_path / "flat.pls"
    p.write_text(emit_pls(pc.surface_from_polygons(tri, [[0, 1, 2], [0, 2, 1]])))
    assert run_cli(["verify", str(p), "--oracle"]) == 1
    assert capsys.readouterr().out.splitlines() == ["NO", "oracle=FLAT_SURFACE agreement=no"]


def test_verify_off_file(tmp_path, capsys):
    path = tmp_path / "tetra.off"
    path.write_text(
        "OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n"
    )
    assert run_cli(["verify", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_module_entry_point(tmp_path):
    # python -m plconvex: __main__, cli.main and the unreadable-path branch of verify
    src = str(Path(pc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def plconvex(*args):
        return subprocess.run([sys.executable, "-m", "plconvex", *args], capture_output=True, text=True, env=env)

    out = tmp_path / "prism.pls"
    assert plconvex("gen", "prism", "--m", "5", "-o", str(out)).returncode == 0
    assert parse_pls(out.read_text()) == pc.gen_prism(5)
    run = plconvex("verify", str(out))
    assert (run.returncode, run.stdout) == (0, "YES\n")
    run = plconvex("verify", str(tmp_path / "missing.pls"))
    assert run.returncode == 2 and run.stdout.startswith("INVALID PARSE_ERROR: ")
