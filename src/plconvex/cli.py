"""Command line tool: verify surfaces and generate instances.

Exit codes for `verify`: 0 convex, 1 not convex, 2 invalid input or
parse failure.
"""

from __future__ import annotations

import argparse
import sys
from inspect import Parameter, signature

from .formats import NonManifoldError, ParseError, SemanticError, emit_pls, parse_off, parse_pls
from .instances import _FAMILIES, GenSpec, build_instance, rigid_motion
from .oracle import FlatSurfaceError, oracle_verdict
from .poset import Face
from .verifier import CONVEX, INVALID, NOT_CONVEX, verify

_FACE_LETTER = {0: "v", 1: "e", 2: "f"}


def face_label(face: Face) -> str:
    letter = _FACE_LETTER.get(face.dim)
    return f"{letter}{face.index}" if letter else f"d{face.dim}.{face.index}"


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    head = text.lstrip()[:4]
    if path.endswith(".off") or head.startswith("OFF"):
        return parse_off(text)
    return parse_pls(text)


def _cmd_verify(args) -> int:
    try:
        surface = _load(args.file)
    except OSError as exc:
        print(f"INVALID PARSE_ERROR: {exc}")
        return 2
    except (ParseError, SemanticError, NonManifoldError) as exc:
        print(f"INVALID {exc.code}: {exc}")
        return 2
    verdict = verify(surface, collect_all=args.all)
    if verdict.kind == CONVEX:
        print("YES")
        code = 0
    elif verdict.kind == NOT_CONVEX:
        line = "NO"
        if args.witness:
            line += f" witness={face_label(verdict.witness)} reason={verdict.reason}"
        print(line)
        if args.all:
            for face, reason in verdict.failures:
                print(f"  failing {face_label(face)} {reason}")
        code = 1
    else:
        suffix = f" at {face_label(verdict.witness)}" if verdict.witness else ""
        print(f"INVALID {verdict.reason}{suffix}")
        code = 2
    if args.oracle:
        if verdict.kind == INVALID or surface.mode != "vertices":
            print("oracle=skipped")
        else:
            try:
                o = oracle_verdict(surface)
            except FlatSurfaceError:
                print("oracle=FLAT_SURFACE agreement=no")
            else:
                agree = o.convex == verdict.convex
                print(
                    f"oracle={'convex' if o.convex else 'not-convex'}"
                    f" agreement={'yes' if agree else 'no'}"
                )
    return code


# per family, the generator flags it takes (by argparse dest), each with
# whether it is required: its generator's parameters, required when they
# have no default, and for the rigid_motion transform its input file and
# seed; every other generator flag is an error
_GEN_FLAGS = {
    family: {p.name: p.default is Parameter.empty for p in signature(gen).parameters.values()}
    for family, gen in _FAMILIES.items()
} | {"rigid_motion": {"input": True, "seed": False}}
_FLAG_NAMES = {"n": "--n", "m": "--m", "dents": "--dents", "seed": "--seed", "input": "-i/--input"}


def _gen_flag_error(args) -> str | None:
    """Why the generator flags do not fit the family, or None."""
    takes = _GEN_FLAGS[args.family]
    for dest, flag in _FLAG_NAMES.items():
        if getattr(args, dest) is not None and dest not in takes:
            takers = [fam for fam, flags in _GEN_FLAGS.items() if dest in flags]
            verb = "does" if len(takers) == 1 else "do"
            return f"gen {args.family} takes no {flag} (only {', '.join(takers)} {verb})"
    for dest, required in takes.items():
        if required and getattr(args, dest) is None:
            return f"gen {args.family} needs {_FLAG_NAMES[dest]}"
    return None


def _cmd_gen(args) -> int:
    error = _gen_flag_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.family == "rigid_motion":
        try:
            surface = rigid_motion(_load(args.input), args.seed or 0)
        except (ParseError, SemanticError, NonManifoldError, OSError, ValueError) as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 2
    else:
        params = {k: getattr(args, k) for k in _GEN_FLAGS[args.family] if getattr(args, k) is not None}
        try:
            surface = build_instance(GenSpec(args.family, params))
        except ValueError as exc:
            print(f"bad generator parameters: {exc}", file=sys.stderr)
            return 2
    text = emit_pls(surface)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plconvex",
        description="Decide whether a PL-realized closed surface bounds a convex polyhedron.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a .pls or .off file")
    p_verify.add_argument("file")
    p_verify.add_argument("--oracle", action="store_true", help="cross-run the brute-force oracle")
    p_verify.add_argument("--witness", action="store_true", help="print the failing face")
    p_verify.add_argument("--all", action="store_true", help="list every failing face")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a test surface")
    p_gen.add_argument("family", choices=list(_GEN_FLAGS))
    p_gen.add_argument("--n", type=int, help="ambient dimension (hypercube/cross_polytope/simplex)")
    p_gen.add_argument("--m", type=int, help="base polygon size (prism)")
    p_gen.add_argument("--dents", type=int, help="number of dented facets (dented)")
    p_gen.add_argument("--seed", type=int, help="motion seed (rigid_motion only; default 0)")
    p_gen.add_argument("-i", "--input", help="input surface (rigid_motion)")
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
