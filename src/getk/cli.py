"""Command-line front end.

Subcommands: purity, classify, boxes (vertices | classify | separable |
orbit) and reproduce.  Records print as deterministic key=value lines, or
as JSON with --json.  Exit codes: 0 success, 2 parse error, 3 dimension
mismatch, 4 infeasible or signalling box input, 1 failed golden checks.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import boxes, catalog, reproduce
from .operators import DimensionMismatch
from .purity import is_generalized_unentangled, numeric_max_reference, rescaled_purity
from .states import StateParseError, load_state, read_json_file


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return "(" + ",".join(_fmt_value(x) for x in v) + ")"
    return str(v)


def _emit(record: dict, json_mode: bool):
    if json_mode:
        print(json.dumps(_jsonable(record)))
    else:
        for key, value in record.items():
            print(f"{key}={_fmt_value(value)}")


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return value


def _seed() -> int:
    raw = os.environ.get("GE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise StateParseError(f"GE_SEED: expected an integer, got {raw!r}") from None


def _load_algebra(name: str):
    try:
        return catalog.named_algebra(name)
    except OSError as exc:
        raise StateParseError(f"algebra: {exc}") from exc
    except ValueError as exc:
        raise StateParseError(f"algebra: {exc}") from exc


def _resolve_reference(omega, rescale: str | None, seed: int):
    """The ``--rescale`` words; an explicit number is checked by rescaled_purity."""
    if rescale is None:
        return None  # analytic when available, numerical otherwise
    if rescale == "analytic":
        ref = omega.traceless_sector().max_purity
        if ref is None:
            raise StateParseError(
                f"--rescale analytic: no analytic reference for algebra {omega.label!r}")
        return ref
    if rescale == "auto":
        return numeric_max_reference(omega.traceless_sector(), seed=seed)
    try:
        return float(rescale)
    except ValueError:
        raise StateParseError(
            f"--rescale: expected auto, analytic, or a number, got {rescale!r}") from None


def _cmd_purity(args) -> int:
    """``purity``, and ``classify``, which adds the verdict drawn from the same report."""
    state = load_state(args.state)
    omega = _load_algebra(args.algebra)
    seed = _seed()
    ref = _resolve_reference(omega, args.rescale, seed)
    report = rescaled_purity(state, omega, max_reference=ref, seed=seed)
    record = {"state": args.state, **report.as_dict()}
    if args.command == "classify":
        verdict = is_generalized_unentangled(state, omega, tol=args.tol, report=report)
        record.update(unentangled=verdict.unentangled,
                      theorem_direction=verdict.theorem_direction)
    _emit(record, args.json)
    return 0


def _parse_size(spec: str):
    parts = spec.split(",")
    if len(parts) == 2:
        parts = parts + parts
    if len(parts) != 4:
        raise StateParseError(f"--size: expected NA,MA,NB,MB, got {spec!r}")
    try:
        na, ma, nb, mb = (int(p) for p in parts)
    except ValueError:
        raise StateParseError(f"--size: entries must be integers, got {spec!r}") from None
    return na, ma, nb, mb


def _load_box(path: str) -> boxes.BipartiteBoxState:
    obj = read_json_file(path)
    try:
        return boxes.BipartiteBoxState.from_json_dict(obj)
    except boxes.InfeasibleError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise StateParseError(f"state: bad box table in {path!r}: {exc}") from exc


def _cmd_boxes_vertices(args) -> int:
    na, ma, nb, mb = _parse_size(args.size)
    try:
        cone = boxes.no_signalling_polytope(na, ma, nb, mb)
        verts = boxes.enumerate_vertices(cone)
    except ValueError as exc:
        raise StateParseError(f"--size: {exc}") from exc
    classified = [(v, boxes.classify_extremal(v, cone)) for v in verts]
    n_prod = sum(1 for _, c in classified if c is boxes.VertexClass.PRODUCT)
    if args.json:
        record = {
            "vertices": [{"p": v.probs, "class": c.value} for v, c in classified],
            "product": n_prod, "entangled": len(verts) - n_prod, "total": len(verts),
        }
        _emit(record, True)
    else:
        for v, c in classified:
            flat = ",".join(str(p) for p in v.probs)
            print(f"vertex={flat} class={c.value}")
        print(f"product={n_prod} entangled={len(verts) - n_prod} total={len(verts)}")
    return 0


def _cmd_boxes_classify(args) -> int:
    state = _load_box(args.state)
    extremal = boxes.is_extremal(state)
    record: dict = {"extremal": extremal}
    if extremal:
        record["class"] = boxes.classify_extremal(state).value
    a, b = boxes.marginals(state)
    record["marginal_alice"] = a.probs
    record["marginal_bob"] = b.probs
    _emit(record, args.json)
    return 0


def _cmd_boxes_separable(args) -> int:
    state = _load_box(args.state)
    _emit({"separable": boxes.in_separable_tensor_product(state)}, args.json)
    return 0


def _cmd_boxes_orbit(args) -> int:
    state = _load_box(args.state)
    boxes.marginals(state)  # reject signalling inputs up front
    orbit = boxes.relabeling_orbit(state)
    if args.json:
        _emit({"orbit": [v.probs for v in orbit], "orbit_size": len(orbit)}, True)
    else:
        for v in orbit:
            print("member=" + ",".join(str(p) for p in v.probs))
        print(f"orbit_size={len(orbit)}")
    return 0


def _cmd_reproduce(args) -> int:
    if args.table != "paper":
        raise StateParseError(f"--table: unknown table {args.table!r}")
    if args.list:
        for name in reproduce.check_names():
            print(name)
        return 0
    results = reproduce.run_table_paper(corrupt=args.corrupt, seed=_seed())
    lines, code = reproduce.format_results(results)
    for line in lines:
        print(line)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="getk",
        description="Observable-relative entanglement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pur = sub.add_parser("purity", help="purity of a state relative to an observable set")
    p_pur.add_argument("--state", required=True, help="builtin name or JSON state file")
    p_pur.add_argument("--algebra", required=True, help="catalog name (e.g. omega1, u2, local:2x2)")
    p_pur.add_argument("--rescale", default=None,
                       help="auto | analytic | explicit reference value")
    p_pur.add_argument("--json", action="store_true")
    p_pur.set_defaults(func=_cmd_purity)

    p_cls = sub.add_parser("classify", help="maximal-purity unentanglement test")
    p_cls.add_argument("--state", required=True)
    p_cls.add_argument("--algebra", required=True)
    p_cls.add_argument("--rescale", default=None)
    p_cls.add_argument("--tol", type=float, default=1e-8)
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=_cmd_purity)

    p_box = sub.add_parser("boxes", help="exact no-signalling box polytope tools")
    box_sub = p_box.add_subparsers(dest="box_command", required=True)

    b_vert = box_sub.add_parser("vertices", help="enumerate and classify all vertices")
    b_vert.add_argument("--size", required=True, help="NA,MA,NB,MB (or NA,MA for a symmetric pair)")
    b_vert.add_argument("--json", action="store_true")
    b_vert.set_defaults(func=_cmd_boxes_vertices)

    b_cls = box_sub.add_parser("classify", help="extremality and class of one table")
    b_cls.add_argument("--state", required=True, help="JSON box-table file")
    b_cls.add_argument("--json", action="store_true")
    b_cls.set_defaults(func=_cmd_boxes_classify)

    b_sep = box_sub.add_parser("separable", help="exact separable-hull membership")
    b_sep.add_argument("--state", required=True)
    b_sep.add_argument("--json", action="store_true")
    b_sep.set_defaults(func=_cmd_boxes_separable)

    b_orb = box_sub.add_parser("orbit", help="orbit under local relabelings")
    b_orb.add_argument("--state", required=True)
    b_orb.add_argument("--json", action="store_true")
    b_orb.set_defaults(func=_cmd_boxes_orbit)

    p_rep = sub.add_parser("reproduce", help="run the golden reference-value suite")
    p_rep.add_argument("--table", default="paper")
    p_rep.add_argument("--list", action="store_true", help="list check names without running")
    p_rep.add_argument("--corrupt", default=None, metavar="BUILTIN",
                       help="perturb one builtin state (test instrumentation)")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except boxes.InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
