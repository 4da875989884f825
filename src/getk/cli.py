"""Command-line front end.

Subcommands: purity, classify, boxes (vertices | classify | separable |
orbit) and reproduce.  Records print as deterministic key=value lines, or
as JSON with --json.  Exit codes: 0 success, 2 parse error, 3 dimension
mismatch, 4 infeasible or signalling box input, 1 failed golden checks or
a broken pipe (the reader of stdout left early; no traceback).  A closed
stdout is not an error: the records are dropped and the code is unchanged.
Each flag is declared once, and its text goes unchanged to the one function
that reads it: ``--rescale`` to ``purity.resolve_max_reference``.

Importing this module registers every getk module lazily: each runs at its
first attribute access, so ``boxes`` commands load only the pure-Fraction
``boxes`` module and never numpy.  Of the stdlib, this module loads only what
parses the command line; ``json`` is imported by the ``--json`` branch of
``_emit`` and by the file readers.  Getk names are read through their module
at call time, never bound by ``from .x import name``.  The ``getk`` command
(:func:`entry_point`) ends with ``os._exit`` once its output is flushed:
it writes no files and registers no exit handler, so interpreter teardown
would only free memory the process is about to give back.
"""

import argparse
import importlib.util
import os
import sys

# OpenBLAS reads this once, when numpy loads it. Its idle worker threads busy-wait
# before they sleep, and no getk matrix is large enough to be worth splitting.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _lazy(name: str):
    """The module ``getk.<name>``, registered to run at its first attribute access."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)  # one module object, however it was imported first
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# all eight, as when they were imported eagerly: a tool that patches getk finds each one
boxes, catalog, coherent, fermion, operators, purity, reproduce, states = map(_lazy, (
    "boxes", "catalog", "coherent", "fermion", "operators", "purity", "reproduce", "states"))


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, tuple):
        return "(" + ",".join(_fmt_value(x) for x in v) + ")"
    return str(v)


def _emit(record: dict, json_mode: bool):
    if json_mode:
        import json  # only --json writes JSON: the key=value commands start without it

        # default= sees only Fractions, the one non-JSON type any record holds
        print(json.dumps(record, default=lambda q: [q.numerator, q.denominator]))
    else:
        for key, value in record.items():
            print(f"{key}={_fmt_value(value)}")


def _seed() -> int:
    raw = os.environ.get("GE_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = -1  # refused below, with the negative seeds
    if seed < 0:
        raise ValueError(f"GE_SEED: expected a non-negative integer, got {raw!r}")
    return seed


def _load_algebra(name: str):
    try:
        return catalog.named_algebra(name)
    except (OSError, ValueError) as exc:
        raise ValueError(f"algebra: {exc}") from exc


def _cmd_purity(args) -> int:
    """``purity``, and ``classify``, which adds the verdict drawn from the same report."""
    state = states.load_state(args.state)
    omega = _load_algebra(args.algebra)
    report = purity.rescaled_purity(state, omega, max_reference=args.rescale, seed=_seed())
    record = {"state": args.state, **report.as_dict()}
    if args.json:  # JSON only: key=value records keep a fixed set of keys
        record["reference_source"] = report.reference_source
    if args.command == "classify":
        record.update(unentangled=report.unentangled(args.tol),
                      theorem_direction=report.theorem_direction)
    _emit(record, args.json)
    return 0


def _parse_size(spec: str):
    parts = spec.split(",")
    if len(parts) == 2:
        parts = parts + parts
    if len(parts) != 4:
        raise ValueError(f"--size: expected NA,MA,NB,MB, got {spec!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--size: entries must be integers, got {spec!r}") from None


def _load_box(path: str) -> "boxes.BoxState":
    obj = boxes.read_json_file(path)
    try:
        if len(obj["n_inputs"]) != 2 or len(obj["n_outputs"]) != 2:
            raise ValueError("the command line takes two boxes")
        return boxes.BoxState.from_json_dict(obj)
    except boxes.InfeasibleError:
        raise
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"state: bad box table in {path!r}: {exc}") from exc


def _cmd_boxes_vertices(args) -> int:
    shape = _parse_size(args.size)
    try:
        verts = boxes.enumerate_vertices(*shape)
    except ValueError as exc:
        raise ValueError(f"--size: {exc}") from exc
    classified = [(v, boxes.vertex_class(v)) for v in verts]  # vertices by construction
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
        record["class"] = boxes.vertex_class(state).value  # a vertex: no second rank test
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
        raise ValueError(f"--table: unknown table {args.table!r}")
    if args.list:
        for check in reproduce.CHECKS:
            print(check.name)
        return 0
    lines, code = reproduce.run_table_paper(seed=_seed())
    print("\n".join(lines))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="getk",
        description="Observable-relative entanglement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("purity", "purity of a state relative to an observable set"),
                            ("classify", "maximal-purity unentanglement test")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--state", required=True, help="builtin name or JSON state file")
        p.add_argument("--algebra", required=True, help="catalog name (e.g. omega1, u2, local:2x2)")
        p.add_argument("--rescale", default=None, help="auto | analytic | explicit reference value")
        if name == "classify":
            p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_purity)

    p_box = sub.add_parser("boxes", help="exact no-signalling box polytope tools")
    box_sub = p_box.add_subparsers(dest="box_command", required=True)
    for name, help_text, func in (
            ("vertices", "enumerate and classify all vertices", _cmd_boxes_vertices),
            ("classify", "extremality and class of one table", _cmd_boxes_classify),
            ("separable", "exact separable-hull membership", _cmd_boxes_separable),
            ("orbit", "orbit under local relabelings", _cmd_boxes_orbit)):
        b_cmd = box_sub.add_parser(name, help=help_text)
        if name == "vertices":
            b_cmd.add_argument("--size", required=True,
                               help="NA,MA,NB,MB (or NA,MA for a symmetric pair)")
        else:
            b_cmd.add_argument("--state", required=True, help="JSON box-table file")
        b_cmd.add_argument("--json", action="store_true")
        b_cmd.set_defaults(func=func)

    p_rep = sub.add_parser("reproduce", help="run the golden reference-value suite")
    p_rep.add_argument("--table", default="paper")
    p_rep.add_argument("--list", action="store_true", help="list check names without running")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every input error; its class may carry its own exit code
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def entry_point():
    """Run :func:`main` as a command: flush, then exit without interpreter teardown.

    An exception that escapes ``main`` ends the usual way, with a traceback.
    """
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the shell closed it (>&-)
                stream.flush()
    except BrokenPipeError:  # from a print or from the flush: exit 1, as for SIGPIPE
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entry_point()
