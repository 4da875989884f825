"""Command-line front end.

Subcommands: purity, classify, boxes (vertices | classify | separable |
orbit) and reproduce.  Records print as deterministic key=value lines, or
as JSON with --json.  Exit codes: 0 success, 2 parse error, 3 dimension
mismatch, 4 infeasible or signalling box input, 1 failed golden checks or
a broken pipe (the reader of stdout left early; no traceback).  A closed
stdout is not an error: the records are dropped and the code is unchanged.
Each subcommand and each flag is declared once, in :data:`COMMANDS`, and a
flag's text goes unchanged to the one function that reads it: ``--rescale``
to ``purity.resolve_max_reference`` and ``--tol`` to ``purity.PurityReport.unentangled``,
so an unreadable text of either is refused there, once the state and algebra are read.
:func:`read_argv` reads a well-formed command line from that table; argparse, built from
the same table by :func:`build_parser`, reads every other one and writes all help and
usage errors.

Importing this module registers every getk module lazily: each runs at its
first attribute access, so ``boxes`` commands load only the pure-Fraction
``boxes`` module and never numpy.  Of the stdlib, it loads only ``importlib``'s
``util`` and ``machinery``; ``argparse`` (with ``gettext`` and ``locale``) is
imported by :func:`build_parser`, and ``json`` by the ``--json`` branch of
``_emit`` and by the file readers.  Getk names are read through their module
at call time, never bound by ``from .x import name``.  The ``getk`` command
(:func:`entry_point`) ends with ``os._exit`` once its output is flushed:
it writes no files and registers no exit handler, so interpreter teardown
would only free memory the process is about to give back.
"""

import importlib.machinery
import importlib.util
import os
import sys
import types

# OpenBLAS reads this once, when numpy loads it. Its idle worker threads busy-wait
# before they sleep, and no getk matrix is large enough to be worth splitting.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


class _Loader(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):  # the code _compile_ahead built, if it did, handed over once
        return vars(self).pop("code", None) or super().get_code(fullname)


def _lazy(name: str):
    """The module ``getk.<name>``, registered to run at its first attribute access."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)  # one module object, however it was imported first
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(_Loader(full, spec.origin))
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# all eight, as when they were imported eagerly: a tool that patches getk finds each one
boxes, catalog, coherent, fermion, operators, purity, reproduce, states = map(_lazy, (
    "boxes", "catalog", "coherent", "fermion", "operators", "purity", "reproduce", "states"))


def _compile_ahead(*modules):
    """Build the code of registered modules that have not run, so it compiles before numpy loads."""
    for module in modules:
        if type(module) is not types.ModuleType:  # not run: reading its __spec__ would run it
            loader = object.__getattribute__(module, "__spec__").loader
            loader.code = loader.get_code(loader.name)


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


def _load_algebra(name: str):
    try:
        return catalog.named_algebra(name)
    except (OSError, ValueError) as exc:
        raise ValueError(f"algebra: {exc}") from exc


def _cmd_purity(args) -> int:
    """``purity``, and ``classify``, which adds the verdict drawn from the same report."""
    _compile_ahead(states, operators, catalog, purity)
    state = states.load_state(args.state)
    omega = _load_algebra(args.algebra)
    report = purity.rescaled_purity(state, omega, max_reference=args.rescale)
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
    n_prod = sum(1 for _, c in classified if c == "product")
    if args.json:
        record = {
            "vertices": [{"p": v.probs, "class": c} for v, c in classified],
            "product": n_prod, "entangled": len(verts) - n_prod, "total": len(verts),
        }
        _emit(record, True)
    else:
        for v, c in classified:
            flat = ",".join(str(p) for p in v.probs)
            print(f"vertex={flat} class={c}")
        print(f"product={n_prod} entangled={len(verts) - n_prod} total={len(verts)}")
    return 0


def _cmd_boxes_classify(args) -> int:
    state = _load_box(args.state)
    extremal = boxes.is_extremal(state)
    record: dict = {"extremal": extremal}
    if extremal:
        record["class"] = boxes.vertex_class(state)  # a vertex: no second rank test
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
    _compile_ahead(boxes, catalog, coherent, fermion, operators, purity, reproduce, states)
    lines, code = reproduce.run_table_paper()
    print("\n".join(lines))
    return code


# Each flag once: (option, kind, default, help).  Its attribute is the option without
# "--"; kind is "required" (a value that must be given), "value" or "switch" (True when
# given).  A value is the flag's text, read by the function it goes to.
_STATE = ("--state", "required", None, "builtin name or JSON state file")
_ALGEBRA = ("--algebra", "required", None, "catalog name (e.g. omega1, u2, local:2x2)")
_RESCALE = ("--rescale", "value", None, "auto | analytic | explicit reference value")
_TOL = ("--tol", "value", None, None)
_JSON = ("--json", "switch", False, None)
_SIZE = ("--size", "required", None, "NA,MA,NB,MB (or NA,MA for a symmetric pair)")
_BOX_STATE = ("--state", "required", None, "JSON box-table file")
_TABLE = ("--table", "value", "paper", None)
_LIST = ("--list", "switch", False, "list check names without running")

# Each subcommand once, in help order: (words, help, handler, flags).  A group has no
# handler; its subcommands follow it.  Word i of a command is the attribute _DESTS[i].
COMMANDS = (
    (("purity",), "purity of a state relative to an observable set", _cmd_purity,
     (_STATE, _ALGEBRA, _RESCALE, _JSON)),
    (("classify",), "maximal-purity unentanglement test", _cmd_purity,
     (_STATE, _ALGEBRA, _RESCALE, _TOL, _JSON)),
    (("boxes",), "exact no-signalling box polytope tools", None, ()),
    (("boxes", "vertices"), "enumerate and classify all vertices", _cmd_boxes_vertices,
     (_SIZE, _JSON)),
    (("boxes", "classify"), "extremality and class of one table", _cmd_boxes_classify,
     (_BOX_STATE, _JSON)),
    (("boxes", "separable"), "exact separable-hull membership", _cmd_boxes_separable,
     (_BOX_STATE, _JSON)),
    (("boxes", "orbit"), "orbit under local relabelings", _cmd_boxes_orbit, (_BOX_STATE, _JSON)),
    (("reproduce",), "run the golden reference-value suite", _cmd_reproduce, (_TABLE, _LIST)),
)
_DESTS = ("command", "box_command")


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of :data:`COMMANDS`: it writes every help text and every usage
    error, and reads the command lines :func:`read_argv` declines."""
    import argparse  # with gettext and locale: a well-formed command line never needs them

    parser = argparse.ArgumentParser(
        prog="getk",
        description="Observable-relative entanglement toolkit")
    groups = {(): parser.add_subparsers(dest=_DESTS[0], required=True)}
    for words, help_text, func, flags in COMMANDS:
        p = groups[words[:-1]].add_parser(words[-1], help=help_text)
        if func is None:
            groups[words] = p.add_subparsers(dest=_DESTS[len(words)], required=True)
            continue
        for option, kind, default, flag_help in flags:
            if kind == "switch":
                p.add_argument(option, action="store_true", help=flag_help)
            else:
                p.add_argument(option, required=kind == "required", default=default, help=flag_help)
        p.set_defaults(func=func)
    return parser


def read_argv(argv):
    """The attributes ``build_parser().parse_args(argv)`` sets, for a well-formed ``argv``.

    Well-formed is strict: a command's words, then full flag names of that command, each
    at most once, each valued flag followed by a value that does not start with ``-``, and
    every required flag given.  Any other ``argv`` gives ``None``, and argparse reads it:
    help, abbreviations, ``--flag=value``, repeats, values such as ``-1``, stray tokens and
    missing flags.
    """
    for words, _, func, flags in COMMANDS:
        if func is None or tuple(argv[:len(words)]) != words:
            continue
        kinds = {option: kind for option, kind, _, _ in flags}
        given = {}
        tokens = iter(argv[len(words):])
        for token in tokens:
            kind = kinds.get(token)
            if kind is None or token in given:
                return None
            if kind == "switch":
                given[token] = True
                continue
            value = next(tokens, "-")  # a missing value declines as a flag-like one does
            if value.startswith("-"):
                return None
            given[token] = value
        if any(kind == "required" and option not in given for option, kind, _, _ in flags):
            return None
        return types.SimpleNamespace(
            **{option[2:]: given.get(option, default) for option, _, default, _ in flags},
            **dict(zip(_DESTS, words)), func=func)
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
