import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "getk"


def _private_reads(path: Path) -> list:
    """Underscore names of other getk modules that one module reads, as module.name."""
    tree = ast.parse(path.read_text())
    getk = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", path.stem}
    aliases = {}  # local name -> getk module, from `from . import x` or `from getk import x`
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] == "getk":
            module = node.module[len("getk."):]  # "" for the package itself
        else:
            continue
        for alias in node.names:
            if not module and alias.name in getk:
                aliases[alias.asname or alias.name] = alias.name
            elif module in getk and alias.name.startswith("_"):
                reads.append(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            reads.append(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(set(reads))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_another_modules_private_names(path):
    assert _private_reads(path) == []


def _readers(path: Path, name: str) -> list:
    """The innermost function around each read of ``name`` (``name`` or ``x.name``) in one
    module, as module.function."""
    tree = ast.parse(path.read_text())
    owners = {id(node): "<module>" for node in ast.walk(tree)
              if getattr(node, "attr", getattr(node, "id", None)) == name
              and isinstance(node.ctx, ast.Load)}
    for func in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if id(node) in owners:
                    owners[id(node)] = func.name
    return [f"{path.stem}.{owner}" for owner in owners.values()]


def _relative_imports(path: Path) -> set:
    """The getk modules one module imports from within the package, ``__init__`` for a name
    of the package itself."""
    getk = {p.stem for p in PACKAGE.glob("*.py")}
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= ({node.module} if node.module else
                    {a.name if a.name in getk else "__init__" for a in node.names})
    return out


def test_package_imports_form_no_cycle():
    # each module's package-relative imports point one way: coherent reads operators alone,
    # so purity, which runs coherent's fixed point, is not imported back
    graph = {path.stem: _relative_imports(path) for path in PACKAGE.glob("*.py")}
    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError(" -> ".join(path[path.index(module):] + [module]))
        if module not in done:
            path.append(module)
            for target in sorted(graph[module]):
                visit(target)
            done.add(path.pop())

    for module in sorted(graph):
        visit(module)
    assert graph["coherent"] == {"operators"}


def test_the_size_rule_lives_in_checked_dim():
    # one size rule: every register dimension is formed by operators.checked_dim
    owners = [o for path in sorted(PACKAGE.glob("*.py")) for o in _readers(path, "bit_length")]
    assert owners == ["operators.checked_dim"]


def test_the_span_rule_lives_in_in_span():
    # one span rule: operators._in_span reads the independence tolerance, and so decides
    # contains, orthonormalize's drops and the sector's refusal; the Schur edge rule reads
    # it as an entry threshold, not a span test
    owners = [o for path in sorted(PACKAGE.glob("*.py"))
              for o in _readers(path, "INDEPENDENCE_TOL")]
    assert sorted(owners) == ["operators._decide_site_lie", "operators._in_span"]


def test_shared_helpers_have_one_home():
    # the name-number reader lives in the package root, so catalog loads no state code to
    # borrow it; every standard-normal draw from the seeded stream goes through one function
    assert _relative_imports(PACKAGE / "catalog.py") == {"__init__", "operators", "fermion"}
    owners = [o for path in sorted(PACKAGE.glob("*.py")) for o in _readers(path, "gauss")]
    assert owners == ["operators.gaussians"]


def test_no_module_constructs_a_json_decode_error():
    # json's own parsers read state files, so a malformed file gets json's message
    built = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "JSONDecodeError"]
    assert built == []


def _loose_tolerances(path: Path) -> list:
    """module:line of each float literal 0 < |x| < 1e-6 that is not the whole value of a
    module-level assignment; literals anywhere in reproduce's CHECKS rows are exempt."""
    tree = ast.parse(path.read_text())
    named = set()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if path.stem == "reproduce" and [getattr(t, "id", None) for t in targets] == ["CHECKS"]:
            named |= {id(node) for node in ast.walk(stmt)}
        named.add(id(stmt.value))
    return [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) < 1e-6 and id(node) not in named]


def test_every_tolerance_is_a_named_constant():
    # a cutoff is named once, as the whole value of a module-level constant, and read by
    # name: not a default, not an argument, not an entry of a table; only reproduce's
    # golden rows state their own tolerances
    loose = [where for path in sorted(PACKAGE.glob("*.py")) for where in _loose_tolerances(path)]
    assert loose == []


VALUE_METHODS = ("__eq__", "__hash__", "__setattr__", "__delattr__")


def _value_method_owners(path: Path) -> list:
    """(method, module.Class) for each of VALUE_METHODS that a class of one module defines or
    assigns in its body."""
    module = "getk" if path.stem == "__init__" else f"getk.{path.stem}"
    out = []
    for cls in ast.walk(ast.parse(path.read_text())):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, FUNCTION_DEFS):
                names = [node.name]
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            out += [(name, f"{module}.{cls.name}") for name in names if name in VALUE_METHODS]
    return out


def test_only_frozen_writes_equality_hashing_and_the_assignment_guard():
    # getk.Frozen is the one immutable value base, so no class writes these by hand again.
    # ObservableSpace keeps its own guard: it is compared by identity, is a key of
    # lru_caches and keeps cached_property values in its __dict__.
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, owner in _value_method_owners(path):
            owners.setdefault(name, []).append(owner)
    guard = ["getk.Frozen", "getk.operators.ObservableSpace"]
    assert owners == {"__eq__": ["getk.Frozen"], "__hash__": ["getk.Frozen"],
                      "__setattr__": guard, "__delattr__": guard}


INTEGER_CORE = ("_pivot", "_rref", "_extreme_rays", "_phase1_feasible")


def test_integer_core_divides_only_with_floor_division():
    # the box side's elimination runs on int rows: a true division would make a row
    # float or Fraction without a word, where // stays exact on the divisors it takes
    tree = ast.parse((PACKAGE / "boxes.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(INTEGER_CORE) <= functions.keys()
    divisions = [f"{name}:{node.lineno}" for name in INTEGER_CORE
                 for node in ast.walk(functions[name])
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert divisions == []


FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_defs(tree: ast.Module, module: str) -> list:
    """A module's public functions and classes, and each such class's public methods."""
    out = []
    for node in tree.body:
        if not isinstance(node, (*FUNCTION_DEFS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append(f"{module}.{node.name}")
        if isinstance(node, ast.ClassDef):
            out += [f"{module}.{node.name}.{m.name}" for m in node.body
                    if isinstance(m, FUNCTION_DEFS) and not m.name.startswith("_")]
    return out


def test_every_public_function_has_a_reader():
    # a public module-level function or class, or a public method of such a class, is
    # referenced somewhere in src/ (a name, an attribute or an import) or documented in
    # README; anything else is dead code
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += _public_defs(tree, path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unread = [name for name in defined if name.rsplit(".", 1)[1] not in referenced
              and not re.search(rf"\b{name.rsplit('.', 1)[1]}\b", readme)]
    assert any(name.count(".") == 2 for name in defined)  # methods are checked too
    assert unread == []


def _unbounded_caches(path: Path) -> list:
    """Functions of one module, as module.name, that take a parameter besides ``self``
    under ``functools.cache`` or an ``lru_cache`` of maxsize None."""
    out = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, FUNCTION_DEFS):
            continue
        args = func.args
        if not ([a for a in args.posonlyargs + args.args + args.kwonlyargs if a.arg != "self"]
                or args.vararg or args.kwarg):
            continue
        for deco in func.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = getattr(target, "id", getattr(target, "attr", None))
            # maxsize, by keyword or first argument; a bare @lru_cache keeps 128
            sizes = [k.value for k in getattr(deco, "keywords", []) if k.arg == "maxsize"]
            sizes += getattr(deco, "args", [])
            unbounded = sizes and isinstance(sizes[0], ast.Constant) and sizes[0].value is None
            if name == "cache" or (name == "lru_cache" and unbounded):
                out.append(f"{path.stem}.{func.name}")
    return out


def test_caches_keyed_by_arguments_are_bounded():
    # a cache keyed by caller input keeps every value it was asked for: an unbounded one
    # grows with every distinct argument, spaces of many megabytes included
    unbounded = [f for path in sorted(PACKAGE.glob("*.py")) for f in _unbounded_caches(path)]
    assert unbounded == []


def test_cli_import_leaves_json_and_exact_numbers_out():
    # the command line is read from cli's flag table (argparse only for help and usage
    # errors): json is loaded to read or write JSON,
    # fractions (and the decimal it loads) to make an exact number, dataclasses never
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = ("import sys, getk.cli\n"
             "print([m for m in ('json', 'fractions', 'decimal', 'dataclasses') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("module", ["getk", "getk.boxes", "getk.cli"])
def test_import_leaves_numpy_out(module):
    # the box side is pure int and Fraction code, the package exports only its three
    # numpy-free input helpers, and the command registers its modules without running them
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = f"import sys, {module}; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


COMPILE_PROBE = """\
import contextlib, io, json, os, sys
package = os.path.join(sys.argv[1], "getk")
numpy, compiled = [], []

def record(event, args):
    if event == "compile" and os.path.dirname(str(args[1])) == package:
        compiled.append([os.path.basename(args[1]), bool(numpy)])
    elif event == "import" and args[0] == "numpy":
        numpy.append(True)

sys.addaudithook(record)
{imports}
from getk import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, compiled, bool(numpy), out.getvalue()]))
"""


def _compile_audit(tmp_path, runs, imports=""):
    """[exit codes, [getk file, numpy already imported] per compile event, numpy imported,
    stdout] of commands run in turn in one process, on a copy of the package at tmp_path,
    with PYTHONDONTWRITEBYTECODE=1 as a checkout runs."""
    if not (tmp_path / "getk").is_dir():
        (tmp_path / "getk").mkdir()
        for source in PACKAGE.glob("*.py"):
            (tmp_path / "getk" / source.name).write_bytes(source.read_bytes())
        _state_files(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    probe = COMPILE_PROBE.format(imports=imports)
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path), json.dumps(runs)],
                         env=env, cwd=tmp_path, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


PURITY_AHEAD = ["__init__.py", "cli.py", "states.py", "operators.py", "catalog.py", "purity.py"]
GETK_FILES = sorted(path.name for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("argv, before, after", [
    (["purity", "--state", "w:3", "--algebra", "omega1"], PURITY_AHEAD, []),
    (["purity", "--state", "density.json", "--algebra", "u2"], PURITY_AHEAD, []),
    (["classify", "--state", "w:3", "--algebra", "omega4", "--rescale", "auto"], PURITY_AHEAD, []),
    (["classify", "--state", "spin:3,3", "--algebra", "su2-spin:3"], PURITY_AHEAD, []),
    (["classify", "--state", "fock:m2:01", "--algebra", "u2"], PURITY_AHEAD, ["fermion.py"]),
    (["reproduce", "--table", "paper"],
     ["__init__.py", "cli.py", "boxes.py", "catalog.py", "coherent.py", "fermion.py",
      "operators.py", "purity.py", "reproduce.py", "states.py"], []),
    # --list runs no catalog, boxes, coherent or fermion, so nothing is compiled ahead;
    # reproduce imports numpy first, then the names it takes from operators and purity
    (["reproduce", "--list"], ["__init__.py", "cli.py", "reproduce.py"],
     ["operators.py", "purity.py"]),
    (["boxes", "vertices", "--size", "2,2"], ["__init__.py", "cli.py", "boxes.py"], None),
], ids=["builtin", "density-file", "rescale-auto", "spin", "fock", "reproduce", "list",
        "box-vertices"])
def test_commands_compile_their_entry_modules_before_numpy(tmp_path, argv, before, after):
    # [exit code, getk files compiled before numpy is imported, those compiled after (None
    # when numpy is never imported)], from the compile and import audit events of one command
    # on a copy of the package with no bytecode cache; and no bytecode is written
    codes, compiled, numpy, _ = _compile_audit(tmp_path, [argv])
    assert [codes[0], [name for name, late in compiled if not late],
            sorted(name for name, late in compiled if late) if numpy else None] == [0, before, after]
    assert list(tmp_path.rglob("__pycache__")) == []


@pytest.mark.parametrize("imports", ["", "import getk.purity"], ids=["cli-first", "purity-first"])
def test_every_getk_file_compiles_once(tmp_path, imports):
    # code compiled ahead is run, not compiled again: by a later command, after a command that
    # stopped before running it (an unknown state), or for a module imported before cli
    runs = [["purity", "--state", "no-such-state", "--algebra", "omega1"],
            ["reproduce", "--table", "paper"], ["purity", "--state", "w:3", "--algebra", "omega1"],
            ["reproduce", "--table", "paper"]]
    codes, compiled, _, _ = _compile_audit(tmp_path, runs, imports)
    assert codes == [2, 0, 0, 0]
    assert sorted(name for name, _ in compiled) == GETK_FILES


def test_a_bytecode_cache_is_read_not_compiled(tmp_path):
    # compiling ahead goes through the loader's own get_code, which reads a valid cache
    runs = [["reproduce", "--table", "paper"], ["purity", "--state", "density.json", "--algebra", "u2"]]
    codes, compiled, _, stdout = _compile_audit(tmp_path, runs)
    assert sorted(name for name, _ in compiled) == GETK_FILES
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(tmp_path / "getk")], check=True)
    assert _compile_audit(tmp_path, runs) == [codes, [], True, stdout]


LAZY_MODULES = ("boxes", "catalog", "coherent", "fermion", "operators", "purity",
                "reproduce", "states")
REGISTRY_PROBE = """\
import json, sys, types
{imports}
print(json.dumps({{name: [type(m) is types.ModuleType, getattr(getk, name[5:], None) is m]
                  for name, m in sys.modules.items() if name.startswith("getk.")}}))
"""


def _registry(imports):
    """Each getk submodule in sys.modules after ``imports``: [has run, is the package attribute]."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", REGISTRY_PROBE.format(imports=imports)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_cli_registers_every_module_without_running_it():
    registry = _registry("import getk.cli")
    assert registry == {"getk.cli": [True, True],
                        **{f"getk.{name}": [False, True] for name in LAZY_MODULES}}


def test_cli_keeps_a_module_imported_before_it():
    # one module object: a class imported before the command is the class it uses
    registry = _registry("import getk.purity as first, getk.cli\n"
                         "assert getk.cli.purity is first is sys.modules['getk.purity'] is getk.purity")
    assert registry["getk.purity"] == registry["getk.operators"] == [True, True]


def test_cli_binds_no_name_from_another_module():
    # a `from .x import name` would run x when the command is imported
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imports = [f"{'.' * node.level}{node.module or ''}:{alias.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "getk")
               for alias in node.names]
    assert imports == []


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PROBE = ("import json, os, sys\n"
         "{statement}\n"
         "tasks = '/proc/self/task'\n"
         "print(json.dumps({{'env': {{v: os.environ.get(v) for v in sys.argv[1:]}},\n"
         "                  'numpy': 'numpy' in sys.modules,\n"
         "                  'threads': len(os.listdir(tasks)) if os.path.isdir(tasks) else None}}))")
# the command's modules load numpy only after the command has set the environment
COMMAND_LOADS_NUMPY = "import getk.cli, getk.operators\ngetk.operators.MAX_DIM"


def _run_in_fresh_process(statement, **preset):
    """Run ``statement`` with the BLAS thread variables cleared, then ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE.format(statement=statement), *BLAS_VARS],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_command_pins_one_blas_thread():
    # the command owns its process: OpenBLAS starts no idle workers to spin
    probe = _run_in_fresh_process(COMMAND_LOADS_NUMPY)
    assert probe["numpy"]
    assert probe["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                            "OMP_NUM_THREADS": None}
    if probe["threads"] is None:
        pytest.skip("no /proc/self/task to count threads")
    assert probe["threads"] == 1


@pytest.mark.parametrize("var", BLAS_VARS)
def test_user_thread_setting_is_kept(var):
    probe = _run_in_fresh_process(COMMAND_LOADS_NUMPY, **{var: "2"})
    assert probe["numpy"]
    assert probe["env"] == {v: "2" if v == var else None for v in BLAS_VARS}


def test_library_leaves_the_environment_alone():
    probe = _run_in_fresh_process("import getk.purity")
    assert probe["numpy"]
    assert probe["env"] == dict.fromkeys(BLAS_VARS)


# one state of matching dimension per catalog algebra
CATALOG_STATES = [
    ("omega1", "w:3"), ("omega2-literal", "ghz:3"), ("omega2-paper-values", "bisep:13"),
    ("omega3", "w:3"), ("omega4", "bisep:23"), ("omega-prime-loc", "bell:phi+"),
    ("u2", "bell:psi+"), ("so4-fermi", "fock:m2:11"), ("local:3x2", "ghz:3"),
    ("su2-spin:3/2", "spin:3/2,1/2"),
]
# no json in the probe: the commands alone decide whether it loads
COMMAND_PROBE = """\
import ast, contextlib, io, sys, types
from getk import cli
loaded = []
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    # a getk module the command only registered is in sys.modules but has not run
    loaded.append([argv, code, *(type(sys.modules.get(m)) is types.ModuleType
                                 for m in sys.argv[2:])])
print(repr(loaded))
"""


def _run_commands(runs, *modules):
    """Run commands in turn in one fresh process: [argv, exit code, each module run yet]."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", COMMAND_PROBE, repr(runs), *modules],
                         env=env, check=True, capture_output=True, text=True).stdout
    return ast.literal_eval(out)


SIGNALLING_TABLE = {  # Bob's outcome on input 0 follows Alice's input
    "n_inputs": [2, 2], "n_outputs": [2, 2],
    "p": [[1, 1], [0, 1], [1, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1],
          [0, 1], [1, 1], [1, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]],
}


@pytest.mark.parametrize("command", ["vertices", "classify", "separable", "orbit"])
def test_box_commands_leave_numpy_out(tmp_path, command):
    # a box command, its input errors included, runs on pure int and Fraction code, and
    # BoxState is a plain class: the dataclass machinery would import inspect, ast and dis
    from getk.boxes import canonical_entangled_vertex
    if command == "vertices":
        cases = [(["--size", "2,2"], 0), (["--size", "2,2,2"], 2)]
    else:
        pr_box, signalling = tmp_path / "pr.json", tmp_path / "signalling.json"
        deep = tmp_path / "deep.json"
        pr_box.write_text(json.dumps(canonical_entangled_vertex().to_json_dict()))
        signalling.write_text(json.dumps(SIGNALLING_TABLE))
        deep.write_text("[" * 100000 + "]" * 100000)
        cases = [(["--state", str(pr_box)], 0), (["--state", str(tmp_path / "missing.json")], 2),
                 (["--state", str(deep)], 2), (["--state", str(signalling)], 4)]
    runs = [["boxes", command, *args] for args, _ in cases]
    assert _run_commands(runs, "numpy", "dataclasses", "inspect") == [
        [argv, code, False, False, False] for argv, (_, code) in zip(runs, cases)]


PARSER_PROBE = """\
import ast, contextlib, io, sys
from getk import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(ast.literal_eval(sys.argv[1]))
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
print(repr([code, *(m in sys.modules for m in ("argparse", "gettext", "locale"))]))
"""


def _parser_modules(argv):
    """[exit code, argparse, gettext, locale loaded] after one command in a fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PARSER_PROBE, repr(argv)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return ast.literal_eval(out)


def test_well_formed_commands_leave_argparse_out(tmp_path):
    # a well-formed command line is read from cli's flag table: argparse, and the gettext
    # and locale it loads, are for help and usage errors alone
    from getk.boxes import canonical_entangled_vertex
    pr_box = tmp_path / "pr.json"
    pr_box.write_text(json.dumps(canonical_entangled_vertex().to_json_dict()))
    runs = [["purity", "--state", "w:3", "--algebra", "omega1"],
            ["classify", "--state", "w:3", "--algebra", "omega1", "--tol", "1e-6", "--json"],
            ["boxes", "vertices", "--size", "2,2"],
            *(["boxes", command, "--state", str(pr_box)]
              for command in ("classify", "separable", "orbit")),
            ["reproduce"], ["reproduce", "--list"]]
    assert [_parser_modules(argv) for argv in runs] == [[0, False, False, False]] * len(runs)


def test_a_tol_text_that_is_no_float_leaves_argparse_out():
    # the reader passes any --tol text on, and the verdict rule refuses this one
    argv = ["classify", "--state", "w:3", "--algebra", "omega1", "--tol", "abc"]
    assert _parser_modules(argv) == [2, False, False, False]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["purity", "--help"], 0),
    (["purity", "--stat", "w:3", "--algebra", "omega1"], 0),  # an abbreviation
    (["purity", "--state", "w:3"], 2)])
def test_help_and_other_command_lines_go_to_argparse(argv, code):
    assert _parser_modules(argv)[:2] == [code, True]


def test_box_vertices_leaves_json_out():
    # the key=value vertex table reads and writes no JSON; --json loads the encoder
    runs = [["boxes", "vertices", "--size", "2,2"], ["boxes", "vertices", "--size", "2,2", "--json"]]
    assert _run_commands(runs, "json") == [[runs[0], 0, False], [runs[1], 0, True]]


def _state_files(tmp_path):
    """[algebra, state file] pairs: a pure and a density state of dimension 4."""
    pure, density = tmp_path / "pure.json", tmp_path / "density.json"
    pure.write_text(json.dumps({"dim": 4, "amplitudes": [[0.6, 0], [0, 0.8], [0, 0], [0, 0]]}))
    density.write_text(json.dumps({"dim": 4, "kind": "density", "matrix": [
        [[0.25 * (i == j), 0] for j in range(4)] for i in range(4)]}))
    return [("omega-prime-loc", str(pure)), ("u2", str(density))]


def test_purity_commands_load_no_dataclasses_and_no_exact_numbers(tmp_path):
    # a report is a plain class, a JSON dim is a plain int, and a spin label is formatted
    # from 2J, so no purity or classify command loads dataclasses, fractions or decimal
    # (classify refuses the mixed state, exit 2)
    runs = [[command, "--state", state, "--algebra", algebra, *rescale]
            for algebra, state in CATALOG_STATES + _state_files(tmp_path)
            for command in ("purity", "classify")
            for rescale in ([], ["--rescale", "auto"])]
    expected_code = [2 if argv[0] == "classify" and argv[2].endswith("density.json") else 0
                     for argv in runs]
    assert _run_commands(runs, "dataclasses", "fractions", "decimal") == [
        [argv, code, False, False, False] for argv, code in zip(runs, expected_code)]


def test_only_a_state_file_loads_json(tmp_path):
    # a builtin state is built from its name; json loads when a state file is read (the
    # file runs come last: json stays loaded)
    runs = [[command, "--state", state, "--algebra", algebra]
            for algebra, state in CATALOG_STATES for command in ("purity", "classify")]
    files = [["purity", "--state", state, "--algebra", algebra]
             for algebra, state in _state_files(tmp_path)]
    assert _run_commands(runs + files, "json") == (
        [[argv, 0, False] for argv in runs] + [[argv, 0, True] for argv in files])


def test_purity_commands_leave_numpy_random_unloaded():
    # both rescaling references and the Lie-structure decision draw from the stdlib generator
    # numpy has already loaded; numpy.ma (which np.unique loads) would cost every command
    runs = [[command, "--state", state, "--algebra", algebra, *rescale]
            for algebra, state in CATALOG_STATES
            for command in ("purity", "classify")
            for rescale in ([], ["--rescale", "auto"])]
    assert _run_commands(runs, "numpy.random", "numpy.ma") == [[argv, 0, False, False]
                                                               for argv in runs]


def test_purity_commands_run_box_code_never_and_fermion_code_for_fermions(tmp_path):
    # the so4-fermi runs come after the other catalog runs, and the custom run last: a module
    # run before them would show at the command that ran it.  Every catalog reference,
    # the default and auto, is exact or carried, so coherent's fixed point never runs; the
    # open-bracket 5-cycle gets neither, and runs it
    order = sorted(CATALOG_STATES, key=lambda pair: pair[0] == "so4-fermi")
    runs = [[command, "--state", state, "--algebra", algebra, *rescale]
            for algebra, state in order
            for command in ("purity", "classify")
            for rescale in ([], ["--rescale", "auto"])]
    five_cycle = tmp_path / "five_cycle.txt"
    five_cycle.write_text("IX\nIY\nXX\nYI\nZY\n")
    custom = ["purity", "--state", "bell:phi+", "--algebra", f"custom:{five_cycle}"]
    assert _run_commands(runs + [custom], "getk.boxes", "getk.fermion", "getk.coherent") == [
        [argv, 0, False, argv[4] == "so4-fermi", False] for argv in runs] + [
        [custom, 0, False, True, True]]


def test_reproduce_leaves_numpy_random_unloaded():
    # the seeded checks of the golden suite draw from the same stdlib generator
    runs = [["reproduce", "--table", "paper"]]
    assert _run_commands(runs, "numpy.random", "numpy.ma") == [[argv, 0, False, False]
                                                               for argv in runs]
