"""The package's own import graph, read from the source with ``ast``."""

import ast
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import ganitprep

PACKAGE_DIR = Path(ganitprep.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE_DIR.glob("*.py")}
LEAF = "common"  # the shared enums and writers: imports no package module


def _imported_modules(node: ast.AST) -> set[str]:
    """Package modules named by one import statement."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = ("ganitprep." + (node.module or "")).rstrip(".") if node.level \
            else node.module or ""
        names = [base] + [f"{base}.{alias.name}" for alias in node.names]
    else:
        return set()
    return {name.split(".")[1] for name in names if name.startswith("ganitprep.")} & MODULES


def _import_graph() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """(module-level imports, imports inside functions) per package module."""
    top, local = {}, {}
    for name in MODULES:
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))
        in_functions = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_functions.update(id(inner) for inner in ast.walk(node))
        top[name], local[name] = set(), set()
        for node in ast.walk(tree):
            (local if id(node) in in_functions else top)[name] |= _imported_modules(node)
    return top, local


def test_module_level_imports_are_acyclic():
    top, _ = _import_graph()
    list(TopologicalSorter(top).static_order())  # a cycle raises CycleError naming it
    assert top[LEAF] == set()


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by module-level imports that the module never reads.

    Imports inside a function or class, under ``if TYPE_CHECKING``, or from
    ``__future__`` are not counted.
    """
    inner = {id(node) for scope in ast.walk(tree)
             if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             or (isinstance(scope, ast.If) and getattr(scope.test, "id", None) == "TYPE_CHECKING")
             for node in ast.walk(scope)}
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in inner
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_level_import_is_used():
    unused = {(name, imported) for name in MODULES
              for imported in _unused_imports(
                  ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8")))}
    assert unused == set()


def test_unused_import_check_sees_dead_imports():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, re as regex\n"
                     "from typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n    from pathlib import Path\n"
                     "def f():\n    import json\n    return os.sep\n")
    assert _unused_imports(tree) == {"regex"}


def test_only_cli_imports_inside_functions():
    # cli imports each stage module in the handler that runs it, so a stage
    # process loads only what it needs; nothing else defers an import.
    _, local = _import_graph()
    assert {name for name, targets in local.items() if targets} == {"cli"}



# Where a JSON text may be decoded: the two shared readers, and two texts
# that are no file: the HTTP provider's parse of a reply, and llm_client's
# module-level read of the training configuration's sampling values.
JSON_DECODE_SITES = {("errors", "json_object_file"), ("errors", "numbered_lines"),
                     ("llm_client", "HttpProvider.generate"), ("llm_client", "")}


def _json_decode_sites() -> set[tuple[str, str]]:
    """(module, enclosing function) of every ``json.load``/``json.loads`` call."""
    sites = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            sites.add((module, scope))
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            sites.add((module, "from json import"))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for name in MODULES:
        visit(ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8")), name, "")
    return sites


def test_json_is_decoded_only_by_the_shared_readers():
    assert _json_decode_sites() <= JSON_DECODE_SITES


def _package_nodes():
    for name in MODULES:
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))
        yield from ((name, node) for node in ast.walk(tree))


def test_one_error_type_and_no_error_parameter():
    # Every deliberate failure is a PipelineError whose message is the whole
    # report, so no caller needs a subclass or a helper told which to raise.
    # It lives in the leaf module so that the atomic writers can raise it.
    exceptions = {(name, node.name) for name, node in _package_nodes()
                  if isinstance(node, ast.ClassDef)
                  and any(getattr(base, "id", "").endswith(("Error", "Exception"))
                          for base in node.bases)}
    assert exceptions == {("common", "PipelineError")}
    # Nothing else is raised: a raise statement re-raises what it caught, or
    # raises a PipelineError.
    others = {(name, node.lineno) for name, node in _package_nodes()
              if isinstance(node, ast.Raise) and node.exc is not None
              and not (isinstance(node.exc, ast.Call)
                       and getattr(node.exc.func, "id", None) == "PipelineError")}
    assert others == set()
    takers = {(name, getattr(node, "name", "lambda")) for name, node in _package_nodes()
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              and "error" in {arg.arg for arg in ast.walk(node.args)
                              if isinstance(arg, ast.arg)}}
    assert takers == set()


def test_imports_only_the_standard_library():
    # The package needs nothing installed beside it: every import, at module
    # level or inside a function, names a package module or the standard library.
    roots = set()
    for name, node in _package_nodes():
        if isinstance(node, ast.Import):
            roots |= {(name, alias.name.split(".")[0]) for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add((name, node.module.split(".")[0]))
    assert {(name, root) for name, root in roots
            if root != "ganitprep" and root not in sys.stdlib_module_names} == set()


def test_no_module_imports_logging():
    # A stage reports through its return value and its ``stage=`` line, not
    # through log records that land on stderr.
    importers = {name for name, node in _package_nodes()
                 if (isinstance(node, ast.Import)
                     and any(alias.name.split(".")[0] == "logging" for alias in node.names))
                 or (isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "logging")}
    assert importers == set()


def test_no_module_reads_the_wall_clock_date():
    # Re-runs must write byte-identical files, so no output may carry
    # ``datetime.now()``.
    callers = {name for name, node in _package_nodes()
               if isinstance(node, ast.Attribute) and node.attr in ("now", "utcnow")
               and ((isinstance(node.value, ast.Name) and node.value.id == "datetime")
                    or (isinstance(node.value, ast.Attribute)
                        and node.value.attr == "datetime"))}
    assert callers == set()


def test_no_module_calls_object_setattr():
    # A value that follows from a frozen dataclass's fields is a property;
    # nothing stores it past the frozen guard.
    callers = {name for name, node in _package_nodes()
               if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
               and isinstance(node.value, ast.Name) and node.value.id == "object"}
    assert callers == set()


def _printing_sites() -> set[tuple[str, str]]:
    """(module, enclosing top-level function) of every ``print`` call and every
    ``sys.stdout``/``sys.stderr`` name."""
    sites = set()
    for name in MODULES:
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            scope = getattr(top, "name", "")
            for node in ast.walk(top):
                if ((isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "print")
                        or (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                            and isinstance(node.value, ast.Name) and node.value.id == "sys")):
                    sites.add((name, scope))
    return sites


def test_only_cli_main_prints():
    # A stage reports by returning its StageSummary; ``cli.main`` writes it.
    assert _printing_sites() <= {("cli", "main")}


def _is_newline_join(node: ast.AST) -> bool:
    """A ``"\\n".join(...)`` call, or a ``+`` with one on either side."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_newline_join(node.left) or _is_newline_join(node.right)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join" and isinstance(node.func.value, ast.Constant)
            and node.func.value.value == "\n")


def test_line_files_go_through_the_line_writer():
    # A line-delimited artifact joined into one string and handed to
    # write_text_atomic is copied whole in memory; write_lines_atomic streams it.
    callers = {name for name, node in _package_nodes()
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "write_text_atomic"
               and any(map(_is_newline_join, [*node.args, *(k.value for k in node.keywords)]))}
    assert callers == set()


def test_only_answers_names_the_number_grammar():
    # Every other module reads numbers through ``parse_value`` and ``last_number``,
    # so the number forms and the scan of running text have one home.
    grammar = {"as_fraction", "_NUMBER_IN_TEXT_RE"}
    namers = {name for name, node in _package_nodes()
              if (isinstance(node, ast.Name) and node.id in grammar)
              or (isinstance(node, ast.Attribute) and node.attr in grammar)
              or (isinstance(node, ast.alias) and node.name in grammar)}
    assert namers <= {"answers"}
