"""Module structure: the package's import graph stays a plain, acyclic
layering, each name has one import path (its module), and worker
processes hand back typed products.

For the import checks every package module is parsed, not imported, so a
cycle shows here even where the import system would tolerate it through a
local import or a typing-only guard.
"""

import ast
import builtins
import importlib
import re
import types
import typing
from collections import Counter
from dataclasses import is_dataclass
from pathlib import Path

import talkmetrics
import talkmetrics.align as align_module
from talkmetrics.batch import PipelineResult, RecordingOutcome

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "talkmetrics"


def parsed_modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def package_imports(node: ast.AST) -> list[str]:
    """Package modules named by one import statement (empty for others)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and (node.module or "").split(".")[0] == "talkmetrics":
            module = node.module.partition(".")[2]
        elif node.level == 1:
            module = node.module or ""
        else:
            return []
        if module:
            return [module.split(".")[0]]
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [
            alias.name.split(".")[1]
            for alias in node.names
            if alias.name.startswith("talkmetrics.")
        ]
    return []


def import_graph() -> dict[str, set[str]]:
    graph = {}
    for name, tree in parsed_modules().items():
        graph[name] = {
            target
            for node in ast.walk(tree)
            for target in package_imports(node)
            if target != "__init__"
        }
    return graph


def test_import_graph_is_acyclic():
    graph = import_graph()
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, "import cycle: " + " -> ".join(path + (name,))
        if name in done:
            return
        for target in sorted(graph[name]):
            visit(target, path + (name,))
        done.add(name)

    for name in sorted(graph):
        visit(name, ())


def test_no_function_level_package_import():
    for name, tree in parsed_modules().items():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                assert not package_imports(node), (
                    f"{name}.{function.name} imports {package_imports(node)} locally"
                )


def test_no_type_checking_guard():
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Name) and node.id == "TYPE_CHECKING"), name
            assert not (isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING"), name


def imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


# the functions of align's numpy kernel, the only ones that may import numpy
NUMPY_KERNEL = {"_dp", "_row_distances", "_spans", "_pair_scores"}


def test_no_function_level_import():
    """Every import, standard library included, sits at module level, except
    numpy's in the functions of ``align``'s kernel: runs whose alignment by
    time fits the plain-Python budget, or that never align by time, never
    load it. No other function or module imports numpy at all."""
    for name, tree in parsed_modules().items():
        allowed = []
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if name == "align" and function.name in NUMPY_KERNEL and (
                    isinstance(node, ast.Import) and [a.name for a in node.names] == ["numpy"]
                ):
                    allowed.append(node)
                    continue
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{name}.{function.name} imports at line {node.lineno}"
                )
        stray = [
            node.lineno for node in ast.walk(tree) if imports_numpy(node) and node not in allowed
        ]
        assert not stray, f"{name} imports numpy at lines {stray}"


def test_no_unused_import():
    """Every name a module-level import binds is read somewhere in its
    module; ``from __future__`` imports are directives, not names."""
    for name, tree in parsed_modules().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in read, f"{name} imports {bound} at line {node.lineno} unused"


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]


def read_names(node: ast.AST) -> Counter:
    """How often each name is read below ``node``, as a name or an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute)
    )


def test_every_private_name_is_read():
    """Every private module-level function, class or constant is read
    somewhere in the package outside its own definition, so no helper
    outlives its last caller."""
    trees = parsed_modules()
    read = sum((read_names(tree) for tree in trees.values()), Counter())
    for module, tree in trees.items():
        for node in tree.body:
            for name in defined_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    outside = read[name] - read_names(node)[name]
                    assert outside > 0, f"{module}.{name} is never read"


BROAD = ("Exception", "BaseException")


def test_one_catch_all_handler():
    """Only the per-recording runner in ``batch`` catches every exception, so
    each verb's failure handling stays one path."""
    found = []
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(kind is None or getattr(kind, "id", None) in BROAD for kind in caught):
                found.append(f"{name}:{node.lineno}")
    assert [place.split(":")[0] for place in found] == ["batch"], found


def test_one_rule_for_an_undefined_ratio():
    """Only ``features.ratio`` writes ``a / b if b else None``; every value
    with nothing to divide by goes through it, so each is None the same way."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.IfExp)
        and isinstance(node.body, ast.BinOp)
        and isinstance(node.body.op, ast.Div)
        and isinstance(node.orelse, ast.Constant)
        and node.orelse.value is None
    ]
    assert [place.split(":")[0] for place in found] == ["features"], found


def last_name(node: ast.expr) -> str | None:
    """The name an expression ends in: ``X`` for ``X`` and ``m.X``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_no_dead_exception_class():
    """Every exception or warning class of the package is raised, or given
    to ``warnings.warn`` as its category, somewhere in the package, or is a
    base of a class that is; so no class outlives its last ``raise``."""
    trees = parsed_modules()
    bases = {
        node.name: [last_name(base) for base in node.bases]
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    builtin = {
        name
        for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }

    def is_exception(name: str | None) -> bool:
        return name in builtin or any(is_exception(base) for base in bases.get(name, ()))

    live = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                live.add(last_name(exc))
            elif isinstance(node, ast.Call) and last_name(node.func) == "warn":
                category = node.args[1:2] + [k.value for k in node.keywords if k.arg == "category"]
                live.update(last_name(arg) for arg in category)
    frontier = list(live)
    while frontier:
        for base in bases.get(frontier.pop(), ()):
            if base not in live:
                live.add(base)
                frontier.append(base)
    dead = [name for name in bases if is_exception(name) and name not in live]
    assert not dead, f"exception classes never raised: {dead}"


def test_worker_outcome_holds_no_dict():
    """A worker hands back typed products; the merge derives anything keyed
    from them, so no dict travels back from a worker process."""
    for name, hint in typing.get_type_hints(RecordingOutcome).items():
        for kind in (hint, *typing.get_args(hint)):
            assert (typing.get_origin(kind) or kind) is not dict, name


def test_results_file_is_declared_records():
    """Every object in a results file is a declared record or a mapping to
    records, so ``decode`` types each cell and refuses missing and unknown
    keys. ``config`` is the one untyped field, since it holds ``RunConfig``
    without ``parallelism``; ``check_results`` decodes it as one."""
    hints = dict(typing.get_type_hints(PipelineResult))
    del hints["config"]
    seen = set()
    while hints:
        name, hint = hints.popitem()
        for kind in (hint, *typing.get_args(hint)):
            if (typing.get_origin(kind) or kind) is dict:
                args = typing.get_args(kind)
                assert args and is_dataclass(args[1]), f"{name}: {kind}"
            elif is_dataclass(kind) and kind not in seen:
                seen.add(kind)
                hints.update(
                    (f"{name}.{field}", inner) for field, inner in typing.get_type_hints(kind).items()
                )


def test_submodule_import_gives_the_module():
    assert isinstance(align_module, types.ModuleType)
    assert align_module.__name__ == "talkmetrics.align"


def test_package_exports_only_its_version():
    """Every name is imported from its module; the package namespace holds
    ``__version__`` and the submodules loaded so far."""
    public = {
        name: value for name, value in vars(talkmetrics).items() if not name.startswith("_")
    }
    for name, value in public.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"talkmetrics.{name}", name
    assert isinstance(talkmetrics.__version__, str)


def test_readme_imports_resolve():
    """Every ``from talkmetrics... import`` in a README ``python`` block names
    a module and a name that exist; the blocks are parsed, not run."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    imports = [
        node
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("talkmetrics")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def named_in(tree: ast.AST) -> Counter:
    """How often each name appears below ``tree``: as a name, an attribute
    or an imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Each public top-level function and class of a module, and each public
    method and property of those classes, with its definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, kinds[:2]) and not item.name.startswith("_")
                ]
    return found


def test_every_public_name_is_used():
    """Every public function, class, method and property of the package is
    named somewhere it serves a caller: in the package outside its own
    definition, in the bench scripts, in a README ``python`` block or among
    the acceptance tests' imports. Code that only tests call does not stay."""
    trees = parsed_modules()
    used = sum((named_in(tree) for tree in trees.values()), Counter())
    for path in sorted((ROOT / "bench").glob("*.py")):
        used += named_in(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE):
        used += named_in(ast.parse(block))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in acceptance.body:
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    for module, tree in trees.items():
        for qualified, node in public_definitions(tree):
            name = qualified.rpartition(".")[2]
            assert used[name] > named_in(node)[name], f"{module}.{qualified} is never used"
