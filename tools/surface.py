"""Size of the package's surface: source lines, public names, knobs and CLI
flags.

Prints the non-blank lines and the public names of every module under
``src/aqm_lab``, and the totals of both: a public name is a module-level
function, class or assigned name without a leading underscore (imports are
not counted). Then comes the knob count: the defaulted parameters of every
function and method (lambdas excluded), plus the field defaults of
dataclasses, in every module except ``cli``, ``report`` and
``__init__``. Class attributes of classes that are not dataclasses
(``MetricField.dim``) are not knobs. The CLI's surface is its flags
instead: last comes the number of parameters of every verb in
``cli.VERBS``, summed over the verbs (each verb's ``--config`` not
counted). That imports the package from SRC_DIR.

    python tools/surface.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import importlib
import sys
from collections.abc import Iterator
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src" / "aqm_lab"
NO_KNOBS = frozenset({"cli", "report", "__init__"})


def non_blank_lines(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def public_names(source: str) -> set[str]:
    """The module-level functions, classes and assigned names of a module's
    source that do not start with an underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def knob_names(source: str) -> Iterator[str]:
    """Each knob of a module's source by qualified name, in source order:
    ``function.param``, ``Class.method.param``, ``Dataclass.field``; a
    nested function's name follows its enclosing one's."""
    def visit(node: ast.AST, scope: str) -> Iterator[str]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, args = scope + child.name, child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                              if d is not None]
                yield from (f"{name}.{a.arg}" for a in defaulted)
                yield from visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                name = scope + child.name
                if _is_dataclass(child):
                    yield from (f"{name}.{stmt.target.id}"
                                for stmt in child.body
                                if isinstance(stmt, ast.AnnAssign)
                                and stmt.value is not None)
                yield from visit(child, name + ".")
            else:
                yield from visit(child, scope)

    return visit(ast.parse(source), "")


def knobs(source: str) -> int:
    return sum(1 for _ in knob_names(source))


def cli_flags(src: Path) -> int:
    sys.path.insert(0, str(src.resolve().parent))
    verbs = importlib.import_module(f"{src.name}.cli").VERBS
    return sum(len(verb.params) for verb in verbs.values())


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else DEFAULT_SRC
    modules = sorted(src.glob("*.py"))
    total_lines = total_names = total_knobs = 0
    for path in modules:
        source = path.read_text()
        lines, names = non_blank_lines(path), len(public_names(source))
        total_lines += lines
        total_names += names
        print(f"{path.stem:<14}{lines:>6}{names:>6}")
        if path.stem not in NO_KNOBS:
            total_knobs += knobs(source)
    print(f"{'total':<14}{total_lines:>6}{total_names:>6}")
    print(f"{'knobs':<14}{total_knobs:>6}")
    print(f"{'flags':<14}{cli_flags(src):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
