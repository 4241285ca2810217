"""No function, class or method of the package is kept alive by the tests
alone: each one is referenced in ``src`` outside its own definition."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aqm_lab"

# what ``src`` defines and never references, each for a stated reason
ALLOWED = {
    # spans of the benchmark's layer table, which every Tier-1 run resolves
    # (tests/test_benchmark_layers.py); deleted once the table drops them
    # (ROADMAP items 1 and 2)
    "fd.central_diff",
    "hj.momentum_covector",
    "config_space.frame_coefficients",
    # argparse calls it on the parser it rejects a flag with
    "cli._Parser.error",
}


def definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those
    classes (dunder methods are called implicitly), by qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set:
    inside = {id(n) for n in ast.walk(skip)} if skip else set()
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if id(n) not in inside
            and isinstance(n, (ast.Name, ast.Attribute))}


def stranded(src: Path) -> set:
    trees = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py")}
    everywhere = {stem: referenced_names(tree) for stem, tree in trees.items()}
    found = set()
    for stem, tree in trees.items():
        elsewhere = set().union(*(names for other, names in everywhere.items()
                                  if other != stem))
        for qualname, node in definitions(tree):
            if node.name not in elsewhere \
                    and node.name not in referenced_names(tree, skip=node):
                found.add(f"{stem}.{qualname}")
    return found


def test_every_definition_in_src_is_referenced_in_src():
    assert stranded(SRC) == ALLOWED


def test_the_scan_sees_a_stranded_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n\n"
        "class Box:\n    def __init__(self):\n        self.v = used()\n\n"
        "    def unread(self):\n        return self.v\n")
    (tmp_path / "b.py").write_text("from a import Box\n\nBox()\n")
    assert stranded(tmp_path) == {"a.recursive", "a.Box.unread"}
