"""Caller audit: every public name in `src/semcom` is used by the program.

A public top-level function or class is used when its name appears in the
code of `src/semcom/*.py` or `bench/*.py` as an identifier, an attribute, an
imported name, a keyword argument or a word of a string literal. A public
method or class field is used only through an attribute, a keyword argument
or a word of a string literal: a bare identifier of the same name is a local
variable, not a use. Comments and docstrings do not count, and neither do
tests. A name with no such use must be listed in `PENDING` with the ROADMAP
item that gives it a caller; a name that gains a caller must leave `PENDING`.

Private helpers, `_`-prefixed top-level functions and classes and
`_`-prefixed methods other than dunders, are held to the same rule with no
pending list: a helper that a refactor leaves without a caller is deleted.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "semcom"

ITEM_3 = "ROADMAP item 3: evaluate"
ITEM_4 = "ROADMAP item 4: fit and the CLI"
PENDING = {
    "stack_to_map": ITEM_3,
    "raw_rgb_bits": ITEM_3,
    "miou": ITEM_3,
    "pixel_metrics": ITEM_3,
    "load_state": ITEM_3,
    "checkpoint_every": ITEM_4,
    "MetricsWriter": ITEM_4,
    "psnr_counts": ITEM_4,
}


def _public_names(tree):
    """(name, member) of each public definition; member marks a method or class field."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield name, True


def _private_names(tree):
    """(name, member) of each private definition: a `_`-prefixed top-level
    function or class, or a `_`-prefixed method other than a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                        and not item.name.endswith("__")):
                    yield item.name, True


def _used_words(tree):
    """(word, bare) of each use; bare marks an identifier or an imported name."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, True
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, False
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], True
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            for word in re.findall(r"\w+", node.value):
                yield word, False


def _unused(names_of):
    """Names that `names_of(tree)` defines in `src/semcom` and no code uses."""
    sources = sorted(SRC.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources + sorted((ROOT / "bench").glob("*.py"))}
    used, used_as_member = set(), set()
    for tree in trees.values():
        for word, bare in _used_words(tree):
            used.add(word)
            if not bare:
                used_as_member.add(word)
    return {name for path in sources for name, member in names_of(trees[path])
            if name not in (used_as_member if member else used)}


def test_every_public_name_has_a_caller_or_a_pending_item():
    assert sorted(_unused(_public_names)) == sorted(PENDING)


def test_every_private_helper_has_a_caller():
    assert sorted(_unused(_private_names)) == []
