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

A setting, a field with a default in a dataclass of `src/semcom`, is used when
some call of its class in `src/semcom/*.py` or `bench/*.py` passes it, by
keyword or by position. A setting that only ever takes its default is a
constant; one waiting for a caller is listed in `PENDING_SETTINGS`.

A parameter default, on a function or method defined at module or class level
in `src/semcom`, is held to the same rule: some call of that name in
`src/semcom/*.py` or `bench/*.py` passes the parameter, or it is listed in
`PENDING_DEFAULTS`. `__init__` is called through its class name. Nested
closures (a default there binds a loop variable) and `__call__` (called
through instances) are not audited.
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
    "MetricsWriter": ITEM_4,
    "psnr_counts": ITEM_4,
}
ITEM_5 = "ROADMAP item 5: the receiver's map decision"
PENDING_SETTINGS = {
    "FdsConfig.avg_kernel": ITEM_5,
    "FdsConfig.max_kernel": ITEM_5,
    "FdsConfig.threshold": ITEM_5,
    "TrainConfig.learning_rate": ITEM_4,
    "TrainConfig.ema_decay": ITEM_4,
    "TrainConfig.checkpoint_every": ITEM_4,
}
PENDING_DEFAULTS = {"miou.classes": ITEM_3}


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


def _trees():
    """(sources, trees): the `src/semcom` files, and the parse of each program file."""
    sources = sorted(SRC.glob("*.py"))
    return sources, {path: ast.parse(path.read_text())
                     for path in sources + sorted((ROOT / "bench").glob("*.py"))}


def _unused(names_of):
    """Names that `names_of(tree)` defines in `src/semcom` and no code uses."""
    sources, trees = _trees()
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


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def _unpassed_settings():
    """`Class.field` of each dataclass field with a default that no call passes."""
    sources, trees = _trees()
    fields = {}  # class name -> (field names in order, fields with a default)
    for path in sources:
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                items = [item for item in node.body
                         if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
                fields[node.name] = ([item.target.id for item in items],
                                     [item.target.id for item in items if item.value is not None])
    passed = {name: set() for name in fields}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in fields:
                continue
            order = fields[name][0]
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                passed[name].update(order)  # *args or **kwargs may pass any field
            else:
                passed[name].update(order[:len(node.args)], (k.arg for k in node.keywords))
    return {f"{name}.{field}" for name, (_, defaults) in fields.items()
            for field in defaults if field not in passed[name]}


def test_every_setting_is_passed_or_pending():
    """A setting that no program path changes is a module constant, not an option."""
    assert sorted(_unpassed_settings()) == sorted(PENDING_SETTINGS)


def _unpassed_defaults():
    """`function.parameter` (or `Class.method.parameter`) of each parameter
    default that no call passes."""
    sources, trees = _trees()
    defs = {}  # label -> (name calls use, positional parameters, every parameter, defaulted ones)
    for path in sources:
        for node in trees[path].body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in members:
                if not isinstance(item, ast.FunctionDef) or item.name == "__call__":
                    continue
                a = item.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if not defaulted:
                    continue
                method = item is not node
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                if method and not static:
                    positional = positional[1:]  # self or cls is bound
                label = f"{node.name}.{item.name}" if method else item.name
                callee = node.name if item.name == "__init__" else item.name
                defs[label] = (callee, positional, positional + [p.arg for p in a.kwonlyargs], defaulted)
    passed = {label: set() for label in defs}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for label, (callee, positional, every, _) in defs.items():
                if callee != name:
                    continue
                if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                    passed[label].update(every)  # *args or **kwargs may pass any parameter
                else:
                    passed[label].update(positional[:len(call.args)], (k.arg for k in call.keywords))
    return {f"{label}.{p}" for label, (_, _, _, defaulted) in defs.items()
            for p in defaulted if p not in passed[label]}


def test_every_parameter_default_is_passed_or_pending():
    """A default that no call overrides is a constant, not a parameter."""
    assert sorted(_unpassed_defaults()) == sorted(PENDING_DEFAULTS)
