"""Every parameter with a default in ``src/symidx`` is passed by some caller.

A default that no call in ``src``, ``scripts``, ``bench`` or ``tests``
ever overrides is a setting nobody sets: it belongs inline, as a
constant.  The scan is syntactic.  A call matches a definition by name,
so ``obj.validate(...)`` counts for every method called ``validate``, and
``Class(...)`` counts for ``Class.__init__``.  A parameter is passed when
some matching call gives it by keyword, or has enough positional
arguments to reach it; ``*args`` and ``**kwargs`` at a call reach every
parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symidx"
CALLER_DIRS = ("src", "scripts", "bench", "tests")


def _trees(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(), filename=str(path))


def _defaulted_parameters():
    """(file, definition name, parameter, position or None) for every
    parameter with a default; the position skips ``self``/``cls``, and is
    None for a keyword-only parameter."""
    out = []
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    item.owner = node.name
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = getattr(node, "owner", None)
            name = owner if node.name == "__init__" and owner else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            if owner and positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            for i, a in enumerate(positional[first:], start=first):
                out.append((path.name, name, a.arg, i))
            for a, d in zip(args.kwonlyargs, args.kw_defaults):
                if d is not None:
                    out.append((path.name, name, a.arg, None))
    return out


def _calls():
    """Per called name: the largest positional count (inf with ``*args``)
    and the keywords passed (None stands for ``**kwargs``)."""
    calls = {}
    paths = [p for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    for _, tree in _trees(paths):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is None:
                continue
            most, keys = calls.setdefault(name, [0, set()])
            count = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) \
                else len(node.args)
            calls[name][0] = max(most, count)
            keys.update(k.arg for k in node.keywords)
    return calls


def never_passed():
    calls = _calls()
    missing = []
    for file, name, param, pos in _defaulted_parameters():
        most, keys = calls.get(name, (0, set()))
        if param in keys or None in keys or (pos is not None and most > pos):
            continue
        missing.append("%s:%s(%s)" % (file, name, param))
    return missing


def test_scan_finds_the_package_parameters():
    params = _defaulted_parameters()
    assert ("splin.py", "rotation_path", "samples", 2) in params
    assert ("errors.py", "ResolutionError", "interval", 1) in params
    assert ("cli.py", "main", "argv", 0) in params


def test_every_defaulted_parameter_is_passed_somewhere():
    assert never_passed() == []


def test_stack_marker_is_read_only_in_splin():
    # every evaluator a path or family holds runs on stacks (splin adapts user
    # evaluators on construction), so no other module branches on the marker
    readers = set()
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node in ast.walk(tree):
            # a name, an attribute, an imported alias or a definition
            names = (getattr(node, key, None) for key in ("id", "attr", "name"))
            if "_is_stacked" in names:
                readers.add(path.name)
    assert readers == {"splin.py"}
