"""Source hygiene: no unused imports and no module-level functions nothing calls.

Every module under src/qkdsim is parsed with ast, never imported, so the
check sees the code as written.  __init__.py re-exports its imports and
`from __future__` imports are directives, so both are exempt; a name that
appears only in a quoted annotation counts as used, and a re-export from
__init__.py counts as a use of the function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qkdsim"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree):
    """Every bare name the module reads, quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names(ast.parse(node.value, mode="eval"))
    return names


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports_or_unreferenced_private_functions():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        referenced |= _names(tree) | set(_imported(tree))
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}

    problems = []
    for name, tree in trees.items():
        if name != "__init__.py":
            used = _names(tree)
            problems += [f"{name}: unused import {imp}"
                         for imp in _imported(tree) if imp not in used]
        problems += [f"{name}: function {node.name} is never referenced"
                     for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and not node.name.startswith("__") and node.name not in referenced]
    assert not problems, "\n".join(problems)
