"""Source hygiene: no unused imports, no module-level functions, private classes or
private methods nothing references, no public function or method without a caller
in src/ unless listed with its reason, no reads of the process environment, and
runtime dependencies that match the imports.

Every module under src/qkdsim is parsed with ast, never imported, so the
check sees the code as written; only the import-time check imports the
package, in a fresh interpreter.  __init__.py re-exports its imports and
`from __future__` imports are directives, so both are exempt; a name that
appears only in a quoted annotation counts as used, and a re-export from
__init__.py counts as a use of the function.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qkdsim"
PYPROJECT = SRC.parent.parent / "pyproject.toml"


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
        problems += [f"{name}: class {node.name} is never referenced"
                     for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name.startswith("_") and node.name not in referenced]
        problems += [f"{name}: method {cls.name}.{node.name} is never referenced"
                     for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for node in cls.body
                     if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                     and not node.name.startswith("__") and node.name not in referenced]
    assert not problems, "\n".join(problems)


# public names with no reference in src/, each kept for a caller outside it:
# an acceptance criterion (tests/test_acceptance.py), a benchmark entry point
# (perfbench/workloads.py) or an independent oracle the tests check fast paths against
_UNCALLED = {
    "adversary.eve_entangle": "acceptance: criterion 3's tap",
    "adversary.eve_disentangle": "acceptance: criterion 4's release",
    "adversary.eve_conditional_states": "benchmark: the exact workload",
    "adversary.gate_from_obj": "benchmark: the search workload reads candidates' gates",
    "analysis.verify_candidate": "acceptance and benchmark: criterion 5, search re-verification",
    "protocol.alice_encode": "acceptance: criteria 1 to 3's encode",
    "protocol.bob_decode": "acceptance: criteria 1 and 3's decode",
    "protocol.run_session_branches": "benchmark: the exact workload's branch count",
    "qudit.RegisterLayout.index_of": "acceptance: criterion 3's expected amplitudes",
    "qudit.PureState.tensor": "acceptance: criterion 4's released memory",
    "qudit.DensityMatrix.validate": "oracle: Hermitian, unit trace and PSD",
    "qudit.apply_gate_dense": "oracle and acceptance: criterion 6's dense path",
    "qudit.partial_trace": "acceptance: criterion 2's reduced state",
    "qudit.schmidt_rank": "acceptance: criteria 3 and 4's memory rank",
    "qudit.von_neumann_entropy": "oracle: diagnose's entropy is checked against it",
    "qudit.states_equal_up_to_phase": "acceptance: criterion 1's restored carrier",
}


def _identifiers(node):
    """How often each identifier is read under node, as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_function_has_a_caller_or_a_reason():
    """A public module-level function, or a public method of a public class, needs a
    reference somewhere in src/ outside its own body; __init__.py's re-exports are
    not references.  The rest are the exact list _UNCALLED, each with its reason, so
    a listed name that gains a caller or disappears fails too.  A reference is any
    name or attribute that spells the function's name, so a clash hides one: a local
    `build` or `spectrum` counts for RoundTemplate.build and DensityMatrix.spectrum."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    read = sum((_identifiers(tree) for tree in trees.values()), Counter())
    uncalled = set()
    for module, tree in trees.items():
        functions = [(f"{module}.{node.name}", node) for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        functions += [(f"{module}.{cls.name}.{node.name}", node) for cls in tree.body
                      if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                      for node in cls.body if isinstance(node, ast.FunctionDef)]
        uncalled |= {name for name, node in functions if not node.name.startswith("_")
                     and read[node.name] == _identifiers(node)[node.name]}
    listed = set(_UNCALLED)
    assert uncalled == listed, (f"no caller and not listed: {sorted(uncalled - listed)}; "
                                f"listed but called or gone: {sorted(listed - uncalled)}")


def test_no_refusal_is_written_twice():
    # each refusal has one owner that every caller shares, so its rule and its
    # message cannot drift apart between copies
    places = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                places.setdefault(ast.unparse(node.exc), []).append(f"{path.name}:{node.lineno}")
    problems = [f"{', '.join(where)}: raise {exc}" for exc, where in places.items()
                if len(where) > 1]
    assert not problems, "\n".join(problems)


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # the scenario and the command line are a report's only inputs: an
    # environment variable would change its bytes from outside both
    problems = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
                problems.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                problems += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                             for alias in node.names if alias.name in _ENVIRONMENT]
    assert not problems, "\n".join(problems)


def _outside_functions(node):
    """Every node under node that no function body holds; decorators are outside."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            outside = child.decorator_list
        else:
            outside = [] if isinstance(child, ast.Lambda) else [child]
        for outer in outside:
            yield outer
            yield from _outside_functions(outer)


def test_every_cache_outside_a_function_is_bounded():
    # a cache that outlives a call keeps what it stores for the life of the
    # process, so each names a finite maxsize; one made in a function body dies with it
    problems = []
    for path in sorted(SRC.glob("*.py")):
        nodes = list(_outside_functions(ast.parse(path.read_text(encoding="utf-8"))))
        bounded = set()
        for node in nodes:
            if isinstance(node, ast.Call):
                size = node.args[0] if node.args else next(
                    (k.value for k in node.keywords if k.arg == "maxsize"), None)
                if (isinstance(size, ast.Constant) and type(size.value) is int
                        and size.value > 0):
                    bounded.add(node.func)
        problems += [f"{path.name}:{node.lineno}: {ast.unparse(node)} names no finite maxsize"
                     for node in nodes
                     if (getattr(node, "id", None) or getattr(node, "attr", None))
                     in ("lru_cache", "cache") and node not in bounded]
    assert not problems, "\n".join(problems)


# lists every lru_cache reachable from the qkdsim modules, as module.name or
# module.Class.name, with its current size
_CACHE_PROBE = """
import json, sys
import qkdsim.cli
sizes = {}
for name, module in sorted(sys.modules.items()):
    if not name.startswith("qkdsim"):
        continue
    for attr, obj in vars(module).items():
        owners = [(attr, obj)]
        if isinstance(obj, type) and obj.__module__ == name:
            owners = [(f"{attr}.{a}", o) for a, o in vars(obj).items()]
        for label, fn in owners:
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == name:
                sizes[f"{name}.{label}"] = fn.cache_info().currsize
print(json.dumps(sizes))
"""


def test_importing_the_cli_fills_no_cache():
    # the caches fill on first use, so importing the CLI, the first step of
    # every cold start, builds none of them
    proc = subprocess.run([sys.executable, "-c", _CACHE_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    assert {"qkdsim.qudit._gate_table", "qkdsim.qudit._split", "qkdsim.qudit._fold",
            "qkdsim.qudit.RegisterLayout.insert", "qkdsim.qudit.RegisterLayout.drop",
            "qkdsim.analysis._cut_plan", "qkdsim.serialize.template"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size} == {}


# prints the top-level modules a fresh interpreter holds after running argv[1]
_MODULES_PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""


def _third_party(names):
    return {name for name in names if name not in sys.stdlib_module_names
            and name not in ("__main__", "qkdsim")}


def _modules_after(statement):
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, statement],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return _third_party(json.loads(proc.stdout))


def test_importing_the_cli_loads_nothing_beyond_numpy():
    # the baseline also holds what site preloads, such as certifi
    assert _modules_after("import qkdsim.cli") <= _modules_after("import numpy")


def test_runtime_dependencies_match_the_imports():
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    block = re.search(r"^dependencies = \[(.*?)\]",
                      PYPROJECT.read_text(encoding="utf-8"), re.M | re.S).group(1)
    declared = {re.match(r"[\w.-]+", dep).group() for dep in re.findall(r'"([^"]+)"', block)}
    assert _third_party(imported) == declared
