"""Every module-level function, class and public method of ``cstarpow`` is
reached from the command line.

An AST pass over the package starts at ``cli.main`` and the suite table
``acceptance._SUITES``.  A bare name reaches the module-level definition it
names, in its own module or in the one it is imported from by
``from .x import y``.  An attribute ``m.y`` of an imported package module
reaches that module's ``y``; any other attribute ``.y``, except on a module
from outside the package, reaches every method named ``y``.  A reached class
reaches its bases, its class body and its dunder methods.  Methods are
matched by name alone, so the pass overstates what is reached, never
understates it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cstarpow

SRC = Path(cstarpow.__file__).parent
ROOTS = ("cli.main", "acceptance._SUITES")

# What no CLI path reaches yet, and what keeps it.  A kept class keeps its
# methods.
KEPT = {
    "classify.isotropy_group": "ROADMAP item 2, the Mackey machine",
    "classify.intertwining_cocycle": "ROADMAP item 2, the Mackey machine",
    "classify.CocycleData": "ROADMAP item 2, the Mackey machine",
    "groups.ProjectiveRep": "ROADMAP item 2, the Mackey machine",
    "algebra.Representation": "ROADMAP item 3, polynomial representations",
    "groups.sn_irrep": "bench/spans.py FUNCTIONS, the test oracle, ROADMAP "
                       "item 2",
    "algebra.power_map": "bench/spans.py FUNCTIONS",
    "structure.spanned_algebra": "bench/spans.py FUNCTIONS",
    "classify.schur_weyl_rep": "bench/spans.py FUNCTIONS",
}


def _references(nodes):
    """The names, and the (value name or None, attribute) pairs, read
    anywhere in ``nodes``."""
    names, attrs = set(), set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add((getattr(node.value, "id", None), node.attr))
    return names, attrs


def surface():
    """The checked definitions, as ``module.name`` or ``module.Class.method``;
    the graph, from every node to its module, the names it reads, the
    attributes it reads and the nodes it reaches outright; the method keys by
    method name; and each module's relative imports, None for a module from
    outside the package."""
    defs, graph, methods, imports = [], {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        if mod in ("__init__", "__main__"):
            continue
        imports[mod] = local = {}
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local[alias.asname or alias.name] = (
                        f"{stmt.module}.{alias.name}" if stmt.module
                        else alias.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    local[alias.asname or alias.name.split(".")[0]] = None
            elif isinstance(stmt, ast.FunctionDef):
                defs.append(f"{mod}.{stmt.name}")
                graph[defs[-1]] = (mod, *_references([stmt]), [])
            elif isinstance(stmt, ast.ClassDef):
                key = f"{mod}.{stmt.name}"
                defs.append(key)
                fns = [s for s in stmt.body if isinstance(s, ast.FunctionDef)]
                body = [s for s in stmt.body if s not in fns]
                graph[key] = (mod, *_references(
                    [*stmt.bases, *stmt.decorator_list, *body]),
                    [f"{key}.{fn.name}" for fn in fns
                     if fn.name.startswith("__")])
                for fn in fns:
                    mkey = f"{key}.{fn.name}"
                    if not fn.name.startswith("_"):
                        defs.append(mkey)
                    graph[mkey] = (mod, *_references([fn]), [])
                    methods.setdefault(fn.name, []).append(mkey)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                refs = _references([stmt.value] if stmt.value else [])
                for t in targets:
                    if isinstance(t, ast.Name):
                        graph[f"{mod}.{t.id}"] = (mod, *refs, [])
    return defs, graph, methods, imports


def unreached(extra_roots=()):
    """The checked definitions that the roots and ``extra_roots`` do not
    reach; a method counts as reached only when its class is."""
    defs, graph, methods, imports = surface()
    seen, stack = set(), [*ROOTS, *extra_roots]
    while stack:
        key = stack.pop()
        if key in seen or key not in graph:
            continue
        seen.add(key)
        mod, names, attrs, direct = graph[key]
        stack += direct
        for name in names:
            target = imports[mod].get(name, f"{mod}.{name}")
            if target is not None:
                stack.append(target)
        for value, attr in attrs:
            target = imports[mod].get(value, "")
            if target is None:
                continue
            if value in imports[mod] and "." not in target:
                stack.append(f"{target}.{attr}")
            else:
                stack += methods.get(attr, [])
    return [d for d in defs if d not in seen
            or d.count(".") == 2 and d.rsplit(".", 1)[0] not in seen]


def test_every_definition_is_reached_from_the_cli():
    graph = surface()[1]
    roots = [k for k in graph if ".".join(k.split(".")[:2]) in KEPT]
    assert unreached(roots) == []


def test_kept_names_exist_and_no_cli_path_reaches_them():
    graph = surface()[1]
    left = set(unreached())
    assert [k for k in KEPT if k not in graph or k not in left] == []
