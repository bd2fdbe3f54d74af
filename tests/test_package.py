from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import pipal

MODULES = ["pipal"] + [f"pipal.{m.name}" for m in pkgutil.iter_modules(pipal.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert sorted(unused) == []


BLOCK_SUFFIXES = ("_BASE", "_BLOCK", "_GRAIN", "_BATCH")


@pytest.mark.parametrize("name", [m for m in MODULES if m != "pipal.runtime"])
def test_block_sizes_come_from_scratch_words(name):
    # runtime.SCRATCH_WORDS is the one block, leaf, grain and batch constant
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    names = {t.id for t in targets if isinstance(t, ast.Name)}
    assert sorted(n for n in names if n.endswith(BLOCK_SUFFIXES)) == []


INDEX_CASTS = {("view", "int64"), ("astype", "int64"), ("astype", "intp")}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "pipal.runtime"])
def test_indexes_come_from_ix(name):
    # runtime.ix is the one place a word array becomes an int64 index
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    casts = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.args and isinstance(node.args[0], ast.Attribute)
             and (node.func.attr, node.args[0].attr) in INDEX_CASTS]
    assert casts == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "pipal.runtime"])
def test_run_starts_come_from_runtime(name):
    # runtime.run_starts is the one "first of each equal run" mask
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    masks = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "not_equal" and len(node.args) >= 2
             and ast.unparse(node.args[0]).endswith("[1:]")
             and ast.unparse(node.args[1]).endswith("[:-1]")]
    assert masks == []


@pytest.mark.parametrize("name", MODULES)
def test_every_private_definition_is_referenced(name):
    # a module-level _helper that nothing in the package names is dead code
    trees = {m: ast.parse(inspect.getsource(importlib.import_module(m)))
             for m in MODULES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    defined = {node.name for node in trees[name].body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
    assert sorted(n for n in defined if n.startswith("_") and n not in used) == []


def test_baselines_copy_no_array_to_a_list():
    # the sequential oracles read their arrays through memoryviews: a
    # .tolist() copy costs about 40 bytes a word and sets a verified run's RSS
    tree = ast.parse(inspect.getsource(importlib.import_module("pipal.baselines")))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "tolist"]
    assert calls == []


def test_decompose_driver_has_one_caller_per_loop():
    # the round engine and the relaxed block loop are the only round loops;
    # every other relaxed pass runs a step through the block loop
    root = pathlib.Path(pipal.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "decompose_driver" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"detres.run_rounds", "relaxed._step_rounds"}


def test_no_two_algorithms_share_a_body():
    # one algorithm has one table entry; a second would run it twice over
    by_body = {}
    for name, algo in importlib.import_module("pipal.ops").ALGOS.items():
        by_body.setdefault(id(algo.body), []).append(name)
    assert [names for names in by_body.values() if len(names) > 1] == []
