"""Layout checks on the package source: no module imports a name it never
uses, every exported name resolves, and every name the package exports is
read by another top-level definition of the package or named in
tests/test_acceptance.py. The first two catch what a deletion leaves behind,
the third what a deletion should take, and so does the fourth: every
top-level function and class is named elsewhere.
README.md's table of what a spec keeps names every key family it is kept
under.
`ergmart/__init__.py` imports names only to export them, so the first test
skips it. The last test keeps a process pool's modules out of the CLI's
start-up and out of a selfcheck on forked workers; the test after it keeps
numpy.random, the generators and the selfcheck out of an explicit run."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ergmart"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of the module, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = _tree(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all_entries(tree))  # a re-export is a use
    unused = {n: line for n, line in _imported(tree).items() if n not in used}
    assert not unused, f"ergmart/{name}.py imports names it never uses: {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"ergmart.{name}")
    missing = [entry for entry in _all_entries(_tree(name)) if not hasattr(module, entry)]
    assert not missing, f"ergmart.{name}.__all__ names missing attributes: {missing}"


def test_every_package_import_resolves():
    tree = _tree("__init__")
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module("." * node.level + (node.module or ""), "ergmart")
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    assert not missing, f"ergmart/__init__.py imports missing names: {missing}"


def _loads(tree: ast.AST) -> set[str]:
    """Names and attributes the code loads."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names and attributes, and its imports."""
    return set(_imported(tree)) | _loads(tree)


def _defined(node: ast.stmt) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_package_export_is_read():
    """A name that ergmart/__init__.py imports from a module is read by a
    top-level definition of the package other than its own (an import is
    not a read), or named in tests/test_acceptance.py; anything else is
    public surface that nothing uses. A mention in README.md does not keep
    a name alive."""
    reads = [_loads(node) - _defined(node) for name in MODULES for node in _tree(name).body]
    acceptance = _read_names(ast.parse(Path(__file__).with_name("test_acceptance.py").read_text()))
    unread = [f"{node.module}.{alias.name}" for node in _tree("__init__").body
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if alias.name not in acceptance and not any(alias.name in read for read in reads)]
    assert not unread, f"ergmart/__init__.py exports names nothing else reads: {unread}"


def test_every_top_level_definition_is_named_elsewhere():
    """Each top-level function and class of the package is named on some
    line of the package other than its own definition: code that nothing
    calls, exports or mentions is dead."""
    lines = [(name, k, line) for name in ["__init__", *MODULES]
             for k, line in enumerate((PACKAGE / f"{name}.py").read_text().splitlines(), 1)]
    unnamed = []
    for name in MODULES:
        for node in _tree(name).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                word = re.compile(rf"\b{node.name}\b")
                if not any(word.search(line) for where, k, line in lines
                           if (where, k) != (name, node.lineno)):
                    unnamed.append(f"{name}.{node.name}")
    assert not unnamed, f"top-level definitions named nowhere else: {unnamed}"


def _kept_families() -> set[str]:
    """The family of every key the package passes to `keep` or writes to
    `kept`: a string key, or the string first entry of a tuple key. A key
    that is neither fails, so no family escapes the check."""
    families = set()
    for name in MODULES:
        for node in ast.walk(_tree(name)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "keep"):
                key = node.args[0]
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "kept"):
                key = node.slice
            else:
                continue
            key = key.elts[0] if isinstance(key, ast.Tuple) else key
            assert isinstance(key, ast.Constant) and isinstance(key.value, str), (
                f"ergmart/{name}.py:{node.lineno} keeps a value under no named family")
            families.add(key.value)
    return families


def test_readme_table_names_every_kept_family():
    """README's "What each object keeps" table has one `ProcessSpec` row per
    key family that the package keeps on a spec, named as the row's first
    code span ("family" or ("family", ...)), and no other."""
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    table = readme[readme.index("## What each object keeps"):]
    rows = [line for line in table.splitlines() if line.startswith("| `ProcessSpec` | `")]
    named = [re.match(r'\| `ProcessSpec` \| `\(?"(\w+)"', row) for row in rows]
    assert all(named), [row for row, match in zip(rows, named) if not match]
    families = _kept_families()
    assert {"sup", "cut", "norm", "kernel", "limit", "periods"} <= families
    assert sorted(match[1] for match in named) == sorted(families)


def test_cli_start_up_leaves_the_pool_modules_unloaded():
    """`ergmart.cli` starts without a process pool's modules, and a
    selfcheck on forked workers does not load them either: the workers are
    forked with `os` alone, so `multiprocessing` and `concurrent.futures`
    stay out of every run."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("the selfcheck forks only where the OS lists a process's threads")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    probe = ("import os, sys, ergmart.cli, ergmart.selfcheck as sc\n"
             "pool = {'multiprocessing', 'concurrent.futures'}\n"
             "print(sorted(pool & set(sys.modules)))\n"
             "forks, fork = [], os.fork\n"
             "os.fork = lambda: forks.append(1) or fork()\n"
             "sc._usable_cpus = lambda: 2\n"
             "assert sc.run_selfcheck(budget=2).ok\n"
             "print(len(forks), sorted(pool & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-W", "error", "-c", probe], capture_output=True,
                         text=True, timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "2 []"]


def test_an_explicit_run_loads_neither_the_generators_nor_the_selfcheck(tmp_path):
    """`build_experiment` of every explicit config in configs/ and an
    `ergmart run` of demo.json import none of the modules that only random
    fragments, `gen` or `selfcheck` use; one random fragment loads
    numpy.random and the generators, and nothing more of them."""
    configs = PACKAGE.parent.parent / "configs"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    probe = ("import contextlib, io, json, pathlib, sys\n"
             "from ergmart import cli\n"
             "from ergmart.config import build_experiment\n"
             "unused = {'numpy.random', 'ergmart.generators', 'ergmart.fuzz',\n"
             "          'ergmart.invariants', 'ergmart.selfcheck'}\n"
             "def loaded():\n"
             "    print(sorted(unused & set(sys.modules)))\n"
             f"paths = sorted(pathlib.Path({str(configs)!r}).glob('*.json'))\n"
             "explicit = [json.loads(p.read_text()) for p in paths\n"
             "            if '\"random\"' not in p.read_text()]\n"
             "print(len(explicit))\n"
             "for cfg in explicit:\n"
             "    build_experiment(cfg)\n"
             "loaded()\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.main(['run', '--config', {str(configs / 'demo.json')!r},\n"
             f"                     '--out', {str(tmp_path)!r}])\n"
             "print(code)\n"
             "loaded()\n"
             "build_experiment(dict(explicit[0], observable={'kind': 'random'}))\n"
             "loaded()")
    res = subprocess.run([sys.executable, "-W", "error", "-c", probe], capture_output=True,
                         text=True, timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    count, *rest = res.stdout.splitlines()
    assert int(count) >= 1
    assert rest == ["[]", "0", "[]", "['ergmart.generators', 'numpy.random']"]
