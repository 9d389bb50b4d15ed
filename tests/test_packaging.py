"""Packaging metadata: it names only files that exist, and its console
script is the CLI's entry point; ``python -m pitomo`` runs the same CLI.
Every public name of the package has a caller or is exported, and every
public constant and every private top-level name a reader that reads it
as that module's.  Every text file the package reads or writes is UTF-8,
and only ``_fields`` opens one for writing.  The package's one cache is
the phase-grid memo."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import pitomo
import pitomo.cli

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_matches_the_tree():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    project = meta["project"]
    readme = project.get("readme")
    named = [readme.get("file") if isinstance(readme, dict) else readme,
             project.get("license", {}).get("file"),
             *meta["tool"]["setuptools"]["packages"]["find"]["where"],
             *meta["tool"]["pytest"]["ini_options"]["testpaths"],
             *meta["tool"]["pytest"]["ini_options"]["pythonpath"]]
    assert [p for p in named if p is not None and not (ROOT / p).exists()] == []

    target = project["scripts"]["pitomo"]
    assert target == "pitomo.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is pitomo.cli.main


def test_package_runs_with_python_dash_m():
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pitomo", "--version"],
                          capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == pitomo.__version__


def _identifiers(paths):
    """Every name and attribute that the given modules read or call; an
    assignment to a name is not a read."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def test_every_public_name_has_a_caller_or_is_exported():
    # A top-level public function or class of src/pitomo, or a public
    # method of any such class, must be used by name somewhere in the
    # package or in perfbench/ (the benchmark drives the package as a
    # client), or be exported in pitomo.__all__.  So must a public
    # UPPER_CASE constant of a module M, read as M's (see
    # _qualified_reads).  Imports and assignments do not count.
    modules = sorted((ROOT / "src" / "pitomo").glob("*.py"))
    readers = modules + sorted((ROOT / "perfbench").glob("*.py"))
    used = _identifiers(readers)
    reads = _qualified_reads(readers)
    exported = set(pitomo.__all__)
    unused = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unused += [f"{path.name}: {t.id}" for t in targets
                       if isinstance(t, ast.Name) and t.id.isupper()
                       and not t.id.startswith("_")
                       and (path.stem, t.id) not in reads
                       and t.id not in exported]
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            names = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                names += [(f"{node.name}.{item.name}", item.name)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("_")]
            unused += [f"{path.name}: {where}" for where, name in names
                       if name not in used and name not in exported]
    assert unused == []
    assert [n for n in pitomo.__all__ if not hasattr(pitomo, n)] == []


def _source_module(node: ast.ImportFrom):
    """(package, module) that an import in src/pitomo or perfbench/ reads
    from: ``(True, None)`` for the package itself, ``(False, M)`` for its
    module M, None for anything else."""
    if node.level == 1 or node.module == "pitomo":
        return (True, None) if node.module in (None, "pitomo") else (False, node.module)
    if node.level == 0 and (node.module or "").startswith("pitomo."):
        return False, node.module.split(".")[1]
    return None


def _qualified_reads(paths):
    """Every (module, name) pair that the given files read, for the modules
    M of src/pitomo: a name M itself loads, a name another file imports
    from M and then loads, and an attribute read off M (``_k._name`` after
    ``from . import _kernels as _k``, or ``pitomo.M._name``)."""
    reads = set()
    for path in paths:
        own = path.stem if path.parent.name == "pitomo" else None
        modules, imported, loads, attrs = {}, {}, set(), []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and _source_module(node):
                package, module = _source_module(node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    if package:
                        modules[local] = alias.name
                    else:
                        imported[local] = (module, alias.name)
            elif isinstance(node, ast.Import):
                modules.update((alias.asname, alias.name.split(".")[1])
                               for alias in node.names if alias.asname
                               and alias.name.startswith("pitomo."))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.append(node)
        if own is not None:
            reads |= {(own, name) for name in loads}
        reads |= {source for local, source in imported.items() if local in loads}
        for node in attrs:
            base = node.value
            if isinstance(base, ast.Name) and base.id in modules:
                reads.add((modules[base.id], node.attr))
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                    and base.value.id == "pitomo"):
                reads.add((base.attr, node.attr))
    return reads


def test_every_private_name_has_a_reader():
    # A top-level private function, class or constant of a module M of
    # src/pitomo must be read by M, or imported from M and read, or read
    # as an attribute of M, somewhere in the package or in perfbench/;
    # tests do not count, so a helper left behind by a refactor cannot
    # linger, nor hide behind a same-named read in another module.
    modules = sorted((ROOT / "src" / "pitomo").glob("*.py"))
    reads = _qualified_reads(modules + sorted((ROOT / "perfbench").glob("*.py")))
    unread = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{path.name}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and (path.stem, name) not in reads]
    assert unread == []


def _call_name(node: ast.Call):
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _is_os_call(node: ast.Call, name: str) -> bool:
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == name
            and isinstance(func.value, ast.Name) and func.value.id == "os")


def test_every_text_file_is_opened_as_utf8():
    # A text read or write whose encoding follows the locale reads a file
    # another machine wrote differently, or fails on it without naming it.
    # Every open(), os.fdopen(), read_text() and write_text() call in
    # src/pitomo passes encoding=; os.open() gives a descriptor, not text,
    # and the one writer wraps it with os.fdopen().
    missing = []
    for path in sorted((ROOT / "src" / "pitomo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or _is_os_call(node, "open"):
                continue
            name = _call_name(node)
            if (name in ("open", "fdopen", "read_text", "write_text")
                    and all(k.arg != "encoding" for k in node.keywords)):
                missing.append(f"{path.name}:{node.lineno}: {name}()")
    assert missing == []


def _opens_for_writing(node: ast.Call) -> bool:
    """Whether ``node`` may open a file for writing: os.open, fdopen,
    write_text, write_bytes, or an open() whose mode is not a literal
    read mode."""
    name = _call_name(node)
    if name in ("write_text", "write_bytes", "fdopen"):
        return True
    if name != "open":
        return False
    if _is_os_call(node, "open"):
        return True
    # open(path, mode) or path.open(mode)
    modes = [k.value for k in node.keywords if k.arg == "mode"]
    modes += node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
    return not all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                   and set(m.value) <= set("rbt") for m in modes)


def test_only_fields_opens_a_file_for_writing():
    # _fields.rewrite is the package's one writer: it rewrites a file in
    # place and cuts it to length, never truncating it to empty first.
    # No other module opens a file for writing.
    writers = []
    for path in sorted((ROOT / "src" / "pitomo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                writers.append(f"{path.name}: {ast.unparse(node.func)}()")
    assert writers == ["_fields.py: os.open()", "_fields.py: os.fdopen()"]
    assert not any("O_TRUNC" in path.read_text(encoding="utf-8")
                   for path in (ROOT / "src" / "pitomo").glob("*.py"))


def test_the_grid_memo_is_the_one_cache():
    # Work that depends on a phase grid alone goes through
    # acquisition.once_per_grid, with its one key and one bound, rather
    # than through a functools cache of its own.
    caches = []
    for path in sorted((ROOT / "src" / "pitomo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                caches += [f"{path.stem}: {a.name}" for a in node.names
                           if a.name in ("cache", "lru_cache")]
            elif (isinstance(node, ast.Attribute)
                    and node.attr in ("cache", "lru_cache")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"):
                caches.append(f"{path.stem}: {ast.unparse(node)}")
    assert caches == ["acquisition: functools.lru_cache"]
    assert hasattr(pitomo.acquisition._held, "cache_info")
