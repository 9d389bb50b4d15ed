"""Packaging metadata: it names only files that exist, and its console
script is the CLI's entry point; ``python -m pitomo`` runs the same CLI.
Every public name of the package has a caller or is exported, and every
public constant and every private top-level name a reader."""

import ast
import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

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
    # client), or be exported in pitomo.__all__; so must a public
    # UPPER_CASE module constant.  Imports and assignments do not count.
    modules = sorted((ROOT / "src" / "pitomo").glob("*.py"))
    used = _identifiers(modules + sorted((ROOT / "perfbench").glob("*.py")))
    exported = set(pitomo.__all__)
    unused = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unused += [f"{path.name}: {t.id}" for t in targets
                       if isinstance(t, ast.Name) and t.id.isupper()
                       and not t.id.startswith("_")
                       and t.id not in used and t.id not in exported]
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


def test_every_private_name_has_a_reader():
    # A top-level private function, class or constant of src/pitomo must
    # be read somewhere in the package or in perfbench/; tests do not
    # count, so a helper left behind by a refactor cannot linger.
    modules = sorted((ROOT / "src" / "pitomo").glob("*.py"))
    used = _identifiers(modules + sorted((ROOT / "perfbench").glob("*.py")))
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
                       and name not in used]
    assert unread == []
