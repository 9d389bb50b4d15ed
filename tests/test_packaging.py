"""Packaging metadata: it names only files that exist, and its console
script is the CLI's entry point; ``python -m pitomo`` runs the same CLI."""

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
             *meta["tool"]["pytest"]["ini_options"]["testpaths"]]
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
