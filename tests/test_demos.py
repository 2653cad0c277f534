import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def private_uses(source: str) -> list[str]:
    """The private names (one leading underscore, not dunders) a script
    imports from a `char2spec` module or reads off one."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    tree = ast.parse(source)
    modules = set()                 # local names bound to char2spec or what it exports
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "char2spec":
                    modules.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "char2spec":
            for alias in node.names:
                if private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(ast.unparse(node))
    return found


def test_the_private_name_check_on_synthetic_sources():
    assert private_uses("from char2spec.structure import _embed_block, choice_solve") == [
        "char2spec.structure._embed_block"]
    assert private_uses("import char2spec.structure as st\nst._embed_block(1, 2, 3)") == [
        "st._embed_block"]
    assert private_uses("import char2spec\nchar2spec.structure._x") == ["char2spec.structure._x"]
    assert private_uses("from char2spec import harnesses\nharnesses._hom_into") == [
        "harnesses._hom_into"]
    assert private_uses("import char2spec\nprint(char2spec.__version__)") == []
    assert private_uses("import random\nrandom._inst\nfrom os import _exit") == []


def test_demos_use_only_public_names():
    uses = {demo.name: private_uses(demo.read_text()) for demo in DEMOS}
    assert {name: found for name, found in uses.items() if found} == {}
