"""The package's public names: each submodule's ``__all__``, listed once;
what importing the package loads; and which names the command line uses."""
import ast
import subprocess
import sys
from pathlib import Path

import symspec
from conftest import child_env
from symspec import cli, representations, sequences, spectral

SUBMODULES = (sequences, representations, spectral)


def test_all_joins_the_submodules_lists():
    expected = [*sequences.__all__, *representations.__all__, *spectral.__all__, "__version__"]
    assert symspec.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_the_submodules_own_object():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(symspec, name) is getattr(module, name), (module.__name__, name)



def test_import_leaves_numpy_random_unloaded():
    """Only ``verify --random`` draws numbers: importing numpy.random costs
    a fresh process some 15 ms, so neither the package nor its command line
    imports it."""
    probe = ("import sys, symspec; print('numpy.random' in sys.modules); "
             "import symspec.cli; print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["False", "False"]


def test_cli_uses_no_private_spectral_name():
    """The command line reaches ``spectral`` only through its public names,
    so the identities and their pass rules are stated there alone."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "spectral" and node.attr.startswith("_")
    ]
    private += [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "spectral"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []
