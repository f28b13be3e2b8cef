"""The package's public names: each submodule's ``__all__``, listed once;
and what importing the package loads."""
import subprocess
import sys

import symspec
from conftest import child_env
from symspec import representations, sequences, spectral

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
