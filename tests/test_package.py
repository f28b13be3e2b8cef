"""The package's public names: each submodule's ``__all__``, listed once."""
import symspec
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

