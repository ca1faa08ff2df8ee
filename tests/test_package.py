import shamanskii
from shamanskii import analysis, linalg, problems, solver

SUBMODULES = (analysis, linalg, problems, solver)


def test_all_joins_the_submodules_lists():
    assert shamanskii.__all__ == [name for mod in SUBMODULES for name in mod.__all__]
    assert len(set(shamanskii.__all__)) == len(shamanskii.__all__)


def test_each_name_is_its_submodules_object():
    for mod in SUBMODULES:
        for name in mod.__all__:
            assert getattr(shamanskii, name) is getattr(mod, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from shamanskii import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(shamanskii.__all__)
    assert len(namespace) == 32
