"""The package namespace: oracle exports resolve lazily, names stay put."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import artifact
from artifact import (cli, errors, galois, mixedcode, oracle, skewcyclic,
                      skewpoly, textio)


@pytest.mark.parametrize("name", artifact.__all__)
def test_every_export_resolves(name):
    assert getattr(artifact, name) is not None
    assert name in dir(artifact)


def test_oracle_exports_are_the_oracle_objects():
    for name in artifact._ORACLE_EXPORTS:
        assert getattr(artifact, name) is getattr(oracle, name)
    assert artifact._ORACLE_EXPORTS <= set(artifact.__all__)


def test_exports_agree_across_modules():
    # A name deleted from a module but left in an __all__ fails here.
    modules = [artifact] + [
        importlib.import_module(f"artifact.{info.name}")
        for info in pkgutil.iter_modules(artifact.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, module.__name__
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type)
                     and issubclass(obj, errors.ArtifactError)}
    union = set(error_classes).union(*(
        m.__all__ for m in (galois, mixedcode, skewcyclic, skewpoly, textio,
                            oracle)))
    assert set(artifact.__all__) == union
    assert artifact._ORACLE_EXPORTS == set(oracle.__all__) - {"DEFAULT_BUDGET"}


def test_star_import_binds_every_export():
    namespace = {}
    exec("from artifact import *", namespace)
    assert set(artifact.__all__) <= namespace.keys()


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        artifact.no_such_name
    assert not hasattr(artifact, "oracle_exports")


def test_one_default_budget():
    parser = cli._build_parser()
    parsed = [parser.parse_args([name, "code.mat"]).budget
              for name in ("enumerate", "classify-z4")]
    assert (artifact.DEFAULT_BUDGET, errors.DEFAULT_BUDGET,
            oracle.DEFAULT_BUDGET, *parsed) == (1 << 24,) * 5


def test_oracle_loads_on_first_access():
    script = ("import sys, artifact\n"
              "before = 'numpy' in sys.modules\n"
              "artifact.span_closure\n"
              "print(before, 'numpy' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == ["False", "True"]


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # Each module the import loads is compiled on a cold start; these
    # two (with dis and ast behind inspect) cost more than the package.
    script = ("import sys, artifact\n"
              "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == ["False", "False"]


def test_oracle_import_leaves_dataclasses_unloaded():
    # numpy itself loads inspect, so only dataclasses is checked here.
    script = ("import sys, artifact.oracle\n"
              "print('dataclasses' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == ["False"]
