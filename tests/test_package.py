"""The package namespace: one export table, each name loaded with its
module on first use."""

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


def test_exports_are_their_home_modules_objects():
    for module, names in artifact._EXPORTS.items():
        home = importlib.import_module(f"artifact.{module}")
        assert getattr(artifact, module) is home
        for name in names:
            obj = getattr(artifact, name)
            assert obj is vars(home)[name], name
            assert not callable(obj) or obj.__module__ == home.__name__, name


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
    union = (error_classes | {"DEFAULT_BUDGET"}).union(*(
        m.__all__ for m in (galois, mixedcode, skewcyclic, skewpoly, textio,
                            oracle)))
    assert set(artifact.__all__) == union
    # One home per name: each module's __all__ is its row of the table.
    assert len(set(artifact.__all__)) == len(artifact.__all__)
    for module in (galois, mixedcode, skewcyclic, skewpoly, textio, oracle):
        row = artifact._EXPORTS[module.__name__.rpartition(".")[2]]
        assert tuple(module.__all__) == row, module.__name__
    assert set(artifact._EXPORTS["errors"]) == \
        error_classes | {"DEFAULT_BUDGET"}


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
    # The command line loads every structural module.
    script = ("import sys, artifact.cli\n"
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


def run_fresh(script):
    """The lines ``script`` prints in a fresh interpreter, where
    ``loaded()`` lists the ``artifact`` modules in ``sys.modules`` and
    ``quiet`` silences stdout."""
    prelude = ("import contextlib, io, sys\n"
               "quiet = contextlib.redirect_stdout(io.StringIO())\n"
               "def loaded():\n"
               "    return [m for m in sorted(sys.modules)\n"
               "            if m.split('.')[0] == 'artifact']\n")
    res = subprocess.run([sys.executable, "-c", prelude + script],
                         capture_output=True, text=True, check=True)
    return res.stdout.splitlines()


def test_import_loads_no_submodule():
    assert run_fresh("import artifact\nprint(loaded())") == ["['artifact']"]


def test_ring_context_loads_only_errors_and_galois():
    script = ("import artifact\n"
              "before = loaded()\n"
              "artifact.RingContext\n"
              "print([m for m in loaded() if m not in before])\n")
    assert run_fresh(script) == ["['artifact.errors', 'artifact.galois']"]


def test_module_name_resolves_to_the_submodule():
    script = ("import artifact\n"
              "print(artifact.textio is sys.modules['artifact.textio'])\n")
    assert run_fresh(script) == ["True"]


def test_only_verify_paper_loads_the_reference_data():
    script = ("from artifact import cli\n"
              "with quiet:\n"
              "    cli.main(['ctx-info', '--m', '2'])\n"
              "print('artifact.reference' in sys.modules)\n"
              "with quiet:\n"
              "    cli.main(['verify-paper'])\n"
              "print('artifact.reference' in sys.modules)\n")
    assert run_fresh(script) == ["False", "True"]
