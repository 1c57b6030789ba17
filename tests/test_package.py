import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cfkit
from cfkit import contfrac, correspondence, errors, exact, invariants, literals, paths
from cfkit import (
    BruteForceQuotient,
    ContinuedFraction,
    DomainError,
    ExtensionDescriptor,
    InvariantClass,
    KSequence,
    PathCounts,
    QuotientGroup,
    RationalInvariant,
    TowerLevel,
    rational_to_invariant,
)


def test_all_names_resolve_without_duplicates():
    assert len(set(cfkit.__all__)) == len(cfkit.__all__)
    for name in cfkit.__all__:
        assert hasattr(cfkit, name), name


@pytest.mark.parametrize("module", [exact, contfrac, paths, invariants, correspondence, literals, errors],
                         ids=lambda module: module.__name__)
def test_public_functions_and_classes_are_exported(module):
    public = [name for name, value in vars(module).items()
              if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
              and value.__module__ == module.__name__]
    assert public and set(public) <= set(cfkit.__all__), set(public) - set(cfkit.__all__)


def fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports cfkit from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(cfkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_runs_without_typing_dataclasses_or_inspect():
    # -S: no site module, whose .pth files may import typing before cfkit does
    code = ("import sys, cfkit.cli; cfkit.cli.main(['invariant', '2/5']);"
            " print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    assert fresh("-S", "-c", code).stdout == "n = 5\nm = 2\nk = [0,2]\ntheta = 2/5\n[]\n"


def test_invariants_subcommands_run_without_fractions():
    # group, iso and tensor use no Fraction, so neither they nor an error message load fractions
    code = """if True:
        import sys, cfkit.cli
        cfkit.cli.main(["group", "--a", "-1,1", "--n", "5"])
        cfkit.cli.main(["iso", "--e", "5,-1,1,0,2", "--f", "5,1,-1,2,0"])
        cfkit.cli.main(["tensor", "--n", "6", "--m", "14", "--t", "2"])
        print(cfkit.cli.main(["group", "--a", "1,1", "--n", str(-10**120)]))
        print(sorted({"decimal", "fractions", "numbers"} & set(sys.modules)))
    """
    proc = fresh("-S", "-c", code)
    assert proc.stdout.splitlines()[-2:] == ["1", "[]"]
    assert proc.stderr == "error: n must be >= 1, got -<399-bit integer>\n"


def test_import_loads_no_submodule_until_a_name_is_used():
    code = """if True:
        import sys, cfkit
        def loaded():
            return sorted(m[6:] for m in sys.modules if m.startswith("cfkit."))
        print(loaded())
        cfkit.KSequence
        print(loaded(), "k_value" in vars(cfkit), "path_counts" in vars(cfkit))
        cfkit.paths
        print(loaded(), "path_counts" in vars(cfkit))
        from cfkit import *
        print(loaded())
    """
    assert fresh("-c", code).stdout.splitlines() == [
        "[]",
        "['_value', 'contfrac', 'errors', 'exact'] True False",
        "['_value', 'contfrac', 'errors', 'exact', 'paths'] True",
        "['_value', 'contfrac', 'correspondence', 'errors', 'exact', 'invariants', 'literals', 'paths']",
    ]


# The cfkit modules each subcommand loads besides the package and cfkit.errors, as the README lists them.
_FORWARD = {"_value", "exact", "contfrac", "paths", "correspondence"}
SUBCOMMAND_MODULES = [
    (["eval", "[0;2,2]"], {"_value", "exact", "contfrac", "literals"}),
    (["invariant", "2/5"], _FORWARD | {"literals"}),
    (["rational", "--n", "5", "--m", "2"], _FORWARD),
    (["oracle", "--k", "1,1"], {"_value", "exact", "contfrac", "paths"}),
    (["group", "--a", "-1,1", "--n", "5"], {"_value", "invariants"}),
    (["iso", "--e", "5,-1,1,0,2", "--f", "5,1,-1,2,0"], {"_value", "invariants"}),
    (["tensor", "--n", "6", "--m", "14", "--t", "2"], {"_value", "invariants"}),
    (["tower", "2/5"], _FORWARD | {"literals"}),
]


@pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES, ids=[argv[0] for argv, _ in SUBCOMMAND_MODULES])
def test_each_subcommand_loads_only_its_modules(argv, modules):
    # -X importtime logs each module a fresh interpreter imports, one "import time:" line per module
    log = fresh("-X", "importtime", "-m", "cfkit.cli", *argv).stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in log if line.startswith("import time:")}
    assert {m for m in imported if m.split(".")[0] == "cfkit"} == {"cfkit", "cfkit.errors"} | {
        f"cfkit.{m}" for m in modules}


def test_export_table_lists_each_name_under_one_module():
    # _MODULE_OF is a dict, so a name listed under two modules would silently keep only the last
    listed = [name for names in cfkit._EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed)) == len(cfkit._MODULE_OF) == len(cfkit.__all__)
    assert cfkit.__all__ == listed


def test_namespace_contract():
    assert set(cfkit._MODULE_OF) == set(cfkit.__all__)
    for module, names in cfkit._EXPORTS.items():
        defining = sys.modules[f"cfkit.{module}"]
        for name in names:
            assert getattr(cfkit, name) is getattr(defining, name), name
            assert getattr(defining, name).__module__ == defining.__name__, name
    assert set(cfkit.__all__) <= set(dir(cfkit))
    namespace = {}
    exec("from cfkit import *", namespace)
    assert set(cfkit.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        cfkit.nope
    assert cfkit.ParseError is literals.ParseError is errors.ParseError


# One valid instance of each value class: the class, its field names in order, the field values.
VALUES = [
    (ContinuedFraction, ("a0", "terms"), (0, (1, 2))),
    (KSequence, ("entries",), ((0, 2),)),
    (RationalInvariant, ("n", "m", "k", "theta"), (5, 2, KSequence((0, 2)), Fraction(2, 5))),
    (TowerLevel, ("level", "dims", "mult"), (1, (2, 1), ((2, 1), (1, 0)))),
    (QuotientGroup, ("n", "a", "c", "a_prime", "b", "d"), (6, (2, 4), 2, (1, 2), (0, -1), 2)),
    (ExtensionDescriptor, ("n", "index", "defects"), (5, (-1, 1), (0, 2))),
    (InvariantClass, ("n", "index_orbit", "mbar"), (5, (-1, 1), (0, 2))),
    (BruteForceQuotient, ("a", "n", "reps", "table"), ((1, 1), 2, ((0, 0), (0, 1)), ((0, 1), (1, 0)))),
    (PathCounts, ("per_length", "cumulative"), ((1, 1, 3), (1, 2, 5))),
]


@pytest.mark.parametrize("cls, names, values", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_class_contract(cls, names, values):
    value = cls(*values)
    assert cls.__match_args__ == names
    assert tuple(getattr(value, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == value
    assert hash(value) == hash(values)
    assert value != values and value.__eq__(values) is NotImplemented
    assert repr(value) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    assert not hasattr(value, "__dict__")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1
    assert value.__reduce__() == (cls, values)
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value
    assert value._replace() == value
    assert value._replace(**{names[-1]: values[-1]}) == value
    with pytest.raises(TypeError):
        value._replace(other=1)


def test_value_class_defaults_repr_and_match():
    assert ContinuedFraction(3) == ContinuedFraction(3, ()) == ContinuedFraction(a0=3)
    assert KSequence() == KSequence(()) == KSequence(entries=[0, 0])
    assert repr(KSequence((1, 2, 0))) == "KSequence(entries=(1, 2))"
    assert KSequence((1,)) != ContinuedFraction(0, (1,))
    match rational_to_invariant(Fraction(2, 5)):
        case RationalInvariant(n, m, KSequence(entries)):
            assert (n, m, entries) == (5, 2, (0, 2))
        case _:
            pytest.fail("no match")


def test_value_class_replace_runs_the_checks():
    assert KSequence((1,))._replace(entries=(1, 0)) == KSequence((1,))
    with pytest.raises(DomainError):
        KSequence((1,))._replace(entries=(1, -1))
    with pytest.raises(DomainError):
        ExtensionDescriptor(5, (1, 1), (0, 0))._replace(index=(0, 0))
