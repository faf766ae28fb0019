"""Where the brute-force routes live: only in qsymdp.oracles."""

import importlib
import inspect
import pkgutil

import pytest

import qsymdp
from qsymdp.gamma import WeightedDoublePoset
from qsymdp.oracles import epartitions_into
from qsymdp.poset import build
from qsymdp.qsym import BoundExceededError

MOVED = {
    "_act",
    "_orbit_decomposition",
    "count_orbits_bruteforce",
    "_is_coeven",
    "count_coeven_orbits_bruteforce",
    "enumerate_partitions",
    "epartition_test",
    "_is_epartition_on",
    "is_epartition",
    "is_epartition_covers",
    "is_ssyt",
}


def antichain(n):
    labs = [chr(ord("a") + i) for i in range(n)]
    return WeightedDoublePoset(poset=build(labs, [], []), w={})


def test_brute_force_is_defined_only_in_oracles():
    for info in pkgutil.iter_modules(qsymdp.__path__):
        if info.name == "oracles":
            continue
        module = importlib.import_module(f"qsymdp.{info.name}")
        own = {
            name
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
        }
        assert own & MOVED == set(), info.name


def test_package_does_not_export_brute_force():
    assert MOVED & set(vars(qsymdp)) == set()


def test_orderpoly_still_binds_the_orbit_counts():
    # perfbench/checks.py imports both from qsymdp.orderpoly
    from qsymdp import oracles
    from qsymdp.orderpoly import count_coeven_orbits_bruteforce, count_orbits_bruteforce

    assert count_orbits_bruteforce is oracles.count_orbits_bruteforce
    assert count_coeven_orbits_bruteforce is oracles.count_coeven_orbits_bruteforce


def test_epartitions_into_limit():
    with pytest.raises(BoundExceededError):
        epartitions_into(antichain(3), 200)  # 200^3 > ENUM_LIMIT
    assert epartitions_into(antichain(2), 0) == []
    with pytest.raises(ValueError):
        epartitions_into(antichain(2), -1)
