"""Where the brute-force routes live: only in qsymdp.oracles."""

import importlib
import inspect
import itertools
import math
import os
import pkgutil
import subprocess
import sys

import pytest

import qsymdp
from qsymdp.gamma import gamma
from qsymdp.oracles import epartitions_into
from qsymdp.poset import all_double_posets
from qsymdp.qsym import BoundExceededError

from conftest import antichain, weighted

MOVED = {
    "_act",
    "_orbit_decomposition",
    "count_orbits_bruteforce",
    "_is_coeven",
    "count_coeven_orbits_bruteforce",
    "enumerate_partitions",
    "_epartition_vectors",
    "_is_epartition_on",
    "is_epartition",
    "is_epartition_covers",
    "is_ssyt",
    "build_Yh",
}


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


def test_package_namespace_is_its_modules():
    # callers import from qsymdp.<module>; the package binds no function or class
    for info in pkgutil.iter_modules(qsymdp.__path__):
        importlib.import_module(f"qsymdp.{info.name}")
    for name, obj in vars(qsymdp).items():
        if name.startswith("__") and name.endswith("__"):
            continue
        assert inspect.ismodule(obj) and obj.__name__ == f"qsymdp.{name}", name


def test_oracles_are_bound_only_in_oracles():
    # orderpoly's two re-imports are documented there
    reimports = {
        ("qsymdp.orderpoly", "count_orbits_bruteforce"),
        ("qsymdp.orderpoly", "count_coeven_orbits_bruteforce"),
    }
    others = [importlib.import_module(f"qsymdp.{info.name}") for info in pkgutil.iter_modules(qsymdp.__path__)]
    for module in [qsymdp] + [m for m in others if m.__name__ != "qsymdp.oracles"]:
        bound = {
            (module.__name__, name)
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == "qsymdp.oracles"
        }
        assert bound <= reimports, module.__name__


def test_orderpoly_still_binds_the_orbit_counts():
    # perfbench/checks.py imports both from qsymdp.orderpoly
    from qsymdp import oracles
    from qsymdp.orderpoly import count_coeven_orbits_bruteforce, count_orbits_bruteforce

    assert count_orbits_bruteforce is oracles.count_orbits_bruteforce
    assert count_coeven_orbits_bruteforce is oracles.count_coeven_orbits_bruteforce


def value_at(f, x):
    """f at x_1..x_m: M_alpha is the sum over i_1 < ... < i_k of the products of x_(i_j)^alpha_j."""
    return sum(
        c * math.prod(x[i] ** part for i, part in zip(positions, alpha))
        for alpha, c in f.terms.items()
        for positions in itertools.combinations(range(len(x)), len(alpha))
    )


def test_epartitions_into_sums_to_gamma_as_perfbench_reads_it():
    # perfbench/checks.py::_oracle_sum reads each map pi of epartitions_into as
    # e -> pi[e] and weighs x[pi[e] - 1] by d.w[e]: the keys of pi index d.w
    for n in range(4):
        for p in all_double_posets(n):
            for w in ((), (1, 2, 1)[:n]):
                d = weighted(p, w)
                for m in (1, 2, 3):
                    x = (2, 3, 5)[:m]
                    total = 0
                    for pi in epartitions_into(d, m):
                        term = 1
                        for e, i in pi.items():
                            term *= x[i - 1] ** d.w[e]
                        total += term
                    assert total == value_at(gamma(d), x), (p, w, m)


def test_epartitions_into_limit():
    with pytest.raises(BoundExceededError):
        epartitions_into(antichain(3), 200)  # 200^3 > ENUM_LIMIT
    assert epartitions_into(antichain(2), 0) == []
    with pytest.raises(ValueError):
        epartitions_into(antichain(2), -1)


def test_no_admissible_pair_type():
    # a subset of E is a mask over declaration index; the P of the admissible
    # pairs (P, Q) are poset.down_sets and Q is the complement.  The weights are
    # a field of DoublePoset, and gamma.weighted_from_dict is the one JSON reader.
    # The one-caller helpers are inlined: oracles._is_epartition_on applies the
    # definition, gamma_coproduct_check builds its own table, young.cell_poset
    # writes its labels, and equivariant._generator checks a generator.
    # cli.run prints a handler's QSymElem itself
    gone = {
        "AdmissiblePair",
        "admissible_pairs",
        "WeightedDoublePoset",
        "from_dict",
        "epartition_test",
        "_tensor_table",
        "_cell_label",
        "_perm_from_mapping",
        "_validate_preserving",
        "_emit_qsym",
        "coproduct_check_of_orders",
        "antipode_check_of_orders",
        "_antipode_sides",
    }
    for info in pkgutil.iter_modules(qsymdp.__path__):
        module = importlib.import_module(f"qsymdp.{info.name}")
        assert gone & set(vars(module)) == set(), info.name
    assert gone & set(vars(qsymdp)) == set()


# What `import qsymdp.cli` must leave unloaded: dataclasses and the inspect it
# pulls in, fractions and its decimal, and the layers that only some commands
# use, which their handlers import when called.
NOT_LOADED_BY_THE_CLI = (
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "qsymdp.equivariant",
    "qsymdp.oracles",
    "qsymdp.orderpoly",
    "qsymdp.verify",
    "qsymdp.young",
)


def test_importing_the_cli_loads_only_the_common_layers():
    src = os.path.dirname(os.path.dirname(qsymdp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qsymdp.cli; print(' '.join(sys.modules))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    loaded = set(child.stdout.split())
    assert {"qsymdp.cli", "qsymdp.gamma", "qsymdp.poset"} <= loaded
    assert sorted(loaded.intersection(NOT_LOADED_BY_THE_CLI)) == []
