import json
import os
import subprocess
import sys

import pytest

from qsymdp import verify
from qsymdp.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poset(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def chain2(tmp_path):
    return write_poset(
        tmp_path,
        "chain2.json",
        {"elements": ["a", "b"], "lt1": [["a", "b"]], "lt2": [["a", "b"]]},
    )


@pytest.fixture
def antichain2(tmp_path):
    return write_poset(
        tmp_path, "anti2.json", {"elements": ["a", "b"], "lt1": [], "lt2": []}
    )


@pytest.fixture
def swap_group(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"generators": [{"a": "b", "b": "a"}]}))
    return str(path)


@pytest.fixture
def trivial_group(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"generators": []}))
    return str(path)


def test_antipode_m(capsys):
    code, out, _ = invoke(capsys, "antipode-m", "(1,1)")
    assert code == 0
    assert out.strip() == "M(2) + M(1,1)"


def test_antipode_m_json(capsys):
    code, out, _ = invoke(capsys, "--json", "antipode-m", "(2)")
    assert code == 0
    assert json.loads(out) == [["-1", [2]]]


def test_antipode_m_bad_input(capsys):
    code, out, err = invoke(capsys, "antipode-m", "(1,0)")
    assert code == 2
    assert "error:" in err


def test_antipode_f(capsys):
    code, out, _ = invoke(capsys, "antipode-f", "(2)")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "conjugate: (1,1)"
    assert lines[1] == "M(1,1)"


def test_gamma(capsys, chain2):
    code, out, _ = invoke(capsys, "gamma", chain2)
    assert code == 0
    assert out.strip() == "M(2) + M(1,1)"


def test_gamma_with_weights(capsys, tmp_path):
    path = write_poset(
        tmp_path,
        "w.json",
        {
            "elements": ["a", "b"],
            "lt1": [["a", "b"]],
            "lt2": [["b", "a"]],
            "w": {"a": 2, "b": 1},
        },
    )
    code, out, _ = invoke(capsys, "gamma", path)
    assert code == 0
    assert out.strip() == "M(2,1)"


def test_gamma_cycle_is_input_error(capsys, tmp_path):
    path = write_poset(
        tmp_path,
        "cyc.json",
        {"elements": ["a", "b"], "lt1": [["a", "b"], ["b", "a"]], "lt2": []},
    )
    code, _, err = invoke(capsys, "gamma", path)
    assert code == 2
    assert "cycle" in err


def test_coproduct(capsys, chain2):
    code, out, _ = invoke(capsys, "coproduct", chain2)
    assert code == 0
    lines = out.strip().splitlines()
    assert all("(x)" in line for line in lines)
    # grouped by left factor: M(), M(1), M(2), M(1,1)
    assert len(lines) == 4


def test_product(capsys, chain2, antichain2):
    code, out, _ = invoke(capsys, "product", chain2, chain2)
    assert code == 0
    assert "M(" in out


def test_verify_antipode_pass(capsys, chain2):
    code, out, _ = invoke(capsys, "verify-antipode", chain2)
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"


def test_verify_antipode_fail(capsys, tmp_path):
    path = write_poset(
        tmp_path,
        "bad.json",
        {"elements": ["a", "b"], "lt1": [["a", "b"]], "lt2": []},
    )
    code, out, _ = invoke(capsys, "verify-antipode", path)
    assert code == 1
    assert out.strip().splitlines()[-1] == "FAIL"


def test_equivariant(capsys, antichain2, swap_group):
    code, out, _ = invoke(capsys, "equivariant", antichain2, swap_group)
    assert code == 0
    assert out.strip() == "M(2) + M(1,1)"


def test_equivariant_plus(capsys, antichain2, swap_group):
    code, out, _ = invoke(capsys, "equivariant", antichain2, swap_group, "--plus")
    assert code == 0
    assert out.strip() == "M(1,1)"


def test_equivariant_bad_group(capsys, antichain2, tmp_path):
    path = tmp_path / "badgroup.json"
    path.write_text(json.dumps({"generators": [{"a": "a", "b": "a"}]}))
    code, _, err = invoke(capsys, "equivariant", antichain2, str(path))
    assert code == 2


def test_verify_equivariant(capsys, antichain2, swap_group):
    code, out, _ = invoke(capsys, "verify-equivariant", antichain2, swap_group)
    assert code == 0
    assert out.strip() == "PASS"


def test_order_poly(capsys, chain2, trivial_group):
    code, out, _ = invoke(capsys, "order-poly", chain2, trivial_group)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "binomial basis: 1*C(q,1) + 1*C(q,2)"
    assert lines[1] == "power basis: 1/2*q^1 + 1/2*q^2"


def test_order_poly_json(capsys, chain2, trivial_group):
    code, out, _ = invoke(capsys, "--json", "order-poly", chain2, trivial_group)
    assert code == 0
    doc = json.loads(out)
    assert doc["binomial"] == ["0", "1", "1"]


def test_reciprocity(capsys, chain2, trivial_group):
    code, out, _ = invoke(capsys, "reciprocity", chain2, trivial_group, "--q", "3")
    assert code == 0
    assert out.strip() == "PASS"


def test_reciprocity_non_tertispecial(capsys, tmp_path, trivial_group):
    path = write_poset(
        tmp_path,
        "bad.json",
        {"elements": ["a", "b"], "lt1": [["a", "b"]], "lt2": []},
    )
    code, _, err = invoke(capsys, "reciprocity", path, trivial_group, "--q", "2")
    assert code == 2


def test_schur(capsys):
    code, out, _ = invoke(capsys, "schur", "[2]")
    assert code == 0
    assert out.strip() == "M(2) + M(1,1)"


def test_schur_skew(capsys):
    code, out, _ = invoke(capsys, "schur", "[2,1]/[1]")
    assert code == 0
    assert out.strip() == "M(2) + 2*M(1,1)"


def test_schur_cell_cap(capsys):
    code, _, err = invoke(capsys, "schur", "[5,4]")
    assert code == 2
    assert "cells" in err
    code, out, _ = invoke(capsys, "schur", "[5,4]", "--max-cells", "9")
    assert code == 0


def test_verify_schur(capsys):
    code, out, _ = invoke(capsys, "verify-schur", "[2,2]/[1]")
    assert code == 0
    assert out.strip() == "PASS"


def test_selftest_reports_a_failing_suite(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "gamma-truncation", lambda size: iter([True, False, True]))
    code, out, err = invoke(capsys, "selftest", "--max-size", "0")
    *suites, last = out.splitlines()
    failing = list(verify.SUITES).index("gamma-truncation")
    assert (code, err, last) == (1, "", "selftest: FAIL (1 suites)")
    assert suites.pop(failing) == "FAIL gamma-truncation (3 checks)"
    assert len(suites) == 5 and all(line.startswith("ok ") for line in suites)


def test_reciprocity_negative_q(capsys, chain2, trivial_group):
    with pytest.raises(SystemExit) as exc:
        run(["reciprocity", chain2, trivial_group, "--q", "-2"])
    assert exc.value.code == 2
    assert "--q" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["schur", "[2,1]", "--max-cells", "-1"], "--max-cells"),
        (["verify-schur", "[2,1]", "--max-cells", "-1"], "--max-cells"),
        (["--group-cap", "-3", "equivariant", "P", "G"], "--group-cap"),
    ],
)
def test_negative_caps(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and flag in err


def test_zero_cap_accepted(capsys):
    code, out, err = invoke(capsys, "schur", "[1]", "--max-cells", "0")
    assert code == 2 and out == ""
    assert err == "error: shape has 1 cells, above cap 0\n"


def test_group_cap_zero_rejects_trivial_group(capsys, antichain2, trivial_group):
    code, out, err = invoke(capsys, "--group-cap", "0", "equivariant", antichain2, trivial_group)
    assert (code, out) == (2, "")
    assert err == f"error: {trivial_group}: group closure exceeds cap 0\n"


def test_group_cap_one_admits_trivial_group(capsys, antichain2, trivial_group):
    code, out, err = invoke(capsys, "--group-cap", "1", "equivariant", antichain2, trivial_group)
    assert (code, err) == (0, "")
    assert out == invoke(capsys, "gamma", antichain2)[1]


@pytest.mark.parametrize(
    "command, extra",
    [("equivariant", []), ("equivariant", ["--plus"]), ("verify-equivariant", []), ("order-poly", [])],
)
def test_orbit_names_do_not_collide_with_labels(capsys, tmp_path, command, extra):
    # swapping a and b leaves the orbits {a, b} and {"a,b"}, which once were
    # both named "{a,b}"; the output must not depend on the labels
    clash = write_poset(tmp_path, "clash.json", {"elements": ["a", "b", "a,b"]})
    clash_group = write_poset(
        tmp_path, "clash-g.json", {"generators": [{"a": "b", "b": "a", "a,b": "a,b"}]}
    )
    plain = write_poset(tmp_path, "plain.json", {"elements": ["x", "y", "z"]})
    plain_group = write_poset(
        tmp_path, "plain-g.json", {"generators": [{"x": "y", "y": "x", "z": "z"}]}
    )
    got = invoke(capsys, command, clash, clash_group, *extra)
    assert got[0] == 0 and got[2] == ""
    assert got == invoke(capsys, command, plain, plain_group, *extra)


def test_selftest_negative_max_size(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["selftest", "--max-size", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--max-size" in err


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"elements": "ab"}, "elements"),
        ({"elements": [1, 2]}, "elements"),
        ({"elements": ["a", "a"]}, "elements"),
        ({"elements": ["a", "b"], "lt1": [["a"]]}, "lt1"),
        ({"elements": ["a", "b"], "lt2": [["a", "z"]]}, "lt2"),
        ({"elements": ["a", "b"], "lt1": "ab"}, "lt1"),
        ({"elements": ["a"], "w": {"a": 1.7}}, "w"),
        ({"elements": ["a"], "w": {"a": True}}, "w"),
        ({"elements": ["a"], "w": {}}, "w"),
        ({"elements": ["a"], "w": [1]}, "w"),
    ],
)
def test_malformed_poset_names_field(capsys, tmp_path, doc, field):
    code, out, err = invoke(capsys, "gamma", write_poset(tmp_path, "p.json", doc))
    assert (code, out) == (2, "")
    assert f"'{field}'" in err


def test_empty_weights_on_empty_poset(capsys, tmp_path):
    path = write_poset(tmp_path, "e.json", {"elements": [], "lt1": [], "lt2": [], "w": {}})
    assert invoke(capsys, "gamma", path) == (0, "M()\n", "")


def test_deeply_nested_json_is_input_error(capsys, antichain2, tmp_path):
    nested = "[" * 100000 + "]" * 100000
    (tmp_path / "p.json").write_text(nested)
    (tmp_path / "g.json").write_text('{"generators": ' + nested + "}")
    for argv, name in ((["gamma"], "p.json"), (["equivariant", antichain2], "g.json")):
        path = str(tmp_path / name)
        code, out, err = invoke(capsys, *argv, path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("generators", ["x", ["x"], [{"a": 1, "b": "a"}], None])
def test_malformed_group_names_field(capsys, antichain2, tmp_path, generators):
    path = write_poset(tmp_path, "g.json", {"generators": generators})
    code, out, err = invoke(capsys, "equivariant", antichain2, path)
    assert (code, out) == (2, "")
    assert "'generators'" in err


# Fixed inputs for test_golden: the README's poset and group (the group
# moves a <1 c to b <1 c, so it does not act on that poset), a poset the
# README group does act on, a non-tertispecial poset and the trivial group.
GOLDEN_FILES = {
    "readme.json": {
        "elements": ["a", "b", "c"],
        "lt1": [["a", "b"], ["a", "c"]],
        "lt2": [["a", "b"], ["c", "a"]],
        "w": {"a": 1, "b": 2, "c": 1},
    },
    "readme-group.json": {
        "generators": [{"a": "b", "b": "a", "c": "c"}],
    },
    "fork.json": {
        "elements": ["a", "b", "c"],
        "lt1": [["c", "a"], ["c", "b"]],
        "lt2": [["c", "a"], ["c", "b"]],
        "w": {"a": 1, "b": 1, "c": 2},
    },
    "nontert.json": {
        "elements": ["a", "b"],
        "lt1": [["a", "b"]],
        "lt2": [],
    },
    "trivial-group.json": {
        "generators": [],
    },
}

# argv, exit code, stdout and stderr (file names stand for the written files).
GOLDEN = [
    pytest.param(
        ["antipode-m", "(1,2)"],
        0,
        "M(3) + M(2,1)\n",
        "",
        id="antipode-m",
    ),
    pytest.param(
        ["--json", "antipode-m", "(2,1,1)"],
        0,
        (
            '[["-1", [4]], ["-1", [1, 3]], ["-1", [2, 2]], ["-1", [1, 1,'
            " 2]]]\n"
        ),
        "",
        id="antipode-m-json",
    ),
    pytest.param(
        ["antipode-f", "(1,2)"],
        0,
        (
            "conjugate: (1,2)\n"
            "-M(1,2) - M(1,1,1)\n"
        ),
        "",
        id="antipode-f",
    ),
    pytest.param(
        ["--json", "antipode-f", "(2,1,1)"],
        0,
        (
            '{"conjugate": [3, 1], "terms": [["1", [3, 1]], ["1", [1, 2, 1]],'
            ' ["1", [2, 1, 1]], ["1", [1, 1, 1, 1]]]}\n'
        ),
        "",
        id="antipode-f-json",
    ),
    pytest.param(
        ["gamma", "readme.json"],
        0,
        "M(1,3) + M(3,1) + M(1,1,2) + M(1,2,1)\n",
        "",
        id="gamma",
    ),
    pytest.param(
        ["--json", "gamma", "readme.json"],
        0,
        (
            '[["1", [1, 3]], ["1", [3, 1]], ["1", [1, 1, 2]], ["1", [1, 2,'
            " 1]]]\n"
        ),
        "",
        id="gamma-json",
    ),
    pytest.param(
        ["coproduct", "readme.json"],
        0,
        (
            "M() (x) M(1,3) + M(3,1) + M(1,1,2) + M(1,2,1)\n"
            "M(1) (x) M(3) + M(1,2) + M(2,1)\n"
            "M(1,1) (x) M(2)\n"
            "M(3) (x) M(1)\n"
            "M(1,2) (x) M(1)\n"
            "M(1,3) (x) M()\n"
            "M(3,1) (x) M()\n"
            "M(1,1,2) (x) M()\n"
            "M(1,2,1) (x) M()\n"
        ),
        "",
        id="coproduct",
    ),
    pytest.param(
        ["--json", "coproduct", "fork.json"],
        0,
        (
            '[[[["1", []]], [["1", [4]], ["1", [2, 2]], ["2", [3, 1]], ["2",'
            ' [2, 1, 1]]]], [[["1", [2]]], [["1", [2]], ["2", [1, 1]]]],'
            ' [[["1", [3]]], [["2", [1]]]], [[["1", [2, 1]]], [["2", [1]]]],'
            ' [[["1", [4]]], [["1", []]]], [[["1", [2, 2]]], [["1", []]]],'
            ' [[["1", [3, 1]]], [["2", []]]], [[["1", [2, 1, 1]]], [["2",'
            " []]]]]\n"
        ),
        "",
        id="coproduct-json",
    ),
    pytest.param(
        ["product", "readme.json", "nontert.json"],
        0,
        (
            "M(1,5) + M(2,4) + 2*M(3,3) + M(4,2) + M(5,1) + 3*M(1,1,4) +"
            " 4*M(1,2,3) + 4*M(1,3,2) + 3*M(1,4,1) + 3*M(2,1,3) + 2*M(2,2,2)"
            " + 3*M(2,3,1) + 3*M(3,1,2) + 3*M(3,2,1) + 2*M(4,1,1) +"
            " 6*M(1,1,1,3) + 6*M(1,1,2,2) + 6*M(1,1,3,1) + 5*M(1,2,1,2) +"
            " 5*M(1,2,2,1) + 5*M(1,3,1,1) + 3*M(2,1,1,2) + 3*M(2,1,2,1) +"
            " 2*M(2,2,1,1) + 3*M(3,1,1,1) + 6*M(1,1,1,1,2) + 6*M(1,1,1,2,1) +"
            " 5*M(1,1,2,1,1) + 3*M(1,2,1,1,1)\n"
        ),
        "",
        id="product",
    ),
    pytest.param(
        ["--json", "product", "fork.json", "nontert.json"],
        0,
        (
            '[["1", [6]], ["1", [1, 5]], ["2", [2, 4]], ["3", [3, 3]], ["4",'
            ' [4, 2]], ["3", [5, 1]], ["1", [1, 1, 4]], ["1", [1, 2, 3]],'
            ' ["3", [1, 3, 2]], ["3", [1, 4, 1]], ["3", [2, 1, 3]], ["5", [2,'
            ' 2, 2]], ["5", [2, 3, 1]], ["7", [3, 1, 2]], ["7", [3, 2, 1]],'
            ' ["7", [4, 1, 1]], ["1", [1, 1, 2, 2]], ["2", [1, 1, 3, 1]],'
            ' ["3", [1, 2, 1, 2]], ["3", [1, 2, 2, 1]], ["6", [1, 3, 1, 1]],'
            ' ["7", [2, 1, 1, 2]], ["7", [2, 1, 2, 1]], ["9", [2, 2, 1, 1]],'
            ' ["12", [3, 1, 1, 1]], ["2", [1, 1, 2, 1, 1]], ["6", [1, 2, 1,'
            ' 1, 1]], ["12", [2, 1, 1, 1, 1]]]\n'
        ),
        "",
        id="product-json",
    ),
    pytest.param(
        ["verify-antipode", "readme.json"],
        0,
        (
            "S(Gamma): -M(2,2) - M(3,1) - M(1,2,1) - M(2,1,1)\n"
            "(-1)^|E| Gamma(opposite): -M(2,2) - M(3,1) - M(1,2,1) -"
            " M(2,1,1)\n"
            "PASS\n"
        ),
        "",
        id="verify-antipode",
    ),
    pytest.param(
        ["verify-antipode", "nontert.json"],
        1,
        (
            "S(Gamma): M(1,1)\n"
            "(-1)^|E| Gamma(opposite): M(2) + M(1,1)\n"
            "FAIL\n"
        ),
        "",
        id="verify-antipode-fail",
    ),
    pytest.param(
        ["equivariant", "fork.json", "readme-group.json"],
        0,
        "M(4) + M(2,2) + M(3,1) + M(2,1,1)\n",
        "",
        id="equivariant",
    ),
    pytest.param(
        ["--json", "equivariant", "fork.json", "readme-group.json", "--plus"],
        0,
        '[["1", [3, 1]], ["1", [2, 1, 1]]]\n',
        "",
        id="equivariant-plus-json",
    ),
    pytest.param(
        ["equivariant", "readme.json", "readme-group.json"],
        2,
        "",
        (
            "error: readme-group.json: permutation {'a': 'b', 'b': 'a', 'c':"
            " 'c'} does not preserve ('lt1', ('a', 'b'))\n"
        ),
        id="equivariant-not-preserving",
    ),
    pytest.param(
        ["verify-equivariant", "fork.json", "readme-group.json"],
        0,
        "PASS\n",
        "",
        id="verify-equivariant",
    ),
    pytest.param(
        ["verify-equivariant", "nontert.json", "trivial-group.json"],
        2,
        "",
        "error: equivariant antipode theorem requires tertispecial base\n",
        id="verify-equivariant-nontert",
    ),
    pytest.param(
        ["order-poly", "fork.json", "readme-group.json"],
        0,
        (
            "binomial basis: 1*C(q,1) + 2*C(q,2) + 1*C(q,3)\n"
            "power basis: 1/3*q^1 + 1/2*q^2 + 1/6*q^3\n"
        ),
        "",
        id="order-poly",
    ),
    pytest.param(
        ["--json", "order-poly", "readme.json", "trivial-group.json"],
        0,
        (
            '{"binomial": ["0", "0", "2", "2"], "power": ["0", "-1/3", "0",'
            ' "1/3"]}\n'
        ),
        "",
        id="order-poly-json",
    ),
    pytest.param(
        ["reciprocity", "fork.json", "readme-group.json", "--q", "2"],
        0,
        "PASS\n",
        "",
        id="reciprocity",
    ),
    pytest.param(
        ["reciprocity", "nontert.json", "trivial-group.json", "--q", "2"],
        2,
        "",
        "error: reciprocity requires a tertispecial base poset\n",
        id="reciprocity-nontert",
    ),
    pytest.param(
        ["schur", "[3,2]/[1]"],
        0,
        (
            "M(1,3) + 2*M(2,2) + M(3,1) + 3*M(1,1,2) + 3*M(1,2,1) +"
            " 3*M(2,1,1) + 5*M(1,1,1,1)\n"
        ),
        "",
        id="schur",
    ),
    pytest.param(
        ["--json", "schur", "[2,1]"],
        0,
        '[["1", [1, 2]], ["1", [2, 1]], ["2", [1, 1, 1]]]\n',
        "",
        id="schur-json",
    ),
    pytest.param(
        ["schur", "[3,3]", "--max-cells", "5"],
        2,
        "",
        "error: shape has 6 cells, above cap 5\n",
        id="schur-cap",
    ),
    pytest.param(
        ["verify-schur", "[2,2]/[1]"],
        0,
        "PASS\n",
        "",
        id="verify-schur",
    ),
    pytest.param(
        ["--json", "verify-schur", "[3,1]"],
        0,
        "PASS\n",
        "",
        id="verify-schur-json",
    ),
    pytest.param(
        ["selftest", "--max-size", "2"],
        0,
        (
            "ok composition-calculus (31 checks)\n"
            "ok antipode-consistency (4 checks)\n"
            "ok gamma-truncation (22 checks)\n"
            "ok antipode-theorem (12 checks)\n"
            "ok coproduct-product-rules (12 checks)\n"
            "ok equivariant-reciprocity (16 checks)\n"
            "selftest: PASS\n"
        ),
        "",
        id="selftest",
    ),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN)
def test_golden(capsys, tmp_path, argv, code, out, err):
    for name, doc in GOLDEN_FILES.items():
        write_poset(tmp_path, name, doc)
    argv = [str(tmp_path / a) if a in GOLDEN_FILES else a for a in argv]
    got_code, got_out, got_err = invoke(capsys, *argv)
    got_err = got_err.replace(str(tmp_path) + os.sep, "")
    assert (got_code, got_out, got_err) == (code, out, err)


def test_not_preserving_witness_independent_of_hash_seed(tmp_path):
    for name, doc in GOLDEN_FILES.items():
        write_poset(tmp_path, name, doc)
    cmd = [sys.executable, "-m", "qsymdp.cli", "equivariant"]
    cmd += [str(tmp_path / "readme.json"), str(tmp_path / "readme-group.json")]
    errs = [
        subprocess.run(
            cmd, capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed}
        ).stderr
        for seed in ("1", "2")
    ]
    assert errs[0] == errs[1] and "('lt1', ('a', 'b'))" in errs[0]
