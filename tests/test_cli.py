import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ohmtree import spantree
from ohmtree.cli import EXIT_FAIL, EXIT_PIPE, load_graph, main, parse_graph_text
from ohmtree.graph import complete_graph, wheel_graph
from ohmtree.resistnet import Network

TRIANGLE = """\
# unit triangle
edge e1 a b
edge e2 b c
edge e3 c a
"""

K4 = "\n".join(
    f"edge e{k} {u} {v}"
    for k, (u, v) in enumerate(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
        start=1,
    )
)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE)
    return str(path)


def write(tmp_path, text, name="g.graph"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_graph_text():
    g = parse_graph_text(TRIANGLE)
    assert g.n == 3 and g.m == 3
    g = parse_graph_text("vertex lonely\nedge e1 a b 2/3\n")
    assert g.n == 3
    assert str(g.length("e1")) == "2/3"


def test_parse_errors():
    from ohmtree.cli import GraphFileError

    for bad in (
        "edge e1 a b\nedge e1 b a\n",  # duplicate id
        "edge e1 a\n",  # missing endpoint
        "edge e1 a b 0\n",  # bad length
        "edge e1 a b -2\n",
        "frob x\n",
        "",
    ):
        with pytest.raises(GraphFileError):
            parse_graph_text(bad)


def test_cmd_resistance(triangle_file, capsys):
    assert main(["resistance", triangle_file, "a", "b"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2/3"
    assert out[1].startswith("0.6666666666")

    assert main(["resistance", triangle_file, "a", "a"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0/1"


def test_cmd_resistance_k4(tmp_path, capsys):
    path = write(tmp_path, K4)
    assert main(["resistance", path, "a", "d"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1/2"


def test_cmd_voltage(tmp_path, capsys):
    path = write(tmp_path, K4)
    assert main(["voltage", path, "a", "b", "c"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1/4"


def test_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "edge e1 a\n", "bad.graph")
    assert main(["resistance", bad, "a", "b"]) == 2
    undecodable = tmp_path / "bytes.graph"
    undecodable.write_bytes(b"edge e1 a b\n\xff\n")
    assert main(["resistance", str(undecodable), "a", "b"]) == 2

    split = write(tmp_path, "edge e1 a b\nvertex c\n", "split.graph")
    assert main(["resistance", split, "a", "b"]) == 3
    assert main(["reduce", split, "a", "b"]) == 3

    tri = write(tmp_path, TRIANGLE, "tri.graph")
    assert main(["resistance", tri, "a", "zzz"]) == 4
    assert main(["derivative", tri, "nope", "a", "b"]) == 4
    pendant = write(tmp_path, TRIANGLE + "edge e4 c d\n", "pendant.graph")
    assert main(["derivative", pendant, "e4", "a", "zz"]) == 4
    assert main(["derivative", pendant, "e4", "zz", "a"]) == 4
    assert main(["closed-form", "path", "1"]) == 5
    capsys.readouterr()


def test_long_exact_answer_is_printed(tmp_path, capsys):
    # 3000- and 3001-digit lengths: the exact answer has about 6000 digits,
    # past the default limit of 4300 on int <-> str conversion
    text = f"edge e1 a b 1{'0' * 2999}\nedge e2 a b 1{'0' * 2999}7\n"
    path = write(tmp_path, text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["resistance", path, "a", "b"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    fraction, decimal = capsys.readouterr().out.splitlines()
    num, den = fraction.split("/")
    exact = Network(load_graph(path)).resistance("a", "b")
    # compare digit by digit: str() of the exact numerator would hit the limit
    assert len(num) > 4300
    digits = sum(int(d) * 10**i for i, d in enumerate(reversed(num)))
    assert exact == Fraction(digits, int(den))
    # past the float range the 12 digits are rounded in decimal arithmetic
    assert decimal == "9.09090909091e+2998"


def test_answer_below_the_float_range_is_rounded_in_decimal(tmp_path, capsys):
    # 10^-400 underflows int / int true division to 0.0, and 10^-310 to a
    # subnormal with fewer than 12 correct digits
    for length, line in ((f"1/1{'0' * 400}", "1e-400"), (f"3/1{'0' * 310}", "3e-310")):
        path = write(tmp_path, f"edge e1 a b {length}\n")
        assert main(["resistance", path, "a", "b"]) == 0
        assert capsys.readouterr().out.splitlines() == [length, line]
    # inside the normal float range the line is the float's own
    path = write(tmp_path, "edge e1 a b 2/7\nedge e2 a b 1/3\n")
    assert main(["resistance", path, "a", "b"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"{2 / 13:.12g}"


def test_import_changes_no_digit_limit():
    code = (
        "import sys; get = getattr(sys, 'get_int_max_str_digits', lambda: None); "
        "before = get(); import ohmtree, ohmtree.cli; assert get() == before"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away, on a file descriptor of its own."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_broken_pipe_exits_quietly(tmp_path, capsys, monkeypatch):
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["verify", "--seed", "17", "--count", "1", "--tags", "magic"])
        os.write(fd, b"after")  # the descriptor now points at devnull
    finally:
        os.close(fd)
    assert code == EXIT_PIPE != EXIT_FAIL
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


def test_cmd_spantree_methods(tmp_path, capsys, monkeypatch):
    k5 = "\n".join(
        f"edge e{k} v{i} v{j}"
        for k, (i, j) in enumerate(
            [(i, j) for i in range(1, 6) for j in range(i + 1, 6)], start=1
        )
    )
    path = write(tmp_path, k5)
    for method in ("matrix", "dc", "enum", "vertex-del"):
        assert main(["spantree", path, "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "125"

    # two components: no spanning tree, whatever the method
    split = write(tmp_path, "edge e1 a b\nedge e2 b c\nedge e3 d e\n", "split.graph")
    for method in ("matrix", "dc", "enum", "vertex-del"):
        assert main(["spantree", split, "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "0"

    # one vertex: the empty tree, whatever the method
    single = write(tmp_path, "vertex a\n", "single.graph")
    for method in ("matrix", "dc", "enum", "vertex-del"):
        assert main(["spantree", single, "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "1"

    # a wheel expands over its first rim vertex, of degree 3, not over the
    # hub and every subset of its eight neighbours
    wheel = write(tmp_path, wheel_graph(8).canonical_text(), "wheel.graph")
    expanded, count = [], spantree.vertex_deletion_count
    monkeypatch.setattr(
        spantree, "vertex_deletion_count", lambda g, u: expanded.append(u) or count(g, u)
    )
    assert main(["spantree", wheel, "--method", "vertex-del"]) == 0
    assert capsys.readouterr().out.strip() == "2205" and expanded == ["v1"]

    # every vertex of K24 has 23 neighbours: past the vertex-deletion budget
    k24 = write(tmp_path, complete_graph(24).canonical_text(), "k24.graph")
    assert main(["spantree", k24, "--method", "vertex-del"]) == 5
    assert "budget" in capsys.readouterr().err

    # K5 takes a few hundred deletion-contraction nodes
    monkeypatch.setattr(spantree, "DC_NODE_BUDGET", 10)
    assert main(["spantree", path, "--method", "dc"]) == 5
    assert "budget" in capsys.readouterr().err


def test_cmd_identify(triangle_file, capsys):
    assert main(["identify", triangle_file, "--group", "a,b"]) == 0
    out = capsys.readouterr().out
    assert "vertex a+b" in out
    assert "edge e1 a+b a+b 1" in out  # the merged edge is a loop now


def test_cmd_euler(triangle_file, capsys):
    assert main(["euler", triangle_file, "a", "b", "--form", "I"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "total 2/3"
    assert "e1 non-bridge 4/9" in lines
    assert main(["euler", triangle_file, "a", "b", "--form", "II"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total 2/3"


def test_cmd_derivative(triangle_file, capsys):
    assert main(["derivative", triangle_file, "e1", "a", "b"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "4/9"


def test_cmd_reduce(triangle_file, capsys):
    assert main(["reduce", triangle_file, "a", "b"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2/3"
    assert any(line.startswith("series") for line in lines[1:])


def test_cmd_reduce_not_reducible(tmp_path, capsys):
    path = write(tmp_path, "edge e1 a b\nedge e2 b c\n")
    assert main(["reduce", path, "a", "b"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "not-reducible"


def test_cmd_closed_form(capsys):
    assert main(["closed-form", "fan", "5", "1"]) == 0
    assert capsys.readouterr().out.strip() == "55"
    assert main(["closed-form", "complete", "5"]) == 0
    assert capsys.readouterr().out.strip() == "125"


def test_cmd_verify(capsys):
    code = main(
        [
            "verify",
            "--seed",
            "3",
            "--count",
            "2",
            "--samples",
            "3",
            "--tags",
            "shorting,euler1,averaging",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines and all(line.endswith("pass") for line in lines)
    assert any(line.startswith("shorting ") for line in lines)
    assert "failures" in captured.err


@pytest.mark.parametrize(
    "args, unchecked",
    [
        (["--count", "0"], "averaging,contract-id,convex"),
        (["--samples", "0", "--tags", "shorting,cutting"], "shorting,cutting"),
    ],
)
def test_cmd_verify_without_checks_fails(capsys, args, unchecked):
    assert main(["verify", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checked 0 identities" in captured.err
    assert f"no identity checked for tags: {unchecked}" in captured.err


@pytest.mark.parametrize("option", ["--count", "--samples"])
def test_cmd_verify_rejects_negative_parameters(capsys, option):
    assert main(["verify", option, "-1", "--tags", "magic"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0, got" in captured.err


def test_cmd_verify_unknown_tag(capsys):
    assert main(["verify", "--tags", "bogus"]) == 5
    capsys.readouterr()


def test_verify_output_reproducible(capsys):
    args = ["verify", "--seed", "9", "--count", "2", "--samples", "2", "--tags", "magic"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
