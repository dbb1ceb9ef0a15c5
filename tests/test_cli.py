import pytest

from ohmtree import spantree
from ohmtree.cli import main, parse_graph_text

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
