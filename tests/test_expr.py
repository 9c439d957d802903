import sys

import numpy as np
import pytest

from croftoncloud.expr import ExpressionError, compile_field

PTS = np.array([[0.5, -1.0, 2.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
X, Y, Z = PTS[:, 0], PTS[:, 1], PTS[:, 2]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x", X),
        ("x+y*z", X + Y * Z),
        ("(x+y)*z", (X + Y) * Z),
        ("x-y-z", X - Y - Z),
        ("x/2+1", X / 2 + 1),
        ("x^2+y^2+z^2-1", X**2 + Y**2 + Z**2 - 1),
        ("-x^2", -(X**2)),
        ("2^-2+x", 0.25 + X),
        ("sin(x)*cos(y)-exp(z/10)", np.sin(X) * np.cos(Y) - np.exp(Z / 10)),
        ("((x))", X),
        ("-(x+y)", -(X + Y)),
        ("3", np.full(3, 3.0)),
        ("x^2^2", X**4),  # right associative: x^(2^2)
    ],
)
def test_evaluation(text, expected):
    out = compile_field(text)(PTS)
    assert out.shape == (3,)
    assert np.allclose(out, expected, rtol=1e-15, atol=0.0, equal_nan=True)


def test_unary_minus_binds_below_power():
    # -x^2 is -(x^2), never (-x)^2
    f = compile_field("-x^2")
    assert f(np.array([[2.0, 0.0, 0.0]]))[0] == -4.0


def test_precedence_mul_over_add():
    f = compile_field("1+2*3")
    assert f(PTS[:1])[0] == 7.0


def test_vectorized_shapes():
    f = compile_field("x*y+z")
    grid = np.zeros((4, 5, 3))
    assert f(grid).shape == (4, 5)


@pytest.mark.parametrize(
    "text",
    ["", "1+", "(x", "x)", "q(x)", "sin x", "x ** 2", "1..2", "x $ y", "sin()"]
    # Python syntax outside the language
    + ["x**2", "1e-3", "0x10", "1_0", "+x", "x//2", "x<y", "1j", "sin(x, y)", "x.real", "[x]"]
    + ["x if y else z", "lambda: 1", "__import__('os')", "1)+(2"],
)
def test_rejects_malformed(text):
    with pytest.raises(ExpressionError):
        compile_field(text)


def test_torus_expressible():
    f = compile_field("((x^2+y^2)^0.5-2)^2+z^2-0.25")
    on = np.array([[2.5, 0.0, 0.0], [0.0, 2.0, 0.5]])
    assert np.allclose(f(on), 0.0, atol=1e-15)


def test_unknown_name_message_names_position():
    with pytest.raises(ExpressionError, match="unknown name 'w'"):
        compile_field("w+1")


@pytest.mark.parametrize("text", ["+".join(["x"] * 1500), "(" * 250 + "x" + ")" * 250], ids=["chain", "parentheses"])
def test_too_deep_is_an_expression_error(text):
    with pytest.raises(ExpressionError):
        compile_field(text)


def test_deep_expression_evaluates_near_the_recursion_limit():
    # 300 tree levels, run 50 frames below the limit: an evaluator that recursed once per level would overflow
    field = compile_field("+".join(["x"] * 300))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1

    def descend(n):
        return field(PTS) if n == 0 else descend(n - 1)

    assert np.array_equal(descend(sys.getrecursionlimit() - depth - 50), 300 * X)


# ---------------------------------------------------------------------------
# grammar property: random trees rendered to text evaluate as numpy evaluates the tree

_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_LEAVES = {"x": 0, "y": 1, "z": 2, "5": None, "5.": None, ".5": None, "0.25": None}
#: operator -> (its level, level its left operand needs, level its right operand needs);
#: unary minus is level 3 and atoms level 5
_LEVELS = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3), "^": (4, 5, 3)}


def _draw(rng, depth):
    """A tree: a leaf spelling, ("neg", a), (function name, a) or (operator, a, b)."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(list(_LEAVES))
    kind = rng.choice([*_OPS, *_FUNCS, "neg"])
    if kind in _OPS:
        return (kind, _draw(rng, depth - 1), _draw(rng, depth - 1))
    return (kind, _draw(rng, depth - 1))


def _render(rng, node, need=0):
    """Text of *node*: parenthesised where it binds weaker than *need*, and at random 1 time in 10."""
    if isinstance(node, str):
        level, text = 5, node
    elif node[0] in _OPS:
        level, left, right = _LEVELS[node[0]]
        pad = " " if rng.random() < 0.2 else ""
        text = _render(rng, node[1], left) + pad + node[0] + pad + _render(rng, node[2], right)
    elif node[0] == "neg":
        level, text = 3, "-" + _render(rng, node[1], 3)
    else:
        level, text = 5, f"{node[0]}({_render(rng, node[1])})"
    return f"({text})" if level < need or rng.random() < 0.1 else text


def _direct(node, points):
    if isinstance(node, str):
        return float(node) if _LEAVES[node] is None else points[:, _LEAVES[node]]
    args = [_direct(child, points) for child in node[1:]]
    return {**_OPS, **_FUNCS, "neg": np.negative}[node[0]](*args)


def _kinds(node):
    return {node} if isinstance(node, str) else {node[0]}.union(*map(_kinds, node[1:]))


def test_random_trees_match_direct_numpy_bit_for_bit():
    rng = np.random.default_rng(14)
    points = np.random.default_rng(15).normal(size=(32, 3)) * 2.0
    seen = set()
    for _ in range(400):
        tree = _draw(rng, int(rng.integers(0, 7)))
        text = _render(rng, tree)
        with np.errstate(all="ignore"):
            want = np.broadcast_to(np.asarray(_direct(tree, points), dtype=np.float64), (32,))
            got = compile_field(text)(points)
        assert got.tobytes() == want.tobytes(), text
        seen |= _kinds(tree)
    assert seen == {*_OPS, *_FUNCS, *_LEAVES, "neg"}
