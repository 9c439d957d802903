import ast
import itertools
import sys

import numpy as np
import pytest

from croftoncloud import expr
from croftoncloud.expr import ExpressionError, compile_field

from conftest import TORUS_EXPR

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
        ("max(x,y)-max(-z,2)", np.maximum(X, Y) - np.maximum(-Z, 2.0)),
        ("max(max(-x,-y),max(-z,x+y+z-1))", np.maximum(np.maximum(-X, -Y), np.maximum(-Z, X + Y + Z - 1))),
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
    + ["x if y else z", "lambda: 1", "__import__('os')", "1)+(2"]
    # a function's argument count is its ufunc's
    + ["max(x)", "max(x,y,z)", "max()", "max(x,y=1)", "max"],
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


# ---------------------------------------------------------------------------
# the register program against the evaluator it replaced: a postfix stack loop with np.power for every ^


def _reference_postfix(node, source):
    ops = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide, ast.Pow: np.power}
    if isinstance(node, ast.BinOp):
        return _reference_postfix(node.left, source) + _reference_postfix(node.right, source) + [ops[type(node.op)]]
    if isinstance(node, ast.UnaryOp):
        return _reference_postfix(node.operand, source) + [np.negative]
    if isinstance(node, ast.Call):
        return _reference_postfix(node.args[0], source) + [{"sin": np.sin, "cos": np.cos, "exp": np.exp}[node.func.id]]
    if isinstance(node, ast.Name):
        return ["xyz".index(node.id)]
    return [float(ast.get_source_segment(source, node))]


def _reference_field(text):
    source = " ".join(text.split()).replace("^", "**")
    program = _reference_postfix(ast.parse(source, mode="eval").body, source)

    def field(points):
        points = np.asarray(points, dtype=np.float64)
        stack = []
        for op in program:
            if not isinstance(op, np.ufunc):
                stack.append(points[..., op] if type(op) is int else op)
            elif op.nin == 1:
                stack[-1] = op(stack[-1])
            else:
                stack[-1] = op(stack.pop(-2), stack[-1])
        return np.broadcast_to(np.asarray(stack[0], dtype=np.float64), points.shape[:-1])

    return field


#: repeated subtrees, ^2 and ^2. (np.square), ^3 (np.power), unary minus, functions, a bare constant and variable
CORPUS = [
    TORUS_EXPR,
    "z^2",
    "x",
    "3",
    "2^2+x",
    "(x^2+y^2)^2.-(x^2+y^2)+x^2.",
    "x^3-x^2*x+(x*x)^2",
    "-x^2+-(y^2)-(-z)^2",
    "-(-x)",
    "sin(x^2)+cos(x^2)*exp(-x^2)",
    "exp(sin(y)*cos(y))-sin(y)*cos(y)/(1+sin(y)^2)",
    "(x+y)*(x+y)-(x+y)/(z+1)+(x+y)",
    "((x-1)^2+(y-1)^2)^0.5-((x-1)^2+(y-1)^2)",
    "x/y/z-x/(y/z)",
]


def _special_points():
    """Random points over 300 decades, then every triple of signed zeros, infinities, nan, subnormals and extremes."""
    rng = np.random.default_rng(23)
    wide = rng.normal(size=(400, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(400, 3))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1.3e154, 1.5, -2.25]
    return np.vstack([wide, np.array(list(itertools.product(special, repeat=3)))])


@pytest.mark.parametrize("text", CORPUS)
def test_program_matches_the_postfix_loop_bit_for_bit(text):
    points = _special_points()
    with np.errstate(all="ignore"):
        got = compile_field(text)(points)
        want = _reference_field(text)(points)
        grid = np.random.default_rng(5).normal(size=(4, 5, 3))
        got_grid, want_grid = compile_field(text)(grid), _reference_field(text)(grid)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got_grid.shape == (4, 5) and got_grid.tobytes() == want_grid.tobytes()


def test_field_runs_on_read_only_points_and_writes_no_points():
    points = np.random.default_rng(6).normal(size=(50, 3)) * 3.0
    points.setflags(write=False)
    writable = points.copy()
    for text in CORPUS:
        want = _reference_field(text)(points)
        assert compile_field(text)(points).tobytes() == want.tobytes()
        assert compile_field(text)(writable).tobytes() == want.tobytes()
    assert writable.tobytes() == points.tobytes()


def test_shared_subtrees_are_computed_once():
    # x^2, y^2 and x^2+y^2 appear twice in the torus quartic: 9 ufunc steps, where the postfix loop applied 12
    _, _, steps, _ = expr._program(TORUS_EXPR)
    assert [step[0] for step in steps].count(np.square) == 4
    assert len(steps) == 9


@pytest.mark.parametrize("text", CORPUS)
def test_temporaries_are_dropped_at_their_last_read(text):
    _, constants, steps, result = expr._program(text)
    outputs = {out for _, _, out, _, _ in steps}
    dropped = [reg for *_, dead in steps for reg in dead]
    assert sorted(dropped) == sorted(outputs - {result})
    for i, (_, inputs, _, reuse, dead) in enumerate(steps):
        assert all(reg in inputs and all(reg not in later[1] for later in steps[i + 1 :]) for reg in dead)
        # only a temporary is written over, never an axis of the points or a constant
        assert reuse is None or reuse in dead


# ---------------------------------------------------------------------------
# the compiled gradient against hand-written analytic gradients


def _gradient_points():
    """Seeded points with x in [0.5, 2] (powers, logs and square roots of x are real) and |y| >= 0.5 (division by y)."""
    rng = np.random.default_rng(31)
    x = rng.uniform(0.5, 2.0, 200)
    y = rng.choice([-1.0, 1.0], 200) * rng.uniform(0.5, 2.0, 200)
    return np.stack([x, y, rng.normal(size=200) * 2.0], axis=-1)


#: every grammar op, each with its analytic gradient as a function of the columns x, y, z
GRADIENTS = [
    ("x+y+z", lambda x, y, z: (1.0 + 0 * x, 1.0 + 0 * x, 1.0 + 0 * x)),
    ("x-y-z", lambda x, y, z: (1.0 + 0 * x, -1.0 + 0 * x, -1.0 + 0 * x)),
    ("x*y*z", lambda x, y, z: (y * z, x * z, x * y)),
    ("x/y+z/2", lambda x, y, z: (1.0 / y, -x / y**2, 0.5 + 0 * x)),
    ("x^2+z^2", lambda x, y, z: (2.0 * x, 0 * x, 2.0 * z)),
    ("x^3.5-y^3", lambda x, y, z: (3.5 * x**2.5, -3.0 * y**2, 0 * x)),
    ("x^y", lambda x, y, z: (y * x ** (y - 1.0), x**y * np.log(x), 0 * x)),
    ("2^z", lambda x, y, z: (0 * x, 0 * x, 2.0**z * np.log(2.0))),
    ("-x*z", lambda x, y, z: (-z, 0 * x, -x)),
    ("sin(x)*cos(y)", lambda x, y, z: (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y), 0 * x)),
    ("exp(z/4)", lambda x, y, z: (0 * x, 0 * x, np.exp(z / 4.0) / 4.0)),
    ("sqrt(x^2+y^2)", lambda x, y, z: (x / np.hypot(x, y), y / np.hypot(x, y), 0 * x)),
    # both sides of the kink: x > y wherever y < 0, and x < y at some other points
    ("max(x,y)", lambda x, y, z: (1.0 * (x >= y), 1.0 * (x < y), 0 * x)),
    ("max(x*y,z)+max(2,z)", lambda x, y, z: (y * (x * y >= z), x * (x * y >= z), 1.0 * (x * y < z) + (2.0 < z))),
    (TORUS_EXPR, lambda x, y, z: _quartic_torus_gradient(np.stack([x, y, z], axis=-1)).T),
]


def test_max_gradient_on_both_sides_of_a_tie_and_at_it_takes_the_first_argument():
    points = np.array([[1.0, 1.0, 0.5], [-2.0, -2.0, 3.0], [1.0, 1.0 + 2e-16, 0.0], [1.0 + 2e-16, 1.0, 0.0]])
    assert compile_field("max(x,y)").gradient(points).tolist() == [[1.0, 0.0, 0.0]] * 2 + [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    assert compile_field("max(y,x)").gradient(points).tolist() == [[0.0, 1.0, 0.0]] * 2 + [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    # the pyramid's edge x = y, both above the other two planes: the first plane's normal
    assert compile_field("max(max(-x,-y),max(-z,x+y+z-1))").gradient([-1.0, -1.0, 2.0]).tolist() == [-1.0, 0.0, 0.0]


def test_max_shares_a_subtree_and_runs_on_tiles_and_single_points():
    # x^2+y^2 inside and outside max is computed once: squares, sum, max, difference
    _, _, steps, _ = expr._program("max(x^2+y^2,z)-(x^2+y^2)")
    assert [step[0] for step in steps] == [np.square, np.square, np.add, np.maximum, np.subtract]
    field = compile_field("max(x^2+y^2,z)-(x^2+y^2)")
    tile = np.moveaxis(np.random.default_rng(34).normal(size=(3, 7, 9)), 0, -1)  # (rows, nodes, 3), last axis strided
    want = np.maximum(tile[..., 0] ** 2 + tile[..., 1] ** 2, tile[..., 2]) - (tile[..., 0] ** 2 + tile[..., 1] ** 2)
    assert field(tile).shape == (7, 9) and field(tile).tobytes() == want.tobytes()
    grad = field.gradient(tile)
    assert grad.shape == (7, 9, 3) and grad.tobytes() == field.gradient(np.ascontiguousarray(tile)).tobytes()
    assert field(tile[2, 3]).shape == () and field(tile[2, 3]) == want[2, 3]
    assert field.gradient(tile[2, 3]).tobytes() == grad[2, 3].tobytes()


def test_exponent_partial_where_the_base_is_not_positive():
    # a real power of a base <= 0 has an integer exponent, or is 0 at a 0 base: it does not vary with the exponent
    assert compile_field("(x-5)^(y*0+2)").gradient([[1.0, 2.0, 3.0]]).tolist() == [[-8.0, 0.0, 0.0]]
    assert compile_field("x^y").gradient([[0.0, 2.0, 3.0]]).tolist() == [[0.0, 0.0, 0.0]]
    assert compile_field("x^y").gradient([[-2.0, 3.0, 0.0]]).tolist() == [[12.0, 0.0, 0.0]]
    # where the base is positive the partial is still v log(a), bit for bit
    points = _gradient_points()
    x, y = points[:, 0], points[:, 1]
    assert compile_field("x^y").gradient(points)[:, 1].tobytes() == (np.power(x, y) * np.log(x)).tobytes()


def _quartic_torus_gradient(p):
    """The exact gradient of TORUS_EXPR, (x^2+y^2+z^2+3.75)^2 - 16 (x^2+y^2)."""
    s = (p**2).sum(axis=-1, keepdims=True) + 3.75
    return 4.0 * s * p - 32.0 * p * np.array([1.0, 1.0, 0.0])


@pytest.mark.parametrize("text,want", GRADIENTS, ids=[text for text, _ in GRADIENTS])
def test_gradient_matches_the_analytic_gradient(text, want):
    points = _gradient_points()
    got = compile_field(text).gradient(points)
    exact = np.stack(want(*points.T), axis=-1)
    assert got.shape == points.shape
    assert (np.linalg.norm(got - exact, axis=-1) <= 1e-13 * np.linalg.norm(exact, axis=-1)).all()


def test_gradient_shapes_for_single_points_and_strided_tiles():
    field = compile_field("sin(x)*y+z^2")
    tile = np.moveaxis(np.random.default_rng(32).normal(size=(3, 7, 9)), 0, -1)  # (rows, nodes, 3), last axis strided
    assert field.gradient(tile).shape == (7, 9, 3)
    assert field.gradient(tile).tobytes() == field.gradient(np.ascontiguousarray(tile)).tobytes()
    single = field.gradient(tile[2, 3])
    assert single.shape == (3,) and single.tobytes() == field.gradient(tile)[2, 3].tobytes()
    # a constant or a bare axis still gives one writable gradient per point
    assert compile_field("3").gradient(tile).tolist() == np.zeros((7, 9, 3)).tolist()
    axis = compile_field("y").gradient(tile)
    axis[0, 0] = 5.0
    assert axis[1:].tolist() == np.broadcast_to([0.0, 1.0, 0.0], (6, 9, 3)).tolist()


def test_gradient_reads_read_only_points_without_writing_them():
    points = _gradient_points()
    points.setflags(write=False)
    for text, _ in GRADIENTS:
        compile_field(text).gradient(points)
    assert points.tobytes() == _gradient_points().tobytes()


def test_expression_surface_normals_are_the_exact_gradient():
    # the CLI's expression surface carries the compiled gradient, so normals need no central differences
    from dataclasses import replace

    from croftoncloud import cli
    from croftoncloud.rng import Pseudo
    from croftoncloud.samplers import cloud_implicit

    surface = replace(cli._resolve_surface(TORUS_EXPR, None, ("implicit",)), clip_radius=3.0)
    assert surface.gradient is not None
    cloud = cloud_implicit(surface, Pseudo(33), 20_000)
    exact = _quartic_torus_gradient(cloud.positions)
    exact /= np.linalg.norm(exact, axis=-1, keepdims=True)
    assert np.abs(cloud.normals - exact).max() < 1e-14


# ---------------------------------------------------------------------------
# the field restricted to lines: coefficients in t of a polynomial field

#: (expression, degree): the benchmark torus, the catalog forms and two higher-degree surfaces
POLYNOMIALS = [
    (TORUS_EXPR, 4),
    ("x^2+y^2+z^2-1", 2),
    ("(x/1.5)^2+(y/1)^2+(z/0.5)^2-1", 2),
    ("z", 1),
    ("x^3+y^3+z^3-x*y*z-0.5", 3),
    ("(x^2+y^2-1)^3-x^2*y^3+z^2-0.1", 6),
    ("x^2^2-y/(1+1)", 4),  # a constant exponent and divisor are folded
    ("x^8-1", 8),
]


def _lines(seed, count):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs, rng.uniform(-2.0, 2.0, size=(count, 3))


@pytest.mark.parametrize("text,degree", POLYNOMIALS)
def test_line_polynomial_matches_the_field_on_the_line_within_the_guard(text, degree):
    field = compile_field(text)
    dirs, feet = _lines(8, 400)
    coefficients = field.line_polynomial(dirs, feet)
    majorant = field.line_polynomial(dirs, feet, majorant=True)
    assert coefficients.shape == majorant.shape == (degree + 1, 400)
    assert (majorant >= np.abs(coefficients)).all()
    t = np.random.default_rng(9).uniform(-3.0, 3.0, size=400)
    horner = np.zeros(400)
    for row in coefficients[::-1]:
        horner = horner * t + row
    powers = np.abs(t) ** np.arange(degree + 1)[:, None]
    # the scan's guard (samplers._polynomial_runs) at |t|, without its factor 3^D for the Bernstein basis change
    guard = 2.0**-52 * (field.line_polynomial.rounds + 12) * (degree + 2) * (majorant * powers).sum(axis=0)
    assert (np.abs(field(feet + t[:, None] * dirs) - horner) <= guard).all()


@pytest.mark.parametrize(
    "text", ["sin(x)", "cos(x)*y", "exp(z)", "sqrt(x)", "max(x,y)", "1/x", "y/(x+1)", "x^y", "2^x", "x^2.5", "x^9",
             "(x^3)^3", "x^(0-1)", "3", "x^0", "sin(1)"],
)
def test_line_polynomial_refusals(text):
    assert not hasattr(compile_field(text), "line_polynomial")


def test_line_polynomial_expands_a_shared_subtree_once(monkeypatch):
    # x^2 and y^2 are each read twice in the torus quartic, x^2+y^2 too: each step runs once on coefficients
    steps = expr._program(TORUS_EXPR)[2]
    field = compile_field(TORUS_EXPR)
    calls = []
    ufunc = expr._Line.__array_ufunc__

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return ufunc(self, *args, **kwargs)

    monkeypatch.setattr(expr._Line, "__array_ufunc__", counted)
    field.line_polynomial(*_lines(10, 5))
    assert calls == [step[0] for step in steps]
    assert calls.count(np.square) == 4
