"""Field expressions in x, y, z, compiled to vectorized numpy callables.

Grammar (highest precedence first):

    ^  (right associative)  >  unary -  >  * /  >  + -

with functions ``sin``, ``cos``, ``exp``, variables ``x``, ``y``, ``z``,
decimal literals (``5``, ``5.``, ``.5``, ``0.25``), and parentheses.  With
``^`` read as ``**`` (itself refused) this is a subset of Python's
expressions, so :mod:`ast` parses it under a whitelist of node types into a
flat postfix program: an ``int`` pushes that axis of the points, a ``float``
pushes itself, and a numpy ufunc replaces its ``nin`` top entries with its
result.  ``compile_field`` returns a loop over that program.
"""

from __future__ import annotations

import ast
import re
import warnings

import numpy as np

__all__ = ["compile_field", "ExpressionError"]

_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide, ast.Pow: np.power}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_VARIABLES = {"x": 0, "y": 1, "z": 2}
_DECIMAL = re.compile(r"\d+\.?\d*|\.\d+")


class ExpressionError(ValueError):
    """Malformed field expression."""


def _postfix(node, source: str) -> list:
    """The postfix program of *node*; raises ExpressionError off the whitelist."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _postfix(node.left, source) + _postfix(node.right, source) + [_BINARY[type(node.op)]]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _postfix(node.operand, source) + [np.negative]
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS and len(node.args) == 1 and not node.keywords:
        return _postfix(node.args[0], source) + [_FUNCTIONS[node.func.id]]
    if isinstance(node, ast.Name):
        if node.id not in _VARIABLES:
            raise ExpressionError(f"unknown name {node.id!r} (variables x, y, z; functions sin, cos, exp)")
        return [_VARIABLES[node.id]]
    if isinstance(node, ast.Constant) and _DECIMAL.fullmatch(segment := ast.get_source_segment(source, node)):
        return [float(segment)]
    raise ExpressionError(f"unsupported {ast.get_source_segment(source, node)!r} in {source!r}")


def compile_field(text: str):
    """Compile an expression in x, y, z to a vectorized field callable."""
    if "**" in text:
        raise ExpressionError(f"powers are written ^, not **, in {text!r}")
    source = " ".join(text.split()).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning ("1if") comes only with refused input: raise, not print
            program = _postfix(ast.parse(source, mode="eval").body, source)
    except SyntaxError as err:
        raise ExpressionError(f"{err.msg} in {text!r}") from None
    except (RecursionError, MemoryError):
        # the walk recurses once per tree level; on deep nesting Python 3.11's parser raises MemoryError
        raise ExpressionError("expression nested too deeply") from None

    def field(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        stack: list = []
        for op in program:
            if not isinstance(op, np.ufunc):
                stack.append(points[..., op] if type(op) is int else op)
            elif op.nin == 1:
                stack[-1] = op(stack[-1])
            else:
                stack[-1] = op(stack.pop(-2), stack[-1])  # (left, right) are the top two
        return np.broadcast_to(np.asarray(stack[0], dtype=np.float64), points.shape[:-1])

    return field
