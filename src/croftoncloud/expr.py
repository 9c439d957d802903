"""Field expressions in x, y, z, compiled to vectorized numpy callables.

Grammar (highest precedence first):

    ^  (right associative)  >  unary -  >  * /  >  + -

with functions ``sin``, ``cos``, ``exp``, ``sqrt``, variables ``x``, ``y``, ``z``,
decimal literals (``5``, ``5.``, ``.5``, ``0.25``), and parentheses.  With
``^`` read as ``**`` (itself refused) this is a subset of Python's
expressions, so :mod:`ast` parses it under a whitelist of node types into a
register program (:func:`_program`).  Registers 0-2 hold the axes of the
points, and one register holds each distinct constant and each distinct
subtree, so a subtree written twice (``x^2+y^2`` in a torus quartic) is
computed once.  A step applies one numpy ufunc to registers; ``a^2`` is
``np.square(a)``, which gives the bits of ``np.power(a, 2.0)``.  The field
runs the steps in order and drops each temporary after its last read; a
step may write its result over an input temporary it reads last, never
over the points.  The field's ``gradient`` attribute, ``(..., 3) -> (..., 3)``,
is forward-mode differentiation: :func:`_run` runs the same steps on three
partials per register (:data:`_PARTIALS`), writing no step over an input.
"""

from __future__ import annotations

import ast
import re
import warnings

import numpy as np

__all__ = ["compile_field", "ExpressionError"]

_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide, ast.Pow: np.power}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_PARTIALS = {  # ufunc -> the partial derivative of its value v in each input, given v and the inputs; None for 1
    np.add: (None, None), np.subtract: (None, lambda v, a, b: -1.0),
    np.multiply: (lambda v, a, b: b, lambda v, a, b: a),
    np.divide: (lambda v, a, b: 1.0 / b, lambda v, a, b: -v / b),
    np.power: (lambda v, a, b: b * np.power(a, b - 1.0), lambda v, a, b: v * np.log(a)),
    np.square: (lambda v, a: 2.0 * a,), np.negative: (lambda v, a: -1.0,), np.exp: (lambda v, a: v,),
    np.sin: (lambda v, a: np.cos(a),), np.cos: (lambda v, a: -np.sin(a),),
    np.sqrt: (lambda v, a: np.divide(0.5, v, out=np.zeros(np.shape(v)), where=v != 0.0),),  # 0 at a cone point
}
_AXES = ("x", "y", "z")
_DECIMAL = re.compile(r"\d+\.?\d*|\.\d+")


class ExpressionError(ValueError):
    """Malformed field expression."""


def _literal(node, source: str):
    """The value of a decimal literal *node*, else None."""
    if isinstance(node, ast.Constant) and _DECIMAL.fullmatch(segment := ast.get_source_segment(source, node)):
        return float(segment)
    return None


def _walk(node, source: str, registers: dict) -> int:
    """The register of *node*'s value, adding it and its subtrees to *registers* (key -> register) once each.

    A key is an axis name, a constant's value, or ``(ufunc, *input
    registers)``; raises ExpressionError off the whitelist.
    """
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left = _walk(node.left, source, registers)
        if isinstance(node.op, ast.Pow) and _literal(node.right, source) == 2.0:
            key = (np.square, left)
        else:
            key = (_BINARY[type(node.op)], left, _walk(node.right, source, registers))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        key = (np.negative, _walk(node.operand, source, registers))
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS and len(node.args) == 1 and not node.keywords:
        key = (_FUNCTIONS[node.func.id], _walk(node.args[0], source, registers))
    elif isinstance(node, ast.Name):
        if node.id not in _AXES:
            raise ExpressionError(f"unknown name {node.id!r} (variables x, y, z; functions {', '.join(_FUNCTIONS)})")
        key = node.id
    elif (value := _literal(node, source)) is not None:
        key = value
    else:
        raise ExpressionError(f"unsupported {ast.get_source_segment(source, node)!r} in {source!r}")
    return registers.setdefault(key, len(registers))


def _program(text: str):
    """The register program of *text*: ``(size, constants, steps, result)``.

    Registers 0-2 hold the x, y and z of the points, and ``constants`` lists
    ``(register, value)``.  Each step ``(ufunc, inputs, out, reuse, dead)``
    writes ``ufunc(*inputs)`` to register *out*, into the array of register
    *reuse* when that is not None (a temporary that depends on the points
    and is read here for the last time), then clears the registers in
    *dead*.  *result* holds the field value; registers number *size*.
    """
    if "**" in text:
        raise ExpressionError(f"powers are written ^, not **, in {text!r}")
    source = " ".join(text.split()).replace("^", "**")
    registers = {axis: k for k, axis in enumerate(_AXES)}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning ("1if") comes only with refused input: raise, not print
            result = _walk(ast.parse(source, mode="eval").body, source, registers)
    except SyntaxError as err:
        raise ExpressionError(f"{err.msg} in {text!r}") from None
    except (RecursionError, MemoryError):
        # the walk recurses once per tree level; on deep nesting Python 3.11's parser raises MemoryError
        raise ExpressionError("expression nested too deeply") from None
    constants = [(reg, key) for key, reg in registers.items() if type(key) is float]
    ops = [(key[0], key[1:], reg) for key, reg in registers.items() if type(key) is tuple]
    last_read = {reg: i for i, (_, inputs, _) in enumerate(ops) for reg in inputs}
    temporaries = {out for _, _, out in ops} - {result}
    varying = set(range(len(_AXES)))
    steps = []
    for i, (ufunc, inputs, out) in enumerate(ops):
        if varying.intersection(inputs):
            varying.add(out)
        dead = tuple(reg for reg in dict.fromkeys(inputs) if reg in temporaries and last_read[reg] == i)
        reuse = next((reg for reg in dead if reg in varying), None)
        steps.append((ufunc, inputs, out, reuse, dead))
    return len(registers), constants, steps, result


def _run(program, points: np.ndarray, gradient: bool) -> tuple:
    """``(value, partials)`` at *points*: the partials in x, y, z, ``(3, ...)``, or None if constant or not *gradient*."""
    size, constants, steps, result = program
    regs, grads = [None] * size, [None] * size
    regs[: len(_AXES)] = (points[..., k] for k in range(len(_AXES)))
    for reg, value in constants:
        regs[reg] = value
    if gradient:
        grads[: len(_AXES)] = np.eye(3).reshape((3, 3) + (1,) * (points.ndim - 1))
    for ufunc, inputs, out, reuse, dead in steps:
        args = [regs[reg] for reg in inputs]
        buffer = None if reuse is None or gradient else regs[reuse]
        # a 0-d point set gives numpy scalars, which take no out=
        regs[out] = ufunc(*args, out=buffer if type(buffer) is np.ndarray else None)
        if gradient:
            terms = [grads[reg] if rule is None else rule(regs[out], *args) * grads[reg]
                     for rule, reg in zip(_PARTIALS[ufunc], inputs) if grads[reg] is not None]
            grads[out] = sum(terms[1:], terms[0]) if terms else None
        for reg in dead:
            regs[reg] = grads[reg] = None
    return regs[result], grads[result]


def compile_field(text: str):
    """Compile an expression in x, y, z to a vectorized field callable with a ``gradient`` attribute."""
    program = _program(text)

    def field(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        value, _ = _run(program, points, False)
        # a step's array is the caller's own; an axis of the points, a constant or a 0-d result is broadcast
        if program[2] and type(value) is np.ndarray:
            return value
        return np.broadcast_to(np.asarray(value, dtype=np.float64), points.shape[:-1])

    def gradient(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        partials = _run(program, points, True)[1]
        return np.moveaxis(np.broadcast_to(0.0 if partials is None else partials, (3, *points.shape[:-1])), 0, -1).copy()

    field.gradient = gradient
    return field
