"""Field expressions in x, y, z, compiled to vectorized numpy callables.

Grammar (highest precedence first):

    ^  (right associative)  >  unary -  >  * /  >  + -

with functions ``sin``, ``cos``, ``exp``, ``sqrt`` and the binary ``max`` (each
function's argument count is its ufunc's ``nin``), variables ``x``, ``y``, ``z``,
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
A polynomial of degree 1 to 8 (:data:`_LINE_DEGREE`) also has a
``line_polynomial``, its coefficients in t on lines (:class:`_Line`); ``sin``,
``cos``, ``exp``, ``sqrt``, ``max``, division by a varying term and a
varying, non-integer or too large exponent leave it off.
"""

from __future__ import annotations

import ast
import contextlib
import re
import warnings

import numpy as np

__all__ = ["compile_field", "ExpressionError"]

_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide, ast.Pow: np.power}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "max": np.maximum}
_PARTIALS = {  # ufunc -> the partial derivative of its value v in each input, given v and the inputs; None for 1
    np.add: (None, None), np.subtract: (None, lambda v, a, b: -1.0),
    np.multiply: (lambda v, a, b: b, lambda v, a, b: a),
    np.divide: (lambda v, a, b: 1.0 / b, lambda v, a, b: -v / b),
    # a real power of a <= 0 has an integer exponent, or is 0 at a = 0: it does not vary with the exponent there
    np.power: (lambda v, a, b: b * np.power(a, b - 1.0), lambda v, a, b: v * np.log(a, out=np.zeros(np.shape(v)), where=a > 0)),
    np.maximum: (lambda v, a, b: a >= b, lambda v, a, b: a < b),  # a tie takes the first argument
    np.square: (lambda v, a: 2.0 * a,), np.negative: (lambda v, a: -1.0,), np.exp: (lambda v, a: v,),
    np.sin: (lambda v, a: np.cos(a),), np.cos: (lambda v, a: -np.sin(a),),
    np.sqrt: (lambda v, a: np.divide(0.5, v, out=np.zeros(np.shape(v)), where=v != 0.0),),  # 0 at a cone point
}
_AXES = ("x", "y", "z")
#: the highest degree a field may have and still get a ``line_polynomial``
_LINE_DEGREE = 8
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
    elif isinstance(node, ast.Call) and (ufunc := _FUNCTIONS.get(getattr(node.func, "id", None))) and not node.keywords:
        if len(node.args) != ufunc.nin:
            raise ExpressionError(f"{node.func.id} takes {ufunc.nin} argument(s), got {len(node.args)} in {source!r}")
        key = (ufunc, *(_walk(arg, source, registers) for arg in node.args))
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


def _run(program, axes, gradient: bool) -> tuple:
    """``(value, partials)`` from the x, y, z *axes* (arrays or :class:`_Line`): partials ``(3, ...)`` or None."""
    size, constants, steps, result = program
    regs, grads = [None] * size, [None] * size
    regs[: len(_AXES)] = axes
    for reg, value in constants:
        regs[reg] = value
    if gradient:
        grads[: len(_AXES)] = np.eye(3).reshape((3, 3) + (1,) * np.ndim(axes[0]))
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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((len(a) + len(b) - 1, a.shape[1]))
    for k, row in enumerate(a):
        out[k : k + len(b)] += row * b
    return out


class _Line:
    """Coefficients ``(degree + 1, lines)`` in t on lines: the number type :func:`_run` runs for ``line_polynomial``.

    A step off the polynomials of degree up to _LINE_DEGREE raises TypeError.
    *rounds* bounds the roundings on any path to the value in the field's
    evaluation (n for an n-th power).  An *absolute* one runs the majorant:
    constants by absolute value, a difference as a sum, a negation dropped.
    """

    def __init__(self, coefficients: np.ndarray, absolute: bool, rounds: int = 0):
        self.c, self.absolute, self.rounds = coefficients, absolute, rounds

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        rows = [x.c if isinstance(x, _Line) else np.full((1, self.c.shape[1]), abs(x) if self.absolute else x) for x in args]
        a, b = (rows + [None])[:2]
        rounds = 1 + max(x.rounds for x in args if isinstance(x, _Line))
        constant = len(args) == 2 and not isinstance(args[1], _Line)
        if ufunc in (np.add, np.subtract):
            c = np.zeros((max(len(a), len(b)), a.shape[1]))
            c[: len(a)] += a
            c[: len(b)] += b if ufunc is np.add or self.absolute else -b
        elif ufunc in (np.multiply, np.square):
            c = _product(a, a if ufunc is np.square else b)
        elif ufunc is np.negative:
            c = a if self.absolute else -a
        elif ufunc is np.divide and constant:
            c = a / b
        elif ufunc is np.power and constant and args[1] in range(_LINE_DEGREE + 1):
            c, rounds = np.ones((1, a.shape[1])), rounds - 1 + int(args[1])
            for _ in range(int(args[1])):
                c = _product(c, a)
        else:
            return NotImplemented
        return _Line(c, self.absolute, rounds) if len(c) <= _LINE_DEGREE + 1 else NotImplemented


def compile_field(text: str):
    """Compile an expression in x, y, z to a vectorized field callable with a ``gradient`` attribute."""
    program = _program(text)

    def field(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        value, _ = _run(program, [points[..., k] for k in range(len(_AXES))], False)
        # a step's array is the caller's own; an axis of the points, a constant or a 0-d result is broadcast
        if program[2] and type(value) is np.ndarray:
            return value
        return np.broadcast_to(np.asarray(value, dtype=np.float64), points.shape[:-1])

    def gradient(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        partials = _run(program, [points[..., k] for k in range(len(_AXES))], True)[1]
        return np.moveaxis(np.broadcast_to(0.0 if partials is None else partials, (3, *points.shape[:-1])), 0, -1).copy()

    def line_polynomial(dirs: np.ndarray, feet: np.ndarray, majorant: bool = False) -> np.ndarray:
        """The field on the lines ``feet + t dirs`` ``(lines, 3)``: its coefficients in t, or its majorant's."""
        lines = [_Line(np.abs(part) if majorant else part, majorant) for part in np.stack((feet, dirs)).transpose(2, 0, 1)]
        return _run(program, lines, False)[0].c

    field.gradient = gradient
    probe = None
    with np.errstate(all="ignore"), contextlib.suppress(TypeError):  # on no lines; raises off the polynomials
        probe = _run(program, [_Line(np.zeros((2, 0)), False)] * len(_AXES), False)[0]
    if isinstance(probe, _Line) and len(probe.c) > 1:
        field.line_polynomial, line_polynomial.rounds = line_polynomial, probe.rounds
    return field
