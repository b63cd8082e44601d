"""Tiny arithmetic grammar for closed-form forcing and initial data.

Expressions may use the names ``theta``, ``t``, ``pi``, ``T``, the calls
``sin``, ``cos``, ``exp``, numeric literals and the operators + - * / **.
Anything else is rejected at parse time.  An evaluation that Python's own
arithmetic rejects (division by zero, overflow, a complex result) raises
``ConfigError`` naming the expression; numpy arrays give inf or nan there
instead, which the stepper reports where they are sampled.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

from .errors import ConfigError

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALLOWED_NAMES = {"theta", "t", "pi", "T"}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _validate(node: ast.AST, source: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, source)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _validate(node.left, source)
        _validate(node.right, source)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        _validate(node.operand, source)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS):
            raise ConfigError(f"call not allowed in expression: {source!r}")
        if node.keywords or len(node.args) != 1:
            raise ConfigError(f"calls take exactly one positional argument: {source!r}")
        _validate(node.args[0], source)
    elif isinstance(node, ast.Name):
        if node.id not in _ALLOWED_NAMES:
            raise ConfigError(f"unknown name {node.id!r} in expression {source!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"only numeric literals allowed: {source!r}")
    else:
        raise ConfigError(
            f"unsupported syntax ({type(node).__name__}) in expression {source!r}"
        )


def compile_expression(source: str, period: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """Compile an expression in (theta, t) into a vectorized closure."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {source!r}: {exc.msg}") from exc
    _validate(tree, source)
    code = compile(tree, "<expression>", "eval")
    env = dict(_ALLOWED_CALLS)
    env["pi"] = math.pi
    env["T"] = float(period)

    def closure(theta: np.ndarray, t: float) -> np.ndarray:
        local = {"theta": theta, "t": t}
        try:  # Python scalars raise where numpy arrays give inf or nan
            value = np.asarray(eval(code, {"__builtins__": {}}, {**env, **local}), dtype=float)
        except (ArithmeticError, TypeError) as exc:  # TypeError: a complex result
            raise ConfigError(f"cannot evaluate expression {source!r}: {exc}") from exc
        return value + np.zeros_like(theta)

    return closure
