"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every op records a backward closure on the implicit tape (the graph of
``Tensor`` objects); ``backward()`` runs reverse accumulation in topological
order. Gradients sum when a node feeds multiple consumers. No broadcasting
except scalar-with-tensor; explicit ops cover the few structured cases
(row-bias add, row gather) so every backward rule stays auditable. A model
unit may instead be one fused node with a hand-written backward built on
``Tensor._result``, as the GRU window in ``forecaster.forecast`` is.
``matmul`` skips the gradient product for a constant operand such as the
GIN aggregation matrix (see ``needs_grad``).
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    """Dense float64 tensor participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        out = Tensor(data)
        if any(needs_grad(p) for p in parents):
            out._parents = tuple(parents)
            out._backward = backward
            out.requires_grad = True
        return out

    def backward(self):
        """Reverse accumulation from a scalar loss into every .grad."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, iter(self._parents))]
        seen.add(id(self))
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                topo.append(node)
                stack.pop()
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + g


def needs_grad(t):
    """True for a parameter or a node on a path from one; gradients flowing
    into any other tensor reach nothing."""
    return t.requires_grad or bool(t._parents)


def _is_scalar(t):
    return t.data.size == 1


def _check_same_shape(op, a, b):
    if a.shape != b.shape and not (_is_scalar(a) or _is_scalar(b)):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# -- binary elementwise -----------------------------------------------------

def add(a, b):
    _check_same_shape("add", a, b)
    def bwd(g):
        a._accum(g if not _is_scalar(a) or a.shape == g.shape else g.sum())
        b._accum(g if not _is_scalar(b) or b.shape == g.shape else g.sum())
    return Tensor._result(a.data + b.data, (a, b), bwd)


def sub(a, b):
    _check_same_shape("sub", a, b)
    def bwd(g):
        a._accum(g if not _is_scalar(a) or a.shape == g.shape else g.sum())
        b._accum(-g if not _is_scalar(b) or b.shape == g.shape else -g.sum())
    return Tensor._result(a.data - b.data, (a, b), bwd)


def mul(a, b):
    _check_same_shape("mul", a, b)
    def bwd(g):
        ga = g * b.data
        gb = g * a.data
        a._accum(ga if ga.shape == a.shape else ga.sum())
        b._accum(gb if gb.shape == b.shape else gb.sum())
    return Tensor._result(a.data * b.data, (a, b), bwd)


def scale(a, factor):
    """Multiply by a python constant (not differentiated w.r.t. factor)."""
    factor = float(factor)
    def bwd(g):
        a._accum(g * factor)
    return Tensor._result(a.data * factor, (a,), bwd)


# -- unary elementwise ------------------------------------------------------

def relu(a):
    mask = a.data > 0
    def bwd(g):
        a._accum(g * mask)
    return Tensor._result(a.data * mask, (a,), bwd)


def log(a):
    if np.any(a.data <= 0):
        raise ValueError("log: non-positive input")
    def bwd(g):
        a._accum(g / a.data)
    return Tensor._result(np.log(a.data), (a,), bwd)


def clamp_min(a, floor):
    """max(a, floor); gradient passes only where a exceeded the floor."""
    mask = a.data > floor
    def bwd(g):
        a._accum(g * mask)
    return Tensor._result(np.maximum(a.data, floor), (a,), bwd)


def absolute(a):
    sign = np.sign(a.data)  # subgradient 0 at ties
    def bwd(g):
        a._accum(g * sign)
    return Tensor._result(np.abs(a.data), (a,), bwd)


# -- structured ops ---------------------------------------------------------

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    def bwd(g):
        if needs_grad(a):
            a._accum(g @ b.data.T)
        if needs_grad(b):
            b._accum(a.data.T @ g)
    return Tensor._result(a.data @ b.data, (a, b), bwd)


def add_rowvec(a, bias):
    """Add a (n,) vector to every row of an (m, n) matrix."""
    if a.data.ndim != 2 or bias.data.ndim != 1 or a.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_rowvec: shapes {a.shape} and {bias.shape}")
    def bwd(g):
        a._accum(g)
        bias._accum(g.sum(axis=0))
    return Tensor._result(a.data + bias.data[None, :], (a, bias), bwd)


def gather_rows(a, idx):
    """Select rows of a 2-d tensor; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.intp)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-d, got {a.shape}")
    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        a._accum(buf)
    return Tensor._result(a.data[idx], (a,), bwd)


def softmax_rows(a):
    """Row-wise softmax with max-subtraction; accepts (n,) or (m, n)."""
    x = a.data
    if x.ndim == 1:
        x = x[None, :]
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    if a.data.ndim == 1:
        out = out[0]
    def bwd(g):
        if a.data.ndim == 1:
            s, gg = out[None, :], g[None, :]
        else:
            s, gg = out, g
        dot = (gg * s).sum(axis=1, keepdims=True)
        ga = s * (gg - dot)
        a._accum(ga[0] if a.data.ndim == 1 else ga)
    return Tensor._result(out, (a,), bwd)


def grad_reverse(a, factor):
    """Identity forward; backward passes -factor times the upstream gradient."""
    factor = float(factor)
    if factor < 0:
        raise ValueError("grad_reverse: factor must be >= 0")
    def bwd(g):
        a._accum(g * (-factor))
    return Tensor._result(a.data.copy(), (a,), bwd)


# -- reductions -------------------------------------------------------------

def tsum(a):
    def bwd(g):
        a._accum(np.full_like(a.data, float(g)))
    return Tensor._result(np.asarray(a.data.sum()), (a,), bwd)


def tmean(a):
    n = a.data.size
    def bwd(g):
        a._accum(np.full_like(a.data, float(g) / n))
    return Tensor._result(np.asarray(a.data.mean()), (a,), bwd)
