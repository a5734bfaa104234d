"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every op records a backward closure on the implicit tape (the graph of
``Tensor`` objects); ``backward()`` runs reverse accumulation in topological
order. Gradients sum when a node feeds multiple consumers. Each model unit
(GRU window, GIN layer, domain head, combiner, L1 loss) is one fused node
built on ``Tensor._result`` with a hand-written backward; each affine map
x @ w + b inside one passes its gradient back through ``affine_backward``,
except the GRU window's gates and mix, whose gradients sum over the window.
Beside them there are three ops: ``gather_rows`` picks a batch's embedding
rows, ``add`` sums the forecast and domain losses, and ``tsum`` reduces an
output for benchmarks and tests. The generic ops the fused units are
composed of are kept in the test suite (tests/composed.py) as their exact
references.
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


def affine_backward(g, x, w, b, out=None):
    """Backward of the affine map x @ w + b for the array x and parameter
    Tensors w and b: accumulates g's bias and weight gradients into b and w,
    in that order, and returns the gradient reaching x (written into out
    when it is given)."""
    b._accum(g.sum(axis=0))
    w._accum(x.T @ g)
    return np.matmul(g, w.data.T, out=out)


def add(a, b):
    """a + b for two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    def bwd(g):
        a._accum(g)
        b._accum(g)
    return Tensor._result(a.data + b.data, (a, b), bwd)


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


def tsum(a):
    def bwd(g):
        a._accum(np.full_like(a.data, float(g)))
    return Tensor._result(np.asarray(a.data.sum()), (a,), bwd)
