"""Reverse-mode automatic differentiation over float32 or float64 arrays.

Every operation builds a graph node holding its parents and a closure that
maps the output gradient to parent gradients. ``backward(loss)`` walks that
graph once in reverse topological order; the graph itself is the tape.

A tensor keeps the dtype of a float32 or float64 array and holds anything
else as float64, so a graph computes in the dtype of its parameters and
inputs. A Python scalar operand takes the dtype of the tensor it meets:
under NumPy's promotion rules (NEP 50) a float64 0-d array or ``np.float64``
scalar would turn a float32 result into float64, and a Python float does
not.

A closure may skip the gradients its parents do not need: for a parent
that does not require a gradient, it may return ``None`` instead of doing
that parent's arithmetic, and ``backward`` drops whatever it returns
there. The ``Tensor`` operations skip any such parent. A node with a
hand-written backward skips at most its data input, as ``layer_norm`` and
``mlp_tail`` skip ``x``: every program path trains all of a head's
parameters or builds no graph. For
every parent that needs one, a closure returns a gradient: ``backward``
takes one for each node it reaches, and a node left without one is a
``KeyError``.

Values and gradients are dense arrays. A client trains each embedding table
as a compact table of only the rows its data can look up, so a table's
gradient costs the rows the client reaches, not the vocabulary.
``TouchedRows`` carries those rows' new values back to the server, so a
trained table travels at the size of its compact table.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "TouchedRows",
    "GradientError",
    "backward",
    "zero_grads",
    "concat",
]


def stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of an array, written into ``out`` when given; exp of
    the negated magnitude never overflows."""
    e = np.exp(-np.abs(x))
    # e <= 1, so the maximum picks 1 where x >= 0 and e elsewhere
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


class GradientError(RuntimeError):
    """Raised when a backward pass is started from a non-finite loss."""


class TouchedRows:
    """New values of some rows of a table whose other rows keep their old
    values.

    ``rows`` are sorted and unique; ``values[i]`` is the new value of row
    ``rows[i]``. A row left out is unchanged, not zero, so there is no
    dense conversion: the server writes the rows into the old table.
    """

    __slots__ = ("rows", "values")

    def __init__(self, rows: np.ndarray, values: np.ndarray):
        self.rows = rows
        self.values = values

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.values.nbytes


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _float_array(data) -> np.ndarray:
    """``data`` as an ndarray: a float32 array keeps its dtype, anything
    else is float64."""
    data = np.asarray(data)
    return data if data.dtype == np.float64 or data.dtype == np.float32 else data.astype(np.float64)


class Tensor:
    """A float32 or float64 ndarray plus the graph edge needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        # always an ndarray: 0-d arithmetic degrades to immutable numpy
        # scalars, which would silently break in-place updates
        self.data: np.ndarray = _float_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ---------------------------------------------

    def _lift(self, x) -> "Tensor":
        """``x`` as the other operand of this tensor: a constant that is not
        a tensor takes this tensor's dtype."""
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.data.dtype))

    @staticmethod
    def _node(data, parents, backward_fn) -> "Tensor":
        # built field by field: every graph operation passes through here
        out = Tensor.__new__(Tensor)
        if type(data) is not np.ndarray or (data.dtype != np.float64 and data.dtype != np.float32):
            data = _float_array(data)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward_fn
                break
        return out

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        return self._node(
            self.data + other.data,
            (self, other),
            lambda g: (
                _unbroadcast(g, self.shape) if self.requires_grad else None,
                _unbroadcast(g, other.shape) if other.requires_grad else None,
            ),
        )

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        return self._node(
            self.data * other.data,
            (self, other),
            lambda g: (
                _unbroadcast(g * other.data, self.shape) if self.requires_grad else None,
                _unbroadcast(g * self.data, other.shape) if other.requires_grad else None,
            ),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self._node(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        other = self._lift(other)
        return self._node(
            self.data - other.data,
            (self, other),
            lambda g: (
                _unbroadcast(g, self.shape) if self.requires_grad else None,
                _unbroadcast(-g, other.shape) if other.requires_grad else None,
            ),
        )

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) - self

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        return self._node(
            self.data / other.data,
            (self, other),
            lambda g: (
                _unbroadcast(g / other.data, self.shape) if self.requires_grad else None,
                _unbroadcast(-g * self.data / (other.data * other.data), other.shape)
                if other.requires_grad else None,
            ),
        )

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data
        if b.ndim == 2 and a.ndim > 2:
            # A weight shared by every leading index: numpy's matmul would
            # loop over those indices and read the whole weight once per
            # slice, so the forward and both gradients are each one GEMM
            # over all rows.
            rows = a.reshape(-1, a.shape[-1])

            def shared_bw(g: np.ndarray):
                g2 = g.reshape(-1, g.shape[-1])
                return ((g2 @ b.T).reshape(a.shape) if self.requires_grad else None,
                        rows.T @ g2 if other.requires_grad else None)

            out = (rows @ b).reshape(a.shape[:-1] + (b.shape[1],))
            return self._node(out, (self, other), shared_bw)

        def bw(g: np.ndarray):
            ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape) if self.requires_grad else None
            gb = (_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
                  if other.requires_grad else None)
            return ga, gb

        return self._node(a @ b, (self, other), bw)

    # -- reductions -----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def bw(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.shape).copy(),)

        return self._node(self.data.sum(axis=axis, keepdims=keepdims), (self,), bw)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max along one axis; ties share the gradient equally."""
        out = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == out).astype(self.data.dtype)
        with np.errstate(invalid="ignore"):  # a NaN row has no max: 0 / 0, a NaN mask
            mask /= mask.sum(axis=axis, keepdims=True)

        def bw(g: np.ndarray):
            gg = g if keepdims else np.expand_dims(g, axis)
            return (mask * gg,)

        return self._node(out if keepdims else out.squeeze(axis=axis), (self,), bw)

    # -- elementwise ----------------------------------------------------

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return self._node(out, (self,), lambda g: (g * out,))

    def sigmoid(self) -> "Tensor":
        out = stable_sigmoid(self.data)
        return self._node(out, (self,), lambda g: (g * out * (1.0 - out),))

    def relu(self) -> "Tensor":
        out = np.maximum(self.data, 0.0)
        return self._node(out, (self,), lambda g: (g * (self.data > 0.0),))

    def abs(self) -> "Tensor":
        return self._node(np.abs(self.data), (self,), lambda g: (g * np.sign(self.data),))

    # -- shape ----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        return self._node(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(self.shape),)
        )

    def transpose(self, *axes) -> "Tensor":
        inv = np.argsort(axes)
        return self._node(
            self.data.transpose(axes), (self,), lambda g: (g.transpose(inv),)
        )

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return self._node(
            np.swapaxes(self.data, a, b), (self,), lambda g: (np.swapaxes(g, a, b),)
        )

    def __getitem__(self, key) -> "Tensor":
        advanced = isinstance(key, (np.ndarray, list)) or (
            isinstance(key, tuple) and any(isinstance(k, (np.ndarray, list)) for k in key)
        )

        def bw(g: np.ndarray):
            buf = np.zeros(self.shape, dtype=self.data.dtype)
            if advanced:
                np.add.at(buf, key, g)
            else:
                buf[key] += g
            return (buf,)

        return self._node(self.data[key], (self,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradient splits back at the seams."""
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g: np.ndarray):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor._node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    ``loss`` must be a finite scalar; a NaN/Inf loss aborts with diagnostics
    so a poisoned batch never turns into a silent parameter update.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise GradientError(f"non-finite loss {float(loss.data)!r}; cannot backpropagate")

    # iterative topological order (graphs can exceed the recursion limit)
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node))
        if node._backward is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else np.asarray(node.grad + g)
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            grads[key] = np.asarray(grads[key] + pg if key in grads else pg)


def zero_grads(params) -> None:
    """Clear ``.grad`` on every tensor in a dict or iterable of tensors."""
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None
