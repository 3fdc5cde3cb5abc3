"""Minimal reverse-mode automatic differentiation on dense float64 tensors.

The op set is deliberately small: exactly what a multi-stage temporal
convolutional model with a contrastive head needs. Every operation records
its inputs and a vector-Jacobian closure on the output tensor, so a backward
pass is a single reverse walk over a topologically ordered graph. There is
no broadcasting engine beyond the few structured cases the model uses
(scalars against arrays, biases inside conv1d_dilated).

Inside ``with no_grad():`` the same ops record nothing: each output is a
leaf, so a forward pass keeps no intermediate array alive.  The switch is
a context variable, so it holds for the current thread (or asyncio task)
only; another thread keeps recording.

Tensors are immutable once created except for their ``grad`` slot, so
forward evaluation of a frozen parameter set is safe from multiple threads.
A graph and its backward pass belong to a single training step and are not
thread-safe.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "CompGraph",
    "backward",
    "grad_check",
    "no_grad",
    "conv1d_dilated",
    "relu",
    "add",
    "mul",
    "matmul",
    "scale",
    "mean",
    "tsum",
    "exp",
    "log",
    "dot",
    "l2_normalize",
    "row",
    "mean_rows",
    "stack_rows",
    "transpose",
    "softmax_rows",
    "softmax_cross_entropy",
]


_recording = contextvars.ContextVar("tempseg_autodiff_recording",
                                    default=True)


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph, in this context only.

    Outputs created inside the block are leaves with the same values, so
    nothing can be differentiated through them and no vjp closure keeps
    its inputs alive.  The previous setting is restored on exit, also when
    the block raises.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """Dense float64 array with an optional gradient slot.

    A tensor is either a leaf (constructed directly from data, or by an op
    under ``no_grad``) or the output of a recorded operation, in which case
    it keeps references to its parent tensors and a closure computing the
    parents' gradient contributions.
    """

    __slots__ = ("values", "grad", "_parents", "_vjp", "_op")

    def __init__(self, values, _parents=(), _vjp=None, _op="leaf"):
        if _parents and not _recording.get():
            _parents, _vjp = (), None
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = _parents
        self._vjp: Optional[Callable] = _vjp
        self._op: str = _op

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self) -> None:
        """Reset the gradient slot to zeros of the value shape."""
        self.grad = np.zeros_like(self.values)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Convenience wrapper: trace the graph from here and run backward."""
        backward(CompGraph.from_output(self), self)

    def __repr__(self) -> str:
        return f"Tensor(op={self._op!r}, shape={self.shape})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class CompGraph:
    """Topologically ordered record of the operations behind one output.

    ``nodes`` lists every tensor reachable backwards from the output, with
    each node's parents appearing before it. A backward traversal therefore
    visits every node exactly once.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def from_output(cls, output: Tensor) -> "CompGraph":
        order: list = []
        seen = set()
        stack = [(output, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)


def backward(graph: CompGraph, loss: Tensor) -> None:
    """Populate gradients of everything in ``graph`` reachable from ``loss``.

    ``loss`` must be a scalar (shape ``()``). Gradients accumulate into any
    pre-existing ``grad`` arrays, which is what gradient accumulation across
    a mini-batch of sequences relies on; callers zero parameter gradients
    between optimizer steps. Parameters that never entered the graph keep
    whatever (zeroed) gradient they already had.
    """
    if loss.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    loss.accumulate_grad(np.ones((), dtype=np.float64))
    for node in reversed(graph.nodes):
        if node._vjp is None or node.grad is None:
            continue
        parent_grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, parent_grads):
            if g is not None:
                parent.accumulate_grad(g)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _overlap(shift: int, t_len: int) -> tuple[slice, slice]:
    """Output rows and input rows of a tap reading x[t + shift].

    Rows whose source falls outside [0, t_len) would read zero padding and
    are left out.  Requires |shift| < t_len.
    """
    if shift >= 0:
        return slice(0, t_len - shift), slice(shift, t_len)
    return slice(-shift, t_len), slice(0, t_len + shift)


def conv1d_dilated(x: Tensor, w: Tensor, b: Tensor, dilation: int = 1) -> Tensor:
    """Length-preserving dilated 1-D convolution.

    ``x`` is T x C_in (time major), ``w`` is C_out x C_in x k with odd k,
    ``b`` is a C_out bias vector. The output is T x C_out, as if the input
    were zero padded by (k-1)*dilation/2 on each side, which is what lets
    a residual block add its input back onto the convolution output.

    No padded copy is made: the centre tap and the bias give ``x @ W_c.T +
    b``, and each other tap adds one matmul over the rows where ``x``
    shifted by ``(j - centre) * dilation`` overlaps the sequence (padding
    only ever contributes zeros). Taps that miss the sequence entirely are
    skipped, and a 1x1 convolution is a single affine map.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if not isinstance(dilation, int) or dilation < 1:
        raise ValueError(f"dilation must be a positive int, got {dilation!r}")
    if x.ndim != 2 or w.ndim != 3 or b.ndim != 1:
        raise ValueError(
            f"conv1d_dilated expects x (T,C_in), w (C_out,C_in,k), b (C_out,); "
            f"got {x.shape}, {w.shape}, {b.shape}"
        )
    t_len, c_in = x.shape
    c_out, w_cin, k = w.shape
    if k % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {k}")
    if w_cin != c_in:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {w_cin}")
    if b.shape != (c_out,):
        raise ValueError(f"bias shape {b.shape} does not match C_out={c_out}")

    xv, wv = x.values, w.values
    centre = (k - 1) // 2
    taps = [(j, *_overlap((j - centre) * dilation, t_len)) for j in range(k)
            if j != centre and abs(j - centre) * dilation < t_len]
    out = xv @ wv[:, :, centre].T
    out += b.values
    for j, dst, src in taps:
        out[dst] += xv[src] @ wv[:, :, j].T

    def vjp(g):
        gb = g.sum(axis=0)
        gw = np.zeros_like(wv)
        gw[:, :, centre] = g.T @ xv
        gx = g @ wv[:, :, centre]
        for j, dst, src in taps:
            gw[:, :, j] = g[dst].T @ xv[src]
            gx[src] += g[dst] @ wv[:, :, j]
        return gx, gw, gb

    return Tensor(out, (x, w, b), vjp, "conv1d_dilated")


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.values, 0.0)

    def vjp(g):
        return (g * (out > 0),)

    return Tensor(out, (x,), vjp, "relu")


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    # Same shape, or either side a scalar; nothing fancier is supported.
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    return g.sum() if shape == () and np.ndim(g) > 0 else g


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "add")

    def vjp(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return Tensor(a.values + b.values, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (same shapes, or one scalar operand)."""
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "mul")

    def vjp(g):
        return _reduce_to(g * b.values, a.shape), _reduce_to(g * a.values, b.shape)

    return Tensor(a.values * b.values, (a, b), vjp, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy semantics for 1-D/2-D operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = a.values @ b.values

    def vjp(g):
        av, bv = a.values, b.values
        if a.ndim == 2 and b.ndim == 2:
            return g @ bv.T, av.T @ g
        if a.ndim == 2 and b.ndim == 1:
            return np.outer(g, bv), av.T @ g
        if a.ndim == 1 and b.ndim == 2:
            return bv @ g, np.outer(av, g)
        return g * bv, g * av

    return Tensor(out, (a, b), vjp, "matmul")


def scale(x: Tensor, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)

    def vjp(g):
        return (c * g,)

    return Tensor(c * x.values, (x,), vjp, "scale")


def mean(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    n = x.values.size

    def vjp(g):
        return (np.full_like(x.values, g / n),)

    return Tensor(x.values.mean(), (x,), vjp, "mean")


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    x = _as_tensor(x)

    def vjp(g):
        return (np.full_like(x.values, g),)

    return Tensor(x.values.sum(), (x,), vjp, "tsum")


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.exp(x.values)

    def vjp(g):
        return (g * out,)

    return Tensor(out, (x,), vjp, "exp")


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.values <= 0):
        raise ValueError("log: all entries must be strictly positive")

    def vjp(g):
        return (g / x.values,)

    return Tensor(np.log(x.values), (x,), vjp, "log")


def dot(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dot expects equal-length vectors, got {a.shape}, {b.shape}")

    def vjp(g):
        return g * b.values, g * a.values

    return Tensor(a.values @ b.values, (a, b), vjp, "dot")


def l2_normalize(x: Tensor) -> Tensor:
    """Scale a vector (or each row of a matrix) to unit L2 norm.

    The zero vector maps to the zero vector: freshly initialized projection
    heads can emit near-zero rows and must not blow up the forward pass.
    """
    x = _as_tensor(x)
    if x.ndim == 1:
        norms = np.linalg.norm(x.values)
        safe = norms if norms > 0 else 1.0
        out = x.values / safe

        def vjp(g):
            if norms == 0:
                return (np.zeros_like(x.values),)
            return ((g - out * (out @ g)) / norms,)

        return Tensor(out, (x,), vjp, "l2_normalize")
    if x.ndim == 2:
        norms = np.linalg.norm(x.values, axis=1, keepdims=True)
        safe = np.where(norms > 0, norms, 1.0)
        out = x.values / safe

        def vjp(g):
            proj = (out * g).sum(axis=1, keepdims=True)
            gx = (g - out * proj) / safe
            return (np.where(norms > 0, gx, 0.0),)

        return Tensor(out, (x,), vjp, "l2_normalize")
    raise ValueError(f"l2_normalize expects a vector or matrix, got shape {x.shape}")


def row(x: Tensor, i: int) -> Tensor:
    """Extract row ``i`` of a matrix as a vector."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"row expects a matrix, got shape {x.shape}")
    if not 0 <= i < x.shape[0]:
        raise ValueError(f"row index {i} out of range for {x.shape[0]} rows")

    def vjp(g):
        gx = np.zeros_like(x.values)
        gx[i] = g
        return (gx,)

    return Tensor(x.values[i].copy(), (x,), vjp, "row")


def mean_rows(x: Tensor, start: int, end: int) -> Tensor:
    """Mean of the row slice [start, end) of a matrix, as a vector."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"mean_rows expects a matrix, got shape {x.shape}")
    if not 0 <= start < end <= x.shape[0]:
        raise ValueError(f"bad row range [{start}, {end}) for {x.shape[0]} rows")
    n = end - start

    def vjp(g):
        gx = np.zeros_like(x.values)
        gx[start:end] = g / n
        return (gx,)

    return Tensor(x.values[start:end].mean(axis=0), (x,), vjp, "mean_rows")


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into the rows of a matrix."""
    vectors = tuple(_as_tensor(v) for v in vectors)
    if not vectors:
        raise ValueError("stack_rows needs at least one vector")
    if any(v.ndim != 1 or v.shape != vectors[0].shape for v in vectors):
        raise ValueError("stack_rows expects equal-length vectors")

    def vjp(g):
        return tuple(g[i] for i in range(len(vectors)))

    return Tensor(np.stack([v.values for v in vectors]), vectors, vjp, "stack_rows")


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"transpose expects a matrix, got shape {x.shape}")

    def vjp(g):
        return (g.T,)

    return Tensor(x.values.T.copy(), (x,), vjp, "transpose")


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction stabilization."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"softmax_rows expects a matrix, got shape {x.shape}")
    z = x.values - x.values.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, (x,), vjp, "softmax_rows")


def softmax_cross_entropy(logits: Tensor, labels) -> tuple:
    """Mean per-sample cross-entropy of T x C logits against integer labels.

    Returns ``(loss, probs)`` where ``loss`` is a scalar tensor on the graph
    and ``probs`` is the plain T x C softmax array (rows sum to 1). The mean
    over T keeps the loss scale independent of sequence length. Computed via
    the max-subtracted log-sum-exp, so huge logits stay finite.
    """
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects T x C logits, got {logits.shape}")
    t_len, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (t_len,):
        raise ValueError(f"labels must have shape ({t_len},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")

    z = logits.values - logits.values.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    probs = np.exp(logp)
    loss_val = -logp[np.arange(t_len), labels].mean()

    def vjp(g):
        gl = probs.copy()
        gl[np.arange(t_len), labels] -= 1.0
        return (gl * (g / t_len),)

    return Tensor(loss_val, (logits,), vjp, "softmax_cross_entropy"), probs


def grad_check(f, params: Sequence[Tensor], eps: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the given parameter tensors to a scalar tensor and is
    re-evaluated at coordinate-wise perturbations, so it must not cache
    state between calls. The error per coordinate is
    |analytic - numeric| / max(1, |numeric|); the max over all coordinates
    of all parameters is returned. Parameter values are perturbed in place
    and restored.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = f(params)
    if out.shape != ():
        raise ValueError(f"grad_check expects a scalar-valued f, got shape {out.shape}")
    for p in params:
        p.grad = None
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
                for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.values.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(params).values)
            flat[i] = orig - eps
            f_minus = float(f(params).values)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError("non-finite evaluation during grad_check")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(an_flat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
