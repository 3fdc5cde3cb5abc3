"""Minimal reverse-mode automatic differentiation on dense float64 tensors.

The op set is deliberately small: exactly what a multi-stage temporal
convolutional model with a contrastive head needs. Every operation records
its inputs and a vector-Jacobian closure on the output tensor, so a backward
pass is a single reverse walk over a topologically ordered graph. There is
no broadcasting: ``add`` and ``mul`` take operands of one shape, and the
only other structured case is the conv bias.  ``residual_block`` fuses
one dilated residual layer of the model into a single node, so a
recorded forward keeps one array per layer, its output, instead of the
composition's four: the vjp rebuilds the ReLU output from the node's
input, at one more dilated conv per backward.  ``projection_head``
fuses a stage's contrastive head the same way and keeps only its
normalized output, so none of its hidden arrays outlives the forward.

Contracts are matrix-only: every op takes and returns 2-D arrays, with no
vector forms, except that ``tsum`` and ``softmax_cross_entropy`` return
scalars, which ``scale`` and ``add`` combine into a loss.  Row sets are
handled whole: ``row`` gathers an index array of rows, ``mean_rows``
pools R row ranges into R rows, and ``stack_rows`` joins matrices, one
graph node each.

Inside ``with no_grad():`` the same ops record nothing: each output is a
leaf, named so, and a forward pass keeps no intermediate array alive.
The switch is a context variable, so it holds for the current thread
(or asyncio task) only; another thread keeps recording.

No op and no backward pass writes a tensor's values: ``backward``
returns the gradients of the tensors it is asked for in a dict of its
own.  It consumes the graph it walks, freeing each node's saved arrays
once its vjp has run, so a graph is differentiated once; leaves are
never touched.  So threads may build and differentiate separate graphs
over the same parameters at once, as long as nothing writes the
parameter values meanwhile (an optimizer step, or the perturbations of
``grad_check``), and outputs whose graphs share a node that is not a
leaf go to one ``backward`` call.  Every other gradient is dropped once
it has been passed on, so a backward pass holds little more than the
part of the graph it has yet to walk.
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
    "residual_block",
    "projection_head",
    "relu",
    "add",
    "mul",
    "matmul",
    "scale",
    "tsum",
    "exp",
    "log",
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
    """Dense float64 array, the unit of the graph.

    A tensor is either a leaf (constructed directly from data, or by an op
    under ``no_grad``) or the output of a recorded operation, in which case
    it keeps references to its parent tensors and a closure computing the
    parents' gradient contributions.
    """

    __slots__ = ("values", "_parents", "_vjp", "_op")

    def __init__(self, values, _parents=(), _vjp=None, _op="leaf"):
        if _parents and not _recording.get():
            _parents, _vjp, _op = (), None, "leaf"
        self.values = np.asarray(values, dtype=np.float64)
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

    def __repr__(self) -> str:
        return f"Tensor(op={self._op!r}, shape={self.shape})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class CompGraph:
    """Topologically ordered record of the operations behind some outputs.

    ``nodes`` lists every tensor reachable backwards from the outputs, with
    each node's parents appearing before it. A backward traversal therefore
    visits every node exactly once.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def from_output(cls, *outputs: Tensor) -> "CompGraph":
        order: list = []
        seen = set()
        stack = [(output, False) for output in outputs]
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


def backward(cotangents: dict, wrt: Sequence[Tensor]) -> dict:
    """Gradients for ``wrt`` of outputs seeded with their cotangents.

    ``cotangents`` maps each output to the gradient fed in at it, an array
    of the output's shape; ``{loss: 1.0}`` differentiates a scalar loss.
    One reverse walk over the graph of all the outputs returns a dict
    mapping every tensor of ``wrt`` they reach to its gradient; a tensor
    they do not reach has no entry.  Any other node's gradient is dropped
    as soon as its vjp has used it.  Contributions are summed out of place
    (``prev + g``), and the first one is stored as given, so an entry may
    be a cotangent or a view of another node's gradient (``add`` passes
    ``g`` to both parents, ``stack_rows`` slices it).  No stored gradient
    and no cotangent is ever written to.  Every node of the walked graph
    is an ancestor of a seeded output, and every vjp returns one array per
    parent, so each node has its gradient by the time the walk reaches it.
    Once a node's vjp has run, the node drops it and its parents, so what
    they kept is freed as the walk goes on: read a graph before its
    backward, since a walk that reaches a consumed node raises ValueError.
    """
    pending = {out: np.asarray(c, dtype=np.float64)
               for out, c in cotangents.items()}
    for out, c in pending.items():
        if c.shape != out.shape:
            raise ValueError(f"cotangent of shape {c.shape} for an output "
                             f"of shape {out.shape}")
    wanted = set(wrt)
    grads = {}
    order = CompGraph.from_output(*cotangents).nodes
    while order:
        node = order.pop()
        g = pending.pop(node)
        if node in wanted:
            grads[node] = g
        vjp, parents = node._vjp, node._parents
        if vjp is None:
            if node._op == "leaf":
                continue
            raise ValueError(f"a {node._op} node was differentiated already")
        node._vjp, node._parents = None, ()
        for parent, pg in zip(parents, vjp(g)):
            prev = pending.get(parent)
            pending[parent] = pg if prev is None else prev + pg
    return grads


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


def _check_conv(x: Tensor, w: Tensor, b: Tensor, dilation: int,
                op: str = "conv1d_dilated") -> None:
    if not isinstance(dilation, int) or dilation < 1:
        raise ValueError(f"dilation must be a positive int, got {dilation!r}")
    if x.ndim != 2 or w.ndim != 3 or b.ndim != 1:
        raise ValueError(
            f"{op} expects x (T,C_in), w (C_out,C_in,k), b (C_out,); "
            f"got {x.shape}, {w.shape}, {b.shape}"
        )
    c_out, w_cin, k = w.shape
    if k % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {k}")
    if w_cin != x.shape[1]:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, "
                         f"weight expects {w_cin}")
    if b.shape != (c_out,):
        raise ValueError(f"bias shape {b.shape} does not match C_out={c_out}")


def _taps(t_len: int, k: int, dilation: int) -> tuple[int, list]:
    """The centre tap, and (j, dst, src) for every other tap that reaches
    the sequence."""
    centre = (k - 1) // 2
    return centre, [(j, *_overlap((j - centre) * dilation, t_len))
                    for j in range(k)
                    if j != centre and abs(j - centre) * dilation < t_len]


def _conv_forward(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray,
                  dilation: int) -> np.ndarray:
    centre, taps = _taps(xv.shape[0], wv.shape[2], dilation)
    out = xv @ wv[:, :, centre].T
    out += bv
    for j, dst, src in taps:
        out[dst] += xv[src] @ wv[:, :, j].T
    return out


def _conv_backward(g: np.ndarray, xv: np.ndarray, wv: np.ndarray,
                   dilation: int) -> tuple:
    """Gradients of x, w and b from the output gradient ``g``."""
    centre, taps = _taps(xv.shape[0], wv.shape[2], dilation)
    gb = g.sum(axis=0)
    gw = np.zeros_like(wv)
    gw[:, :, centre] = g.T @ xv
    gx = g @ wv[:, :, centre]
    for j, dst, src in taps:
        gw[:, :, j] = g[dst].T @ xv[src]
        gx[src] += g[dst] @ wv[:, :, j]
    return gx, gw, gb


def _conv_relu(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray,
               dilation: int) -> np.ndarray:
    """relu of the convolution, in place on its fresh output: the hidden
    array of a fused op, which its forward builds and its vjp rebuilds
    bitwise from the same arrays instead of keeping it."""
    act = _conv_forward(xv, wv, bv, dilation)
    return np.maximum(act, 0.0, out=act)


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
    _check_conv(x, w, b, dilation)
    xv, wv = x.values, w.values

    def vjp(g):
        return _conv_backward(g, xv, wv, dilation)

    return Tensor(_conv_forward(xv, wv, b.values, dilation), (x, w, b), vjp,
                  "conv1d_dilated")


def residual_block(h: Tensor, wd: Tensor, bd: Tensor, wm: Tensor, bm: Tensor,
                   dilation: int) -> Tensor:
    """One dilated residual layer, ``h + conv1x1(relu(conv_dilated(h)))``.

    ``h`` is T x F, ``wd`` M x F x k with odd k, ``wm`` F x M x 1, and
    the biases have M and F entries.  Values and gradients are bitwise
    those of ``add(h, conv1d_dilated(relu(conv1d_dilated(h, wd, bd,
    dilation)), wm, bm, 1))``, but as one graph node that keeps only its
    input, which is alive anyway as its parent.  The vjp rebuilds the
    T x M ReLU output from it with the forward's own expression, one
    more dilated conv per backward, so the ReLU output dies with the
    forward instead of living until the backward walks the node.
    """
    h, wd, bd, wm, bm = map(_as_tensor, (h, wd, bd, wm, bm))
    _check_conv(h, wd, bd, dilation, "residual_block")
    width, mid = h.shape[1], wd.shape[0]
    if wm.shape != (width, mid, 1) or bm.shape != (width,):
        raise ValueError(f"residual_block: mix weight {wm.shape} and bias "
                         f"{bm.shape} must map {mid} channels back to {width}")
    hv, wdv, bdv, wmv = h.values, wd.values, bd.values, wm.values

    def vjp(g):
        act = _conv_relu(hv, wdv, bdv, dilation)
        ga, gwm, gbm = _conv_backward(g, act, wmv, 1)
        ga *= act > 0       # ga and gx are fresh arrays of _conv_backward
        del act
        gx, gwd, gbd = _conv_backward(ga, hv, wdv, dilation)
        gx += g
        return gx, gwd, gbd, gwm, gbm

    return Tensor(
        hv + _conv_forward(_conv_relu(hv, wdv, bdv, dilation), wmv,
                           bm.values, 1),
        (h, wd, bd, wm, bm), vjp, "residual_block")


def projection_head(h: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                    b2: Tensor) -> Tensor:
    """A contrastive projection head,
    ``l2_normalize(conv1x1(relu(conv1x1(h, w1, b1)), w2, b2))``.

    ``h`` is T x F, ``w1`` M x F x 1, ``w2`` P x M x 1, and the biases
    have M and P entries.  Values and gradients are bitwise those of the
    composition of ``conv1d_dilated``, ``relu``, ``conv1d_dilated`` and
    ``l2_normalize``, zero rows included, but as one graph node that
    keeps only its input and the normalized rows with their norms.  The
    vjp rebuilds the T x M ReLU output from the input with the forward's
    own expression, one more 1x1 conv per backward, so neither
    pre-activation nor the ReLU output outlives the forward.
    """
    h, w1, b1, w2, b2 = map(_as_tensor, (h, w1, b1, w2, b2))
    _check_conv(h, w1, b1, 1, "projection_head")
    mid = w1.shape[0]
    if (w1.shape[2] != 1 or w2.shape[1:] != (mid, 1)
            or b2.shape != w2.shape[:1]):
        raise ValueError(f"projection_head: weights {w1.shape} and "
                         f"{w2.shape}, bias {b2.shape} are not two 1x1 "
                         f"convs through {mid} channels")
    hv, w1v, b1v, w2v = h.values, w1.values, b1.values, w2.values
    raw = _conv_forward(_conv_relu(hv, w1v, b1v, 1), w2v, b2.values, 1)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    out = raw / safe

    def vjp(g):
        proj = (out * g).sum(axis=1, keepdims=True)
        graw = np.where(norms > 0, (g - out * proj) / safe, 0.0)
        act = _conv_relu(hv, w1v, b1v, 1)
        ga, gw2, gb2 = _conv_backward(graw, act, w2v, 1)
        ga *= act > 0
        del act
        gh, gw1, gb1 = _conv_backward(ga, hv, w1v, 1)
        return gh, gw1, gb1, gw2, gb2

    return Tensor(out, (h, w1, b1, w2, b2), vjp, "projection_head")


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.values, 0.0)

    def vjp(g):
        return (g * (out > 0),)

    return Tensor(out, (x,), vjp, "relu")


def _same_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shapes(a, b, "add")

    def vjp(g):
        return g, g

    return Tensor(a.values + b.values, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shapes(a, b, "mul")

    def vjp(g):
        return g * b.values, g * a.values

    return Tensor(a.values * b.values, (a, b), vjp, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects matrices, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    def vjp(g):
        return g @ b.values.T, a.values.T @ g

    return Tensor(a.values @ b.values, (a, b), vjp, "matmul")


def scale(x: Tensor, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)

    def vjp(g):
        return (c * g,)

    return Tensor(c * x.values, (x,), vjp, "scale")


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


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row of a matrix to unit L2 norm.

    A zero row maps to a zero row: freshly initialized projection heads
    can emit near-zero rows and must not blow up the forward pass.
    """
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"l2_normalize expects a matrix, got shape {x.shape}")
    norms = np.linalg.norm(x.values, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    out = x.values / safe

    def vjp(g):
        proj = (out * g).sum(axis=1, keepdims=True)
        gx = (g - out * proj) / safe
        return (np.where(norms > 0, gx, 0.0),)

    return Tensor(out, (x,), vjp, "l2_normalize")


def _index_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(f"{name} must be a 1-D integer array")
    return arr.astype(np.intp)


def row(x: Tensor, idx) -> Tensor:
    """Rows ``idx`` of a matrix, in that order, as a len(idx) x P matrix.

    Indices may repeat or be empty; the vjp sums the gradient of every
    copy of a row into that row.
    """
    x = _as_tensor(x)
    idx = _index_array(idx, "row indices")
    if x.ndim != 2:
        raise ValueError(f"row expects a matrix, got shape {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ValueError(f"row index out of range for {x.shape[0]} rows")

    def vjp(g):
        gx = np.zeros_like(x.values)
        np.add.at(gx, idx, g)
        return (gx,)

    return Tensor(x.values[idx], (x,), vjp, "row")


def mean_rows(x: Tensor, starts, ends) -> Tensor:
    """Means of the row slices [starts[r], ends[r]), as an R x P matrix."""
    x = _as_tensor(x)
    starts = _index_array(starts, "starts")
    ends = _index_array(ends, "ends")
    if x.ndim != 2:
        raise ValueError(f"mean_rows expects a matrix, got shape {x.shape}")
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have the same length")
    if np.any((starts < 0) | (starts >= ends) | (ends > x.shape[0])):
        raise ValueError(f"bad row ranges for {x.shape[0]} rows")
    out = np.empty((len(starts), x.shape[1]))
    for r, (a, b) in enumerate(zip(starts, ends)):
        out[r] = x.values[a:b].mean(axis=0)

    def vjp(g):
        gx = np.zeros_like(x.values)
        for r, (a, b) in enumerate(zip(starts, ends)):
            gx[a:b] += g[r] / (b - a)
        return (gx,)

    return Tensor(out, (x,), vjp, "mean_rows")


def stack_rows(matrices: Sequence[Tensor]) -> Tensor:
    """Stack matrices of equal width on top of each other."""
    matrices = tuple(_as_tensor(m) for m in matrices)
    if not matrices:
        raise ValueError("stack_rows needs at least one matrix")
    if any(m.ndim != 2 or m.shape[1] != matrices[0].shape[1] for m in matrices):
        raise ValueError("stack_rows expects matrices of equal width")
    edges = np.cumsum([0] + [m.shape[0] for m in matrices])

    def vjp(g):
        return tuple(g[a:b] for a, b in zip(edges[:-1], edges[1:]))

    return Tensor(np.concatenate([m.values for m in matrices]), matrices, vjp,
                  "stack_rows")


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


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean per-sample cross-entropy of T x C logits against integer labels.

    Returns the loss as a scalar tensor on the graph. The mean over T keeps
    the loss scale independent of sequence length. Computed via the
    max-subtracted log-sum-exp, so huge logits stay finite.
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

    return Tensor(loss_val, (logits,), vjp, "softmax_cross_entropy")


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
    grads = backward({out: 1.0}, params)
    analytic = [grads.get(p, np.zeros_like(p.values)) for p in params]

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
