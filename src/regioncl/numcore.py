"""Dense float64 tensors with reverse-mode differentiation and Adam.

The computation graph is recorded on the tensors themselves: every non-leaf
Tensor keeps its parents and a vector-Jacobian closure. A GradientTape is the
registry of trainable leaves; ``backward`` replays the graph from a scalar
loss in reverse topological order and returns one gradient array per
registered parameter (zeros for parameters the loss never touched).

Conventions fixed here because tests depend on them:
  * everything is float64, row-major;
  * ops take Tensors; ``constant`` wraps an array as one that records no
    gradient;
  * relu's derivative at exactly 0 is 0;
  * softmax subtracts the row max before exponentiating;
  * normalize_rows keeps an all-zero row at zero (with zero gradient);
  * dot_cross_entropy never stores its (n, n) logits: it exponentiates
    each block of rows once and accumulates both operand gradients in the
    same pass, so its backward is a scaling of two (n, d) arrays;
  * dot_cross_entropy shifts each slab's row max out before exponentiating
    only when the Cauchy-Schwarz bound |c| max_i |a_i| max_j |b_j| on its
    logits exceeds ``_EXP_SAFE`` = 600;
  * inside ``no_grad()`` ops record no parents and no VJP, and
    dot_cross_entropy accumulates no gradient;
  * ``backward`` drops each non-leaf gradient once that node's VJP has
    read it, so only the leaf gradients it returns outlive their use;
  * ``checkpoint(fn, *inputs)`` keeps only fn's output: its parents are
    exactly the inputs, and its VJP recomputes fn's graph and
    backpropagates through it with the same traversal as ``backward``,
    so the gradients carry the same bits as fn recorded in place;
  * a checkpoint VJP whose recomputed output differs from the stored one
    by more than 1e-12 max(1, |out|), in the max norm, raises
    ContractError: an input changed between the forward and the backward.

Sparse operands are CsrMatrix constants; ``spmm`` multiplies one into a
dense tensor and differentiates only through the dense side. A CsrMatrix
groups its rows by nonzero count when it is built, so a product is one
gather and one batched BLAS product per distinct row length, written in
group order into one buffer that a single scatter puts back in row order,
and each row's sum follows BLAS order.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, TrainingAborted

# rows of the (DOT_CE_BLOCK, n) logit slab dot_cross_entropy exponentiates
# at a time; two slabs are live while each block's product runs, since the
# previous one is freed only once the new one is bound
DOT_CE_BLOCK = 256

# largest logit bound dot_cross_entropy exponentiates without a row-max
# shift: e^600 and e^-600 are normal float64 numbers (exp overflows past
# 709.78), and a row of n such terms sums without overflow for n < e^109.78,
# about 10^47
_EXP_SAFE = 600.0

# False inside no_grad(): new tensors keep no parents and no VJP
_recording = True

__all__ = [
    "Tensor", "CsrMatrix", "GradientTape", "AdamState", "backward",
    "adam_step", "no_grad", "constant", "matmul", "spmm", "add", "mul",
    "scale", "relu", "expit", "row_cosine", "softplus", "softmax_rows",
    "dot_cross_entropy", "log", "tsum", "concat_cols", "transpose",
    "reshape", "rows", "normalize_rows", "checkpoint",
]


class Tensor:
    """A float64 array plus the recording needed to differentiate through it."""

    __slots__ = ("data", "parents", "vjp", "requires_grad", "name")

    def __init__(self, data, parents=(), vjp=None, requires_grad=False, name=None):
        # note: np.ascontiguousarray would promote 0-d to 1-d; asarray keeps ()
        self.data = np.asarray(data, dtype=np.float64, order="C")
        if not _recording:
            parents, vjp = (), None
        self.parents = tuple(parents)
        self.vjp = vjp
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class CsrMatrix:
    """A constant sparse matrix in compressed-row form.

    Row i holds ``values[indptr[i]:indptr[i+1]]`` at the columns
    ``indices[indptr[i]:indptr[i+1]]``, ascending within the row. The
    constructor also groups the rows by their nonzero count (a stable sort
    of the row lengths, the sliced-ELLPACK layout). It keeps the nonempty
    rows in that group order, and for each group of m rows of k nonzeros
    its slice of that order, an (m, k) column block and an (m, 1, k) value
    block, which is all ``dot`` reads.
    """

    __slots__ = ("indptr", "indices", "values", "shape", "_order", "_groups")

    def __init__(self, indptr, indices, values, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.shape = tuple(int(k) for k in shape)
        if (self.indptr.shape != (self.shape[0] + 1,)
                or self.indices.shape != self.values.shape
                or self.indptr[0] != 0
                or self.indptr[-1] != self.values.size):
            raise ContractError(f"CsrMatrix: inconsistent arrays for "
                                f"shape {self.shape}")
        lengths = np.diff(self.indptr)
        if np.any(lengths < 0):
            raise ContractError("CsrMatrix: indptr decreases")
        if self.indices.size and (self.indices.min() < 0 or
                                  self.indices.max() >= self.shape[1]):
            raise ContractError(f"CsrMatrix: column index out of range "
                                f"for shape {self.shape}")
        order = np.argsort(lengths, kind="stable")
        self._order = order[lengths[order] > 0]  # empty rows stay zero in dot
        edges = np.r_[0, np.flatnonzero(np.diff(lengths[self._order])) + 1,
                      self._order.size]
        self._groups = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi > lo:
                grp = self._order[lo:hi]
                pos = self.indptr[grp, None] + np.arange(lengths[grp[0]])
                self._groups.append((slice(lo, hi), self.indices[pos],
                                     self.values[pos][:, None, :]))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)),
            self.indices] = self.values
        return out

    def dot(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a dense 2-d x: per row-length group, one gather of
        the (m, k, d) neighbour rows and one batched (1, k) @ (k, d)
        product into that group's slice of one buffer in group order, then
        one scatter of the buffer into row order; rows with no nonzeros
        stay zero."""
        buf = np.empty((self._order.size, 1, x.shape[1]))
        for part, cols, vals in self._groups:
            np.matmul(vals, x[cols], out=buf[part])
        out = np.zeros((self.shape[0], x.shape[1]))
        out[self._order] = buf[:, 0]
        return out


@contextlib.contextmanager
def _recording_as(flag: bool):
    global _recording
    previous, _recording = _recording, flag
    try:
        yield
    finally:
        _recording = previous


def no_grad():
    """Forward-only block: the tensors made inside record no graph."""
    return _recording_as(False)


def constant(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# forward ops (each returns a Tensor carrying its vector-Jacobian closure)
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ContractError(f"matmul: shape {a.data.shape} vs {b.data.shape}")

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor(a.data @ b.data, (a, b), vjp)


def spmm(A: CsrMatrix, h: Tensor) -> Tensor:
    """A @ h for a constant *symmetric* sparse A.

    Since A = A^T, the gradient to h is A @ g; A itself gets none.
    """
    if h.data.ndim != 2 or A.shape[1] != h.data.shape[0]:
        raise ContractError(f"spmm: shape {A.shape} vs {h.data.shape}")
    return Tensor(A.dot(h.data), (h,), lambda g: (A.dot(g),))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a (1, n) bias row for an (m, n) a."""
    if a.data.shape == b.data.shape:
        return Tensor(a.data + b.data, (a, b), lambda g: (g, g))
    if a.data.ndim == 2 and b.data.shape == (1, a.data.shape[1]):
        return Tensor(a.data + b.data, (a, b),
                      lambda g: (g, g.sum(axis=0, keepdims=True)))
    raise ContractError(f"add: shape {a.data.shape} vs {b.data.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ContractError(f"mul: shape {a.data.shape} vs {b.data.shape}")
    return Tensor(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.data * c, (a,), lambda g: (g * c,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return Tensor(np.where(mask, a.data, 0.0), (a,), vjp)


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid of a plain array, without overflow for any sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def row_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row of a with the same row of b; a zero row gives 0."""
    denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    return np.divide((a * b).sum(axis=1), denom, out=np.zeros(len(denom)),
                     where=denom > 0)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), overflow-safe; the building block for edge BCE."""
    x = a.data
    out = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
    s = expit(x)
    return Tensor(out, (a,), lambda g: (g * s,))


def softmax_rows(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ContractError(f"softmax_rows: need 2-d, got {a.data.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return Tensor(s, (a,), vjp)


def dot_cross_entropy(a: Tensor, b: Tensor, scale: float = 1.0) -> Tensor:
    """Sum over rows i of logsumexp_j(c a_i . b_j) - c a_i . b_i, c = ``scale``.

    The softmax cross-entropy of each row of c a b^T against its diagonal
    entry, without forming a b^T: the forward walks ``DOT_CE_BLOCK`` rows
    of a at a time, exponentiates each slab and keeps only the per-row
    logsumexp. Before the loop it bounds every logit by Cauchy-Schwarz,
    |c a_i . b_j| <= |c| max_i |a_i| max_j |b_j|, in O(n d). Within
    ``_EXP_SAFE`` = 600 no exp overflows or goes subnormal, so a slab is
    exponentiated as it comes out of its product and lse = log s; the
    callers' unit rows stay there for any tau >= 1/600. Past the bound
    each slab's row max is shifted out first. c scales the (DOT_CE_BLOCK,
    d) rows of a before the slab product, not the slab after it (the same
    bits when c is a power of two). While recording, the same pass turns each
    exponentiated slab E (row sums s) into the softmax parts of both
    gradients, (E / s) B and (E / s)^T a, the latter accumulated transposed
    as (a / s)^T E into one (d, n) buffer, so the backward only subtracts
    the diagonal terms and scales by g c.
    """
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise ContractError(f"dot_cross_entropy: shape {a.data.shape} "
                            f"vs {b.data.shape}")
    A, B, c = a.data, b.data, float(scale)
    grad = _recording
    if grad:
        dA, dBt = np.empty_like(A), np.zeros(A.shape[::-1])
    bound = abs(c) * np.sqrt((A * A).sum(axis=1).max(initial=0.0)
                             * (B * B).sum(axis=1).max(initial=0.0))
    shift = bound > _EXP_SAFE
    lse = np.empty(A.shape[0])
    for i in range(0, A.shape[0], DOT_CE_BLOCK):
        blk = slice(i, i + DOT_CE_BLOCK)
        z = (A[blk] * c) @ B.T
        if shift:
            top = z.max(axis=1)
            z -= top[:, None]
        np.exp(z, out=z)
        s = z.sum(axis=1)
        lse[blk] = np.log(s) + top if shift else np.log(s)
        if grad:
            dA[blk] = (z @ B) / s[:, None]
            dBt += (A[blk] / s[:, None]).T @ z
    loss = (lse - c * (A * B).sum(axis=1)).sum()
    if not grad:
        return Tensor(loss)
    dA -= B
    dB = np.subtract(dBt.T, A, order="C")

    def vjp(g):
        gc = float(g) * c
        return gc * dA, gc * dB

    return Tensor(loss, (a, b), vjp)


def log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))


def tsum(a: Tensor) -> Tensor:
    """The sum of every entry, as a 0-d tensor."""
    shape = a.data.shape
    return Tensor(a.data.sum(), (a,), lambda g: (np.full(shape, float(g)),))


def concat_cols(parts) -> Tensor:
    if any(p.data.ndim != 2 for p in parts):
        raise ContractError("concat_cols: all parts must be 2-d")
    if len({p.data.shape[0] for p in parts}) != 1:
        raise ContractError(
            "concat_cols: row mismatch " + str([p.data.shape for p in parts]))
    widths = [p.data.shape[1] for p in parts]
    bounds = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(g[:, bounds[i]:bounds[i + 1]] for i in range(len(parts)))

    return Tensor(np.concatenate([p.data for p in parts], axis=1), parts, vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ContractError(f"transpose: need 2-d, got {a.data.shape}")
    return Tensor(a.data.T, (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def rows(a: Tensor, idx) -> Tensor:
    """Rows idx of a 2-d tensor, for non-negative 1-d indices idx; backward
    scatter-adds with one ``np.bincount`` over (row, column) keys, in
    ``np.add.at``'s index order."""
    idx = np.asarray(idx, dtype=np.intp)
    n, d = a.data.shape

    def vjp(g):
        keys = (idx[:, None] * d + np.arange(d)).ravel()
        out = np.bincount(keys, weights=g.ravel(), minlength=n * d)
        return (out.reshape(n, d),)

    return Tensor(a.data[idx], (a,), vjp)


def normalize_rows(a: Tensor) -> Tensor:
    """Rows scaled to unit norm; all-zero rows stay zero (gradient 0 there)."""
    if a.data.ndim != 2:
        raise ContractError(f"normalize_rows: need 2-d, got {a.data.shape}")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    y = a.data / safe
    nonzero = norms > 0.0

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (np.where(nonzero, (g - y * dot) / safe, 0.0),)

    return Tensor(np.where(nonzero, y, 0.0), (a,), vjp)


def checkpoint(fn, *inputs) -> Tensor:
    """fn(*inputs), recorded as one node that keeps only its output.

    The forward runs ``fn`` under ``no_grad``, so none of its intermediate
    arrays outlives the call. The VJP runs ``fn`` again, recording, over
    fresh leaves that share the inputs' data, pushes the incoming gradient
    back through that short-lived graph and returns one gradient per input:
    one recomputed forward buys the memory of every activation inside
    ``fn`` (Chen et al., arXiv 1604.06174). ``fn`` must be a pure function
    of its inputs' values, and the inputs must not change before the
    backward: a recomputed output that drifts from the stored one by more
    than 1e-12 max(1, |out|) in the max norm raises ContractError rather
    than return gradients taken at other values.
    """
    with no_grad():
        out = fn(*inputs).data

    def vjp(g):
        leaves = tuple(Tensor(x.data, requires_grad=x.requires_grad)
                       for x in inputs)
        with _recording_as(True):
            root = fn(*leaves)
        drift = np.max(np.abs(root.data - out), initial=0.0)
        if drift > 1e-12 * max(1.0, np.max(np.abs(out), initial=0.0)):
            raise ContractError(
                f"checkpoint: the recomputed output drifts from the stored "
                f"one by {drift:.3g}; an input changed after the forward")
        grads = _backprop(root, g)
        return tuple(grads.get(id(leaf)) for leaf in leaves)

    return Tensor(out, inputs, vjp)


# ---------------------------------------------------------------------------
# tape, backward, Adam
# ---------------------------------------------------------------------------

class GradientTape:
    """Registry of the trainable leaves of one training computation."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def parameter(self, name: str, array) -> Tensor:
        """Register a leaf holding its own copy of ``array``.

        The copy keeps Adam steps and gradient-check probes from reaching the
        caller's array, or another parameter made from the same array.
        """
        if name in self._params:
            raise ContractError(f"parameter {name!r} registered twice")
        t = Tensor(np.array(array, dtype=np.float64, order="C"),
                   requires_grad=True, name=name)
        self._params[name] = t
        return t

    @property
    def params(self) -> dict[str, Tensor]:
        return dict(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]


def _topo_order(root: Tensor) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _backprop(root: Tensor, seed: np.ndarray) -> dict[int, np.ndarray]:
    """Push ``seed``, the gradient at ``root``, back through root's graph;
    returns the gradient of every leaf it reaches, keyed by ``id``."""
    grads: dict[int, np.ndarray] = {id(root): seed}
    for node in reversed(_topo_order(root)):
        if node.vjp is None:
            continue
        # every consumer of node came earlier, so its gradient is complete
        # and its VJP is the last reader
        g = grads.pop(id(node), None)
        if g is None:
            continue
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if not parent.requires_grad or pg is None:
                continue
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg
    return grads


def backward(tape: GradientTape, loss: Tensor) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter on the tape."""
    if loss.data.shape != ():
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    grads = _backprop(loss, np.ones(()))
    out = {}
    for name, p in tape.params.items():
        g = grads.get(id(p))
        out[name] = np.zeros_like(p.data) if g is None else np.asarray(g)
    return out


class AdamState:
    """Adam moments plus learning rate and decoupled weight decay; the
    moment rates and eps are Adam's published defaults."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, weight_decay: float = 0.0):
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(state: AdamState, params: dict[str, Tensor],
              grads: dict[str, np.ndarray]) -> None:
    """One Adam update in place; weight decay is applied before the delta."""
    missing = set(params) - set(grads)
    if missing:
        raise ContractError(f"adam_step: no gradient for {sorted(missing)}")
    for name, g in grads.items():
        if name in params and not np.all(np.isfinite(g)):
            raise TrainingAborted(f"non-finite gradient for parameter {name!r}")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ContractError(
                f"adam_step: gradient shape {g.shape} vs parameter "
                f"{p.data.shape} for {name!r}")
        if state.weight_decay:
            p.data -= state.lr * state.weight_decay * p.data
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
