"""Dense float64 tensors with reverse-mode differentiation and Adam.

The computation graph is recorded on the tensors themselves: every non-leaf
Tensor keeps its parents and a vector-Jacobian closure. A GradientTape is the
registry of trainable leaves; ``backward`` replays the graph from a scalar
loss in reverse topological order and returns one gradient array per
registered parameter (zeros for parameters the loss never touched).

Conventions fixed here because tests depend on them:
  * everything is float64, row-major;
  * relu's derivative at exactly 0 is 0;
  * softmax subtracts the row max before exponentiating;
  * normalize_rows keeps an all-zero row at zero (with zero gradient).

Sparse operands are CsrMatrix constants; ``spmm`` multiplies one into a
dense tensor and differentiates only through the dense side.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError, TrainingAborted

__all__ = [
    "Tensor", "CsrMatrix", "GradientTape", "AdamState", "backward",
    "adam_step", "constant", "matmul", "spmm", "add", "mul", "scale", "neg",
    "relu", "expit", "row_cosine", "softplus", "softmax_rows",
    "diag_cross_entropy", "log", "tsum", "concat_cols", "transpose",
    "reshape", "rows", "normalize_rows",
]


class Tensor:
    """A float64 array plus the recording needed to differentiate through it."""

    __slots__ = ("data", "parents", "vjp", "requires_grad", "name")

    def __init__(self, data, parents=(), vjp=None, requires_grad=False, name=None):
        # note: np.ascontiguousarray would promote 0-d to 1-d; asarray keeps ()
        self.data = np.asarray(data, dtype=np.float64, order="C")
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

    def detach(self) -> "Tensor":
        """A constant copy: same values, no history, no gradient."""
        return Tensor(self.data.copy())

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class CsrMatrix:
    """A constant sparse matrix in compressed-row form.

    Row i holds ``values[indptr[i]:indptr[i+1]]`` at the columns
    ``indices[indptr[i]:indptr[i+1]]``, ascending within the row.
    """

    __slots__ = ("indptr", "indices", "values", "shape", "_starts",
                 "_nonempty")

    def __init__(self, indptr, indices, values, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.shape = tuple(int(k) for k in shape)
        if (self.indptr.shape != (self.shape[0] + 1,)
                or self.indices.shape != self.values.shape
                or self.indptr[-1] != self.values.size):
            raise ShapeError(f"CsrMatrix: inconsistent arrays for shape "
                             f"{self.shape}")
        starts = self.indptr[:-1]
        self._nonempty = starts < self.indptr[1:]
        self._starts = starts[self._nonempty]

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)),
            self.indices] = self.values
        return out

    def dot(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a dense 2-d x, as segment sums of the gathered terms.

        The terms are laid out column-major, (d, nnz), because reduceat
        sums long contiguous segments about twice as fast as short rows.
        """
        out = np.zeros((x.shape[1], self.shape[0]))
        if self.values.size:
            terms = np.take(np.ascontiguousarray(x.T), self.indices, axis=1)
            terms *= self.values
            out[:, self._nonempty] = np.add.reduceat(terms, self._starts,
                                                     axis=1)
        return np.ascontiguousarray(out.T)


def constant(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# forward ops (each returns a Tensor carrying its vector-Jacobian closure)
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = constant(a), constant(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: shape {a.data.shape} vs {b.data.shape}")

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor(a.data @ b.data, (a, b), vjp)


def spmm(A: CsrMatrix, h: Tensor) -> Tensor:
    """A @ h for a constant *symmetric* sparse A.

    Since A = A^T, the gradient to h is A @ g; A itself gets none.
    """
    h = constant(h)
    if h.data.ndim != 2 or A.shape[1] != h.data.shape[0]:
        raise ShapeError(f"spmm: shape {A.shape} vs {h.data.shape}")
    return Tensor(A.dot(h.data), (h,), lambda g: (A.dot(g),))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a (1, n) or (n,) bias row for b."""
    a, b = constant(a), constant(b)
    if a.data.shape == b.data.shape:
        return Tensor(a.data + b.data, (a, b), lambda g: (g, g))
    if (a.data.ndim == 2 and b.data.ndim in (1, 2)
            and b.data.reshape(-1).shape[0] == a.data.shape[1]
            and (b.data.ndim == 1 or b.data.shape[0] == 1)):
        bias_shape = b.data.shape

        def vjp(g):
            return g, g.sum(axis=0).reshape(bias_shape)

        return Tensor(a.data + b.data.reshape(1, -1), (a, b), vjp)
    raise ShapeError(f"add: shape {a.data.shape} vs {b.data.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = constant(a), constant(b)
    _same_shape(a, b, "mul")
    return Tensor(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    a = constant(a)
    c = float(c)
    return Tensor(a.data * c, (a,), lambda g: (g * c,))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def relu(a: Tensor) -> Tensor:
    a = constant(a)
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
    a = constant(a)
    x = a.data
    out = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
    s = expit(x)
    return Tensor(out, (a,), lambda g: (g * s,))


def softmax_rows(a: Tensor) -> Tensor:
    a = constant(a)
    if a.data.ndim != 2:
        raise ShapeError(f"softmax_rows: need 2-d, got {a.data.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return Tensor(s, (a,), vjp)


def diag_cross_entropy(a: Tensor, scale: float = 1.0) -> Tensor:
    """Sum over rows i of logsumexp_j(c a_ij) - c a_ii, with c = ``scale``.

    The softmax cross-entropy of each row against its diagonal entry as one
    scalar op: the row max is shifted out before exponentiating, and the
    backward pass turns the cached exponentials into g c (softmax - Id) in
    place, so no other (n, n) array is made.
    """
    a = constant(a)
    if a.data.ndim != 2 or a.data.shape[0] != a.data.shape[1]:
        raise ShapeError(f"diag_cross_entropy: need square, got {a.data.shape}")
    c = float(scale)
    z = a.data * c
    z -= z.max(axis=1, keepdims=True)
    shifted_diag = np.diagonal(z).copy()
    np.exp(z, out=z)
    s = z.sum(axis=1, keepdims=True)
    cache = [z]

    def vjp(g):
        if not cache:
            raise ContractError("diag_cross_entropy: gradient taken twice")
        grad = cache.pop()
        gc = float(g) * c
        grad *= gc / s
        np.fill_diagonal(grad, np.diagonal(grad) - gc)
        return (grad,)

    return Tensor((np.log(s[:, 0]) - shifted_diag).sum(), (a,), vjp)


def log(a: Tensor) -> Tensor:
    a = constant(a)
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))


def tsum(a: Tensor, axis=None) -> Tensor:
    a = constant(a)
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return (np.full(shape, float(g)),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return Tensor(a.data.sum(axis=axis), (a,), vjp)


def concat_cols(parts) -> Tensor:
    parts = [constant(p) for p in parts]
    if any(p.data.ndim != 2 for p in parts):
        raise ShapeError("concat_cols: all parts must be 2-d")
    if len({p.data.shape[0] for p in parts}) != 1:
        raise ShapeError(
            "concat_cols: row mismatch " + str([p.data.shape for p in parts]))
    widths = [p.data.shape[1] for p in parts]
    bounds = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(g[:, bounds[i]:bounds[i + 1]] for i in range(len(parts)))

    return Tensor(np.concatenate([p.data for p in parts], axis=1), parts, vjp)


def transpose(a: Tensor) -> Tensor:
    a = constant(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: need 2-d, got {a.data.shape}")
    return Tensor(a.data.T, (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    a = constant(a)
    old = a.data.shape
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def rows(a: Tensor, idx) -> Tensor:
    """Gather rows by integer index; backward scatter-adds with one
    ``np.bincount`` per column, in ``np.add.at``'s index order."""
    a = constant(a)
    idx = np.asarray(idx, dtype=np.intp)
    shape = a.data.shape

    def vjp(g):
        n = shape[0]
        flat = idx.ravel() % max(n, 1)      # negative indices wrap
        g = g.reshape(flat.size, int(np.prod(shape[1:])))
        out = np.empty((n, g.shape[1]))
        for k in range(g.shape[1]):
            out[:, k] = np.bincount(flat, weights=g[:, k], minlength=n)
        return (out.reshape(shape),)

    return Tensor(a.data[idx], (a,), vjp)


def normalize_rows(a: Tensor) -> Tensor:
    """Rows scaled to unit norm; all-zero rows stay zero (gradient 0 there)."""
    a = constant(a)
    if a.data.ndim != 2:
        raise ShapeError(f"normalize_rows: need 2-d, got {a.data.shape}")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    y = a.data / safe
    nonzero = norms > 0.0

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (np.where(nonzero, (g - y * dot) / safe, 0.0),)

    return Tensor(np.where(nonzero, y, 0.0), (a,), vjp)


# ---------------------------------------------------------------------------
# tape, backward, Adam
# ---------------------------------------------------------------------------

class GradientTape:
    """Registry of the trainable leaves of one training computation."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def parameter(self, name: str, array) -> Tensor:
        if name in self._params:
            raise ContractError(f"parameter {name!r} registered twice")
        t = Tensor(array, requires_grad=True, name=name)
        self._params[name] = t
        return t

    @property
    def params(self) -> dict[str, Tensor]:
        return dict(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params


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


def backward(tape: GradientTape, loss: Tensor) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter on the tape."""
    if loss.data.shape != ():
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in reversed(_topo_order(loss)):
        g = grads.get(id(node))
        if g is None or node.vjp is None:
            continue
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if not parent.requires_grad or pg is None:
                continue
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg
    out = {}
    for name, p in tape.params.items():
        g = grads.get(id(p))
        out[name] = np.zeros_like(p.data) if g is None else np.asarray(g)
    return out


class AdamState:
    """Adam moments plus learning rate and decoupled weight decay."""

    def __init__(self, lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
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
