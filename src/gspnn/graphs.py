"""Graphs, shift operators, graph signals, and the graph Fourier transform.

A graph is an undirected weighted edge list, checked once into read-only
node and weight arrays that every method reads. A shift operator is a dense
symmetric N x N matrix whose sparsity pattern matches the graph: multiplying
a signal by it mixes each node's value with its neighbors' values.
Diagonalizing the shift operator gives the graph frequency basis; projecting
signals onto it is the graph Fourier transform.

All containers are immutable after construction (the arrays of a graph
and of a shift operator are read-only) and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SYMMETRY_RTOL = 1e-12
EIG_RECON_RTOL = 1e-8


class GraphError(ValueError):
    """Invalid graph, shift operator, or signal."""


class EdgeRuleError(GraphError):
    """An edge that breaks a graph rule; ``index`` is its place in the list."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class ShiftKind(enum.Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    NORMALIZED_ADJACENCY = "normalized_adjacency"
    NORMALIZED_LAPLACIAN = "normalized_laplacian"
    DEGREE_NORMALIZED_ADJACENCY = "degree_normalized_adjacency"
    CUSTOM = "custom"


def check_count(where: str, value, minimum: int, error: type[Exception]) -> None:
    """The one integer rule of every input boundary: raise ``error`` naming
    ``where`` unless ``value`` is an ``int`` or ``np.integer`` (never a
    bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < minimum:
        raise error(f"{where} must be an integer >= {minimum}, got {value!r}")


def check_member(where: str, a, shape: tuple, error: type[Exception]) -> None:
    """The one archive-array rule: raise ``error`` naming ``where`` unless
    ``a`` is a finite float64 ndarray of ``shape``."""
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        kind = a.dtype if isinstance(a, np.ndarray) else type(a).__name__
        raise error(f"{where} has dtype {kind}, not float64")
    if a.shape != shape:
        raise error(f"{where} has shape {a.shape}, not {shape}")
    if not np.all(np.isfinite(a)):
        raise error(f"{where} has non-finite entries")


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph. Each edge is stored once as (i, j, w), w > 0.

    ``n_nodes`` passes :func:`check_count` with minimum 1, the package's
    one integer rule: an ``int`` or ``np.integer``, never a bool. The
    constructor checks ``edges`` once, in whole-array passes, into the
    read-only ``rows``, ``cols`` and ``weights`` arrays that the methods
    read; they are left out of ``==``, hashing and ``repr``, which see only
    ``n_nodes`` and ``edges``. Every edge must be a triple of two integer
    node indices and a real weight; the first edge that is not is named
    before any value is checked. Then the first edge that breaks a value
    rule is named in an ``EdgeRuleError`` that carries its index, the rules
    checked in the order: node range, self-loop, weight, duplicate.
    """

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    cols: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_count("n_nodes", self.n_nodes, 1, GraphError)
        rows, cols, weights = _edge_arrays(self.n_nodes, self.edges)
        for name, arr in (("rows", rows), ("cols", cols), ("weights", weights)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes))
        a[self.rows, self.cols] = self.weights
        a[self.cols, self.rows] = self.weights
        return a

    def degrees(self) -> np.ndarray:
        """Weighted degrees, summed edge by edge in list order (i before j)."""
        ends = np.stack((self.rows, self.cols), axis=1).ravel()
        d = np.bincount(ends, weights=np.repeat(self.weights, 2),
                        minlength=self.n_nodes)
        return d.astype(float, copy=False)  # bincount of no edges is integer


def _edge_arrays(n_nodes: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked (rows, cols, weights) arrays of an edge list."""
    try:
        triples = set(map(len, edges)) <= {3}
    except TypeError:  # an edge without a length
        triples = False
    if not triples:
        bad = next(e for e in edges if not (hasattr(e, "__len__") and len(e) == 3))
        raise GraphError(f"edge {bad!r} is not an (i, j, weight) triple")
    i, j, w = zip(*edges) if edges else ((), (), ())
    _check_types(edges, i + j, (0, 1), (int, np.integer),
                 "node index is not an integer")
    _check_types(edges, w, (2,), (int, float, np.integer, np.floating),
                 "weight is not a real number")
    try:
        rows, cols = np.array((i, j), dtype=np.int64)
    except OverflowError:
        # an index beyond 64 bits is out of range: clipped to -1 or n_nodes,
        # it fails the range rule, which names the edge with its own values
        rows, cols = np.array([[min(max(v, -1), n_nodes) for v in k]
                               for k in (i, j)], dtype=np.int64)
    weights = np.array(w, dtype=float)
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    failing = ((lo < 0) | (hi >= n_nodes) | (lo == hi)
               | ~((weights > 0.0) & np.isfinite(weights)))
    first = int(np.argmax(failing)) if failing.any() else len(edges)
    # a repeat counts only ahead of the first edge that fails another rule
    _, firsts = np.unique(lo[:first] * n_nodes + hi[:first], return_index=True)
    if firsts.size < first:
        k = int(np.setdiff1d(np.arange(first), firsts)[0])  # the first repeat
        i, j, _ = edges[k]
        raise EdgeRuleError(k, f"duplicate edge ({i},{j})")
    if first < len(edges):
        i, j, w = edges[first]
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            problem = f"edge ({i},{j}) out of range for {n_nodes} nodes"
        elif i == j:
            problem = f"self-loop on node {i} not allowed in the edge list"
        else:
            problem = f"edge ({i},{j}) needs a positive finite weight, got {w}"
        raise EdgeRuleError(first, problem)
    return rows, cols, weights


def _check_types(edges, values, positions, accepted, problem: str) -> None:
    """Raise naming the first edge whose entries at ``positions`` (their
    values, all edges' in turn, are ``values``) are not of an ``accepted``
    type; ``bool`` is not accepted."""
    bad_types = {t for t in set(map(type, values))
                 if t is bool or not issubclass(t, accepted)}
    if bad_types:
        bad = next(e for e in edges if any(type(e[p]) in bad_types for p in positions))
        raise GraphError(f"edge {bad!r}: {problem}")


@dataclass(frozen=True)
class GraphSignal:
    """N x F real signal: F feature values per node. 1-d input becomes N x 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise GraphError(f"signal must be 1-d or 2-d, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise GraphError("signal has non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ShiftOperator:
    """Symmetric shift matrix S, held as one read-only dense (N, N) array.

    ``eigenvalues`` ascending and ``eigenvectors`` orthonormal-by-column are
    populated by :func:`eigendecompose`; the sign of each eigenvector is
    fixed so its largest-magnitude entry is positive (lowest index on ties).
    A normalized adjacency from :func:`build_shift` carries the eigenvalues
    its normalization solved, without eigenvectors. The arrays are kept
    read-only; a writeable one or a view is copied first, so no caller can
    change the operator through its own array.
    """

    kind: ShiftKind
    matrix: np.ndarray
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        for name in ("matrix", "eigenvalues", "eigenvectors"):
            arr = getattr(self, name)
            if arr is not None and (arr.flags.writeable or not arr.flags.owndata):
                arr = np.array(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @staticmethod
    def from_dense(matrix: np.ndarray,
                   kind: ShiftKind | str = ShiftKind.CUSTOM) -> "ShiftOperator":
        """The operator of the finite, symmetric square ``matrix``."""
        kind = ShiftKind(kind)
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GraphError(f"shift matrix must be square, got {m.shape}")
        _check_symmetric(m)
        return ShiftOperator(kind, m)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    @property
    def has_eig(self) -> bool:
        return self.eigenvalues is not None and self.eigenvectors is not None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """S x along the first axis of an (N, ...) array, shaped like ``x``:
        the package's one product with S, (N, N) @ ``x.reshape(N, -1)``. A
        caller whose node axis is elsewhere moves it to the front as a view."""
        if x.shape[0] != self.n_nodes:
            raise GraphError(f"shift is {self.n_nodes} nodes, signal has {x.shape[0]}")
        return (self.matrix @ x.reshape(self.n_nodes, -1)).reshape(x.shape)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending: ``eigenvalues`` when set (an
        eigendecomposition's, or a built normalized adjacency's), otherwise
        one symmetric eigenvalue solve, cached on the operator. Every spectral
        reader (the norm, the pole margin, the Jacobi radius) shares it."""
        if self.eigenvalues is not None:
            return self.eigenvalues
        lam = symmetric_eigenvalues(self.matrix)
        lam.flags.writeable = False
        return lam

    @cached_property
    def operator_norm(self) -> float:
        """Spectral norm max |lambda_i| (symmetric matrix) of ``spectrum``."""
        return float(np.max(np.abs(self.spectrum)))


def coo_apply(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
              z: np.ndarray, n: int) -> np.ndarray:
    """Coordinate-list product out[..., rows[e]] += vals[..., e] z[..., cols[e]].

    The node axis of ``z`` is last, ``vals`` (..., nnz) broadcasts against
    its leading axes, and the (..., n) result is one gather and one
    ``np.bincount``. Swapping ``rows`` and ``cols`` applies the transpose.
    Every edge-varying filter step runs this kernel. The gather is
    ``np.take``, whose result is C-ordered; ``z[..., cols]`` lays the
    coordinate axis out first and makes the product and ravel slow.
    """
    contrib = vals * np.take(z, cols, axis=-1)
    lead = contrib.shape[:-1]
    m = int(np.prod(lead))
    index = (np.arange(m)[:, None] * n + rows).ravel()
    out = np.bincount(index, weights=contrib.ravel(), minlength=m * n)
    return out.reshape(lead + (n,))


def _check_symmetric(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise GraphError(f"shift matrix entry ({i},{j}) is {m[i, j]}, not finite")
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale == 0.0:
        return
    if np.max(np.abs(m - m.T)) > SYMMETRY_RTOL * max(scale, 1.0):
        raise GraphError("shift operator is not symmetric")


# ---------------------------------------------------------------------------
# Shift construction
# ---------------------------------------------------------------------------

def build_shift(graph: Graph, kind: ShiftKind | str) -> ShiftOperator:
    """Build the requested shift matrix for ``graph``; the degree-scaled
    kinds reject a zero-degree node. A normalized adjacency A / ||A|| keeps
    the eigenvalues of A solved for its norm, scaled, as ``eigenvalues``."""
    kind = ShiftKind(kind)
    a = graph.adjacency()
    if kind is ShiftKind.ADJACENCY:
        m = a
    elif kind is ShiftKind.LAPLACIAN:
        m = np.diag(graph.degrees()) - a
    elif kind is ShiftKind.NORMALIZED_ADJACENCY:
        lam = symmetric_eigenvalues(a)
        lam_max = np.max(np.abs(lam))
        if lam_max == 0.0:
            raise GraphError("normalized_adjacency undefined: graph has no edges")
        return ShiftOperator(kind, a / lam_max, eigenvalues=lam / lam_max)
    elif kind in (ShiftKind.DEGREE_NORMALIZED_ADJACENCY, ShiftKind.NORMALIZED_LAPLACIAN):
        d = graph.degrees()
        zero = d == 0.0
        if np.any(zero):
            raise GraphError(f"zero-degree node {int(np.nonzero(zero)[0][0])}: "
                             f"cannot build {kind.value}")
        inv_sqrt = 1.0 / np.sqrt(d)
        m = inv_sqrt[:, None] * a * inv_sqrt[None, :]
        if kind is ShiftKind.NORMALIZED_LAPLACIAN:
            m = np.eye(graph.n_nodes) - m
    else:
        raise GraphError("custom shifts are built with ShiftOperator.from_dense")
    return ShiftOperator.from_dense(m, kind)


def permute_shift(s: ShiftOperator, perm: np.ndarray) -> ShiftOperator:
    """Relabel nodes: node i of the result is node perm[i] of ``s``.

    Cached spectral data is dropped (the eigenvector sign convention is not
    stable under relabeling); call :func:`eigendecompose` again if needed.
    """
    perm = np.asarray(perm)
    if sorted(perm.tolist()) != list(range(s.n_nodes)):
        raise GraphError("perm is not a permutation of the node indices")
    return ShiftOperator(s.kind, s.matrix[np.ix_(perm, perm)])


# ---------------------------------------------------------------------------
# Symmetric eigendecomposition (LAPACK through numpy.linalg), with a fixed
# eigenvector sign convention so results do not depend on the solver's choice
# of sign.
# ---------------------------------------------------------------------------

def _fix_eigenvector_signs(v: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(v), axis=0)  # argmax takes the lowest index on ties
    flip = v[idx, np.arange(v.shape[1])] < 0.0
    v = v.copy()
    v[:, flip] *= -1.0
    return v


def symmetric_eigh(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector matrix with orthonormal
    columns, sign-fixed so each column's largest-magnitude entry is positive).
    """
    a = np.asarray(a, dtype=float)
    _check_symmetric(a)
    lam, v = np.linalg.eigh(a)
    return lam, _fix_eigenvector_signs(v)


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    _check_symmetric(a)
    return np.linalg.eigvalsh(a)


def eigendecompose(s: ShiftOperator) -> ShiftOperator:
    """Return ``s`` with eigenvalues (ascending) and eigenvectors populated."""
    if s.has_eig:
        return s
    lam, v = symmetric_eigh(s.matrix)
    recon = (v * lam) @ v.T
    scale = max(np.linalg.norm(s.matrix), 1e-300)
    if np.linalg.norm(recon - s.matrix) > EIG_RECON_RTOL * scale:
        raise GraphError("eigendecomposition reconstruction check failed")
    return ShiftOperator(s.kind, s.matrix, eigenvalues=lam, eigenvectors=v)


def gft(s: ShiftOperator, x: GraphSignal) -> GraphSignal:
    """Graph Fourier transform V^T x. Requires an eigendecomposed shift."""
    if not s.has_eig:
        raise GraphError("gft needs an eigendecomposed shift (call eigendecompose)")
    if x.n_nodes != s.n_nodes:
        raise GraphError("signal size does not match shift")
    return GraphSignal(s.eigenvectors.T @ x.values)


def igft(s: ShiftOperator, x_hat: GraphSignal) -> GraphSignal:
    """Inverse graph Fourier transform V x_hat."""
    if not s.has_eig:
        raise GraphError("igft needs an eigendecomposed shift (call eigendecompose)")
    if x_hat.n_nodes != s.n_nodes:
        raise GraphError("spectrum size does not match shift")
    return GraphSignal(s.eigenvectors @ x_hat.values)


# ---------------------------------------------------------------------------
# Plain-text edge-list files: header line `nodes N`, then `i j weight`
# triples, 0-indexed, `#` comments.
# ---------------------------------------------------------------------------

def load_graph(path) -> Graph:
    """The graph of an edge-list file. A malformed line or an edge breaking a
    ``Graph`` rule raises a ``GraphError`` naming ``path:line`` and the fault."""
    n_nodes = None
    edges = {}  # line number -> edge
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            if parts[0] == "nodes":
                if n_nodes is not None:
                    raise GraphError(f"{where}: duplicate nodes header")
                if len(parts) != 2:
                    raise GraphError(f"{where}: expected `nodes N`, got {line!r}")
                n_nodes = _field(int, parts[1], where, "node count N")
                continue
            if n_nodes is None:
                raise GraphError(f"{where}: missing `nodes N` header")
            if len(parts) != 3:
                raise GraphError(f"{where}: expected `i j weight`, got {line!r}")
            edges[lineno] = (_field(int, parts[0], where, "node index i"),
                             _field(int, parts[1], where, "node index j"),
                             _field(float, parts[2], where, "weight"))
    if n_nodes is None:
        raise GraphError(f"{path}: missing `nodes N` header")
    try:
        return Graph(n_nodes, tuple(edges.values()))
    except EdgeRuleError as err:
        raise GraphError(f"{path}:{list(edges)[err.index]}: {err}") from None


def _field(typ, text: str, where: str, name: str):
    """``text`` as ``typ``, or a ``GraphError`` naming the line and field."""
    try:
        return typ(text)
    except ValueError:
        kind = "an integer" if typ is int else "a real number"
        raise GraphError(f"{where}: {name} {text!r} is not {kind}") from None


def random_graph(n_nodes: int, edge_prob: float, rng: np.random.Generator,
                 weighted: bool = False) -> Graph:
    """Erdos-Renyi style test graph, re-sampled until connected."""
    for _ in range(200):
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < edge_prob:
                    w = float(rng.uniform(0.5, 1.5)) if weighted else 1.0
                    edges.append((i, j, w))
        g = Graph(n_nodes, tuple(edges))
        if mask_connected(g.adjacency() > 0):
            return g
    raise GraphError("could not sample a connected graph; raise edge_prob")


def mask_connected(mask: np.ndarray) -> bool:
    """Is the graph of the symmetric (N, N) boolean adjacency ``mask``
    connected? A breadth-first search from node 0, one frontier per step."""
    seen = np.zeros(mask.shape[0], dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = np.nonzero(mask[frontier].any(axis=0) & ~seen)[0]
        seen[nxt] = True
        frontier = nxt.tolist()
    return bool(seen.all())
