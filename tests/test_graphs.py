import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gspnn.filters import ArmaParams, FilterError
from gspnn.graphs import (
    Graph,
    GraphError,
    GraphSignal,
    ShiftKind,
    ShiftOperator,
    build_shift,
    eigendecompose,
    gft,
    igft,
    load_graph,
    permute_shift,
    mask_connected,
    random_graph,
    symmetric_eigh,
)
from gspnn.neural import LayerSpec, ModelError, ReadoutSpec
from gspnn.optim import TrainConfig

from conftest import (
    closure_connected,
    coo_loop_oracle,
    edge_loop_check,
    loop_adjacency,
    loop_degrees,
    loop_shift_dense,
    make_random_graph,
    save_graph,
)


# ---------------------------------------------------------------------------
# Graph and signal containers
# ---------------------------------------------------------------------------

def test_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph(3, ((0, 0, 1.0),))


def test_graph_rejects_duplicate_edge():
    with pytest.raises(GraphError):
        Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))


def test_graph_rejects_bad_weight():
    with pytest.raises(GraphError):
        Graph(3, ((0, 1, -1.0),))
    with pytest.raises(GraphError):
        Graph(3, ((0, 1, np.inf),))


def test_graph_rejects_out_of_range_index():
    with pytest.raises(GraphError):
        Graph(2, ((0, 2, 1.0),))


@pytest.mark.parametrize("n_nodes", [2.5, True, False, 3.0, "3", None])
def test_graph_rejects_an_n_nodes_that_is_not_an_integer(n_nodes):
    with pytest.raises(GraphError, match=re.escape(f"n_nodes must be an "
                                                   f"integer >= 1, got {n_nodes!r}")):
        Graph(n_nodes, ((0, 1, 1.0),) if n_nodes else ())


@pytest.mark.parametrize("value", [2.0, True])
@pytest.mark.parametrize("build,error,where", [
    (lambda v: LayerSpec("fir", 1, 2, v), ModelError, "order"),
    (lambda v: LayerSpec("arma", 1, 2, 1, n_poles=v), ModelError, "n_poles"),
    (lambda v: ReadoutSpec("per_node_linear", v), ModelError, "out_dim"),
    (lambda v: TrainConfig(epochs=v, batch_size=4, learning_rate=0.1), ValueError,
     "epochs"),
    (lambda v: TrainConfig(epochs=1, batch_size=v, learning_rate=0.1), ValueError,
     "batch_size"),
    (lambda v: TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, seed=v),
     ValueError, "seed"),
    (lambda v: ArmaParams([2.0], [1.0], [0.0], jacobi_iters=v), FilterError,
     "jacobi_iters"),
], ids=["layer order", "layer n_poles", "readout out_dim", "epochs", "batch_size",
        "train seed", "arma jacobi_iters"])
def test_an_integer_field_takes_no_float_or_bool(build, error, where, value):
    # these fields were compared with < and never type-checked
    with pytest.raises(error, match=re.escape(f"{where} must be an integer >= ")):
        build(value)


@pytest.mark.parametrize("edge", [(0, 2 ** 70, 1.0), (-2 ** 70, 1, 1.0),
                                  (2 ** 64, 2 ** 64, 1.0), (0, 2 ** 63, 1.0)])
def test_graph_names_an_edge_whose_node_index_is_beyond_64_bits(edge):
    i, j, _ = edge
    want = f"edge ({i},{j}) out of range for 3 nodes"
    with pytest.raises(GraphError, match=re.escape(want)):
        Graph(3, ((0, 1, 1.0), edge))
    # the rule order still holds: an earlier bad edge is named first
    with pytest.raises(GraphError, match=re.escape("edge (0,1) needs a positive")):
        Graph(3, ((0, 1, 0.0), edge))


@pytest.mark.parametrize("edges, named", [
    (((0, 1),), "(0, 1)"),                        # a pair, not a triple
    (((0, 1, 1.0), (1, 2, 1.0, 3.0)), "(1, 2, 1.0, 3.0)"),
    ((0, 1, 1.0), "0"),                           # one flat triple
    ((0, 1, 1.0, 1, 2, 1.0), "0"),                # a flat list of six
])
def test_graph_rejects_an_edge_that_is_not_a_triple(edges, named):
    with pytest.raises(GraphError, match=re.escape(f"edge {named} is not")):
        Graph(3, edges)


@pytest.mark.parametrize("edge", [(0.5, 1, 1.0), (0, 1.0, 1.0), (0, "1", 1.0),
                                  (True, 2, 1.0), (0, np.float64(2.0), 1.0)])
def test_graph_rejects_a_node_index_that_is_not_an_integer(edge):
    with pytest.raises(GraphError, match=re.escape(f"edge {edge!r}: node index")):
        Graph(3, ((0, 2, 1.0), edge))


def test_graph_rejects_a_weight_that_is_not_a_real_number():
    with pytest.raises(GraphError, match="edge \\(0, 1, None\\): weight"):
        Graph(3, ((1, 2, 1.0), (0, 1, None)))


def test_graph_accepts_numpy_scalars():
    g = Graph(3, ((np.int64(0), np.int32(2), np.float32(0.5)), (1, 2, 1)))
    assert np.array_equal(g.adjacency(), loop_adjacency(g))
    assert g.rows.dtype == np.int64 and g.weights.dtype == float


BAD_EDGES = [(-1, 1, 1.0), (0, 9, 1.0), (2, 2, 1.0), (0, 1, 0.0), (0, 1, -2.0),
             (0, 1, np.nan), (0, 1, np.inf), (9, 9, np.nan), (1, 1, -1.0)]


@given(st.lists(st.one_of(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                    st.sampled_from([0.5, 1.0, 2.0])),
                          st.sampled_from(BAD_EDGES)),
                max_size=12))
def test_graph_reports_the_first_bad_edge_of_the_loop_oracle(edges):
    edges = tuple(edges)
    try:
        edge_loop_check(6, edges)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            Graph(6, edges)
        assert str(got.value) == str(exc)
    else:
        g = Graph(6, edges)
        assert np.array_equal(g.adjacency(), loop_adjacency(g))


def test_graph_arrays_are_read_only_and_left_out_of_equality():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 2.0)))
    for arr in (g.rows, g.cols, g.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert g == Graph(3, ((0, 1, 1.0), (1, 2, 2.0)))
    assert hash(g) == hash(Graph(3, ((0, 1, 1.0), (1, 2, 2.0))))
    assert repr(g) == "Graph(n_nodes=3, edges=((0, 1, 1.0), (1, 2, 2.0)))"


@given(st.integers(0, 200))
def test_adjacency_and_degrees_equal_the_edge_loops_bitwise(seed):
    g, _ = make_random_graph(seed, edge_prob=0.5)
    for got, want in ((g.adjacency(), loop_adjacency(g)),
                      (g.degrees(), loop_degrees(g))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_graph_without_edges_has_float_zero_degrees():
    g = Graph(4, ())
    assert g.degrees().dtype == float and not g.degrees().any()
    assert g.adjacency().tobytes() == np.zeros((4, 4)).tobytes()


def test_signal_promotes_1d():
    x = GraphSignal(np.array([1.0, 2.0]))
    assert x.values.shape == (2, 1)
    assert x.n_nodes == 2 and x.values.shape[1] == 1


def test_signal_rejects_nan():
    with pytest.raises(GraphError):
        GraphSignal(np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# build_shift
# ---------------------------------------------------------------------------

def two_node_graph():
    return Graph(2, ((0, 1, 1.0),))


def triangle_graph():
    return Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))


def path3_graph():
    return Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))


def cycle_graph(n):
    return Graph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n)))


def complete_graph(n):
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))


# Shifts of these graphs have repeated eigenvalues. Inside a repeated
# eigenspace the solver may return any orthonormal basis, so tests on them
# check only properties that hold for every such basis.
REPEATED_SPECTRUM_GRAPHS = {"C8": cycle_graph(8), "K5": complete_graph(5)}


def test_adjacency_two_nodes():
    s = build_shift(two_node_graph(), ShiftKind.ADJACENCY)
    assert np.array_equal(s.dense(), [[0.0, 1.0], [1.0, 0.0]])


def test_laplacian_two_nodes():
    s = build_shift(two_node_graph(), ShiftKind.LAPLACIAN)
    assert np.array_equal(s.dense(), [[1.0, -1.0], [-1.0, 1.0]])


def test_degree_normalized_triangle():
    # D = 2I, so every off-diagonal entry is 1/2.
    s = build_shift(triangle_graph(), ShiftKind.DEGREE_NORMALIZED_ADJACENCY)
    expected = (np.ones((3, 3)) - np.eye(3)) / 2.0
    assert np.allclose(s.dense(), expected, atol=1e-15)


def test_normalized_adjacency_spectrum_in_unit_interval():
    g, _ = make_random_graph(7, n=12)
    s = eigendecompose(build_shift(g, ShiftKind.NORMALIZED_ADJACENCY))
    assert np.max(np.abs(s.eigenvalues)) <= 1.0 + 1e-12


def test_normalized_laplacian_matches_definition():
    g, _ = make_random_graph(8, n=9)
    a = g.adjacency()
    d = g.degrees()
    expected = np.eye(9) - a / np.sqrt(np.outer(d, d))
    s = build_shift(g, ShiftKind.NORMALIZED_LAPLACIAN)
    assert np.allclose(s.dense(), expected, atol=1e-12)


def test_zero_degree_node_rejected_for_degree_scaling():
    g = Graph(3, ((0, 1, 1.0),))  # node 2 isolated
    with pytest.raises(GraphError, match="zero-degree"):
        build_shift(g, ShiftKind.DEGREE_NORMALIZED_ADJACENCY)


BUILT_KINDS = [k for k in ShiftKind if k is not ShiftKind.CUSTOM]


@pytest.mark.parametrize("kind", BUILT_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("seed", range(6))
def test_build_shift_equals_the_loop_oracle_bitwise(kind, seed):
    g, _ = make_random_graph(seed, n=[3, 7, 16, 30, 60, 120][seed])
    s = build_shift(g, kind)
    m = loop_shift_dense(g, kind)
    assert s.dense().tobytes() == m.tobytes()


def test_shift_keeps_a_read_only_copy_of_its_arrays():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = ShiftOperator.from_dense(a)
    a[0, 0] = 7.0  # the caller's array, not the operator's
    assert s.dense()[0, 0] == 0.0 and s.diagonal()[0] == 0.0
    assert np.array_equal(s.apply(np.array([1.0, 2.0])), [2.0, 1.0])
    e = eigendecompose(s)
    for arr in (s.dense(), s.diagonal(), s.spectrum, e.eigenvalues, e.eigenvectors,
                permute_shift(s, [1, 0]).dense()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    b = np.eye(2)
    view = ShiftOperator(ShiftKind.CUSTOM, b.T)  # a writeable view of b
    b[0, 0] = 5.0
    assert view.dense()[0, 0] == 1.0


def test_custom_shift_requires_symmetry():
    with pytest.raises(GraphError, match="symmetric"):
        ShiftOperator.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("m,entry", [
    ([[0.0, np.nan], [np.nan, 0.0]], "(0,1) is nan"),
    ([[0.0, np.inf], [1.0, 0.0]], "(0,1) is inf"),   # its symmetry bound is inf
    ([[0.0, 1.0, 0.0], [1.0, 0.0, -np.inf], [0.0, -np.inf, 0.0]], "(1,2) is -inf"),
])
def test_custom_shift_rejects_a_non_finite_entry(m, entry):
    with pytest.raises(GraphError, match=re.escape(f"entry {entry}, not finite")):
        ShiftOperator.from_dense(np.array(m))


# ---------------------------------------------------------------------------
# shift operation
# ---------------------------------------------------------------------------

def test_shift_swaps_on_single_edge():
    s = build_shift(two_node_graph(), ShiftKind.ADJACENCY)
    y = s.apply(GraphSignal(np.array([1.0, 0.0])).values)
    assert np.array_equal(y[:, 0], [0.0, 1.0])


def test_shift_of_zero_is_zero():
    g, _ = make_random_graph(3)
    s = build_shift(g, ShiftKind.ADJACENCY)
    y = s.apply(GraphSignal(np.zeros(g.n_nodes)).values)
    assert np.all(y == 0.0)


def test_shift_path3_impulse():
    s = build_shift(path3_graph(), ShiftKind.ADJACENCY)
    x = np.array([1.0, 0.0, 0.0])
    y = s.apply(GraphSignal(x).values)
    # dense matrix-vector oracle
    assert np.allclose(y[:, 0], s.dense() @ x, atol=1e-15)
    assert np.array_equal(y[:, 0], [0.0, 1.0, 0.0])


def test_shift_dimension_mismatch():
    s = build_shift(path3_graph(), ShiftKind.ADJACENCY)
    with pytest.raises(GraphError):
        s.apply(GraphSignal(np.zeros(4)).values)


@pytest.mark.parametrize("kind", [ShiftKind.ADJACENCY, ShiftKind.LAPLACIAN,
                                  ShiftKind.NORMALIZED_LAPLACIAN],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("n", [257, 300, 600])
def test_apply_matches_the_coordinate_product_above_256_nodes(n, kind):
    # above 256 nodes products used to sum by bincount over the nonzero
    # coordinates; the matrix product may sum in another order, so each
    # entry must agree to 1e-13 of its sum of |S_ij x_j|
    r = np.random.default_rng(n)
    s = build_shift(random_graph(n, 0.03, r, weighted=True), kind)
    for x in (r.normal(size=n), r.normal(size=(n, 6))):
        err = np.abs(s.apply(x) - coo_loop_oracle(s, x))
        assert np.all(err <= 1e-13 * (np.abs(s.dense()) @ np.abs(x)))


@given(st.integers(0, 100))
def test_shift_locality(seed):
    # Perturbing a non-neighbor never changes a node's shifted value.
    g, r = make_random_graph(seed)
    s = build_shift(g, ShiftKind.ADJACENCY)
    n = g.n_nodes
    x = r.normal(size=n)
    y0 = s.apply(x)
    neighbors = {i: set() for i in range(n)}
    for i, j, _ in g.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    for node in range(n):
        for other in range(n):
            if other in neighbors[node] or other == node:
                continue
            x2 = x.copy()
            x2[other] += 1.0
            assert s.apply(x2)[node] == y0[node]


# ---------------------------------------------------------------------------
# Eigendecomposition and GFT
# ---------------------------------------------------------------------------

def test_eigendecompose_two_node():
    s = eigendecompose(build_shift(two_node_graph(), ShiftKind.ADJACENCY))
    assert np.allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-12)
    r2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(s.eigenvectors), r2, atol=1e-12)
    # sign convention: first column [1, -1]/sqrt(2), second [1, 1]/sqrt(2)
    assert np.allclose(s.eigenvectors[:, 0], [r2, -r2], atol=1e-12)
    assert np.allclose(s.eigenvectors[:, 1], [r2, r2], atol=1e-12)


def test_eigendecompose_diagonal():
    s = ShiftOperator.from_dense(np.diag([3.0, 1.0, 2.0]))
    s = eigendecompose(s)
    assert np.allclose(s.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
    perm_abs = np.abs(s.eigenvectors)
    assert np.allclose(perm_abs @ perm_abs.T, np.eye(3), atol=1e-12)
    assert set(np.argmax(perm_abs, axis=0).tolist()) == {0, 1, 2}


def test_laplacian_nullspace_is_constant_vector():
    g, _ = make_random_graph(11, n=8)
    s = eigendecompose(build_shift(g, ShiftKind.LAPLACIAN))
    assert abs(s.eigenvalues[0]) < 1e-9
    v1 = s.eigenvectors[:, 0]
    assert np.allclose(v1, v1[0], atol=1e-9)


def test_eigendecompose_rejects_nonsymmetric():
    with pytest.raises(GraphError):
        symmetric_eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))


def check_eigendecomposition(s):
    """Eigenvalues match numpy, V is orthonormal, V diag(lam) V^T is S, and
    each column's largest-magnitude entry (lowest index on ties) is positive."""
    lam_np = np.linalg.eigvalsh(s.dense())
    assert np.allclose(s.eigenvalues, lam_np, atol=1e-9)
    v = s.eigenvectors
    assert np.linalg.norm(v.T @ v - np.eye(s.n_nodes)) <= 1e-8
    recon = (v * s.eigenvalues) @ v.T
    assert np.linalg.norm(recon - s.dense()) <= 1e-8 * max(np.linalg.norm(s.dense()), 1.0)
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(s.n_nodes)]
    assert np.all(lead > 0.0)


def check_gft_roundtrip_and_parseval(s, x):
    xh = gft(s, x)
    back = igft(s, xh)
    assert np.allclose(back.values, x.values, atol=1e-10)
    assert abs(np.linalg.norm(xh.values) - np.linalg.norm(x.values)) <= 1e-10


@given(st.integers(0, 100))
def test_eigh_matches_numpy_oracle(seed):
    g, _ = make_random_graph(seed)
    check_eigendecomposition(eigendecompose(build_shift(g, ShiftKind.ADJACENCY)))


@pytest.mark.parametrize("kind", [ShiftKind.ADJACENCY, ShiftKind.LAPLACIAN,
                                  ShiftKind.NORMALIZED_ADJACENCY])
@pytest.mark.parametrize("name", sorted(REPEATED_SPECTRUM_GRAPHS))
def test_repeated_eigenvalues_decompose_and_roundtrip(name, kind):
    g = REPEATED_SPECTRUM_GRAPHS[name]
    s = eigendecompose(build_shift(g, kind))
    assert np.min(np.diff(s.eigenvalues)) < 1e-9  # the spectrum does repeat
    check_eigendecomposition(s)
    x = GraphSignal(np.random.default_rng(g.n_nodes).normal(size=(g.n_nodes, 2)))
    check_gft_roundtrip_and_parseval(s, x)
    assert np.allclose(gft(s, GraphSignal(s.eigenvectors)).values,
                       np.eye(g.n_nodes), atol=1e-10)


@given(st.integers(0, 100))
def test_permuted_shift_has_same_eigenvalues(seed):
    g, r = make_random_graph(seed)
    s = eigendecompose(build_shift(g, ShiftKind.ADJACENCY))
    perm = r.permutation(g.n_nodes)
    sp = eigendecompose(permute_shift(s, perm))
    assert np.allclose(np.sort(s.eigenvalues), np.sort(sp.eigenvalues), atol=1e-9)


def test_gft_two_node_constant_signal():
    s = eigendecompose(build_shift(two_node_graph(), ShiftKind.ADJACENCY))
    xh = gft(s, GraphSignal(np.array([1.0, 1.0])))
    assert np.allclose(xh.values[:, 0], [0.0, np.sqrt(2.0)], atol=1e-12)


def test_gft_of_eigenvector_is_basis_vector():
    g, _ = make_random_graph(21, n=6)
    s = eigendecompose(build_shift(g, ShiftKind.ADJACENCY))
    for i in range(g.n_nodes):
        xh = gft(s, GraphSignal(s.eigenvectors[:, i]))
        expected = np.zeros(g.n_nodes)
        expected[i] = 1.0
        assert np.allclose(xh.values[:, 0], expected, atol=1e-10)


@given(st.integers(0, 100))
def test_gft_roundtrip_and_parseval(seed):
    g, r = make_random_graph(seed, n=int(np.random.default_rng(seed).integers(2, 64)))
    s = eigendecompose(build_shift(g, ShiftKind.ADJACENCY))
    check_gft_roundtrip_and_parseval(s, GraphSignal(r.normal(size=(g.n_nodes, 2))))


def test_gft_requires_eig():
    s = build_shift(two_node_graph(), ShiftKind.ADJACENCY)
    with pytest.raises(GraphError, match="eigendecomposed"):
        gft(s, GraphSignal(np.zeros(2)))


# ---------------------------------------------------------------------------
# Edge-list files
# ---------------------------------------------------------------------------

def test_graph_file_roundtrip(tmp_path):
    g, _ = make_random_graph(3, n=7)
    path = tmp_path / "g.edges"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.n_nodes == g.n_nodes
    assert sorted(g2.edges) == sorted(g.edges)


def test_graph_file_comments_and_errors(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\nnodes 3\n0 1 2.0  # inline\n1 2 0.5\n")
    g = load_graph(path)
    assert g.n_nodes == 3 and len(g.edges) == 2
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1 2.0\n")
    with pytest.raises(GraphError, match="header"):
        load_graph(bad)


@pytest.mark.parametrize("text,problem", [
    ("nodes\n", "1: expected `nodes N`, got 'nodes'"),
    ("nodes 3 4\n", "1: expected `nodes N`, got 'nodes 3 4'"),
    ("nodes x\n", "1: node count N 'x' is not an integer"),
    ("nodes 3\n0 1 x\n", "2: weight 'x' is not a real number"),
    ("nodes 3\n0 1.5 1\n", "2: node index j '1.5' is not an integer"),
    ("nodes 3\n# c\n\nb 1 1\n", "4: node index i 'b' is not an integer"),
    ("nodes 3\n0 1\n", "2: expected `i j weight`, got '0 1'"),
])
def test_graph_file_errors_name_the_line_and_field(tmp_path, text, problem):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(GraphError, match=f"^{re.escape(f'{path}:{problem}')}$"):
        load_graph(path)


def test_random_graph_connected():
    g = random_graph(10, 0.3, np.random.default_rng(0))
    s = build_shift(g, ShiftKind.LAPLACIAN)
    lam = np.linalg.eigvalsh(s.dense())
    assert lam[1] > 1e-9  # algebraic connectivity positive


def test_mask_connected_on_small_graphs():
    assert mask_connected(np.zeros((1, 1), dtype=bool))          # one node
    assert not mask_connected(np.zeros((2, 2), dtype=bool))
    assert mask_connected(path3_graph().adjacency() > 0)
    split = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    assert not mask_connected(split.adjacency() > 0)


@given(st.integers(0, 200))
def test_mask_connected_matches_the_closure_oracle(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(1, 12))
    upper = np.triu(r.random((n, n)) < 0.25, 1)
    mask = upper | upper.T
    assert mask_connected(mask) == closure_connected(mask)


def test_random_graph_keeps_the_first_connected_draw():
    # at edge_prob 0.2 most 8-node draws are disconnected; the graph must be
    # the first connected one of the edge sets drawn in turn, so redrawing
    # consumes the generator as before
    redraws = 0
    for seed in range(5):
        g = random_graph(8, 0.2, np.random.default_rng(seed), weighted=True)
        r = np.random.default_rng(seed)
        while True:
            edges = tuple((i, j, float(r.uniform(0.5, 1.5)))
                          for i in range(8) for j in range(i + 1, 8)
                          if r.random() < 0.2)
            if closure_connected(Graph(8, edges).adjacency() > 0):
                break
            redraws += 1
        assert g.edges == edges
    assert redraws > 0
    assert random_graph(1, 0.5, np.random.default_rng(0)) == Graph(1, ())
