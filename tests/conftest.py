import collections

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_random_graph(seed, n=None, edge_prob=0.4, weighted=True):
    from gspnn.graphs import random_graph
    r = np.random.default_rng(seed)
    if n is None:
        n = int(r.integers(3, 17))
    return random_graph(n, edge_prob, r, weighted=weighted), r


def edge_loop_check(n_nodes, edges):
    """The per-edge checks ``graphs.Graph`` ran as a loop before it checked
    edges in whole-array passes: the oracle for which edge is reported
    first and for the text of its ``GraphError``."""
    from gspnn.graphs import GraphError
    seen = set()
    for i, j, w in edges:
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise GraphError(f"edge ({i},{j}) out of range for {n_nodes} nodes")
        if i == j:
            raise GraphError(f"self-loop on node {i} not allowed in the edge list")
        if not (w > 0 and np.isfinite(w)):
            raise GraphError(f"edge ({i},{j}) needs a positive finite weight, got {w}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphError(f"duplicate edge ({i},{j})")
        seen.add(key)


def loop_adjacency(graph):
    """Dense adjacency written edge by edge: the oracle for
    ``Graph.adjacency``."""
    a = np.zeros((graph.n_nodes, graph.n_nodes))
    for i, j, w in graph.edges:
        a[i, j] = w
        a[j, i] = w
    return a


def loop_degrees(graph):
    """Weighted degrees summed edge by edge, i before j: the oracle that
    ``Graph.degrees`` must match bit for bit."""
    d = np.zeros(graph.n_nodes)
    for i, j, w in graph.edges:
        d[i] += w
        d[j] += w
    return d


def sorted_coordinates(m):
    """(rows, cols, vals) of the nonzero entries of ``m`` sorted by (row,
    col) with ``np.lexsort``: the coordinate list of a shift matrix, which
    ``coo_loop_oracle`` sums over and ``EdgeVaryingSupport.from_shift``
    must equal once the diagonal is added."""
    rows, cols = np.nonzero(m)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    return rows, cols, m[rows, cols]


def loop_shift_dense(graph, kind):
    """The dense shift matrix of ``kind`` from ``loop_adjacency`` and
    ``loop_degrees``, by the formulas of ``graphs.build_shift``."""
    from gspnn.graphs import ShiftKind
    a, d = loop_adjacency(graph), loop_degrees(graph)
    if kind is ShiftKind.ADJACENCY:
        return a
    if kind is ShiftKind.LAPLACIAN:
        return np.diag(d) - a
    if kind is ShiftKind.NORMALIZED_ADJACENCY:
        return a / np.max(np.abs(np.linalg.eigvalsh(a)))
    inv_sqrt = 1.0 / np.sqrt(d)
    m = inv_sqrt[:, None] * a * inv_sqrt[None, :]
    return np.eye(graph.n_nodes) - m if kind is ShiftKind.NORMALIZED_LAPLACIAN else m


def loop_similarity_edges(corr, top_edges):
    """Each node's ``top_edges`` strongest positive weights of ``corr``,
    picked by a per-node sort on (-weight, node) and united as (min, max)
    pairs: the oracle for the edge tuple of ``recsys.build_similarity``."""
    kept = set()
    for i in range(corr.shape[0]):
        weights = corr[i]
        candidates = np.nonzero(weights > 0.0)[0]
        order = sorted(candidates.tolist(), key=lambda j: (-weights[j], j))
        for j in order[:top_edges]:
            kept.add((min(i, j), max(i, j)))
    return tuple(sorted((i, j, float(corr[i, j])) for i, j in kept))


def closure_connected(mask):
    """Connectivity of the graph of a symmetric (N, N) boolean adjacency
    by its transitive closure: the oracle for ``graphs.mask_connected``.
    Reachability over at most N - 1 edges from every node is (I + A)^(N-1);
    the graph is connected when that has no zero entry."""
    n = mask.shape[0]
    step = (np.eye(n, dtype=bool) | mask).astype(int)
    reach = np.eye(n, dtype=int)
    for _ in range(n - 1):
        reach = np.minimum(reach @ step, 1)
    return bool(reach.all())


def delayed_stack_oracle(shifts, signals, order):
    """Delayed-chain stack by explicit products, for checking the one chain
    kernel (``flocking._advance_delayed``) and the layers that consume it.

    Entry k is S(t) S(t-1) ... S(t-k+1) x(t-k), zero where the history is too
    short. ``shifts`` is [S(t), S(t-1), ...] as (N, N) arrays and ``signals``
    is [x(t), x(t-1), ...] as (N, G) arrays; the result is the (1, N, K+1, G)
    stack ``fir_bank_contract`` reads.
    """
    n, g = signals[0].shape
    zs = np.zeros((1, n, order + 1, g))
    zs[0, :, 0] = signals[0]
    for k in range(1, min(order, len(signals) - 1, len(shifts)) + 1):
        w = signals[k]
        for j in range(k - 1, -1, -1):
            w = shifts[j] @ w
        zs[0, :, k] = w
    return zs


def trajectory_shift(sample, t):
    """S(t) of a flocking trajectory from its step-t positions alone: the
    per-step construction that the batched one in
    ``TrajectorySample.delayed_stacks`` must reproduce bit for bit."""
    from gspnn.flocking import _adjacency_mask, _normalized_shift_dense, _pairwise
    mask = _adjacency_mask(_pairwise(sample.positions[t]), sample.config.comm_radius)
    return _normalized_shift_dense(mask)


def per_step_delayed_stacks(sample, order):
    """A trajectory's (T, N, K+1, 6) delayed stack with one shift built per
    step: the chain ``TrajectorySample.delayed_stacks`` ran before it built
    every shift in one call."""
    from gspnn.flocking import _advance_delayed
    zs = np.zeros((sample.n_steps, sample.n_agents, order + 1, 6))
    zs[:, :, 0] = sample.features
    for t in range(1, sample.n_steps):
        _advance_delayed(trajectory_shift(sample, t), zs[t - 1], zs[t])
    return zs


def edge_chain_oracle(support, diag, values, x):
    """Edge-varying output sum_k Phi_k ... Phi_1 diag(phi_0) x by a
    bincount chain run one column at a time, for checking the one chain
    (``filters.edge_varying_chain``, which runs every column in one
    ``graphs.coo_apply`` call per step) and the layers that run it.

    ``support`` is an ``EdgeVaryingSupport``, ``diag`` the (N,) step-0
    weights, ``values`` the (K, nnz) step weights and ``x`` an (N, B) array
    whose columns are filtered one at a time.
    """
    out = np.zeros_like(x)
    for col in range(x.shape[1]):
        z = diag * x[:, col]
        total = z.copy()
        for vals in values:
            z = np.bincount(support.rows, weights=vals * z[support.cols],
                            minlength=support.n_nodes)
            total += z
        out[:, col] = total
    return out


def edge_rows_oracle(params, nodes):
    """An edge-varying last layer's rows at ``nodes`` and their VJP over
    every support entry: the transposed sweep, the chain and the value
    gradient ``neural`` ran before they ran on the reach of the output
    nodes. The oracle for ``neural._edge_rows``, with its return layout:
    the (T, F, G, N) rows and ``vjp(xbar)`` giving an ``EdgeLayerParams``
    of full-shape gradients, so that patched in for ``_edge_rows`` it
    restores the full-width path."""
    from gspnn.filters import edge_varying_chain, edge_varying_sweep
    from gspnn.neural import EdgeLayerParams
    sup = params.support
    e = np.zeros((nodes.size, sup.n_nodes))
    e[np.arange(nodes.size), nodes] = 1.0
    vs = edge_varying_sweep(sup, params.values,
                            np.broadcast_to(e, params.diag.shape[:2] + e.shape))
    w = (params.diag[:, :, None, :] * vs[0]).transpose(2, 0, 1, 3)

    def vjp(xbar):
        xb = xbar.transpose(1, 2, 0, 3)
        zs = edge_varying_chain(sup, params.values[:, :, :-1],
                                params.diag[:, :, None, :] * xb)
        gvals = np.empty_like(params.values)
        for k in range(1, len(vs)):
            gvals[:, :, k - 1] = np.einsum("fgbe,fgbe->fge", zs[k - 1][..., sup.cols],
                                           vs[k][..., sup.rows])
        return EdgeLayerParams(sup, (xb * vs[0]).sum(axis=2), gvals)

    return w, vjp


def full_shape_grads(spec, state, grads, nodes):
    """(name, gradient) pairs of ``iter_params(grads)`` for a tape recorded
    with ``out_nodes=nodes``, each at its parameter's full shape: a
    gradient given on the entries ``out_node_reach`` names is written
    into zeros there."""
    from gspnn.neural import iter_params, out_node_reach
    reach = out_node_reach(spec, state, nodes)
    params = dict(iter_params(state))
    out = []
    for name, g in iter_params(grads):
        if name in reach:
            full = np.zeros_like(params[name])
            full[reach[name]] = g
            g = full
        out.append((name, g))
    return out


def train_step_peaks(problem, config):
    """Run ``optim.train`` under tracemalloc; returns (history, peaks), per
    step the most bytes held above what was held when the step began. A
    step runs from one ``batch_loss`` call to the next, the last one to the
    return of ``train``, so it covers the gradient, the update and
    ``post_step``; what ``train`` allocates before the first step (the
    ADAM moments) is not in it."""
    import tracemalloc

    from gspnn.optim import train
    inner, starts, peaks = problem.batch_loss, [], []

    def end_step():
        if starts:
            peaks.append(tracemalloc.get_traced_memory()[1] - starts[-1])

    def batch_loss(indices):
        end_step()
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        return inner(indices)

    problem.batch_loss = batch_loss
    tracemalloc.start()
    try:
        history = train(problem, config)
        end_step()
    finally:
        tracemalloc.stop()
        del problem.batch_loss
    return history, peaks


def coo_loop_oracle(s, x):
    """S x by one ``np.bincount`` per feature column over the
    ``sorted_coordinates`` of S, the summation order of the coordinate-list
    product that shifts above 256 nodes ran before every shift became one
    dense matrix: the oracle for ``ShiftOperator.apply``; ``x`` is (N,) or
    (N, F)."""
    rows, cols, vals = sorted_coordinates(s.dense())
    if x.ndim == 1:
        return np.bincount(rows, weights=vals * x[cols], minlength=s.n_nodes)
    contrib = vals[:, None] * x[cols]
    out = np.empty((s.n_nodes, x.shape[1]))
    for f in range(x.shape[1]):
        out[:, f] = np.bincount(rows, weights=contrib[:, f], minlength=s.n_nodes)
    return out


def jacobi_shift(s, gamma):
    """Dense pole-parameterized shift R(gamma) = -(D - gamma I)^{-1} (S - D),
    the one-step oracle for ``filters.jacobi_iterates``. Shares the
    off-diagonal sparsity of S; equals S / gamma for hollow S."""
    m = s.dense()
    c = 1.0 / (np.diag(m) - gamma)
    return -c[:, None] * (m - np.diag(np.diag(m)))


def similarity_jacobi_radius(s, gamma):
    """Spectral radius of R(gamma) = (D - gamma I)^{-1} (D - S) by one
    eigensolve of the symmetric similar matrix |c|^(1/2) (D - S) |c|^(1/2),
    c = 1 / (d - gamma) of one sign: the oracle for
    ``filters.jacobi_spectral_radius``, which reads the cached spectrum
    when the diagonal is constant and runs this solve otherwise."""
    m = s.dense()
    c = 1.0 / (np.diag(m) - gamma)
    assert np.all(c > 0) or np.all(c < 0)
    off = np.diag(np.diag(m)) - m
    sq = np.sqrt(np.abs(c))
    sym = sq[:, None] * off * sq[None, :]
    return float(np.max(np.abs(np.linalg.eigvalsh(sym))))


def dense_solve_arma(p, s, x):
    """Exact ARMA output with one dense solve of (S - gamma I) u = beta x per
    pole, plus the direct taps: the oracle for ``filters.arma_apply_direct``,
    which sums the pole terms in the eigenbasis of S."""
    from gspnn.filters import FirTaps, fir_apply
    dense = s.dense()
    out = np.zeros_like(x.values)
    for gamma, beta in zip(p.poles, p.residues):
        out += beta * np.linalg.solve(dense - gamma * np.eye(s.n_nodes), x.values)
    return out + fir_apply(FirTaps(p.direct_taps), s, x).values


def per_input_stability(spec, state, s, perturbation, inputs, safety_factor=10.0):
    """(measured, n_violations) of ``analysis.stability_experiment`` with one
    ``model_forward`` per input on S and on the perturbed shift: the oracle
    for its one batched forward per shift."""
    from gspnn.analysis import default_lambda_interval, model_lipschitz_constant
    from gspnn.graphs import GraphSignal, eigendecompose
    from gspnn.neural import model_forward
    eps = perturbation.epsilon
    s = eigendecompose(s)
    s_hat = eigendecompose(perturbation.apply(s))
    interval = default_lambda_interval(np.sort(np.concatenate(
        [s.eigenvalues, s_hat.eigenvalues])))
    constant, _ = model_lipschitz_constant(spec, state, interval)
    bound = 2.0 * constant * len(spec.layers) * eps
    measured, violations = 0.0, 0
    for x in inputs:
        xs = GraphSignal(x)
        base, _ = model_forward(spec, state, s, xs)
        pert, _ = model_forward(spec, state, s_hat, xs)
        deviation = float(np.linalg.norm(pert.values - base.values))
        xnorm = float(np.linalg.norm(xs.values))
        measured = max(measured, deviation / max(xnorm, 1e-300))
        if deviation > bound * xnorm + safety_factor * eps * eps * xnorm:
            violations += 1
    return measured, violations


def per_probe_lipschitz_gcnn(s, depth, order, rng, dilation_headroom=1.15,
                             max_attempts=50):
    """``analysis.sample_lipschitz_gcnn`` with one ``model_forward`` per probe
    input, stopping at the first dead one: the oracle for its batched probes.
    Returns (spec, state, attempts), attempts counting the draws made."""
    from gspnn.analysis import default_lambda_interval, integral_lipschitz
    from gspnn.filters import FirTaps
    from gspnn.graphs import GraphSignal, eigendecompose
    from gspnn.neural import (FirLayerParams, LayerSpec, ModelSpec, ModelState,
                              model_forward)
    s = eigendecompose(s)
    lam = np.sort(np.concatenate([s.eigenvalues,
                                  dilation_headroom * s.eigenvalues]))
    interval = default_lambda_interval(lam)
    probes = rng.normal(size=(3, s.n_nodes))
    for attempt in range(1, max_attempts + 1):
        layers, params = [], []
        for _ in range(depth):
            taps = rng.normal(size=order + 1)
            taps = taps / integral_lipschitz(FirTaps(taps), interval).max_abs_response
            layers.append(LayerSpec("fir", 1, 1, order, nonlinearity="relu"))
            params.append(FirLayerParams(taps.reshape(1, 1, order + 1)))
        spec, state = ModelSpec(tuple(layers)), ModelState(params)
        if all(np.linalg.norm(model_forward(spec, state, s, GraphSignal(p))[0].values)
               > 1e-9 for p in probes):
            return spec, state, attempt
    raise AssertionError("no live relu filter stack")


@pytest.fixture
def count_linalg(monkeypatch):
    """Counter of calls to ``numpy.linalg`` ``eigh``, ``eigvalsh``,
    ``eigvals`` and ``solve`` made while the test runs, by function name."""
    counts = collections.Counter()
    for name in ("eigh", "eigvalsh", "eigvals", "solve"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def check_error_matrix(s, s_hat, result):
    """Residual of the relation P^T S_hat P = S + E S + S E for the (E, P)
    that ``analysis.relative_distance`` reports."""
    p = result.permutation
    lhs = s_hat.dense()[np.ix_(p, p)]
    e = result.error_matrix
    rhs = s.dense() + e @ s.dense() + s.dense() @ e
    return float(np.linalg.norm(lhs - rhs))


def save_graph(graph, path):
    """Write ``graph`` in the edge-list format ``graphs.load_graph`` reads:
    a `nodes N` header, then one `i j weight` line per edge."""
    with open(path, "w") as fh:
        fh.write(f"nodes {graph.n_nodes}\n")
        for i, j, w in graph.edges:
            fh.write(f"{i} {j} {w!r}\n")


def write_synthetic_fixture(path, n_users: int = 20, n_items: int = 12,
                            seed: int = 7) -> None:
    """Emit a u.data-style file with block structure: half the users love
    even items, half love odd items, plus noise and a few unrated holes."""
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(1, n_users + 1):
        likes_even = u % 2 == 0
        for i in range(1, n_items + 1):
            if rng.random() < 0.15:
                continue  # unrated
            aligned = (i % 2 == 0) == likes_even
            base = 4.5 if aligned else 1.5
            r = int(np.clip(round(base + rng.normal(scale=0.7)), 1, 5))
            lines.append(f"{u}\t{i}\t{r}\t{874000000 + u * 1000 + i}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def most_rated_items(table, k=2):
    """Ids of the ``k`` items with the most ratings, ties to the lower id."""
    counts = np.bincount(table.item_idx, minlength=table.n_items)
    order = np.lexsort((table.item_ids, -counts))
    return [int(table.item_ids[i]) for i in order[:k]]


def per_user_samples(table, target_item, split=0.9, seed=0):
    """``recsys.make_samples`` as a per-user loop over a freshly built
    rating matrix: each rater's row copied, its target read and zeroed."""
    from gspnn.recsys import RecSample
    node = table.item_node(target_item)
    x = np.zeros((table.n_users, table.n_items))
    x[table.user_idx, table.item_idx] = table.ratings
    mask = np.zeros((table.n_users, table.n_items), dtype=bool)
    mask[table.user_idx, table.item_idx] = True
    samples = []
    for u in np.nonzero(mask[:, node])[0]:
        inp = x[u].copy()
        target = float(inp[node])
        inp[node] = 0.0
        samples.append(RecSample(int(table.user_ids[u]), inp, target))
    order = np.random.default_rng(seed).permutation(len(samples))
    n_train = int(split * len(samples))
    return ([samples[i] for i in order[:n_train]],
            [samples[i] for i in order[n_train:]])


def raw_id_top_items(table, count):
    """``recsys.select_top_items`` by a lexsort on (count, id) and a table
    rebuilt from the kept rows' original ids."""
    from gspnn.recsys import _build_table
    counts = np.bincount(table.item_idx, minlength=table.n_items)
    order = np.lexsort((table.item_ids, -counts))
    keep_mask = np.zeros(table.n_items, dtype=bool)
    keep_mask[np.sort(order[:count])] = True
    row_keep = keep_mask[table.item_idx]
    return _build_table(table.user_ids[table.user_idx[row_keep]],
                        table.item_ids[table.item_idx[row_keep]],
                        table.ratings[row_keep])


def jacobi_single_pole(s, gamma, beta, iters, x):
    """Truncated Jacobi solve of (S - gamma I) u = beta x from u = x, one pole
    at a time through ``filters.jacobi_iterates``: the per-pole oracle for
    ``filters.arma_apply_jacobi``, which checks all poles against one margin.
    For a convergent recursion (spectral radius of R(gamma) below one) it
    approaches the exact single-pole output beta (S - gamma I)^{-1} x."""
    from gspnn.filters import FilterError, check_poles, jacobi_iterates, pole_margin
    from gspnn.graphs import GraphError, GraphSignal
    if iters < 1:
        raise FilterError("need at least one Jacobi iteration")
    if x.n_nodes != s.n_nodes:
        raise GraphError("signal size does not match shift")
    d = s.diagonal()
    check_poles(gamma, d, pole_margin(s))
    c = 1.0 / (d - gamma)
    xt = x.values.T
    us = jacobi_iterates(s, c, beta * c * xt, xt, s.apply(x.values).T, iters)
    return GraphSignal(us[-1].T)


def horner_response(taps, lambdas):
    """h(lambda) of one filter's 1-D taps by a scalar Horner loop per lambda,
    started at 0.0: the oracle that ``filters.fir_response`` must match bit
    for bit on single filters and on banks."""
    out = []
    for lam in np.atleast_1d(np.asarray(lambdas, dtype=float)):
        val = 0.0
        for coef in np.asarray(taps, dtype=float)[::-1]:
            val = val * lam + coef
        out.append(float(val))
    return np.array(out)


def arma_pointwise_response(p, lambdas):
    """Rational response of ``ArmaParams`` ``p`` one lambda at a time: the
    pole terms reduced by ``np.sum`` plus the direct taps' Horner response.
    ``np.sum`` reduces 8 or more terms pairwise, so ``filters.arma_response``,
    which adds the poles one by one, matches it only to rounding there."""
    out = []
    for lam in np.atleast_1d(np.asarray(lambdas, dtype=float)):
        out.append(float(np.sum(p.residues / (lam - p.poles)))
                   + horner_response(p.direct_taps, [lam])[0])
    return np.array(out)


def per_filter_lipschitz(spec, state, interval, grid_points=512):
    """``analysis.model_lipschitz_constant`` by one scalar Horner evaluation
    per (f, g) filter of every layer: the max over filters of
    max |lambda h'(lambda)| and of max |h(lambda)| on the uniform grid."""
    grid = np.linspace(interval[0], interval[1], grid_points)
    constant = max_resp = 0.0
    for params in state.layers:
        f_out, f_in, k1 = params.taps.shape
        for f in range(f_out):
            for g in range(f_in):
                taps = params.taps[f, g]
                resp = horner_response(taps, grid)
                deriv = horner_response(taps[1:] * np.arange(1, k1), grid) \
                    if k1 > 1 else np.zeros_like(grid)
                constant = max(constant, float(np.max(np.abs(grid * deriv))))
                max_resp = max(max_resp, float(np.max(np.abs(resp))))
    return constant, max_resp


def features_raw_oracle(positions, velocities, mask, dist):
    """``flocking._features_raw`` as it was written before it gathered the
    neighbor entries: a boolean gather for the zero-distance check and
    ``np.where`` weights from a power and a division of every entry. The
    features must equal it bit for bit."""
    from gspnn.flocking import ExpertAbort
    if np.any(dist[mask] < 1e-6):
        raise ExpertAbort("zero-distance neighbor")
    deg = mask.sum(axis=-1).astype(float)
    vel_sum = deg[..., None] * velocities - mask @ velocities
    feats = np.empty(positions.shape[:-1] + (6,))
    feats[..., 0:2] = vel_sum
    with np.errstate(divide="ignore"):     # the zero diagonal, masked out
        for col, power in ((2, 4.0), (4, 2.0)):
            w = np.where(mask, 1.0 / dist ** power, 0.0)
            feats[..., col:col + 2] = (w.sum(axis=-1)[..., None] * positions
                                       - w @ positions)
    return feats


def potential_slope_oracle(dist, radius):
    """``flocking._potential_slope_over_d`` as it was written before it
    evaluated the core on every entry: boolean gathers and scatters of the
    core d < 0.9 R and of the band 0.9 R <= d < R."""
    lo = 0.9 * radius
    out = np.zeros_like(dist)
    with np.errstate(divide="ignore", invalid="ignore"):
        core = dist < lo
        out[core] = 2.0 / dist[core] ** 4
        band = (dist >= lo) & (dist < radius)
        d = dist[band]
        phase = np.pi * (d - lo) / (radius - lo)
        w = 0.5 * (1.0 + np.cos(phase))
        dw = -0.5 * np.pi / (radius - lo) * np.sin(phase)
        out[band] = (2.0 * w / d ** 3 - dw / d ** 2) / d
    idx = np.arange(out.shape[-1])
    out[..., idx, idx] = 0.0
    return out


def normalized_shift_oracle(mask):
    """``flocking._normalized_shift_dense`` as it was written before it
    masked an outer product in place: the three-factor product
    D^-1/2 * A * D^-1/2."""
    deg = mask.sum(axis=-1).astype(float)
    inv_sqrt = np.zeros_like(deg)
    np.divide(1.0, np.sqrt(deg), out=inv_sqrt, where=deg > 0)
    return inv_sqrt[..., :, None] * mask * inv_sqrt[..., None, :]


def per_step_expert_features(sample):
    """A trajectory's (T, N, 6) features with one ``_pairwise`` /
    ``_adjacency_mask`` / ``features_raw_oracle`` call per step, the way the
    expert computed them while it ran: the oracle for the batched features
    that ``run_expert_trajectory`` and ``load_dataset`` compute."""
    from gspnn.flocking import _adjacency_mask, _pairwise
    feats = np.zeros((sample.n_steps, sample.n_agents, 6))
    for t in range(sample.n_steps):
        dist = _pairwise(sample.positions[t])
        mask = _adjacency_mask(dist, sample.config.comm_radius)
        feats[t] = features_raw_oracle(sample.positions[t], sample.velocities[t],
                                       mask, dist)
    return feats


def one_member(step, arrays, *args):
    """Run a lockstep step of ``flocking`` (``_expert_step`` or
    ``_integrate``) on a one-member batch: ``arrays`` are one team's
    unbatched arrays and ``args`` follow them. Returns the step's outputs
    without the batch axis, or raises the ``ExpertAbort`` of the member if
    it left the batch."""
    from gspnn.flocking import _Lockstep
    members = _Lockstep(1)
    out = step(members, *(np.asarray(a)[None] for a in arrays), *args)
    if members.aborts:
        raise members.aborts[0]
    return tuple(a[0] for a in out)


def serial_expert_run(config, seed):
    """One expert run stepped alone, one ``one_member`` call of each step
    kernel per step: the loop ``flocking.run_expert_trajectory`` ran before
    runs stepped in lockstep. Returns (positions, velocities, actions);
    raises the ``ExpertAbort`` that ends the run."""
    from gspnn import flocking as fl
    state = fl.spawn_state(config, np.random.default_rng(seed))
    r, v = state.positions, state.velocities
    t_steps, n = config.n_steps, config.n_agents
    positions = np.zeros((t_steps + 1, n, 2))
    velocities = np.zeros((t_steps + 1, n, 2))
    actions = np.zeros((t_steps, n, 2))
    for t in range(t_steps):
        positions[t] = r
        velocities[t] = v
        _, _, raw = one_member(fl._expert_step, (r, v), config.comm_radius)
        r, v, actions[t] = one_member(fl._integrate, (r, v, raw), config.u_max,
                                      config.dt)
    positions[t_steps] = r
    velocities[t_steps] = v
    return positions, velocities, actions


def serial_generate_dataset(n_traj, config, seed):
    """``flocking.generate_dataset`` one seed at a time: returns the kept
    seeds' runs as [(seed, (positions, velocities, actions))] and the
    number of aborted runs, raising the abort past 50 per trajectory."""
    from gspnn.flocking import ExpertAbort
    runs, n_resampled, next_seed = [], 0, seed
    while len(runs) < n_traj:
        try:
            runs.append((next_seed, serial_expert_run(config, next_seed)))
        except ExpertAbort:
            n_resampled += 1
            if n_resampled > 50 * max(n_traj, 1):
                raise
        next_seed += 1
    return runs, n_resampled


def serial_rollout(bundle, n_agents, seed):
    """One closed-loop policy run stepped alone, one ``_PolicyRunner`` step
    and one ``one_member`` integration per step: the loop ``rollout_policy``
    ran before rollouts stepped in lockstep. Returns ((positions,
    velocities), cost, diverged)."""
    from dataclasses import replace

    from gspnn import flocking as fl
    config = replace(bundle.config, n_agents=n_agents)
    state = fl.spawn_state(config, np.random.default_rng(seed))
    r, v = state.positions, state.velocities
    t_steps = config.n_steps
    positions = np.zeros((t_steps + 1, n_agents, 2))
    velocities = np.zeros((t_steps + 1, n_agents, 2))
    runner = fl._PolicyRunner(bundle, n_agents)
    for t in range(t_steps):
        positions[t] = r
        velocities[t] = v
        dist = fl._pairwise(r)
        mask = fl._adjacency_mask(dist, config.comm_radius)
        try:
            feats = features_raw_oracle(r, v, mask, dist)
            actions = runner.act(fl._normalized_shift_dense(mask), feats)
            r, v, _ = one_member(fl._integrate, (r, v, actions), config.u_max,
                                 config.dt)
        except fl.ExpertAbort:
            return (positions, velocities), float("inf"), True
    positions[t_steps] = r
    velocities[t_steps] = v
    return (positions, velocities), fl.velocity_variation_cost(velocities), False
