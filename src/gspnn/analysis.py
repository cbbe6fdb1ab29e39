"""Executable robustness theory: relative graph distances, integral-Lipschitz
filter constants, and output-deviation bounds under graph dilations.

The relative distance between two equal-size graphs is the smallest operator
norm of a symmetric error matrix E with P^T Shat P = S + ES + SE over node
relabelings P. Filters whose response satisfies |lambda h'(lambda)| <= C
give network outputs that move at most proportionally to that distance; the
experiment driver here measures both sides of that inequality. C is taken
on a uniform lambda grid from the array responses of ``filters.fir_response``
and ``filters.arma_response``, one call per filter or per FIR layer bank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .filters import ArmaParams, FirTaps, arma_response, fir_response
from .graphs import (
    GraphSignal,
    ShiftOperator,
    check_count,
    eigendecompose,
    symmetric_eigenvalues,
)
from .neural import FirLayerParams, LayerSpec, ModelSpec, ModelState, forward_batch

SYLVESTER_SINGULAR_TOL = 1e-9
DEFAULT_GRID_POINTS = 512
DEFAULT_MARGIN_FRACTION = 0.1
# stability_experiment: weight of the bound's second-order term eps^2 ||x||
STABILITY_SAFETY_FACTOR = 10.0
EXACT_SEARCH_MAX_NODES = 8
# sample_lipschitz_gcnn: spectrum headroom for dilations, and draws it makes
DILATION_HEADROOM = 1.15
SAMPLE_ATTEMPTS = 50


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Relative distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelativeDistanceResult:
    distance: float
    error_matrix: np.ndarray
    permutation: np.ndarray      # node relabeling: row i of S-hat maps to perm[i]
    method: str                  # exact_bruteforce | identity_permutation
    singular_flag: bool          # some |lambda_i + lambda_j| below tolerance


def _solve_error_matrix(s_eig: ShiftOperator, delta: np.ndarray):
    """Least-norm symmetric E with ES + SE = delta, via the eigenbasis of S.

    Entrywise division by (lambda_i + lambda_j); pairs that nearly cancel get
    coefficient zero and raise the singular flag.
    """
    lam = s_eig.eigenvalues
    v = s_eig.eigenvectors
    delta_t = v.T @ delta @ v
    pair_sums = lam[:, None] + lam[None, :]
    singular = np.abs(pair_sums) < SYLVESTER_SINGULAR_TOL
    coeff = np.zeros_like(delta_t)
    np.divide(delta_t, pair_sums, out=coeff, where=~singular)
    e = v @ coeff @ v.T
    e = (e + e.T) / 2.0
    return e, bool(np.any(singular))


def _operator_norm_symmetric(m: np.ndarray) -> float:
    lam = symmetric_eigenvalues(m)
    return float(np.max(np.abs(lam))) if lam.size else 0.0


def relative_distance(s: ShiftOperator, s_hat: ShiftOperator,
                      method: str = "identity_permutation") -> RelativeDistanceResult:
    """Distance between two shifts modulo node relabeling.

    ``exact_bruteforce`` minimizes over all N! relabelings (N <= 8);
    ``identity_permutation`` fixes P = I and yields an upper bound.
    """
    if s.n_nodes != s_hat.n_nodes:
        raise AnalysisError("graphs must have the same number of nodes")
    if method not in ("exact_bruteforce", "identity_permutation"):
        raise AnalysisError(f"unknown method {method!r}")
    n = s.n_nodes
    s_eig = eigendecompose(s)

    if method == "identity_permutation":
        perms = [tuple(range(n))]
    else:
        if n > EXACT_SEARCH_MAX_NODES:
            raise AnalysisError(
                f"exact search is capped at {EXACT_SEARCH_MAX_NODES} nodes; "
                "use identity_permutation above that")
        perms = list(itertools.permutations(range(n)))

    best = None
    for perm in perms:
        p = np.asarray(perm)
        delta = s_hat.matrix[np.ix_(p, p)] - s.matrix
        e, singular = _solve_error_matrix(s_eig, delta)
        norm = _operator_norm_symmetric(e)
        key = (norm, perm)  # deterministic tie-break: lexicographic permutation
        if best is None or key < best[0]:
            best = (key, e, p, singular)
    (norm, _), e, p, singular = best
    return RelativeDistanceResult(norm, e, p, method, singular)


# ---------------------------------------------------------------------------
# Integral-Lipschitz constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzReport:
    constant: float          # max over the grid of |lambda h'(lambda)|
    max_abs_response: float  # max |h(lambda)|, for the |h| <= 1 normalization
    grid: np.ndarray


def default_lambda_interval(eigenvalues: np.ndarray):
    lo = float(min(eigenvalues[0], 0.0))
    hi = float(eigenvalues[-1])
    margin = DEFAULT_MARGIN_FRACTION * max(hi - float(eigenvalues[0]), 1e-12)
    return lo - margin, hi + margin


def _fir_slope(taps: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """h'(lambda) on the grid: the response of the differentiated taps."""
    return fir_response(taps[..., 1:] * np.arange(1, taps.shape[-1]), grid)


def integral_lipschitz(h, lambda_interval: tuple[float, float],
                       grid_points: int = DEFAULT_GRID_POINTS) -> LipschitzReport:
    """Evaluate C = max |lambda h'(lambda)| on a uniform grid.

    ``h`` is FirTaps, a (..., K+1) tap array such as a layer's (F, G, K+1)
    bank, or ArmaParams. The FIR derivative is the response of the
    differentiated taps, a bank's C and max |h| are the maxima over all its
    filters. The ARMA derivative adds -beta / (lambda - gamma)^2 per pole;
    poles inside the interval are an error.
    """
    check_count("grid_points", grid_points, 2, AnalysisError)
    lo, hi = lambda_interval
    if not lo < hi:
        raise AnalysisError("empty lambda interval")
    grid = np.linspace(lo, hi, grid_points)
    if isinstance(h, FirTaps):
        h = h.taps
    if isinstance(h, np.ndarray):
        resp = fir_response(h, grid)
        deriv = _fir_slope(h, grid)
    elif isinstance(h, ArmaParams):
        inside = (h.poles >= lo) & (h.poles <= hi)
        if np.any(inside):
            raise AnalysisError(f"pole {h.poles[inside][0]} inside the interval")
        resp = arma_response(h, grid)
        deriv = np.zeros_like(grid)
        for gamma, beta in zip(h.poles, h.residues):
            denom = grid - gamma
            deriv += -beta / (denom * denom)
        deriv += _fir_slope(h.direct_taps, grid)
    else:
        raise AnalysisError(f"unsupported filter type {type(h)!r}")
    constant = float(np.max(np.abs(grid * deriv)))
    return LipschitzReport(constant, float(np.max(np.abs(resp))), grid)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

def dilate(s: ShiftOperator, epsilon: float) -> ShiftOperator:
    """Scale every entry by (1 + epsilon): eigenvalues scale, eigenvectors stay."""
    if epsilon <= -1.0:
        raise AnalysisError("dilation needs epsilon > -1")
    factor = 1.0 + epsilon
    eig = s.eigenvalues * factor if s.has_eig else None
    return ShiftOperator(s.kind, s.matrix * factor, eigenvalues=eig,
                         eigenvectors=s.eigenvectors)


@dataclass(frozen=True)
class DilationPerturbation:
    epsilon: float

    def apply(self, s: ShiftOperator) -> ShiftOperator:
        return dilate(s, self.epsilon)


# ---------------------------------------------------------------------------
# Stability experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    epsilon: float
    delta: float            # eigenvector misalignment term
    constant: float         # integral-Lipschitz C over the union of spectra
    bound: float            # 2 C (1 + delta sqrt(N)) L epsilon, per unit input norm
    measured: float         # max over inputs of output deviation / ||x||
    max_abs_response: float  # <= 1 when every layer filter is normalized
    n_violations: int       # inputs whose deviation exceeded bound + safety


def model_lipschitz_constant(spec: ModelSpec, state: ModelState,
                             interval: tuple[float, float]):
    """Largest per-filter C and |h| max across all FIR layers of a model,
    each layer's whole (F, G, K+1) bank evaluated in one call."""
    constant = 0.0
    max_resp = 0.0
    for layer, params in zip(spec.layers, state.layers):
        if layer.family != "fir":
            raise AnalysisError("stability bound evaluation expects FIR layers")
        rep = integral_lipschitz(params.taps, interval)
        constant = max(constant, rep.constant)
        max_resp = max(max_resp, rep.max_abs_response)
    return constant, max_resp


def stability_experiment(spec: ModelSpec, state: ModelState, s: ShiftOperator,
                         perturbation: DilationPerturbation,
                         inputs: list[np.ndarray]) -> StabilityReport:
    """Measure output deviation under a dilation against the first-order bound.

    For a dilation the minimizing relabeling is the identity and the error
    matrix is proportional to I, whose eigenbasis can be chosen equal to the
    shift's, so the misalignment term is zero. The bound per input is
    2 C (1 + delta sqrt(N)) L eps ||x|| plus a safety term
    ``STABILITY_SAFETY_FACTOR`` * eps^2 ||x|| covering the second order. The
    inputs (each (N,) or (N, G)) are stacked into one (B, N, G) batch, so the
    deviation ||Phi(Shat) x - Phi(S) x|| of every input comes from one
    ``forward_batch`` on S and one on Shat.
    """
    if spec.shift_mode != "static":
        raise AnalysisError("stability_experiment needs a static-shift model")
    if not len(inputs):
        raise AnalysisError("stability_experiment needs at least one input")
    eps = perturbation.epsilon
    s = eigendecompose(s)
    s_hat = eigendecompose(perturbation.apply(s))
    delta_term = 0.0  # dilation: E* is a multiple of I, pick U = V

    lam_all = np.concatenate([s.eigenvalues, s_hat.eigenvalues])
    lo, hi = default_lambda_interval(np.sort(lam_all))
    constant, max_resp = model_lipschitz_constant(spec, state, (lo, hi))
    depth = len(spec.layers)
    n = s.n_nodes
    bound_unit = 2.0 * constant * (1.0 + delta_term * np.sqrt(n)) * depth * eps
    second_order = STABILITY_SAFETY_FACTOR * eps * eps

    xs = np.stack([GraphSignal(x).values for x in inputs])
    out_base, _ = forward_batch(spec, state, s, xs)
    out_pert, _ = forward_batch(spec, state, s_hat, xs)
    measured = 0.0
    violations = 0
    for x, base, pert in zip(xs, out_base, out_pert):
        deviation = float(np.linalg.norm(pert - base))
        xnorm = float(np.linalg.norm(x))
        measured = max(measured, deviation / max(xnorm, 1e-300))
        if deviation > bound_unit * xnorm + second_order * xnorm:
            violations += 1
    return StabilityReport(
        epsilon=eps, delta=delta_term, constant=constant, bound=bound_unit,
        measured=measured, max_abs_response=max_resp,
        n_violations=violations)


def eigenvector_misalignment(u: np.ndarray, v: np.ndarray) -> float:
    """delta = (||U - V|| + 1)^2 - 1 with the operator norm."""
    diff = u - v
    sv = np.linalg.svd(diff, compute_uv=False)
    gap = float(sv[0]) if sv.size else 0.0
    return (gap + 1.0) ** 2 - 1.0


def sample_lipschitz_gcnn(s: ShiftOperator, depth: int, order: int,
                          rng: np.random.Generator):
    """Random single-feature relu FIR stack with every layer response
    normalized to max |h(lambda)| = 1 over the (dilation-inflated) spectrum.

    Relu chains can go dead (a layer's response non-positive wherever its
    input lives), so taps are redrawn until every one of three probe inputs,
    run as one batch, produces nonzero output; the redraw sequence is
    deterministic in ``rng``.
    """
    s = eigendecompose(s)
    lam = np.sort(np.concatenate([s.eigenvalues,
                                  DILATION_HEADROOM * s.eigenvalues]))
    interval = default_lambda_interval(lam)
    probes = rng.normal(size=(3, s.n_nodes, 1))
    for _ in range(SAMPLE_ATTEMPTS):
        layers, params = [], []
        for _ in range(depth):
            taps = rng.normal(size=order + 1)
            rep = integral_lipschitz(FirTaps(taps), interval)
            taps = taps / rep.max_abs_response
            layers.append(LayerSpec("fir", 1, 1, order, nonlinearity="relu"))
            params.append(FirLayerParams(taps.reshape(1, 1, order + 1)))
        spec = ModelSpec(tuple(layers))
        state = ModelState(params)
        out = forward_batch(spec, state, s, probes)[0]
        if all(np.linalg.norm(o) > 1e-9 for o in out):
            return spec, state
    raise AnalysisError("could not sample a live relu filter stack")

