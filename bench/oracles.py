"""Reference computations made apart from the program, in plain numpy.

Each function here recomputes something the program outputs from first
principles (dense matrices, numpy's own eigensolver), so a wrong program
output shows as a large error. None of them imports ``gspnn``.
"""

from __future__ import annotations

import numpy as np


def rel_err(got, want) -> float:
    """Largest absolute difference over the largest reference magnitude."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1e-300)
    return float(np.max(np.abs(got - want))) / scale if want.size else 0.0


def dense_adjacency(n_nodes: int, edges) -> np.ndarray:
    a = np.zeros((n_nodes, n_nodes))
    for i, j, w in edges:
        a[i, j] = a[j, i] = w
    return a


def normalized_adjacency(n_nodes: int, edges) -> np.ndarray:
    """Adjacency divided by its spectral norm, from numpy's eigensolver."""
    a = dense_adjacency(n_nodes, edges)
    return a / np.max(np.abs(np.linalg.eigvalsh(a)))


# ---------------------------------------------------------------------------
# Single-layer graph networks with a per-node linear readout
# ---------------------------------------------------------------------------

def _nonlin(kind: str, u: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(u, 0.0)
    if kind == "tanh":
        return np.tanh(u)
    if kind == "identity":
        return u
    raise ValueError(f"unknown nonlinearity {kind!r}")


def _powers(s: np.ndarray, x: np.ndarray, order: int) -> list[np.ndarray]:
    """[x, Sx, ..., S^K x] for x of shape (N, cols)."""
    out = [x]
    for _ in range(order):
        out.append(s @ out[-1])
    return out


def layer_preactivation(layer: dict, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Filter-bank output u[b, n, f] for a (B, N, G) input.

    ``layer`` holds ``family`` and its arrays: ``taps`` (F, G, K+1) for fir;
    ``alpha`` (F, G, K+1), ``beta``/``gamma`` (F, G, P) and ``jacobi_iters``
    for arma; ``rows``/``cols``, ``diag`` (F, G, N) and ``values``
    (F, G, K, nnz) for edge_varying.
    """
    b, n, g = x.shape
    family = layer["family"]
    if family in ("fir", "arma"):
        taps = layer["taps"] if family == "fir" else layer["alpha"]
        f_out, _, k1 = taps.shape
        u = np.zeros((b, n, f_out))
        for gi in range(g):
            pw = _powers(s, x[:, :, gi].T, k1 - 1)           # each (N, B)
            for k in range(k1):
                u += pw[k].T[:, :, None] * taps[:, gi, k][None, None, :]
        if family == "arma":
            u += _jacobi_poles(layer, s, x)
        return u
    if family == "edge_varying":
        f_out, _, order, _ = layer["values"].shape
        u = np.zeros((b, n, f_out))
        for f in range(f_out):
            for gi in range(g):
                z = layer["diag"][f, gi][:, None] * x[:, :, gi].T   # (N, B)
                total = z.copy()
                for k in range(order):
                    phi = np.zeros((n, n))
                    phi[layer["rows"], layer["cols"]] = layer["values"][f, gi, k]
                    z = phi @ z
                    total += z
                u[:, :, f] += total.T
        return u
    raise ValueError(f"unknown family {family!r}")


def _jacobi_poles(layer: dict, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum over poles of T Jacobi steps u <- beta c x + R u from u = x, with
    R = diag(c) (D - S) and c = 1 / (d - gamma), as dense matrices."""
    b, n, g = x.shape
    beta, gamma = layer["beta"], layer["gamma"]
    f_out, _, n_poles = gamma.shape
    d = np.diag(s)
    off = np.diag(d) - s
    out = np.zeros((b, n, f_out))
    for f in range(f_out):
        for gi in range(g):
            xg = x[:, :, gi].T                                 # (N, B)
            for p in range(n_poles):
                c = 1.0 / (d - gamma[f, gi, p])
                r = c[:, None] * off
                u = xg
                for _ in range(layer["jacobi_iters"]):
                    u = beta[f, gi, p] * c[:, None] * xg + r @ u
                out[:, :, f] += u.T
    return out


def single_layer_forward(layer: dict, readout_w: np.ndarray,
                         readout_b: np.ndarray, s: np.ndarray,
                         x: np.ndarray) -> np.ndarray:
    """Nonlinearity of the filter bank, then the per-node readout."""
    hidden = _nonlin(layer["nonlinearity"], layer_preactivation(layer, s, x))
    return hidden @ readout_w + readout_b


# ---------------------------------------------------------------------------
# Flocking
# ---------------------------------------------------------------------------

def double_integrator_residual(positions, velocities, actions, dt: float) -> float:
    """Largest relative violation of r' = r + v dt + u dt^2 / 2, v' = v + u dt."""
    r_next = positions[:-1] + velocities[:-1] * dt + 0.5 * actions * dt * dt
    v_next = velocities[:-1] + actions * dt
    return max(rel_err(positions[1:], r_next), rel_err(velocities[1:], v_next))


def velocity_variation(velocities: np.ndarray) -> float:
    """(1/N) sum over acted steps and agents of |v_i - mean_j v_j|^2."""
    v = velocities[:-1]
    centered = v - v.mean(axis=1, keepdims=True)
    return float(np.einsum("tni,tni->", centered, centered) / v.shape[1])


def zero_controller_cost(initial_velocities: np.ndarray, n_steps: int) -> float:
    """Cost when nobody accelerates: the initial spread at every step."""
    centered = initial_velocities - initial_velocities.mean(axis=0)
    return float(n_steps * np.einsum("ni,ni->", centered, centered)
                 / initial_velocities.shape[0])


# ---------------------------------------------------------------------------
# Spectral theory
# ---------------------------------------------------------------------------

def spectral_problems(s: np.ndarray, lam: np.ndarray, v: np.ndarray,
                      tol: float = 1e-9) -> list[str]:
    """Eigenvalues against numpy, orthonormal columns, reconstruction."""
    scale = max(float(np.max(np.abs(s))), 1.0)
    problems = []
    ref = np.linalg.eigvalsh(s)
    if lam.shape != ref.shape or np.max(np.abs(lam - ref)) > tol * scale:
        problems.append("eigenvalues differ from numpy.linalg.eigh")
    if np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) > tol:
        problems.append("eigenvectors are not orthonormal")
    if np.max(np.abs((v * lam) @ v.T - s)) > tol * scale:
        problems.append("V diag(lam) V^T does not reconstruct S")
    # the documented sign convention: each column's largest-magnitude entry
    # (lowest index on ties) is positive
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    if np.any(lead <= 0.0):
        problems.append("an eigenvector breaks the sign convention")
    return problems


def spectral_filter(s: np.ndarray, response, x: np.ndarray) -> np.ndarray:
    """V h(Lambda) V^T x with numpy's eigendecomposition; ``response`` maps
    an array of eigenvalues to h(lambda)."""
    lam, v = np.linalg.eigh(s)
    return v @ (response(lam)[:, None] * (v.T @ x))


def polynomial_response(taps):
    taps = np.asarray(taps, dtype=float)
    return lambda lam: np.polyval(taps[::-1], lam)


def arma_response(poles, residues, direct_taps):
    poly = polynomial_response(direct_taps)

    def h(lam):
        out = poly(lam)
        for gamma, beta in zip(poles, residues):
            out = out + beta / (lam - gamma)
        return out
    return h


def jacobi_arma_dense(s: np.ndarray, poles, residues, direct_taps, iters: int,
                      x: np.ndarray) -> np.ndarray:
    """Direct polynomial part plus ``iters`` Jacobi steps per pole, from u = x."""
    layer = {"beta": np.asarray(residues, float).reshape(1, 1, -1),
             "gamma": np.asarray(poles, float).reshape(1, 1, -1),
             "jacobi_iters": iters}
    direct = sum(t * p for t, p in zip(direct_taps,
                                       _powers(s, x, len(direct_taps) - 1)))
    return direct + _jacobi_poles(layer, s, x.T[:, :, None])[:, :, 0].T


def jacobi_radius(s: np.ndarray, gamma: float) -> float:
    d = np.diag(s)
    r = (1.0 / (d - gamma))[:, None] * (np.diag(d) - s)
    return float(np.max(np.abs(np.linalg.eigvals(r))))


def fir_relu_stack_deviation(s: np.ndarray, layer_taps, epsilon: float,
                             x: np.ndarray) -> float:
    """|| Phi(S(1+eps)) x - Phi(S) x || for a single-feature relu FIR stack,
    each layer applied as V h(Lambda) V^T."""
    lam, v = np.linalg.eigh(s)

    def run(scale):
        cur = x
        for taps in layer_taps:
            h = polynomial_response(taps)(lam * scale)
            cur = np.maximum(v @ (h * (v.T @ cur)), 0.0)
        return cur
    return float(np.linalg.norm(run(1.0 + epsilon) - run(1.0)))


def error_matrix_residual(s: np.ndarray, s_hat: np.ndarray, e: np.ndarray,
                          perm: np.ndarray) -> float:
    """|| P^T S_hat P - (S + E S + S E) || relative to || S ||."""
    lhs = s_hat[np.ix_(perm, perm)]
    rhs = s + e @ s + s @ e
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(s), 1e-300))
