"""Independent oracle implementations used by the test suite.

Everything here is deliberately written with explicit loops and closed
formulas so it shares no code path with the package: brute-force Jacobi
residuals, commutator projections through a pseudo-inverse, and the
classical semidirect-product Lie-Poisson equations.
"""

import numpy as np


def brute_jacobi_defect(C):
    """Max-norm Jacobiator via triple loops over basis indices."""
    dim = C.shape[0]

    def brk(x, y):
        out = np.zeros(dim)
        for k in range(dim):
            for i in range(dim):
                for j in range(dim):
                    out[k] += C[k, i, j] * x[i] * y[j]
        return out

    eye = np.eye(dim)
    worst = 0.0
    for i in range(dim):
        for j in range(dim):
            for l in range(dim):
                total = (
                    brk(eye[i], brk(eye[j], eye[l]))
                    + brk(eye[j], brk(eye[l], eye[i]))
                    + brk(eye[l], brk(eye[i], eye[j]))
                )
                worst = max(worst, float(np.abs(total).max()))
    return worst


def commutator_projection(g_mats, h_mats):
    """Structure constants of the embedded double via matrix commutators.

    Returns the (n+m)^3 tensor C with [E_I, E_J] = sum_K C[K, I, J] E_K,
    decomposing every commutator over the combined basis with a
    pseudo-inverse of the realified basis matrix.
    """
    mats = list(g_mats) + list(h_mats)
    d = len(mats)

    def vec(M):
        flat = np.asarray(M, dtype=complex).reshape(-1)
        return np.concatenate([flat.real, flat.imag])

    basis = np.column_stack([vec(M) for M in mats])
    pinv = np.linalg.pinv(basis)
    C = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            coeffs = pinv @ vec(comm)
            assert np.abs(basis @ coeffs - vec(comm)).max() < 1e-12
            C[:, i, j] = coeffs
    return C


def semidirect_lp_rhs(Cg, rep, mu, nu, grad_mu, grad_nu):
    """Right Lie-Poisson equations on the dual of a semidirect sum g (+) V.

    ``rep[b, i, a]`` is the action of g on the abelian factor:
    (xi . v)_b = sum rep[b, i, a] xi_i v_a.  With X, Y the gradients,

        mu_dot_j = -sum C[k, i, j] X_i mu_k + sum rep[b, j, a] Y_a nu_b
        nu_dot_a = -sum rep[b, i, a] X_i nu_b
    """
    n = Cg.shape[0]
    mV = rep.shape[0]
    mu_dot = np.zeros(n)
    for j in range(n):
        acc = 0.0
        for k in range(n):
            for i in range(n):
                acc -= Cg[k, i, j] * grad_mu[i] * mu[k]
        for b in range(mV):
            for a in range(mV):
                acc += rep[b, j, a] * grad_nu[a] * nu[b]
        mu_dot[j] = acc
    nu_dot = np.zeros(mV)
    for a in range(mV):
        acc = 0.0
        for b in range(mV):
            for i in range(n):
                acc -= rep[b, i, a] * grad_mu[i] * nu[b]
        nu_dot[a] = acc
    return mu_dot, nu_dot


def k_bracket(y1, y2):
    """Closed form for the triangular factor: k x (y1 x y2)."""
    k = np.array([0.0, 0.0, 1.0])
    return np.cross(k, np.cross(y1, y2))


def k_ad_star(y, psi):
    """Closed form (k . y) psi - (psi . y) k for the triangular factor."""
    k = np.array([0.0, 0.0, 1.0])
    return (k @ y) * psi - (psi @ y) * k


def csv_reference(record):
    """Trajectory CSV written cell by cell with f"{x:.17g}"."""
    n, m = record.split
    extras = [name for name in record.invariants if name != "H"]
    header = (["t"] + [f"mu_{i + 1}" for i in range(n)]
              + [f"nu_{j + 1}" for j in range(m)] + ["H"] + extras)
    lines = [",".join(header)]
    for row in range(len(record.times)):
        cells = [record.times[row], *record.states[row], record.invariants["H"][row]]
        cells += [record.invariants[name][row] for name in extras]
        lines.append(",".join(f"{x:.17g}" for x in cells))
    return "".join(line + "\n" for line in lines)
