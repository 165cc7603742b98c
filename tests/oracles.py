"""Independent oracle implementations used by the test suite.

Everything here is deliberately written with explicit loops and closed
formulas so it shares no code path with the package: brute-force Jacobi
residuals, the five-term compatibility conditions, commutator projections
through a pseudo-inverse, and the classical semidirect-product Lie-Poisson
equations.
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


def condition_tensors(Cg, Ch, rho, sigma):
    """The two matched-pair compatibility conditions, term by term from the
    actions, without forming the double."""
    # condition 1, indexed [value in g, a, i, j]:
    #   f_a|>[e_i,e_j] - [f_a|>e_i, e_j] - [e_i, f_a|>e_j]
    #   - (f_a<|e_i)|>e_j + (f_a<|e_j)|>e_i
    d1 = (
        np.einsum("mak,kij->maij", rho, Cg)
        - np.einsum("mkj,kai->maij", Cg, rho)
        - np.einsum("mik,kaj->maij", Cg, rho)
        - np.einsum("mbj,bai->maij", rho, sigma)
        + np.einsum("mbi,baj->maij", rho, sigma)
    )
    # condition 2, indexed [value in h, a, b, i]:
    #   [f_a,f_b]<|e_i - [f_a, f_b<|e_i] - [f_a<|e_i, f_b]
    #   - f_a<|(f_b|>e_i) + f_b<|(f_a|>e_i)
    d2 = (
        np.einsum("cdi,dab->cabi", sigma, Ch)
        - np.einsum("cad,dbi->cabi", Ch, sigma)
        - np.einsum("cdb,dai->cabi", Ch, sigma)
        - np.einsum("cak,kbi->cabi", sigma, rho)
        + np.einsum("cbk,kai->cabi", sigma, rho)
    )
    return d1, d2


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


def monitor_per_spec(states, specs):
    """Series and drifts of the specs one spec at a time, the form the monitor had
    before its stacked pass: a quadratic spec's series is ``0.5 einsum("ij,ij->i",
    states @ Q, states) + states @ b``, any other's ``spec.value`` row by row, and
    each drift is ``max |v - v[0]| / (1 + |v[0]|)`` on its own series."""
    series = {name: (0.5 * np.einsum("ij,ij->i", states @ s.Q, states) + states @ s.b
                     if s.is_quadratic else np.array([s.value(z) for z in states]))
              for name, s in specs.items()}
    return series, {name: float(np.abs(v - v[0]).max() / (1.0 + abs(v[0])))
                    for name, v in series.items()}


def lie_poisson_field(C, sign, grad):
    """z_dot_i = sign * sum_{k,j} C[k, i, j] z_k grad(z)_j, by explicit loops."""
    d = C.shape[0]

    def field(z):
        g = grad(z)
        out = np.zeros(d)
        for i in range(d):
            for k in range(d):
                for j in range(d):
                    out[i] += sign * C[k, i, j] * z[k] * g[j]
        return out

    return field


def rk4_step(field, z, dt):
    """One classical RK4 step in its textbook form."""
    k1 = field(z)
    k2 = field(z + 0.5 * dt * k1)
    k3 = field(z + 0.5 * dt * k2)
    k4 = field(z + dt * k3)
    return z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def dispatched_rk4(T, y0, dt, steps, vector=lambda y: y):
    """RK4 rows of ``y_dot = (y @ T.reshape(D, D*D)).reshape(D, D) @ vector(y)``
    with the stage and sum formulas that ``integrate`` used before its
    buffered ``ndarray.dot`` stages: ``np.dot`` through numpy's dispatcher, a
    reshape per stage, stage tensors prescaled by the step, and
    ``y + np.dot(w, K)`` with ``w = (1, 2, 1, 1) / 3``."""
    D = y0.size
    states = np.empty((steps + 1, D))
    states[0] = y = y0
    K = np.zeros((4, D))

    def stage(h):
        Tf = (h * T).reshape(D, D * D)
        return lambda y, out: np.dot(np.dot(y, Tf).reshape(D, D), vector(y), out=out)

    half, full = stage(0.5 * dt), stage(dt)
    w = np.array([1.0, 2.0, 1.0, 1.0]) / 3.0
    for s in range(1, steps + 1):
        half(y, K[0])
        half(y + K[0], K[1])
        full(y + K[1], K[2])
        half(y + K[2], K[3])
        y = states[s] = y + np.dot(w, K)
    return states


def homogeneous_tensor(C, sign, Q, b):
    """``G`` on ``y = (z, 1)``: ``G[k, i, :d] = sign (C Q)[k, i]``,
    ``G[k, i, d] = sign (C b)[k, i]``, 0 elsewhere."""
    d = C.shape[0]
    G = np.zeros((d + 1, d + 1, d + 1))
    G[:d, :d, :d], G[:d, :d, d] = sign * C @ Q, sign * C @ b
    return G


def euler_poincare_five_term(Cg, Ch, rho, sigma, metric_g, metric_h, xi, eta):
    """Euler-Poincare momentum rates of a quadratic Lagrangian, term by term
    from the actions, without forming the double: with mu = M_g xi and
    nu = M_h eta,

        mu_dot = -ad*_xi mu + mu *<| eta + a*_eta nu
        nu_dot = -ad*_eta nu - xi *|> nu - b*_xi mu,

    where ``-ad*_x z = sum C[k, i, j] x_i z_k`` (indexed j)."""
    mu, nu = metric_g @ xi, metric_h @ eta
    mu_dot = (np.einsum("kij,i,k->j", Cg, xi, mu)
              + np.einsum("kai,a,k->i", rho, eta, mu)
              + np.einsum("bai,a,b->i", sigma, eta, nu))
    nu_dot = (np.einsum("kij,i,k->j", Ch, eta, nu)
              - np.einsum("bai,i,b->a", sigma, xi, nu)
              - np.einsum("kai,i,k->a", rho, xi, mu))
    return mu_dot, nu_dot


def einsum_coadjoint(C, z, x):
    """``sum_kj C[k, i, j] z_k x_j`` over any leading axes as one 3-operand
    einsum, the form ``lie_core.coadjoint`` had before its two steps."""
    return np.einsum("kij,...k,...j->...i", C, z, x)


# The six action and dual maps of a matched pair ``mp`` as 3-operand einsums on
# ``mp.rho`` and ``mp.sigma``, with the package's argument order and no shape checks.
EINSUM_MAPS = {
    "left_act": lambda mp, eta, xi: np.einsum("kai,...a,...i->...k", mp.rho, eta, xi),
    "right_act": lambda mp, eta, xi: np.einsum("bai,...a,...i->...b", mp.sigma, eta, xi),
    "co_left_act": lambda mp, mu, eta: np.einsum("kai,...a,...k->...i", mp.rho, eta, mu),
    "a_star": lambda mp, eta, nu: np.einsum("bai,...a,...b->...i", mp.sigma, eta, nu),
    "co_right_act": lambda mp, xi, nu: np.einsum("bai,...i,...b->...a", mp.sigma, xi, nu),
    "b_star": lambda mp, xi, mu: np.einsum("kai,...i,...k->...a", mp.rho, xi, mu),
}


# The three contractions of the structure constants that ``lie_core.poisson_tensor``
# replaced, as the einsums they were.

def einsum_bracket(C, x, y):
    """``[x, y]`` as ``0.5 * (c(x, y) - c(y, x))``, ``c`` a 3-operand einsum."""
    return 0.5 * (np.einsum("kij,i,j->k", C, x, y) - np.einsum("kij,i,j->k", C, y, x))


def einsum_cobracket(C, z):
    """``M(z)[i, j] = sum_k C[k, i, j] z_k`` as one einsum."""
    return np.einsum("kij,k->ij", C, z)


def einsum_jacobiator(C):
    """``J[m, i, j, l]``, the E_m part of Jac(E_i, E_j, E_l), as three einsums."""
    return (np.einsum("mik,kjl->mijl", C, C)
            + np.einsum("mjk,kli->mijl", C, C)
            + np.einsum("mlk,kij->mijl", C, C))


# The SU(2)·K factorization as it was before its checks moved to Python scalars:
# np.linalg.det and a numpy unitarity product, with the same bounds and errors.

def su2_check_numpy(U, scale=1.0):
    """The numpy unitarity and unit-determinant check of a 2x2 matrix: None if it
    passes, else the ``ValidationError`` message it raises."""
    U = np.asarray(U, dtype=complex)
    tol = 1e-12 * scale
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.abs(U.conj().T @ U - np.eye(2)).max() <= tol:
            return "matrix is not unitary"
        if not abs(np.linalg.det(U) - 1.0) <= tol:
            return "matrix does not have unit determinant"
    return None


def iwasawa_numpy(M, scale=1.0):
    """``(U, (a, b, c))`` with ``M = U @ k_to_matrix(a, b, c)``, or the message of
    the error it raises, as ``("input", msg)`` or ``("validation", msg)``: numpy's
    determinant, ``P = M^dagger M``, ``P21 / P22`` and ``M`` times the inverse
    triangular matrix."""
    M = np.asarray(M, dtype=complex)
    if not np.isfinite(M).all():
        return "input", "non-finite entries in matrix"
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(M)
        if not abs(det - 1.0) <= 1e-10 * scale:
            return "input", f"matrix determinant {det} is not 1"
        P = M.conj().T @ M
        p22 = float(P[1, 1].real)
        if not 0.0 < p22 < np.inf:
            return "input", f"matrix cannot be factored in double precision (P22 = {p22})"
        ab = P[1, 0] / p22
    a, b, c = float(ab.real), float(ab.imag), 1.0 / p22 - 1.0
    if not (abs(a) < np.inf and abs(b) < np.inf and -1.0 < c < np.inf):
        return "input", f"K element needs finite a, b and c > -1, got ({a}, {b}, {c})"
    s = 1.0 / np.sqrt(1.0 + c)
    U = M @ np.array([[s, 0.0], [-s * (a + 1j * b), s * (1.0 + c)]])
    failure = su2_check_numpy(U, scale)
    return ("validation", failure) if failure else (U, (a, b, c))


def per_row_audit(de, pr, samples, seed, closed_forms=None, tol=1e-10, block=2 ** 16):
    """The formula audit's lines as ``(name, max_deviation, status, witness, detail)``,
    row by row as ``audit_formulas`` had them before its audit plan: every row calls
    its own maps on both pairs, on the same draws and blocks of samples, and
    condition 1 is read off the printed pair's validation report."""
    from mpmech import matched_pair as mpm
    from mpmech.lie_core import coadjoint

    n, m = de.g.dim, de.h.dim
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal((samples, k)) for k in (m, n, n, m)]  # eta, xi, mu, nu
    cf = closed_forms or mpm.ClosedFormActions()
    C = de.algebra.C
    C_plus = C.copy()
    C_plus[:, :n, n:] *= -1.0

    def rows(etas, xis, mus, nus):
        yield "action |>", mpm.left_act(pr, etas, xis) - mpm.left_act(de, etas, xis)
        yield "action <|", mpm.right_act(pr, etas, xis) - mpm.right_act(de, etas, xis)
        for name, closed, exact, u, v in (("dual *<|", cf.co_left, mpm.co_left_act, mus, etas),
                                          ("dual *|>", cf.co_right, mpm.co_right_act, xis, nus),
                                          ("dual a*", cf.a_star, mpm.a_star, etas, nus),
                                          ("dual b*", cf.b_star, mpm.b_star, xis, mus)):
            yield name, (closed(u, v) if closed is not None else exact(de, u, v)) - exact(pr, u, v)
        Z, G = np.hstack([mus, nus]), np.hstack([xis, etas])
        canonical = coadjoint(C, Z, G)
        if cf.lp_rhs is not None:
            mu_dot, nu_dot = cf.lp_rhs(mus, nus, xis, etas)
            yield "closed-form rhs (mu)", mu_dot - canonical[:, :n]
            yield "closed-form rhs (nu)", nu_dot - canonical[:, n:]
        else:
            yield "canonical rhs (tensor sets)", coadjoint(pr.algebra.C, Z, G) - canonical
        yield "canonical rhs energy rate", np.einsum("si,si->s", canonical, G)
        if closed_forms is not None:
            plus = coadjoint(C_plus, Z, G)
            yield "plus-sign rhs vs canonical", plus - canonical
            yield "plus-sign rhs energy rate", np.einsum("si,si->s", plus, G)

    largest = {}
    for start in range(0, samples, block):
        for name, difference in rows(*(d[start:start + block] for d in draws)):
            dev = np.abs(difference).max()
            largest[name] = dev if name not in largest else np.maximum(largest[name], dev)
    witnesses = {}
    for name, printed, derived in (("action |>", pr.rho, de.rho), ("action <|", pr.sigma, de.sigma)):
        a, i = np.unravel_index(int(np.abs(printed - derived).argmax()), printed.shape)[1:]
        witnesses[name] = f"({pr.h.name_of(a)}, {pr.g.name_of(i)})"
    lines = []
    for name, dev in largest.items():
        status = "MATCH" if dev <= tol else "MISMATCH"
        detail = None
        if name == "action <|" and status == "MISMATCH":
            condition = mpm.validation_report(pr)[2]
            detail = f"compatibility condition 1 defect {condition.value:g} at {condition.witness}"
        lines.append((name, float(dev), status, witnesses.get(name), detail))
    return lines
