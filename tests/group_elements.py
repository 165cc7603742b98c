"""Seeded SU(2), K and SL(2,C) samples and the closed-form group law of K, on the
arrays ``sl2c.iwasawa_factor`` returns: U a 2x2 complex array and k = (a, b, c)
a float array, K(k) = (1/sqrt(1+c)) [[1+c, 0], [a+ib, 1]], and the two halves
of ``sl2c.group_act``.  The samplers draw the same numbers, in the same order,
as the samplers the package once shipped."""

import numpy as np

from mpmech.sl2c import group_act


def group_left_act(h, g) -> np.ndarray:
    """h |> g: unitary part of the refactored product K(h) @ g."""
    return group_act(h, g)[0]


def group_right_act(h, g) -> np.ndarray:
    """h <| g: triangular part of the refactored product K(h) @ g."""
    return group_act(h, g)[1]


def k_to_matrix(k) -> np.ndarray:
    """K(k) = (1/sqrt(1+c)) [[1+c, 0], [a+ib, 1]]; its determinant is 1."""
    a, b, c = np.asarray(k, dtype=float).tolist()
    s = 1.0 / np.sqrt(1.0 + c)
    return np.array([[s * (1.0 + c), 0.0], [s * (a + 1j * b), s]])


def k_multiply(k1, k2) -> np.ndarray:
    """Group law (a1,b1,c1)*(a2,b2,c2) = (a1,b1,c1)(1+c2) + (a2,b2,c2), so that
    k_to_matrix(k1 * k2) = k_to_matrix(k1) @ k_to_matrix(k2); 1+c = (1+c1)(1+c2)."""
    k1, k2 = np.asarray(k1, dtype=float), np.asarray(k2, dtype=float)
    return k1 * (1.0 + k2[2]) + k2


def k_inverse(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    return -k * (1.0 / (1.0 + k[2]))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """A special unitary matrix: a complex normal pair (w, v), normalized and
    completed symplectically."""
    w = complex(rng.standard_normal() + 1j * rng.standard_normal())
    v = complex(rng.standard_normal() + 1j * rng.standard_normal())
    s = np.sqrt(abs(w) ** 2 + abs(v) ** 2)
    w, v = w / s, v / s
    return np.array([[w, v], [-np.conj(v), np.conj(w)]])


def random_k_element(rng: np.random.Generator) -> np.ndarray:
    """A point (a, b, c) of K; 1 + c is lognormal, hence positive."""
    a, b = rng.standard_normal(2)
    return np.array([a, b, np.exp(rng.standard_normal()) - 1.0])


def random_sl2c(rng: np.random.Generator) -> np.ndarray:
    """A determinant-1 matrix as (random unitary) @ (random triangular)."""
    return random_su2(rng) @ k_to_matrix(random_k_element(rng))
