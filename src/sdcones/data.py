"""Bundled reference data: cones, slack matrices and supports used by the
test suite and exposed through the `examples` CLI command.

Irrational constants are materialized from closed forms at full double
precision; the ten-point Gram matrix and its extracted vertices are
empirical reference solutions and carry five significant digits.
"""

from __future__ import annotations

import numpy as np

from .patterns import SupportPattern, support_of


def pentagon_rays() -> np.ndarray:
    """Generators of the self-dual cone over a regular pentagon in R^3.

    Ray i is (cos(2*pi*i/5), sin(2*pi*i/5), sqrt(cos(pi/5))); the third
    coordinate is chosen so that consecutive rays have inner product
    sqrt(5)/2 and rays two apart are orthogonal.
    """
    i = np.arange(5)
    ang = 2.0 * np.pi * i / 5.0
    z = np.sqrt(np.cos(np.pi / 5.0))
    return np.column_stack([np.cos(ang), np.sin(ang), np.full(5, z)])


def pentagon_slack() -> np.ndarray:
    """PSD slack of the pentagon cone: circulant with diagonal 1 + cos(pi/5),
    adjacent entries sqrt(5)/2 and zeros two steps away."""
    a = 1.0 + np.cos(np.pi / 5.0)
    b = np.sqrt(5.0) / 2.0
    m = np.zeros((5, 5))
    for i in range(5):
        m[i, i] = a
        m[i, (i + 1) % 5] = b
        m[i, (i - 1) % 5] = b
    return m


def prism_rays() -> np.ndarray:
    """Seven generators of the self-dual cone over a roofed triangular prism
    in R^4 (homogenization of a negatively self-polar 3-polytope)."""
    s = 1.0 / np.sqrt(2.0)
    r = np.sqrt(1.5)
    t = np.sqrt(2.0)
    return np.array(
        [
            [1.0, -s, r, 0.0],
            [1.0, -s, -r, 0.0],
            [1.0, t, 0.0, 0.0],
            [1.0, -s, r, -1.0],
            [1.0, -s, -r, -1.0],
            [1.0, t, 0.0, -1.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )


def prism_slack() -> np.ndarray:
    """Rank-4 PSD slack of the prism cone; equals R R^T for the bundled rays
    and is an extreme ray of the 7x7 DNN cone."""
    return np.array(
        [
            [3, 0, 0, 3, 0, 0, 1],
            [0, 3, 0, 0, 3, 0, 1],
            [0, 0, 3, 0, 0, 3, 1],
            [3, 0, 0, 4, 1, 1, 0],
            [0, 3, 0, 1, 4, 1, 0],
            [0, 0, 3, 1, 1, 4, 0],
            [1, 1, 1, 0, 0, 0, 2],
        ],
        dtype=float,
    )


def nonslack_extreme_matrix() -> np.ndarray:
    """Rank-4 extreme ray of the 7x7 DNN cone that is NOT a slack matrix of
    any 4-dimensional cone (two of its rows carry only two zeros)."""
    return np.array(
        [
            [2, 1, 0, 0, 2, 0, 2],
            [1, 2, 1, 0, 0, 0, 0],
            [0, 1, 2, 2, 0, 2, 0],
            [0, 0, 2, 3, 1, 3, 1],
            [2, 0, 0, 1, 3, 1, 3],
            [0, 0, 2, 3, 1, 4, 0],
            [2, 0, 0, 1, 3, 0, 4],
        ],
        dtype=float,
    )


def congruence_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triple (A, B, M) with A = M B M^T exactly: the 7x7 non-slack extreme
    ray factors through the 8x8 slack B of a sandwiched self-dual cone via
    the nonnegative matrix M."""
    return nonslack_extreme_matrix(), congruence_b(), congruence_m()


def congruence_b() -> np.ndarray:
    """B of congruence_triple: the 8x8 slack of the sandwiched cone."""
    return np.array(
        [
            [2, 1, 0, 0, 2, 2, 0, 2],
            [1, 2, 1, 0, 0, 1, 0, 0],
            [0, 1, 2, 2, 0, 0, 2, 0],
            [0, 0, 2, 3, 1, 0, 3, 1],
            [2, 0, 0, 1, 12, 8, 4, 0],
            [2, 1, 0, 0, 8, 6, 2, 0],
            [0, 0, 2, 3, 4, 2, 4, 0],
            [2, 0, 0, 1, 0, 0, 0, 4],
        ],
        dtype=float,
    )


def congruence_m() -> np.ndarray:
    """M of congruence_triple: the nonnegative 7x8 factor."""
    m = np.zeros((7, 8))
    for i in range(4):
        m[i, i] = 1.0
    m[4, 4] = 0.25
    m[4, 7] = 0.75
    m[5, 6] = 1.0
    m[6, 7] = 1.0
    return m


def ten_gram() -> np.ndarray:
    """Approximate rank-4 PSD matrix with the support of a ten-vertex
    strongly involutive combinatorially self-dual polytope, as produced by
    the semidefinite search."""
    return np.array(
        [
            [1, 0.85962, 0.63085, 0.60758, 0, 0, 0.32899, 0.63085, 0, 0.60758],
            [0.85962, 1, 0.85962, 0.41395, 0.41395, 0, 0, 0.85962, 0, 0.41395],
            [0.63085, 0.85962, 1, 0.60758, 0.60758, 0, 0, 0.63085, 0.32899, 0],
            [0.60758, 0.41395, 0.60758, 1, 0, 0, 0.54149, 0, 0.54149, 0],
            [0, 0.41395, 0.60758, 0, 1, 0.54149, 0, 0.60758, 0.54149, 0],
            [0, 0, 0, 0, 0.54149, 1, 0.70679, 0.32899, 0.70679, 0.54149],
            [0.32899, 0, 0, 0.54149, 0, 0.70679, 1, 0, 0.70679, 0.54149],
            [0.63085, 0.85962, 0.63085, 0, 0.60758, 0.32899, 0, 1, 0, 0.60758],
            [0, 0, 0.32899, 0.54149, 0.54149, 0.70679, 0.70679, 0, 1, 0],
            [0.60758, 0.41395, 0, 0, 0, 0.54149, 0.54149, 0.60758, 0, 1],
        ]
    )


def ten_w_transpose() -> np.ndarray:
    """Vertices (as columns) of the negatively self-polar 3-polytope
    extracted from the ten-point Gram matrix."""
    return np.array(
        [
            [-0.44578, -0.62782, -0.44578, 0.21387, 0.21387, 1.5928, 1.5928,
             -0.44578, 1.5928, 0.21387],
            [0.42199, 0, 0.1889, 1.4123, -0.97561, -0.90532, 0.62537,
             -0.6109, 0.27994, -0.43672],
            [0.46176, 0, -0.59634, -0.31113, -1.0676, 0.19943, 0.68431,
             0.13458, -0.88375, 1.3787],
        ]
    )


def pentagon_support() -> SupportPattern:
    return SupportPattern.from_matrix(pentagon_slack())


def prism_support() -> SupportPattern:
    return SupportPattern.from_matrix(prism_slack())


def ten_support() -> SupportPattern:
    return SupportPattern.from_matrix(ten_gram())


def four_cycle_support() -> SupportPattern:
    """Ring of four with the diagonal: strongly involutive, yet carrying no
    rank-3 self-dual realization (3-dimensional self-dual cones have an odd
    number of extreme rays)."""
    bits = np.eye(4, dtype=np.uint8)
    for i in range(4):
        bits[i, (i + 1) % 4] = 1
        bits[i, (i - 1) % 4] = 1
    return SupportPattern(bits)


def regular_polygon_vertices(k: int) -> np.ndarray:
    """Vertices of the regular k-gon on the unit circle."""
    ang = 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(ang), np.sin(ang)])


__all__ = [
    "pentagon_rays",
    "pentagon_slack",
    "prism_rays",
    "prism_slack",
    "nonslack_extreme_matrix",
    "congruence_triple", "congruence_b", "congruence_m",
    "ten_gram",
    "ten_w_transpose",
    "pentagon_support",
    "prism_support",
    "ten_support",
    "four_cycle_support",
    "regular_polygon_vertices",
    "support_of",
]
