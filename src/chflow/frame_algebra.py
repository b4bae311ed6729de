"""Exact frame-level curvature algebra for complex hyperbolic space CH^m.

Everything here is done in exact rational arithmetic on an orthonormal frame
{e_1, ..., e_2m} adapted to the complex structure J (J e_{2k-1} = e_{2k},
J e_{2k} = -e_{2k-1}).  Curvature components are rational multiples of the
holomorphic sectional curvature magnitude c and are represented internally as
integers in units of c/4, with `fractions.Fraction` at the API boundary.

The canonical orthonormal basis of symmetric 2-tensors (the gamma basis) is

    group I   : (1/2) e_i e_i,            i = 1..2m
    group II  : (1/sqrt2) e_{2j-1} e_{2j}, j = 1..m
    group III : pairs (1/sqrt2) e_s e_t, (1/sqrt2) e_{J(s)} e_{J(t)}
                for s < t with J(s) != t, s odd, lexicographic in (s, t)

where e_i e_j denotes the symmetric product e_i (x) e_j + e_j (x) e_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "j_action",
    "apply_j",
    "riemann_component",
    "sectional_curvature",
    "GammaBasisElement",
    "build_gamma_basis",
    "CurvatureMatrix",
    "assemble_R_gamma_bruteforce",
    "block_R_gamma",
    "spectrum_R_gamma",
    "spectrum_by_block",
    "einstein_constants",
    "stability_bound_coefficient",
]


def _check_frame_index(m: int, s: int) -> None:
    if not 1 <= s <= 2 * m:
        raise IndexError(f"frame index {s} out of range 1..{2 * m}")


def j_action(m: int, s: int) -> tuple[int, int]:
    """Image of frame index s under J, as (index, sign): J e_s = sign * e_t."""
    _check_frame_index(m, s)
    if s % 2 == 1:
        return s + 1, 1
    return s - 1, -1


def apply_j(m: int, v: Sequence[Fraction]) -> list[Fraction]:
    """Apply J to a frame vector given by 2m rational components."""
    if len(v) != 2 * m:
        raise ValueError(f"expected {2 * m} components, got {len(v)}")
    out = [Fraction(0)] * (2 * m)
    for a, va in enumerate(v, start=1):
        if va:
            t, sign = j_action(m, a)
            out[t - 1] += sign * Fraction(va)
    return out


def _units4(i: int, j: int, k: int, l: int) -> int:
    # R(e_i, e_j, e_k, e_l) in units of c/4, via the constant holomorphic
    # curvature form; pairings on frame indices are 0 or +-1.
    def w(a: int, b: int) -> int:
        if a % 2 == 1:
            return 1 if b == a + 1 else 0
        return -1 if b == a - 1 else 0

    def d(a: int, b: int) -> int:
        return 1 if a == b else 0

    s = (
        d(i, l) * d(j, k)
        - d(i, k) * d(j, l)
        + w(i, l) * w(j, k)
        - w(i, k) * w(j, l)
        - 2 * w(i, j) * w(k, l)
    )
    return -s


def riemann_component(m: int, c: Fraction | int, i: int, j: int, k: int, l: int) -> Fraction:
    """Exact curvature component R(e_i, e_j, e_k, e_l) of CH^m.

    Conventions: orthonormal frame, R(X, Y, Y, X) is the sectional curvature
    of the plane spanned by orthonormal X, Y; R(e_i, e_j, e_j, e_i) = -c when
    J(e_i) = +-e_j and -c/4 for other mixed pairs.
    """
    for s in (i, j, k, l):
        _check_frame_index(m, s)
    return Fraction(c) * Fraction(_units4(i, j, k, l), 4)


def _pairing(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def _curvature_form(
    m: int, c: Fraction, X: Sequence[Fraction], Y: Sequence[Fraction],
    W: Sequence[Fraction], Z: Sequence[Fraction],
) -> Fraction:
    # Multilinear R(X, Y, W, Z) on rational frame vectors.
    jx, jy, jw = apply_j(m, X), apply_j(m, Y), apply_j(m, W)
    s = (
        _pairing(X, Z) * _pairing(Y, W)
        - _pairing(X, W) * _pairing(Y, Z)
        + _pairing(jx, Z) * _pairing(jy, W)
        - _pairing(jx, W) * _pairing(jy, Z)
        - 2 * _pairing(jx, Y) * _pairing(jw, Z)
    )
    return -Fraction(c) / 4 * s


def sectional_curvature(
    m: int, c: Fraction | int, X: Sequence[Fraction | int], Y: Sequence[Fraction | int]
) -> Fraction:
    """Sectional curvature of the plane spanned by orthogonal rational X, Y.

    The inputs need not be normalized (normalization by the Gram determinant
    keeps everything rational), but they must be exactly orthogonal and
    nonzero.  Returns -(c/4) (1 + 3 <JX, Y>^2 / (|X|^2 |Y|^2)), cross-checked
    against the multilinear curvature form.
    """
    c = Fraction(c)
    X = [Fraction(a) for a in X]
    Y = [Fraction(a) for a in Y]
    if len(X) != 2 * m or len(Y) != 2 * m:
        raise ValueError(f"vectors must have {2 * m} components")
    nx, ny = _pairing(X, X), _pairing(Y, Y)
    if nx == 0 or ny == 0:
        raise ValueError("zero vector has no sectional curvature")
    if _pairing(X, Y) != 0:
        raise ValueError("X and Y must be exactly orthogonal")
    gjxy = _pairing(apply_j(m, X), Y)
    k = -c / 4 * (1 + 3 * gjxy * gjxy / (nx * ny))
    k_tensor = _curvature_form(m, c, X, Y, Y, X) / (nx * ny)
    if k != k_tensor:
        raise AssertionError("curvature-form cross-check failed (internal)")
    return k


# ---------------------------------------------------------------------------
# gamma basis of symmetric 2-tensors

@dataclass(frozen=True)
class GammaBasisElement:
    """One element of the canonical basis of S_2: scale * e_i e_j (i <= j).

    scale_sq is the square of the normalizing scalar (1/4 for group I, 1/2
    for groups II and III), kept squared so it stays rational.
    """

    group: str
    i: int
    j: int
    scale_sq: Fraction

    @property
    def label(self) -> str:
        return f"{self.group}.e{self.i}e{self.j}"

    def tensor(self, m: int) -> np.ndarray:
        """Plain (2m x 2m) float components; unit Frobenius norm."""
        n = 2 * m
        out = np.zeros((n, n))
        s = float(self.scale_sq) ** 0.5
        out[self.i - 1, self.j - 1] += s
        out[self.j - 1, self.i - 1] += s
        return out


def build_gamma_basis(m: int) -> list[GammaBasisElement]:
    """Canonical ordered basis of S_2, of size m(2m+1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    basis: list[GammaBasisElement] = []
    for i in range(1, 2 * m + 1):
        basis.append(GammaBasisElement("I", i, i, Fraction(1, 4)))
    for j in range(1, m + 1):
        basis.append(GammaBasisElement("II", 2 * j - 1, 2 * j, Fraction(1, 2)))
    for s in range(1, 2 * m + 1, 2):
        for t in range(s + 2, 2 * m + 1):
            js, _ = j_action(m, s)
            jt, _ = j_action(m, t)
            basis.append(GammaBasisElement("III", s, t, Fraction(1, 2)))
            basis.append(GammaBasisElement("III", min(js, jt), max(js, jt), Fraction(1, 2)))
    if len(basis) != m * (2 * m + 1):
        raise AssertionError("gamma basis has wrong size (internal)")
    return basis


@dataclass(frozen=True)
class CurvatureMatrix:
    """Curvature action on S_2 in the gamma basis.

    Entries are exact: units[a, b] holds <R(gamma_a), gamma_b> in units of
    c/4, so the matrix itself is (c/4) * units.
    """

    m: int
    c: Fraction
    units: np.ndarray  # (dim, dim) int64
    basis: tuple[GammaBasisElement, ...]

    @property
    def dim(self) -> int:
        return self.units.shape[0]

    def entry(self, a: int, b: int) -> Fraction:
        return self.c * Fraction(int(self.units[a, b]), 4)

    def to_float(self) -> np.ndarray:
        return self.units.astype(float) * (float(self.c) / 4.0)

    def labels(self) -> list[str]:
        return [el.label for el in self.basis]


def _pair_entry_units(ai: int, aj: int, bi: int, bj: int) -> int:
    # <R(e_ai e_aj), e_bi e_bj> without normalization, in units of c/4:
    # R(ai,bi,bj,aj) + R(aj,bi,bj,ai) + R(ai,bj,bi,aj) + R(aj,bj,bi,ai).
    return (
        _units4(ai, bi, bj, aj)
        + _units4(aj, bi, bj, ai)
        + _units4(ai, bj, bi, aj)
        + _units4(aj, bj, bi, ai)
    )


def assemble_R_gamma_bruteforce(m: int, c: Fraction | int) -> CurvatureMatrix:
    """Assemble the curvature matrix entry by entry from components.

    Cross-group entries whose normalization product is irrational (group I
    against II/III) must vanish identically; that is asserted, not assumed.
    """
    c = Fraction(c)
    basis = build_gamma_basis(m)
    dim = len(basis)
    units = np.zeros((dim, dim), dtype=np.int64)
    for a, ea in enumerate(basis):
        for b in range(a, dim):
            eb = basis[b]
            raw = _pair_entry_units(ea.i, ea.j, eb.i, eb.j)
            scale_sq = ea.scale_sq * eb.scale_sq
            if scale_sq == Fraction(1, 8):
                # normalization 1/(2 sqrt 2) is irrational: entry must be 0
                if raw != 0:
                    raise AssertionError(
                        f"irrational-normalization entry nonzero: {ea.label},{eb.label}"
                    )
                continue
            scale = Fraction(1, 4) if scale_sq == Fraction(1, 16) else Fraction(1, 2)
            val = scale * raw
            if val.denominator != 1:
                raise AssertionError("non-integer entry in c/4 units (internal)")
            units[a, b] = units[b, a] = val.numerator
    return CurvatureMatrix(m=m, c=c, units=units, basis=tuple(basis))


def _block_A(m: int) -> np.ndarray:
    # 2x2 diagonal blocks [[0,4],[4,0]], ones elsewhere.
    a = np.ones((2 * m, 2 * m), dtype=np.int64)
    for k in range(m):
        a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = np.array([[0, 4], [4, 0]])
    return a


_BLOCK_F = np.array(
    [
        [-1, 3, 0, 0],
        [3, -1, 0, 0],
        [0, 0, -1, -3],
        [0, 0, -3, -1],
    ],
    dtype=np.int64,
)


def block_R_gamma(m: int, c: Fraction | int) -> CurvatureMatrix:
    """Curvature matrix from its closed block form -(c/4) diag(A, B, C)."""
    c = Fraction(c)
    basis = build_gamma_basis(m)
    dim = len(basis)
    units = np.zeros((dim, dim), dtype=np.int64)
    units[: 2 * m, : 2 * m] = -_block_A(m)
    for j in range(m):
        units[2 * m + j, 2 * m + j] = 4  # B = -4 Id
    off = 3 * m
    n_f = m * (m - 1) // 2
    for b in range(n_f):
        sl = slice(off + 4 * b, off + 4 * b + 4)
        units[sl, sl] = -_BLOCK_F
    return CurvatureMatrix(m=m, c=c, units=units, basis=tuple(basis))


def spectrum_R_gamma(m: int, c: Fraction | int) -> list[tuple[Fraction, int]]:
    """Exact spectrum of the curvature matrix, as (eigenvalue, multiplicity).

    Sorted ascending: -(m+1)c/2 once, -c/2 with multiplicity m^2 - 1, and c
    with multiplicity m^2 + m (pooled across the diagonal blocks; the counts
    sum to dim S_2 = m(2m+1)).
    """
    c = Fraction(c)
    spec = [
        (-Fraction(m + 1) * c / 2, 1),
        (-c / 2, m * m - 1),
        (c, m * m + m),
    ]
    spec = [(ev, mult) for ev, mult in spec if mult > 0]
    assert sum(mult for _, mult in spec) == m * (2 * m + 1)
    return spec


def spectrum_by_block(m: int, c: Fraction | int) -> dict[str, list[tuple[Fraction, int]]]:
    """Per-block exact eigenvalues of -(c/4) diag(A, B, C)."""
    c = Fraction(c)
    out: dict[str, list[tuple[Fraction, int]]] = {
        "A": [(-Fraction(m + 1) * c / 2, 1), (c, m)],
        "B": [(c, m)],
        "F": [],
    }
    if m > 1:
        out["A"].insert(1, (-c / 2, m - 1))
        out["F"] = [(-c / 2, m * (m - 1)), (c, m * (m - 1))]
    return out


def einstein_constants(m: int, c: Fraction | int) -> tuple[Fraction, Fraction]:
    """Einstein constant and scalar curvature: lam = (m+1)c/2, R = -m(m+1)c.

    Consistency is asserted exactly: the scalar curvature equals the sum of
    all entries of the group-I block -(c/4) A_m, and lam = -R / (2m) with
    2m the real dimension.
    """
    c = Fraction(c)
    lam = Fraction(m + 1) * c / 2
    scalar = -m * (m + 1) * c
    entry_sum = -c / 4 * int(_block_A(m).sum())
    if entry_sum != scalar or lam != -scalar / (2 * m):
        raise AssertionError("Einstein constant consistency failed (internal)")
    return lam, scalar


def stability_bound_coefficient(m: int, c: Fraction | int) -> Fraction:
    """Sharp coefficient -(m-1)c/2 = -lam + c in the quadratic-form bound."""
    c = Fraction(c)
    lam, _ = einstein_constants(m, c)
    coeff = -Fraction(m - 1) * c / 2
    assert coeff == -lam + c
    return coeff
