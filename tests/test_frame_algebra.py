"""Tests for the exact frame-level curvature algebra.

The reference oracle below builds the curvature tensor of CH^m from the
classical case table (holomorphic planes, totally real planes, cross-line
components) closed under the tensor symmetries, independently of the
production formula.  The two constructions are compared exhaustively.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from chflow import frame_algebra as fa


def oracle_components(m, c):
    """All nonzero R(e_i,e_j,e_k,e_l) from the case table, as a dict.

    Canonical nonzero values: R(a,b,b,a) = -c on a complex line (a,b=Ja),
    R(u,v,v,u) = -c/4 on totally real planes, and for two distinct complex
    lines (a,b), (p,q): R(a,b,q,p) = -c/2, R(a,p,q,b) = -c/4,
    R(a,q,p,b) = +c/4.  The dict is the closure of these under antisymmetry
    in each slot pair and under exchanging the two pairs.
    """
    c = Fraction(c)
    vals = {}

    def put(i, j, k, l, v):
        for (a, b, v1) in ((i, j, v), (j, i, -v)):
            for (p, q, v2) in ((k, l, v1), (l, k, -v1)):
                for key in ((a, b, p, q), (p, q, a, b)):
                    if key in vals:
                        assert vals[key] == v2, f"inconsistent orbit at {key}"
                    else:
                        vals[key] = v2

    lines = [(s, s + 1) for s in range(1, 2 * m + 1, 2)]
    for a, b in lines:
        put(a, b, b, a, -c)
    for u in range(1, 2 * m + 1):
        for v in range(u + 1, 2 * m + 1):
            if (u, v) not in lines:
                put(u, v, v, u, -c / 4)
    for x, (a, b) in enumerate(lines):
        for y, (p, q) in enumerate(lines):
            if x == y:
                continue
            put(a, b, q, p, -c / 2)
            put(a, p, q, b, -c / 4)
            put(a, q, p, b, c / 4)
    return vals


@pytest.mark.parametrize("m", [1, 2, 3])
def test_riemann_matches_case_table_oracle(m):
    c = Fraction(7, 3)
    table = oracle_components(m, c)
    n = 2 * m
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    expect = table.get((i, j, k, l), Fraction(0))
                    got = fa.riemann_component(m, c, i, j, k, l)
                    assert got == expect, (i, j, k, l)


def test_known_components():
    c = Fraction(1)
    assert fa.riemann_component(3, c, 1, 2, 2, 1) == -1
    assert fa.riemann_component(3, c, 1, 3, 3, 1) == Fraction(-1, 4)
    assert fa.riemann_component(3, c, 1, 2, 4, 3) == Fraction(-1, 2)
    assert fa.riemann_component(3, c, 1, 3, 4, 2) == Fraction(-1, 4)
    assert fa.riemann_component(3, c, 1, 4, 3, 2) == Fraction(1, 4)
    assert fa.riemann_component(3, c, 1, 2, 3, 1) == 0
    assert fa.riemann_component(3, c, 1, 5, 6, 2) == Fraction(-1, 4)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_first_bianchi_exhaustive(m):
    n = 2 * m
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    s = (
                        fa._units4(i, j, k, l)
                        + fa._units4(j, k, i, l)
                        + fa._units4(k, i, j, l)
                    )
                    assert s == 0, (i, j, k, l)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pair_symmetries_exhaustive(m):
    n = 2 * m
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    u = fa._units4(i, j, k, l)
                    assert fa._units4(j, i, k, l) == -u
                    assert fa._units4(i, j, l, k) == -u
                    assert fa._units4(k, l, i, j) == u


@pytest.mark.parametrize("m", [1, 2, 3])
def test_j_invariance_exhaustive(m):
    # R(Je_i, Je_j, Je_k, Je_l) = R(e_i, e_j, e_k, e_l)
    n = 2 * m
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    ti, si = fa.j_action(m, i)
                    tj, sj = fa.j_action(m, j)
                    tk, sk = fa.j_action(m, k)
                    tl, sl = fa.j_action(m, l)
                    lhs = si * sj * sk * sl * fa._units4(ti, tj, tk, tl)
                    assert lhs == fa._units4(i, j, k, l)


def test_j_action_squares_to_minus_one():
    m = 4
    for s in range(1, 2 * m + 1):
        t, sign1 = fa.j_action(m, s)
        u, sign2 = fa.j_action(m, t)
        assert u == s and sign1 * sign2 == -1
    vec = [Fraction(k + 1) for k in range(2 * m)]
    assert fa.apply_j(m, fa.apply_j(m, vec)) == [-x for x in vec]


def test_sectional_curvature_values():
    c = Fraction(4)
    e = lambda i, m: [Fraction(int(k == i - 1)) for k in range(2 * m)]
    # holomorphic plane and totally real plane
    assert fa.sectional_curvature(2, c, e(1, 2), e(2, 2)) == -c
    assert fa.sectional_curvature(2, c, e(1, 2), e(3, 2)) == -c / 4
    # intermediate plane: X = e1, Y = e2 + e3 gives -(5/8) c
    y = [Fraction(0), Fraction(1), Fraction(1), Fraction(0)]
    assert fa.sectional_curvature(2, c, e(1, 2), y) == -Fraction(5, 8) * c


def test_sectional_curvature_pinching_random():
    # every plane has curvature in [-c, -c/4]
    rng = np.random.default_rng(20260816)
    m, c = 3, Fraction(2)
    for _ in range(50):
        a = [Fraction(int(x)) for x in rng.integers(-5, 6, size=2 * m)]
        b = [Fraction(int(x)) for x in rng.integers(-5, 6, size=2 * m)]
        na = sum(x * x for x in a)
        if na == 0:
            continue
        ab = sum(x * y for x, y in zip(a, b))
        b = [y - ab / na * x for x, y in zip(a, b)]  # exact Gram-Schmidt
        if all(x == 0 for x in b):
            continue
        k = fa.sectional_curvature(m, c, a, b)
        assert -c <= k <= -c / 4


def test_sectional_curvature_input_validation():
    with pytest.raises(ValueError):
        fa.sectional_curvature(1, 1, [1, 0], [1, 1])  # not orthogonal
    with pytest.raises(ValueError):
        fa.sectional_curvature(1, 1, [0, 0], [1, 0])


# ---------------------------------------------------------------------------
# gamma basis

def test_gamma_basis_size_and_groups():
    for m in range(1, 7):
        basis = fa.build_gamma_basis(m)
        assert len(basis) == m * (2 * m + 1)
        groups = [el.group for el in basis]
        assert groups[: 2 * m] == ["I"] * (2 * m)
        assert groups[2 * m : 3 * m] == ["II"] * m
        assert groups[3 * m :] == ["III"] * (2 * m * (m - 1))


def test_gamma_basis_order_frozen():
    labels2 = [el.label for el in fa.build_gamma_basis(2)]
    assert labels2 == [
        "I.e1e1", "I.e2e2", "I.e3e3", "I.e4e4",
        "II.e1e2", "II.e3e4",
        "III.e1e3", "III.e2e4", "III.e1e4", "III.e2e3",
    ]
    labels3 = [el.label for el in fa.build_gamma_basis(3)]
    assert labels3[9:] == [
        "III.e1e3", "III.e2e4", "III.e1e4", "III.e2e3",
        "III.e1e5", "III.e2e6", "III.e1e6", "III.e2e5",
        "III.e3e5", "III.e4e6", "III.e3e6", "III.e4e5",
    ]


def test_gamma_basis_orthonormal():
    for m in (1, 2, 3):
        basis = fa.build_gamma_basis(m)
        mats = np.stack([el.tensor(m) for el in basis])
        gram = np.einsum("aij,bij->ab", mats, mats)
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-12)


# ---------------------------------------------------------------------------
# curvature matrix

def test_bruteforce_entries_spot_values():
    c = Fraction(1)
    mat = fa.assemble_R_gamma_bruteforce(2, c)
    lab = {s: i for i, s in enumerate(mat.labels())}
    assert mat.entry(lab["I.e1e1"], lab["I.e2e2"]) == -c
    assert mat.entry(lab["I.e1e1"], lab["I.e3e3"]) == -c / 4
    assert mat.entry(lab["I.e1e1"], lab["I.e1e1"]) == 0
    assert mat.entry(lab["II.e1e2"], lab["II.e1e2"]) == c
    assert mat.entry(lab["II.e1e2"], lab["II.e3e4"]) == 0
    assert mat.entry(lab["III.e1e3"], lab["III.e2e4"]) == -3 * c / 4
    assert mat.entry(lab["III.e1e4"], lab["III.e2e3"]) == 3 * c / 4
    assert mat.entry(lab["III.e1e3"], lab["III.e1e4"]) == 0
    assert mat.entry(lab["I.e1e1"], lab["II.e1e2"]) == 0


@pytest.mark.parametrize("m", range(1, 9))
def test_block_form_equals_bruteforce(m):
    c = Fraction(5, 2)
    brute = fa.assemble_R_gamma_bruteforce(m, c)
    block = fa.block_R_gamma(m, c)
    assert np.array_equal(brute.units, block.units)


def test_block_vs_bruteforce_runtime_budget():
    t0 = time.perf_counter()
    for m in range(1, 9):
        brute = fa.assemble_R_gamma_bruteforce(m, 1)
        block = fa.block_R_gamma(m, 1)
        assert np.array_equal(brute.units, block.units)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_spectrum_closed_form_vs_float(m):
    c = Fraction(2)
    spec = fa.spectrum_R_gamma(m, c)
    expected = np.sort(
        np.concatenate([[float(ev)] * mult for ev, mult in spec])
    )
    computed = np.linalg.eigvalsh(fa.block_R_gamma(m, c).to_float())
    assert expected.shape == computed.shape
    assert np.max(np.abs(np.sort(computed) - expected)) < 1e-10


def test_spectrum_multiplicities():
    for m in (1, 2, 3, 6):
        c = Fraction(3)
        spec = dict(fa.spectrum_R_gamma(m, c))
        assert spec[Fraction(3)] == m * m + m
        assert spec[-Fraction(3 * (m + 1), 2)] == 1
        if m > 1:
            assert spec[-Fraction(3, 2)] == m * m - 1
        assert max(ev for ev in spec) == c


def test_model_eigenvectors_exact():
    # integer eigenvectors of the A block (1-based entries): X = (1, ..., 1)
    # with eigenvalue 2(m+1); Y_i, -1 in entries 1, 2 and 1 in entries
    # 2i+1, 2i+2, with eigenvalue 2; Z_i, -1 and 1 in entries 2i-1, 2i, with -4
    for m in range(1, 7):
        a, e = fa._block_A(m), np.eye(2 * m, dtype=np.int64)
        models = [(e.sum(axis=0), 2 * (m + 1))]
        models += [(e[2 * i] + e[2 * i + 1] - e[0] - e[1], 2) for i in range(1, m)]
        models += [(e[2 * i - 1] - e[2 * i - 2], -4) for i in range(1, m + 1)]
        assert len(models) == 2 * m  # X, m-1 Y's, m Z's
        for vec, ev in models:
            assert np.array_equal(a @ vec, ev * vec)


def test_einstein_constants():
    lam, scal = fa.einstein_constants(2, Fraction(1))
    assert lam == Fraction(3, 2)
    assert scal == -6
    lam, scal = fa.einstein_constants(3, Fraction(4))
    assert lam == 8
    assert scal == -48


def test_stability_bound_coefficient():
    assert fa.stability_bound_coefficient(2, 1) == -Fraction(1, 2)
    assert fa.stability_bound_coefficient(1, 4) == 0
    assert fa.stability_bound_coefficient(3, 2) == -2
