import math

import pytest

from kkgeom import algebroid
from kkgeom.algebroid import (
    AlgebroidData,
    validate_anchor_compatibility,
    validate_antisymmetry,
    validate_jacobi,
)
from kkgeom.calculus import (EvaluationDomainError, jdx, jval,
                             seeded_point)
from kkgeom.report import ResidualTracker
from kkgeom.sampling import Box, sample_points
from conftest import bits, make_nonabelian, table

PTS = sample_points(Box.default(2), 64, seed=0xA1B2)


def build(rho_rows, L_rows):
    return AlgebroidData(2, 2, table(rho_rows, on_base=True),
                         table(L_rows, on_base=True))


ZERO_L = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
IDENT_RHO = [["1", "0"], ["0", "1"]]


def test_antisymmetry_zero_bracket():
    A = build(IDENT_RHO, ZERO_L)
    assert validate_antisymmetry(A, PTS).max_residual == 0.0


def test_antisymmetry_explicit_pair():
    A = build(IDENT_RHO, [[["0", "0"], ["0", "0"]],
                          [["0", "1"], ["-1", "0"]]])
    assert validate_antisymmetry(A, PTS).max_residual == 0.0


def test_antisymmetry_violation_detected():
    A = build(IDENT_RHO, [[["0", "0"], ["0", "0"]],
                          [["0", "1"], ["0", "0"]]])
    assert validate_antisymmetry(A, PTS).max_residual == pytest.approx(1.0)


def test_anchor_compat_coordinate_frame():
    A = build(IDENT_RHO, ZERO_L)
    assert validate_anchor_compatibility(A, PTS).max_residual == 0.0


def test_anchor_compat_nonabelian():
    # frames d/dx1 and e^{x1} d/dx2: [X1, X2] = e^{x1} d/dx2 = X2
    A, _, _ = make_nonabelian()
    assert validate_anchor_compatibility(A, PTS).max_residual <= 1e-12


def test_anchor_compat_detects_missing_bracket():
    # same anchor but L = 0: the residual equals e^{x1} at each sample
    A = build([["1", "0"], ["0", "exp(x1)"]], ZERO_L)
    expected = max(math.exp(pt.x[0]) for pt in PTS)
    res = validate_anchor_compatibility(A, PTS)
    assert res.max_residual == pytest.approx(expected, rel=1e-12)


def test_jacobi_zero():
    A = build(IDENT_RHO, ZERO_L)
    assert validate_jacobi(A, PTS).max_residual == 0.0


def test_jacobi_nonabelian_frame():
    A, _, _ = make_nonabelian()
    assert validate_jacobi(A, PTS).max_residual <= 1e-12


def test_jacobi_solvable_constant_algebra():
    # two-dimensional nonabelian Lie algebra, zero anchor
    A = build([["0", "0"], ["0", "0"]],
              [[["0", "0"], ["0", "0"]], [["0", "1"], ["-1", "0"]]])
    assert validate_jacobi(A, PTS).max_residual == 0.0


def test_domain_error_carries_point():
    # box spans negative x1, so log(x1) fails and the sample is attached
    A = build([["log(x1)", "0"], ["0", "1"]], ZERO_L)
    with pytest.raises(EvaluationDomainError) as err:
        validate_anchor_compatibility(A, PTS)
    assert err.value.point is not None


# p = 3 over m = 2 with varying anchor and bracket: the Jacobi residual is
# far from zero, so every term shows in it.
VARYING = AlgebroidData(
    2, 3,
    table([["1", "x2"], ["exp(x1)", "0"], ["sin(x2)", "x1*x2"]],
          on_base=True),
    table([[[f"{g - a + 2 * b}*x1 + sin({a + 1}*x2) - {b}" for b in range(3)]
            for a in range(3)] for g in range(3)], on_base=True))


def _jacobi_residuals_loop(A, samples):
    """The Jacobi residual at every (point, a, b, c, d), each term evaluated
    inside every cyclic sum it enters: the standard for the tabled terms."""
    m, p = A.m, A.p
    out = []
    for pt in samples:
        rho = A.rho_at(pt.x)
        jL = A.L_at(seeded_point(pt.x, pt.y)[0])
        Lv = [[[jval(jL[g][a][b]) for b in range(p)] for a in range(p)]
              for g in range(p)]
        dL = [[[[jdx(jL[g][a][b], k) for k in range(m)] for b in range(p)]
               for a in range(p)] for g in range(p)]

        def term(a, b, c, d):
            out = sum(rho[a][i] * dL[d][b][c][i] for i in range(m))
            out += sum(Lv[d][a][e] * Lv[e][b][c] for e in range(p))
            return out

        for a in range(p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        out.append((term(a, b, c, d) + term(b, c, a, d)
                                    + term(c, a, b, d), pt))
    return out


@pytest.mark.parametrize("case", ["nonabelian", "varying"])
def test_jacobi_residuals_match_the_cyclic_loop(monkeypatch, case):
    A = make_nonabelian()[0] if case == "nonabelian" else VARYING
    seen = []

    class Recording(ResidualTracker):
        def update(self, value, point=None):
            seen.append((value, point))
            super().update(value, point)

    monkeypatch.setattr(algebroid, "ResidualTracker", Recording)
    validate_jacobi(A, PTS[:8])
    want = _jacobi_residuals_loop(A, PTS[:8])
    assert [(bits(v), pt) for v, pt in seen] == [(bits(v), pt)
                                                 for v, pt in want]


def test_jacobi_evaluates_each_term_once():
    """Each term rho^i_a d_i L^d_bc + L^d_ae L^e_bc enters three cyclic
    sums but is computed once: the anchor entries take part in exactly
    p^4 m products per point (3 p^4 m if the terms were recomputed)."""
    products = [0]

    class Counting(float):
        def __mul__(self, other):
            products[0] += 1
            return float(self) * other

        __rmul__ = __mul__

    p, m = VARYING.p, VARYING.m
    def rho_at(xs):
        return [[Counting(v) for v in row] for row in VARYING.rho_at(xs)]

    validate_jacobi(AlgebroidData(m, p, rho_at, VARYING.L_at), PTS[:2])
    assert products[0] == 2 * p ** 4 * m
