from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropitheta import nalift, theta as theta_module
from tropitheta.exactlinalg import Matrix, dot
from tropitheta.errors import (
    AsymmetricPairing, DivisionByZero, NotInvertible, NotPolarization,
    NotQuadratic, PreconditionViolated, RootUnavailable, ValuationMismatch,
    WindowInsufficient,
)
from tropitheta.nalift import (
    FourierData, ONE, ValuedScalar, build_na_datum, c_extend, c_trop,
    divide_datum, fourier_lift, monomial, surjective_lift, t_pair,
    tropicalize_fourier, verify_na_quasi_periodicity, vs_add, vs_inv, vs_mul,
    vs_pow, vs_root, vs_val,
)
from tropitheta.theta import INF, LAMBDA_GAMMA, ThetaFunction, theta_eval
from tropitheta.torus import build_torus, polarization_type

from oracles import (
    ThetaCombination, c_extend_recursive, fourier_minimum_dot, fourier_scale,
    fourier_sum, gram_norm, min_plus_eval, pairing_brute,
    part_coeffs_closed_form, series_mul, series_pow, tropicalize_per_part,
    tropicalize_window_minima, vs_leading,
)


def circle_na(d=3, varpi=12, cexp=None):
    """Monomial descent datum over the circle: Tmat = [t^varpi],
    cBasis = [t^cexp]; cexp defaults to half the Gram entry, giving
    ell = 0."""
    torus = build_torus(Matrix.from_rows([[varpi]]))
    L = Matrix.from_rows([[d]])
    if cexp is None:
        cexp = Fraction(d * varpi, 2)
    return build_na_datum(torus, L, [[monomial(varpi)]], [monomial(cexp)])


def plane_na(cexps=(1, 1)):
    """n = 2 datum with Pmat = I, L = 2I: Tmat = [[t, 1], [1, t]]."""
    torus = build_torus(Matrix.identity(2))
    L = Matrix.from_rows([[2, 0], [0, 2]])
    T = [[monomial(1), monomial(0)], [monomial(0), monomial(1)]]
    return build_na_datum(torus, L, T, [monomial(c) for c in cexps])


def circle_na_series(cterms=((18, 1), (19, 2))):
    """Circle datum with the non-monomial pairing Tmat = [t^12 + t^13] and
    cBasis = [sum of the (exponent, coefficient) terms]; ell = 0 as for
    circle_na()."""
    torus = build_torus(Matrix.from_rows([[12]]))
    T = [[ValuedScalar([(12, 1), (13, 1)])]]
    return build_na_datum(torus, Matrix.from_rows([[3]]), T,
                          [ValuedScalar(cterms)])


def scalar_dict(s):
    return {g: a for g, a in s.terms}


small_fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
scalar_terms = st.lists(
    st.tuples(small_fraction, st.integers(-5, 5)), max_size=4)


class TestValuedScalar:
    def test_normalization(self):
        s = ValuedScalar([(1, 2), (1, -2), (0, 3)])
        assert s == monomial(0, 3)
        assert not ValuedScalar([(2, 5), (2, -5)])
        assert ValuedScalar([(3, 1), (1, 4)]).terms == (
            (Fraction(1), Fraction(4)), (Fraction(3), Fraction(1)))

    def test_product_of_monomials(self):
        s = vs_mul(monomial(0), monomial(Fraction(1, 2)))
        assert s == monomial(Fraction(1, 2))
        assert vs_val(s) == Fraction(1, 2)

    def test_addition_with_cancellation(self):
        s = vs_add(ValuedScalar([(0, 1), (1, 1)]), monomial(0, -1))
        assert s == monomial(1)
        assert vs_val(s) == 1

    def test_zero_scalar(self):
        assert vs_val(ValuedScalar()) is INF
        with pytest.raises(DivisionByZero):
            vs_leading(ValuedScalar())
        with pytest.raises(DivisionByZero):
            vs_inv(ValuedScalar())

    def test_inverse_of_a_monomial(self):
        s = monomial(Fraction(1, 3), 2)
        assert vs_inv(s) == monomial(Fraction(-1, 3), Fraction(1, 2))
        assert vs_mul(vs_inv(s), s) == ONE

    def test_inverse_needs_a_monomial(self):
        with pytest.raises(NotInvertible):
            vs_inv(ValuedScalar([(0, 1), (1, 1)]))

    def test_negative_powers(self):
        s = monomial(2, 3)
        assert vs_pow(s, -2) == monomial(-4, Fraction(1, 9))
        with pytest.raises(NotInvertible):
            vs_pow(ValuedScalar([(0, 1), (1, 1)]), -1)

    @given(terms=scalar_terms, k=st.integers(0, 4))
    @settings(max_examples=40)
    def test_powers_match_repeated_products(self, terms, k):
        s = ValuedScalar(terms)
        assert scalar_dict(vs_pow(s, k)) == series_pow(scalar_dict(s), k)

    @given(t1=scalar_terms, t2=scalar_terms)
    @settings(max_examples=60)
    def test_valuation_arithmetic(self, t1, t2):
        s1, s2 = ValuedScalar(t1), ValuedScalar(t2)
        prod = vs_mul(s1, s2)
        if s1 and s2:
            assert vs_val(prod) == vs_val(s1) + vs_val(s2)
            assert vs_leading(prod) == vs_leading(s1) * vs_leading(s2)
        else:
            assert not prod
        tot = vs_add(s1, s2)
        vals = [v for v in (vs_val(s1), vs_val(s2)) if v is not INF]
        if tot:
            assert vals and vs_val(tot) >= min(vals)
        if vals and (vs_val(s1) != vs_val(s2)):
            assert vs_val(tot) == min(vals)

    def test_roots(self):
        assert vs_root(monomial(48), 2) == monomial(24)
        assert vs_root(monomial(36, -27), 3) == monomial(12, -3)
        assert vs_root(monomial(1, Fraction(4, 9)), 2) \
            == monomial(Fraction(1, 2), Fraction(2, 3))
        with pytest.raises(RootUnavailable):
            vs_root(monomial(48, 2), 2)
        with pytest.raises(RootUnavailable):
            vs_root(monomial(2, -4), 2)
        with pytest.raises(RootUnavailable):
            vs_root(ValuedScalar([(0, 1), (1, 1)]), 2)

    def test_immutable(self):
        s = monomial(1)
        with pytest.raises(AttributeError):
            s.terms = ()


class TestBuildDatum:
    def test_circle_pairing(self):
        nad = circle_na(d=3)
        assert nad.S[0][0] == monomial(36)
        assert nad.cBasis[0] == monomial(18)

    def test_valuation_must_match_the_period(self):
        torus = build_torus(Matrix.from_rows([[12]]))
        with pytest.raises(ValuationMismatch):
            build_na_datum(torus, Matrix.from_rows([[3]]),
                           [[monomial(11)]], [monomial(18)])

    def test_pairing_must_be_symmetric(self):
        torus = build_torus(Matrix.identity(2))
        T = [[monomial(1), monomial(0, 2)], [monomial(0, 3), monomial(1)]]
        with pytest.raises(AsymmetricPairing):
            build_na_datum(torus, Matrix.from_rows([[2, 0], [0, 2]]), T,
                           [monomial(1), monomial(1)])

    def test_shape_and_zero_rejection(self):
        torus = build_torus(Matrix.from_rows([[12]]))
        L = Matrix.from_rows([[3]])
        with pytest.raises(PreconditionViolated):
            build_na_datum(torus, L, [[monomial(12)]], [])
        with pytest.raises(PreconditionViolated):
            build_na_datum(torus, L, [[ValuedScalar()]], [monomial(18)])

    def test_plane_datum(self):
        nad = plane_na()
        assert nad.S[0][0] == monomial(2)
        assert nad.S[0][1] == ONE == nad.S[1][0]


class TestCExtend:
    def test_base_cases(self):
        nad = circle_na(d=3)
        assert c_extend(nad, [0]) == ONE
        assert c_extend(nad, [1]) == nad.cBasis[0]
        assert c_extend(nad, [2]) == monomial(72)

    @given(a1=st.integers(-3, 3), a2=st.integers(-3, 3))
    @settings(max_examples=30)
    def test_cocycle_on_the_circle(self, a1, a2):
        nad = circle_na(d=3, cexp=Fraction(31, 2))
        lhs = c_extend(nad, [a1 + a2])
        lam = nad.L.matvec([a2])
        rhs = vs_mul(vs_mul(c_extend(nad, [a1]), c_extend(nad, [a2])),
                     t_pair(nad, [a1], lam))
        assert lhs == rhs

    @given(a1=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
           a2=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    @settings(max_examples=30)
    def test_cocycle_on_the_plane(self, a1, a2):
        nad = plane_na(cexps=(1, Fraction(3, 2)))
        lhs = c_extend(nad, [a1[0] + a2[0], a1[1] + a2[1]])
        lam = nad.L.matvec(a2)
        rhs = vs_mul(vs_mul(c_extend(nad, a1), c_extend(nad, a2)),
                     t_pair(nad, a1, lam))
        assert lhs == rhs

    @given(a=st.integers(-4, 4), q=st.integers(1, 5),
           cexp=st.integers(-3, 20))
    @settings(max_examples=30)
    def test_matches_the_recursive_extension(self, a, q, cexp):
        torus = build_torus(Matrix.from_rows([[12]]))
        nad = build_na_datum(torus, Matrix.from_rows([[3]]),
                             [[monomial(12, q)]], [monomial(cexp, 2)])
        got = c_extend(nad, [a])
        want = c_extend_recursive([scalar_dict(nad.cBasis[0])],
                                  [[scalar_dict(nad.Tmat[0][0])]],
                                  [[3]], [a])
        assert scalar_dict(got) == want

    @given(a=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    @settings(max_examples=20)
    def test_matches_the_recursive_extension_plane(self, a):
        nad = plane_na(cexps=(2, Fraction(1, 2)))
        got = c_extend(nad, a)
        want = c_extend_recursive(
            [scalar_dict(c) for c in nad.cBasis],
            [[scalar_dict(x) for x in row] for row in nad.Tmat],
            [[2, 0], [0, 2]], list(a))
        assert scalar_dict(got) == want


def _two_terms(exponent, extra):
    # t^exponent, plus extra * t^(exponent + 1) unless extra is 0
    terms = [(exponent, 1)]
    if extra:
        terms.append((exponent + 1, extra))
    return ValuedScalar(terms)


@st.composite
def mixed_na(draw):
    """A descent datum with n = 1 or 2, L = d.I and a symmetric Pmat, whose
    Tmat (kept symmetric, so S is) and cBasis entries are each drawn as a
    monomial or as a two-term series."""
    n = draw(st.integers(1, 2))
    P = [[12]] if n == 1 else [[2, 1], [1, 3]]
    d = 3 if n == 1 else 2
    extra = st.sampled_from((0, 0, 1, -2, Fraction(1, 3)))
    E = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            E[i][j] = E[j][i] = draw(extra)
    T = [[_two_terms(P[i][j], E[i][j]) for j in range(n)] for i in range(n)]
    cB = [_two_terms(draw(small_fraction), draw(extra)) for _ in range(n)]
    L = Matrix.from_rows([[d if i == j else 0 for j in range(n)]
                          for i in range(n)])
    return build_na_datum(build_torus(Matrix.from_rows(P)), L, T, cB)


def _oracle_product(factors):
    """prod d^k over (series dict, k) by the series oracles, or None when a
    non-monomial base has a negative exponent (its inverse is no finite
    series)."""
    out = {Fraction(0): Fraction(1)}
    for d, k in factors:
        if k < 0 and len(d) != 1:
            return None
        out = series_mul(out, series_pow(d, k))
    return out


def _check_product(call, want):
    if want is None:
        with pytest.raises(NotInvertible):
            call()
    else:
        assert scalar_dict(call()) == want


class TestMixedProducts:
    """Products of monomial and non-monomial factors, with exponents of
    both signs, against the series oracles: NotInvertible exactly when a
    non-monomial base has a negative exponent."""

    @given(pairs=st.lists(
        st.tuples(scalar_terms.map(ValuedScalar).filter(bool)
                  | small_fraction.map(monomial),
                  st.integers(-3, 3)), max_size=5))
    @settings(max_examples=80)
    def test_prod_pows(self, pairs):
        want = _oracle_product([(scalar_dict(s), k) for s, k in pairs])
        _check_product(lambda: nalift._prod_pows(pairs), want)

    @given(nad=mixed_na(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_c_extend_and_t_pair(self, nad, data):
        n = nad.n
        vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        a, w, u = data.draw(vec), data.draw(vec), data.draw(vec)
        T = [[scalar_dict(x) for x in row] for row in nad.Tmat]
        L = [[int(nad.L[i, j]) for j in range(n)] for i in range(n)]
        # S_ij = t(e_i, lambda(e_j)) by the brute pairing; every S_ij is a
        # power of Tmat_ji with a positive exponent, so it always exists
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        S = [[pairing_brute(T, e[i], [L[k][j] for k in range(n)])
              for j in range(n)] for i in range(n)]
        factors = [(scalar_dict(c), k) for c, k in zip(nad.cBasis, a)]
        for i in range(n):
            factors.append((S[i][i], a[i] * (a[i] - 1) // 2))
            factors += [(S[i][j], a[i] * a[j]) for j in range(i + 1, n)]
        _check_product(lambda: c_extend(nad, a), _oracle_product(factors))
        invertible = all(u[i] * w[j] >= 0 or len(T[i][j]) == 1
                         for i in range(n) for j in range(n))
        _check_product(lambda: t_pair(nad, w, u),
                       pairing_brute(T, w, u) if invertible else None)


def _coefficients(part_coeffs, *args):
    # the coefficient items in their order, or NotInvertible
    try:
        return list(part_coeffs(*args).items())
    except NotInvertible:
        return NotInvertible


class TestCocycleStep:
    """The window walked by the cocycle step against every coefficient
    from scratch by the closed forms c_extend and t_pair."""

    @given(nad=mixed_na(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_closed_form(self, nad, data):
        # equal coefficients in the same key order, or NotInvertible from
        # both, on monomial and two-term Tmat and cBasis entries
        b = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=nad.n,
                                     max_size=nad.n)))
        mult = data.draw(st.just(ONE) | small_fraction.map(monomial))
        radius = data.draw(st.integers(0, 3))
        assert _coefficients(nalift._part_coeffs, nad, b, mult, radius) \
            == _coefficients(part_coeffs_closed_form, nad, b, mult, radius)

    @pytest.mark.parametrize("nad, b", [
        (plane_na(), (1, -1)),
        (circle_na(d=3), (2,)),
        (circle_na_series(((18, 1),)), (0,)),
    ], ids=["plane", "circle", "circle-series-pairing"])
    @pytest.mark.parametrize("radius", [1, 3])
    def test_two_products_per_coefficient(self, monkeypatch, nad, b, radius):
        # at most 2 vs_mul per coefficient, plus O(n) per line for the
        # line's first factor r (its _prod_pows and the powers inside it)
        calls = []

        def counted(s1, s2):
            calls.append(1)
            return vs_mul(s1, s2)
        monkeypatch.setattr(nalift, "vs_mul", counted)
        coeffs = nalift._part_coeffs(nad, b, ONE, radius)
        n = nad.n
        lines = sum(2 * (2 * radius + 1) ** k for k in range(n))
        assert len(coeffs) == (2 * radius + 1) ** n
        assert len(calls) <= 2 * len(coeffs) + 3 * (n + 2) * lines
        # with monomial data each line's r is one product: exactly two
        # products per coefficient off the origin
        if all(len(x.terms) == 1 for row in nad.S for x in row):
            assert len(calls) == 2 * (len(coeffs) - 1)


class TestCTrop:
    def test_ell_from_basis_valuations(self):
        assert c_trop(circle_na(d=3)).ellVec == (0,)
        assert c_trop(circle_na(d=3, cexp=17)).ellVec == (1,)
        triv = circle_na(d=1, cexp=6)
        assert c_trop(triv).ellVec == (0,)
        assert c_trop(triv).G[0, 0] == 12

    def test_valuation_is_the_gamma_form(self):
        nad = plane_na(cexps=(Fraction(1, 2), 3))
        trop = c_trop(nad)
        for a in [(0, 0), (1, 0), (-1, 2), (3, -2), (2, 2)]:
            got = vs_val(c_extend(nad, a))
            want = gram_norm(trop.G, a) / 2 - dot(trop.ellVec, a)
            assert got == want

    def test_tampered_pairing_is_caught(self):
        nad = circle_na(d=3)
        object.__setattr__(nad, "S", ((monomial(35),),))
        with pytest.raises(NotQuadratic):
            c_trop(nad)


class TestFourierLift:
    def test_circle_coefficients(self):
        nad = circle_na(d=3)
        fd0 = fourier_lift(nad, [0], 3)
        fd1 = fourier_lift(nad, [1], 3)
        fd2 = fourier_lift(nad, [2], 3)
        for k in range(-3, 4):
            assert fd0.coeffs[(3 * k,)] == monomial(18 * k * k)
            assert fd1.coeffs[(3 * k + 1,)] == monomial(18 * k * k + 12 * k)
            assert fd2.coeffs[(3 * k + 2,)] == monomial(18 * k * k + 24 * k)

    def test_support_is_one_coset(self):
        nad = circle_na(d=3)
        fd0 = fourier_lift(nad, [0], 3)
        assert (2,) not in fd0.coeffs and (1,) not in fd0.coeffs
        assert len(fd0.coeffs) == 7

    def test_window_must_reach_the_valuation_minimum(self):
        nad = circle_na(d=3, cexp=-12)  # ell = 30, minimum away from 0
        with pytest.raises(WindowInsufficient):
            fourier_lift(nad, [0], 0)
        fd = fourier_lift(nad, [0], 2)
        assert min(vs_val(g) for g in fd.coeffs.values()) < 0

    def test_negative_window_radius(self):
        with pytest.raises(PreconditionViolated):
            fourier_lift(circle_na(d=3), [0], -1)

    def test_window_check_comes_before_any_inverse(self):
        # ell = 66: the minimum at the origin sits at a = 2, and radius 1
        # would invert the two-term cBasis; the window check speaks first
        nad = circle_na_series(((-48, 1), (-47, 2)))
        with pytest.raises(WindowInsufficient):
            fourier_lift(nad, [0], 1)
        with pytest.raises(NotInvertible):
            fourier_lift(nad, [0], 2)

    @pytest.mark.parametrize("lift", [
        lambda nad, radius: fourier_lift(nad, (1, 0), radius),
        lambda nad, radius: surjective_lift(nad, [0, INF, 1, 0], radius),
    ], ids=["b", "targets"])
    def test_window_over_the_budget(self, monkeypatch, lift):
        # refused before any coset walk or coefficient product
        nad = plane_na()

        def fail(*args):
            pytest.fail("work started past the budget")
        for name in ("_part_coeffs", "_coset_argmins", "_prod_pows",
                     "linearity_cells"):
            monkeypatch.setattr(nalift, name, fail)
        with pytest.raises(PreconditionViolated, match="budget"):
            lift(nad, 10 ** 9)

    def test_budget_bound(self, monkeypatch):
        # the parts' (2 radius + 1)^n coefficients, up to the budget
        # inclusive, checked before any part is lifted
        lifted = []
        monkeypatch.setattr(nalift, "_certified",
                            lambda *args: iter([None]))
        monkeypatch.setattr(nalift, "_part_coeffs",
                            lambda *args: lifted.append(args) or {})
        nad = circle_na(d=3)
        budget = nalift.LIFT_COEFF_BUDGET
        radius = (budget - 1) // 2

        def lift(*radii):
            nalift._lift_coeffs(nad, None, [((b,), ONE, r)
                                            for b, r in enumerate(radii)])
        full = (radius,) + (0,) * (budget - 2 * radius - 1)  # the budget
        # a negative radius adds nothing here; the window check refuses it
        for radii in [(radius,), full, (-1, radius)]:
            lift(*radii)
        for radii in [(radius + 1,), full + (0,), (0,) * (budget + 1)]:
            with pytest.raises(PreconditionViolated, match="budget"):
                lift(*radii)
        assert len(lifted) == 1 + len(full) + 2

    def test_needs_positive_definite_valuations(self):
        torus = build_torus(Matrix.from_rows([[12]]))
        nad = build_na_datum(torus, Matrix.from_rows([[-3]]),
                             [[monomial(12)]], [monomial(18)])
        with pytest.raises(NotPolarization):
            fourier_lift(nad, [0], 3)

    def test_valuation_growth_is_convex(self):
        # second difference of val along each coset direction equals the
        # Gram diagonal, the discrete form of the convergence condition
        nad = circle_na(d=3)
        fd = fourier_lift(nad, [1], 3)
        vals = {k: vs_val(fd.coeffs[(3 * k + 1,)]) for k in range(-3, 4)}
        for k in range(-2, 3):
            assert vals[k + 1] - 2 * vals[k] + vals[k - 1] == 36


class TestTropicalize:
    def test_circle_values(self):
        nad = circle_na(d=3)
        fd0 = fourier_lift(nad, [0], 3)
        assert tropicalize_fourier(fd0, [6]) == 0
        assert tropicalize_fourier(fd0, [0]) == 0

    def test_lift_tropicalizes_to_theta(self):
        nad = circle_na(d=3)
        trop = c_trop(nad)
        for b in (0, 1, 2):
            fd = fourier_lift(nad, [b], 4)
            theta = ThetaFunction(trop, (b,), LAMBDA_GAMMA)
            for k in range(25):
                v = (Fraction(12 * k, 25),)
                assert tropicalize_fourier(fd, v) == theta_eval(theta, v)

    def test_lift_tropicalizes_to_theta_plane(self):
        nad = plane_na()
        trop = c_trop(nad)
        for b in [(0, 0), (1, 0), (1, 1)]:
            fd = fourier_lift(nad, b, 3)
            theta = ThetaFunction(trop, b, LAMBDA_GAMMA)
            for v in [(0, 0), (Fraction(1, 3), Fraction(1, 2)),
                      (Fraction(3, 4), Fraction(1, 5))]:
                assert tropicalize_fourier(fd, v) == theta_eval(theta, v)

    def test_values_are_rational(self):
        nad = circle_na(d=3, cexp=Fraction(35, 2))
        fd = fourier_lift(nad, [0], 3)
        for k in range(8):
            assert isinstance(tropicalize_fourier(fd, [Fraction(k, 3)]),
                              Fraction)

    def test_window_certificate(self):
        nad = circle_na(d=3)
        fd = fourier_lift(nad, [0], 3)
        with pytest.raises(WindowInsufficient):
            tropicalize_fourier(fd, [100])

    def test_window_monotone(self):
        nad = circle_na(d=3)
        small = fourier_lift(nad, [1], 3)
        large = fourier_lift(nad, [1], 6)
        for k in range(12):
            v = (Fraction(k),)
            assert tropicalize_fourier(small, v) \
                == tropicalize_fourier(large, v)

    def test_cancelled_sum_is_infinite(self):
        nad = circle_na(d=3)
        fd = fourier_lift(nad, [0], 3)
        gone = fourier_sum(fd, fourier_scale(fd, monomial(0, -1)))
        assert not gone.coeffs
        assert tropicalize_fourier(gone, [1]) is INF

    @pytest.mark.parametrize("case", ["circle", "plane"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_the_dot_oracle(self, case, data):
        # multipliers t^c and samples with unrelated denominators per
        # coordinate; the minimum equals the generic rational dot oracle
        nad = circle_na(d=3, cexp=Fraction(35, 2)) if case == "circle" \
            else plane_na(cexps=(1, Fraction(3, 2)))
        period = 12 if case == "circle" else 1
        free = 3 if case == "circle" else 4
        targets = data.draw(
            st.lists(st.one_of(st.just(INF), small_fraction),
                     min_size=free, max_size=free)
            .filter(lambda ts: any(t is not INF for t in ts)))
        fd, _ = surjective_lift(nad, targets, 4)
        coord = st.builds(lambda k, q: Fraction(k * period, q),
                          st.integers(0, 12), st.integers(1, 12)) \
            .filter(lambda x: x <= period)
        v = tuple(data.draw(coord) for _ in range(nad.n))
        assert tropicalize_fourier(fd, v) == fourier_minimum_dot(fd.coeffs, v)


@st.composite
def skewed_fourier(draw):
    """A Fourier datum over a monomial descent datum with n = 1 or 2, a
    nonzero ell and, for n = 2, a non-diagonal L = U.diag(d).V, with
    Pmat = W.L for a symmetric positive definite W (so G = L^T W L): one
    part b = rep + L.c on some of the classes, c in {-1, 0, 1}^n, each
    with a multiplier t^e and a window radius 0..3 that no check at the
    origin has vetted.  Returns (fd, tropical datum)."""
    n = draw(st.integers(1, 2))
    if n == 1:
        d = draw(st.integers(1, 4))
        L = Matrix.from_rows([[d]])
        W = Matrix.from_rows([[draw(small_fraction.filter(lambda x: x > 0))]])
    else:
        s, t = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
        assume(s or t)
        d1, d2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        L = (Matrix.from_rows([[1, s], [0, 1]])
             * Matrix.from_rows([[d1, 0], [0, d2]])
             * Matrix.from_rows([[1, 0], [t, 1]]))
        a, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        b = draw(st.sampled_from((0, Fraction(1, 2), Fraction(-1, 2))))
        W = Matrix.from_rows([[a, b], [b, c]])
    P = W * L
    T = [[monomial(P[i, j]) for j in range(n)] for i in range(n)]
    cB = [monomial(draw(small_fraction)) for _ in range(n)]
    nad = build_na_datum(build_torus(P), L, T, cB)
    trop = c_trop(nad)
    assume(any(trop.ellVec))
    reps = polarization_type(trop).reps
    chosen = draw(st.lists(st.booleans(), min_size=len(reps),
                           max_size=len(reps)))
    assume(any(chosen))
    parts = []
    for rep, keep in zip(reps, chosen):
        if keep:
            c = [draw(st.integers(-1, 1)) for _ in range(n)]
            b = tuple(int(x + y) for x, y in zip(rep, L.matvec(c)))
            parts.append((b, monomial(draw(small_fraction)),
                          draw(st.integers(0, 3))))
    coeffs = {}
    for b, mult, radius in parts:
        coeffs.update(nalift._part_coeffs(nad, b, mult, radius))
    return FourierData(coeffs, nalift.LiftWindow(nad, tuple(parts))), trop


def _pairs(tropicalize, samples):
    # the (finite, certified) pairs in sample order, and the message of
    # the WindowInsufficient that stopped them, if one did
    out = []
    try:
        for v in samples:
            out.append(tropicalize(v))
    except WindowInsufficient as exc:
        return out, str(exc)
    return out, None


class TestOneWalkPerSample:
    @given(case=skewed_fourier(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_part_minima(self, case, data):
        # the one coset walk per sample against one lattice_argmin per
        # part, over the combination samples and two random points, parts
        # off their representatives included
        fd, trop = case
        point = st.tuples(*[st.builds(Fraction, st.integers(-30, 30),
                                      st.integers(1, 7))] * trop.n)
        samples = (nalift._combination_samples(trop)
                   + [data.draw(point), data.draw(point)])
        walk = nalift._tropicalize(fd, trop, samples)
        assert _pairs(lambda v: next(walk), samples) \
            == _pairs(lambda v: tropicalize_per_part(fd, trop, v), samples)


class TestIntegerCertification:
    @pytest.mark.parametrize("case", ["circle", "plane"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_the_fraction_route(self, case, data):
        # the one integer minimum over the parts per sample against one
        # Fraction per part (window_minimum), random targets, radii 0..3
        # and samples: equal pairs, and a too small window stops both with
        # WindowInsufficient at the same sample
        nad = circle_na(d=3, cexp=Fraction(35, 2)) if case == "circle" \
            else plane_na(cexps=(1, Fraction(3, 2)))
        trop = c_trop(nad)
        reps = polarization_type(trop).reps
        targets = data.draw(
            st.lists(st.one_of(st.just(INF), small_fraction),
                     min_size=len(reps), max_size=len(reps))
            .filter(lambda ts: any(t is not INF for t in ts)))
        radius = data.draw(st.integers(0, 3))
        parts = tuple((b, monomial(c), radius)
                      for b, c in zip(reps, targets) if c is not INF)
        coeffs = {}
        for part in parts:
            coeffs.update(nalift._part_coeffs(nad, *part))
        fd = FourierData(coeffs, nalift.LiftWindow(nad, parts))
        period = 12 if case == "circle" else 1
        point = st.tuples(*[st.builds(lambda k, q: Fraction(k * period, q),
                                      st.integers(-3, 6),
                                      st.integers(2, 4))] * nad.n)
        samples = (nalift._combination_samples(trop)
                   + [data.draw(point), data.draw(point)])
        walk = nalift._tropicalize(fd, trop, samples)
        oracle = tropicalize_window_minima(fd, trop, samples)
        got = _pairs(lambda v: next(walk), samples)
        assert got == _pairs(lambda v: next(oracle), samples)
        assert all(f is not INF and c is not INF for f, c in got[0])


class TestFourierSums:
    def test_disjoint_supports_take_the_min(self):
        nad = circle_na(d=3)
        fd0 = fourier_lift(nad, [0], 3)
        fd1 = fourier_lift(nad, [1], 3)
        both = fourier_sum(fd0, fd1)
        for k in range(12):
            v = (Fraction(k, 2),)
            assert tropicalize_fourier(both, v) == min(
                tropicalize_fourier(fd0, v), tropicalize_fourier(fd1, v))

    def test_leading_cancellation_raises_the_value(self):
        nad = circle_na(d=3)
        fd = fourier_lift(nad, [0], 3)
        shift = vs_add(monomial(Fraction(1, 2)), monomial(0, -1))
        total = fourier_sum(fd, fourier_scale(fd, shift))  # 1 + (t^(1/2)-1)
        v = (Fraction(1),)
        assert tropicalize_fourier(total, v) \
            == tropicalize_fourier(fd, v) + Fraction(1, 2)
        assert tropicalize_fourier(total, v) > min(
            tropicalize_fourier(fd, v),
            tropicalize_fourier(fourier_scale(fd, shift), v))

    def test_congruent_representatives_rejected(self):
        nad = circle_na(d=3)
        with pytest.raises(PreconditionViolated):
            fourier_sum(fourier_lift(nad, [0], 3),
                        fourier_lift(nad, [3], 3))

    def test_mixed_data_rejected(self):
        fd1 = fourier_lift(circle_na(d=3), [0], 3)
        fd2 = fourier_lift(circle_na(d=2), [0], 3)
        with pytest.raises(PreconditionViolated):
            fourier_sum(fd1, fd2)


class TestQuasiPeriodicity:
    def test_zero_shift(self):
        nad = circle_na(d=3)
        fd = fourier_lift(nad, [0], 3)
        assert verify_na_quasi_periodicity(fd, nad, [0])

    def test_circle_shifts(self):
        nad = circle_na(d=3)
        for b in (0, 1, 2):
            fd = fourier_lift(nad, [b], 3)
            for w in (-2, -1, 1, 2):
                assert verify_na_quasi_periodicity(fd, nad, [w])

    def test_plane_shift(self):
        nad = plane_na()
        fd = fourier_lift(nad, (1, 0), 2)
        assert verify_na_quasi_periodicity(fd, nad, (1, 0))
        assert verify_na_quasi_periodicity(fd, nad, (0, -1))

    def test_combination_inherits_the_recurrence(self):
        nad = circle_na(d=3)
        total = fourier_sum(
            fourier_lift(nad, [0], 3),
            fourier_scale(fourier_lift(nad, [1], 3), monomial(Fraction(1, 2))))
        assert verify_na_quasi_periodicity(total, nad, [1])

    def test_corrupted_coefficient_fails(self):
        nad = circle_na(d=3)
        fd = fourier_lift(nad, [1], 3)
        bad = dict(fd.coeffs)
        bad[(1,)] = vs_mul(bad[(1,)], monomial(0, 2))
        assert not verify_na_quasi_periodicity(
            FourierData(bad, fd.window), nad, [1])

    def test_shift_beyond_the_window(self):
        nad = circle_na(d=3)
        fd = fourier_lift(nad, [0], 3)
        with pytest.raises(WindowInsufficient):
            verify_na_quasi_periodicity(fd, nad, [10])


# name -> (datum, smallest radius whose windows certify every sample, number
# of leading slots that may carry a finite target).  The scalar model
# inverts monomials only, and a window reaches negative powers: with the
# non-monomial Tmat only slot b = 0 (where t(a, b) = 1) lifts, and with a
# non-monomial cBasis as well no slot does, so both paths must raise
# NotInvertible alike.
LIFT_CASES = {
    "circle": (circle_na(d=3), 2, 3),
    "circle-series-pairing": (circle_na_series(((18, 1),)), 2, 1),
    "circle-series": (circle_na_series(), 1, 3),
    "plane": (plane_na(), 1, 4),
}


class TestSurjectiveLift:
    def test_single_target(self):
        nad = circle_na(d=3)
        fd, report = surjective_lift(nad, [0, INF, INF], 4)
        assert report.verified and report.lambdas == (1,)
        trop = c_trop(nad)
        theta = ThetaFunction(trop, (0,), LAMBDA_GAMMA)
        for k in range(10):
            v = (Fraction(6 * k, 5),)
            assert tropicalize_fourier(fd, v) == theta_eval(theta, v)

    def test_all_zero_targets(self):
        nad = circle_na(d=3)
        fd, report = surjective_lift(nad, [0, 0, 0], 4)
        assert report.verified
        assert report.lambdas == (1, 1, 1)
        assert len(report.samples) == 8
        trop = c_trop(nad)
        info = polarization_type(trop)
        comb_val = lambda v: min(
            theta_eval(ThetaFunction(trop, b, LAMBDA_GAMMA), v)
            for b in info.reps)
        for k in range(24):
            v = (Fraction(k, 2),)
            assert tropicalize_fourier(fd, v) == comb_val(v)

    def test_mixed_targets_stay_rational(self):
        nad = circle_na(d=3)
        fd, report = surjective_lift(nad, [0, Fraction(1, 2), INF], 4)
        assert report.verified
        assert len(fd.window.parts) == 2
        for v in report.samples:
            assert isinstance(tropicalize_fourier(fd, v), Fraction)

    def test_plane_targets(self):
        nad = plane_na()
        fd, report = surjective_lift(nad, [0, 0, 0, 0], 2)
        assert report.verified and report.lambdas == (1, 1, 1, 1)

    def test_target_validation(self):
        nad = circle_na(d=3)
        with pytest.raises(PreconditionViolated):
            surjective_lift(nad, [INF, INF, INF], 4)
        with pytest.raises(PreconditionViolated):
            surjective_lift(nad, [0, 0], 4)

    def test_window_too_small(self):
        nad = circle_na(d=3)
        with pytest.raises(WindowInsufficient):
            surjective_lift(nad, [0, 0, 0], 0)

    def test_negative_window_radius(self):
        with pytest.raises(PreconditionViolated):
            surjective_lift(circle_na(d=3), [0, 0, INF], -1)

    def test_one_expansion_per_finite_slot(self, monkeypatch):
        expanded = []
        part_coeffs = nalift._part_coeffs

        def counted(datum, b, multiplier, radius):
            expanded.append(b)
            return part_coeffs(datum, b, multiplier, radius)
        monkeypatch.setattr(nalift, "_part_coeffs", counted)
        _, report = surjective_lift(circle_na(d=3),
                                    [0, Fraction(1, 2), INF], 4)
        assert report.verified
        assert expanded == [(0,), (1,)]

    def test_a_wrong_lift_is_not_verified(self, monkeypatch):
        # every stored coefficient one order too high: the stored minimum
        # misses the certified one at each sample, and the report says so
        part_coeffs = nalift._part_coeffs

        def raised(datum, b, multiplier, radius):
            return {u: vs_mul(g, monomial(1)) for u, g
                    in part_coeffs(datum, b, multiplier, radius).items()}
        monkeypatch.setattr(nalift, "_part_coeffs", raised)
        _, report = surjective_lift(circle_na(d=3), [0, INF, INF], 4)
        assert report.verified is False
        assert len(report.samples) == 8

    @pytest.mark.parametrize("nad, targets", [
        (circle_na(d=3), [0, Fraction(1, 2), INF]),
        (plane_na(), [0, INF, Fraction(-1, 3), 1]),
    ], ids=["circle", "plane"])
    def test_one_coset_walk_per_sample(self, monkeypatch, nad, targets):
        # the cell refinement calls the kernels through embedding's own
        # names, so the counts are one coset walk per part, for the window
        # check at the origin, and one per sample for all parts; nalift
        # makes no lattice_argmin call and evaluates no theta function
        assert not hasattr(nalift, "lattice_argmin")
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper
        monkeypatch.setattr(theta_module, "lattice_argmin",
                            counted("argmin", theta_module.lattice_argmin))
        monkeypatch.setattr(nalift, "_coset_argmins",
                            counted("walk", nalift._coset_argmins))
        monkeypatch.setattr(theta_module, "theta_eval",
                            counted("theta_eval", theta_module.theta_eval))
        fd, report = surjective_lift(nad, targets, 2)
        assert report.verified
        assert calls.count("walk") \
            == len(fd.window.parts) + len(report.samples)
        assert "argmin" not in calls and "theta_eval" not in calls

    @pytest.mark.parametrize("case", sorted(LIFT_CASES))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_the_composed_public_lifts(self, case, data):
        # the one-pass lift equals fourier_sum over the fourier_scale'd
        # fourier_lift of every finite slot, parts and coefficients alike,
        # and tropicalizes to the min-plus combination at every sample
        nad, min_radius, free = LIFT_CASES[case]
        trop = c_trop(nad)
        reps = polarization_type(trop).reps
        targets = data.draw(
            st.lists(st.one_of(st.just(INF), small_fraction),
                     min_size=free, max_size=free)
            .filter(lambda ts: any(t is not INF for t in ts)))
        targets += [INF] * (len(reps) - free)
        radius = data.draw(st.integers(min_radius, min_radius + 2))
        try:
            want = None
            for b, c in zip(reps, targets):
                if c is not INF:
                    piece = fourier_scale(fourier_lift(nad, b, radius),
                                          monomial(c))
                    want = piece if want is None else fourier_sum(want, piece)
        except NotInvertible:
            with pytest.raises(NotInvertible):
                surjective_lift(nad, targets, radius)
            return
        fd, report = surjective_lift(nad, targets, radius)
        assert fd.coeffs == want.coeffs
        assert fd.window.parts == want.window.parts
        assert report.verified
        assert report.lambdas == (1,) * len(fd.window.parts)
        comb = ThetaCombination([(c, ThetaFunction(trop, b, LAMBDA_GAMMA))
                                 for b, c in zip(reps, targets)])
        for v in report.samples:
            assert tropicalize_fourier(fd, v) == min_plus_eval(comb, v)


class TestDivideDatum:
    def test_halving_the_circle(self):
        torus = build_torus(Matrix.from_rows([[12]]))
        nad = build_na_datum(torus, Matrix.from_rows([[4]]),
                             [[monomial(12)]], [monomial(48)])
        half = divide_datum(nad, 2)
        assert half.L[0, 0] == 2
        assert half.cBasis[0] == monomial(24)
        assert vs_pow(half.cBasis[0], 2) == nad.cBasis[0]

    def test_consistency_of_the_extension(self):
        torus = build_torus(Matrix.from_rows([[12]]))
        nad = build_na_datum(torus, Matrix.from_rows([[4]]),
                             [[monomial(12)]], [monomial(48)])
        half = divide_datum(nad, 2)
        for a in range(-3, 4):
            assert vs_pow(c_extend(half, [a]), 2) == c_extend(nad, [a])
            assert vs_val(c_extend(half, [a])) \
                == vs_val(c_extend(nad, [a])) / 2

    def test_odd_root_with_sign(self):
        torus = build_torus(Matrix.from_rows([[12]]))
        nad = build_na_datum(torus, Matrix.from_rows([[3]]),
                             [[monomial(12)]], [monomial(36, -27)])
        third = divide_datum(nad, 3)
        assert third.cBasis[0] == monomial(12, -3)
        assert vs_pow(third.cBasis[0], 3) == nad.cBasis[0]

    def test_plane_half(self):
        nad = plane_na(cexps=(1, 1))
        half = divide_datum(nad, 2)
        assert half.cBasis[0] == monomial(Fraction(1, 2))
        for a in [(1, 0), (1, 1), (-2, 1)]:
            assert vs_pow(c_extend(half, a), 2) == c_extend(nad, a)

    def test_identity(self):
        nad = circle_na(d=3)
        assert divide_datum(nad, 1) is nad

    def test_missing_root(self):
        torus = build_torus(Matrix.from_rows([[12]]))
        nad = build_na_datum(torus, Matrix.from_rows([[4]]),
                             [[monomial(12)]], [monomial(48, 2)])
        with pytest.raises(RootUnavailable):
            divide_datum(nad, 2)

    def test_divisibility_check(self):
        nad = circle_na(d=4, cexp=24)
        with pytest.raises(PreconditionViolated):
            divide_datum(nad, 3)
        with pytest.raises(PreconditionViolated):
            divide_datum(nad, 0)
