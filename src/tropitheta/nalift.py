"""Totally degenerate nonarchimedean descent data over exact valued series.

The scalar model is the smallest valued field stand-in that stays exactly
computable: finitely supported series sum_g a_g t^g with rational exponents
and nonzero rational coefficients, val = min exponent.  A descent datum
consists of the character pairing Tmat_{ij} = chi^{e_i}(Phi~(f'_j)) and the
basis values c(f'_j); its valuations recover a tropical datum (c_trop), its
Fourier coefficients lift the tropical theta functions coefficient by
coefficient (fourier_lift / tropicalize_fourier), and surjectivity of
tropicalization is realized by explicit min-plus combinations of lifts
(surjective_lift).  The lifts combined there live on pairwise disjoint
cosets b + L.Z^n, so every character u carries exactly one nonzero
coefficient: no two leading terms can cancel, and every residue multiplier
is 1.  Each sample is checked once, stored minimum against certified
minimum, and a mismatch leaves the lift unverified.  divide_datum
extracts d1-th roots of a datum when the scalar model contains them.

The coefficients are products of powers of the datum's entries, which are
monomials in the common case: _prod_pows folds monomial factors in closed
form (exponents add over one common denominator, coefficients multiply)
and sends only the other factors through vs_pow and vs_mul, and vs_mul of
a monomial and a series shifts and scales the terms without renormalizing.
Tropicalization puts the valuations over one denominator once, and
certifies every part at a sample from one coset walk of theta there.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import (
    AsymmetricPairing, DivisionByZero, InternalInvariantViolated,
    NotInvertible, NotPolarization, NotQuadratic, PreconditionViolated,
    RootUnavailable, ValuationMismatch, WindowInsufficient,
)
from .embedding import linearity_cells
from .exactlinalg import Matrix, to_vector
from .theta import INF, _center, _coset_argmins, _offsets, _piece
from .torus import per_datum, polarization_type, validate_datum


# -- valued scalars ----------------------------------------------------------

class ValuedScalar:
    """A finitely supported series sum_g a_g t^g, g in Q, a_g in Q\\{0}.

    val(s) is the minimal exponent, val(0) = +infinity; only valuations and
    leading coefficients ever reach downstream comparisons.  The model has
    value group Q and residue field Q; it is not algebraically closed and
    not closed under inverse, so inverses and roots exist for monomials
    only and the operations that need more degrade explicitly
    (NotInvertible / RootUnavailable)."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        for g, a in terms:
            g = Fraction(g)
            s = acc.get(g, Fraction(0)) + Fraction(a)
            if s == 0:
                acc.pop(g, None)
            else:
                acc[g] = s
        object.__setattr__(self, "terms", tuple(sorted(acc.items())))

    @classmethod
    def _canonical(cls, terms):
        # terms already sorted by distinct exponent, with nonzero Fraction
        # coefficients: skip the normalization of __init__
        s = object.__new__(cls)
        object.__setattr__(s, "terms", terms)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("ValuedScalar is immutable")

    def __eq__(self, other):
        return isinstance(other, ValuedScalar) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return vs_add(self, other)

    def __mul__(self, other):
        return vs_mul(self, other)

    def __repr__(self):
        if not self.terms:
            return "ValuedScalar(0)"
        body = " + ".join("%s*t^%s" % (a, g) for g, a in self.terms)
        return "ValuedScalar(%s)" % body


def monomial(exponent, coefficient=1):
    return ValuedScalar([(exponent, coefficient)])


ONE = monomial(0)


def to_scalar(x):
    if isinstance(x, ValuedScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ValuedScalar([(0, x)])
    raise PreconditionViolated("cannot coerce %r to a valued scalar" % (x,))


def vs_val(s):
    """min exponent; INF for the zero scalar."""
    return s.terms[0][0] if s.terms else INF


def vs_add(s1, s2):
    return ValuedScalar(s1.terms + to_scalar(s2).terms)


def vs_mul(s1, s2):
    s2 = to_scalar(s2)
    if len(s2.terms) == 1:
        s1, s2 = s2, s1
    if len(s1.terms) == 1:
        # a monomial shifts and scales the other factor's terms, which
        # stay sorted, distinct and nonzero
        (g1, a1), = s1.terms
        return ValuedScalar._canonical(tuple((g1 + g2, a1 * a2)
                                             for g2, a2 in s2.terms))
    return ValuedScalar([(g1 + g2, a1 * a2)
                         for g1, a1 in s1.terms for g2, a2 in s2.terms])


def vs_inv(s):
    """Inverse, defined in this model for monomials only."""
    if not s.terms:
        raise DivisionByZero("the zero scalar is not invertible")
    if len(s.terms) != 1:
        raise NotInvertible("only monomials are invertible in this model")
    (g, a), = s.terms
    return monomial(-g, Fraction(1) / a)


def vs_pow(s, k):
    k = int(k)
    if k < 0:
        return vs_pow(vs_inv(s), -k)
    out = ONE
    base = s
    while k:
        if k & 1:
            out = vs_mul(out, base)
        base = vs_mul(base, base)
        k >>= 1
    return out


def _int_root(m, k):
    """floor(m^(1/k)) for m >= 0 by integer Newton iteration."""
    if m < 2:
        return m
    r = 1 << -(-m.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + m // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def vs_root(s, k):
    """A k-th root, available exactly for monomials whose coefficient is a
    perfect k-th power of a rational."""
    k = int(k)
    if k < 1:
        raise PreconditionViolated("root index must be positive")
    if len(s.terms) != 1:
        raise RootUnavailable("only monomials have roots in this model")
    (g, a), = s.terms
    sign = 1
    if a < 0:
        if k % 2 == 0:
            raise RootUnavailable("even root of a negative coefficient")
        sign = -1
        a = -a
    rn = _int_root(a.numerator, k)
    rd = _int_root(a.denominator, k)
    if rn ** k != a.numerator or rd ** k != a.denominator:
        raise RootUnavailable("coefficient %s has no rational %d-th root"
                              % (sign * a, k))
    return monomial(Fraction(g, k), sign * Fraction(rn, rd))


# -- descent data ------------------------------------------------------------

class NADescentDatumTD:
    """A totally degenerate descent datum: the pairing matrix Tmat with
    val(Tmat_{ij}) = Pmat_{ij}, the basis values cBasis_j = c(f'_j), and
    the derived symmetric pairing S_{ij} = t(f'_i, lambda(f'_j))."""

    __slots__ = ("torus", "L", "Tmat", "cBasis", "S", "n")

    def __init__(self, torus, L, Tmat, cBasis, S):
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "Tmat", Tmat)
        object.__setattr__(self, "cBasis", cBasis)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "n", L.rows)

    def __setattr__(self, name, value):
        raise AttributeError("NADescentDatumTD is immutable")


def _prod_pows(pairs):
    """prod base^e over the (base, e) pairs.  A monomial factor c t^g
    folds in closed form, adding e g to the exponent and multiplying the
    coefficient by c^e; only the other factors go through vs_pow and
    vs_mul.  The arithmetic is exact and every product is canonical, so
    the order of the factors is free."""
    num, den, a = 0, 1, Fraction(1)
    rest = ONE
    for base, e in pairs:
        if not e:
            continue
        if len(base.terms) == 1:
            (g, c), = base.terms
            # the exponent num/den over a common denominator of the g's
            if den % g.denominator:
                k = g.denominator // gcd(den, g.denominator)
                num, den = num * k, den * k
            num += e * g.numerator * (den // g.denominator)
            if c != 1:
                a *= c ** e
        else:
            rest = vs_mul(rest, vs_pow(base, e))
    return vs_mul(ValuedScalar._canonical(((Fraction(num, den), a),)), rest)


def t_pair(datum, w, u):
    """The bilinear pairing t(w, u) = prod_{ij} Tmat_{ij}^(u_i w_j) for
    w in M' and u in M (integer coordinate vectors)."""
    w = [int(c) for c in w]
    u = [int(c) for c in u]
    n = datum.n
    return _prod_pows((datum.Tmat[i][j], u[i] * w[j])
                      for i in range(n) for j in range(n))


def build_na_datum(torus, L, Tmat, cBasis):
    """Validate and assemble a descent datum.

    Checks val(Tmat_{ij}) = Pmat_{ij} (the tropicalization of the pairing
    is the period pairing) and symmetry of S_{ij} = t(f'_i, lambda(f'_j))
    as valued scalars, which is the appeared-polarization condition."""
    n = torus.Pmat.rows
    if L.rows != n or L.cols != n:
        raise PreconditionViolated("L must be %d x %d" % (n, n))
    if len(Tmat) != n or any(len(row) != n for row in Tmat):
        raise PreconditionViolated("Tmat must be %d x %d" % (n, n))
    if len(cBasis) != n:
        raise PreconditionViolated("cBasis must have %d entries" % n)
    T = tuple(tuple(to_scalar(x) for x in row) for row in Tmat)
    cB = tuple(to_scalar(x) for x in cBasis)
    if any(not x for row in T for x in row) or any(not c for c in cB):
        raise PreconditionViolated("pairing data must be nonzero")
    # the tropical layer checks integrality of L and symmetry of L^T.Pmat
    validate_datum(torus, L, [0] * n)
    for i in range(n):
        for j in range(n):
            if vs_val(T[i][j]) != torus.Pmat[i, j]:
                raise ValuationMismatch(
                    "val Tmat[%d][%d] = %s, expected Pmat entry %s"
                    % (i, j, vs_val(T[i][j]), torus.Pmat[i, j]))
    S = tuple(tuple(_s_entry(T, L, i, j) for j in range(n))
              for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if S[i][j] != S[j][i]:
                raise AsymmetricPairing(
                    "t(f'_%d, lambda(f'_%d)) != t(f'_%d, lambda(f'_%d))"
                    % (i, j, j, i))
    return NADescentDatumTD(torus, L, T, cB, S)


def _s_entry(T, L, i, j):
    # S_ij = t(f'_i, lambda(f'_j)) = prod_p Tmat[p][i]^L[p, j]
    return _prod_pows((T[p][i], int(L[p, j])) for p in range(L.rows))


def c_extend(datum, a):
    """The unique cocycle extension of cBasis: going one basis step at a
    time through c(u'_1 + u'_2) = c(u'_1) c(u'_2) t(u'_1, lambda(u'_2))
    collapses to the closed form

        c(a) = prod_i cBasis_i^(a_i) * prod_{i<j} S_ij^(a_i a_j)
                 * prod_i S_ii^(a_i (a_i - 1) / 2).
    """
    a = [int(c) for c in a]
    n = datum.n
    pairs = list(zip(datum.cBasis, a))
    for i in range(n):
        pairs.append((datum.S[i][i], a[i] * (a[i] - 1) // 2))
        pairs += [(datum.S[i][j], a[i] * a[j]) for j in range(i + 1, n)]
    return _prod_pows(pairs)


def c_trop(datum):
    """The tropical descent datum of the valuations: gamma(a) = val c(a)
    is the quadratic form (1/2) a^T.G.a - ell.a with
    ell_i = G_ii / 2 - val(cBasis_i)."""
    n = datum.n
    G = datum.L.transpose() * datum.torus.Pmat
    for i in range(n):
        for j in range(n):
            if vs_val(datum.S[i][j]) != G[i, j]:
                raise NotQuadratic(
                    "val S[%d][%d] = %s does not match the Gram entry %s"
                    % (i, j, vs_val(datum.S[i][j]), G[i, j]))
    ell = [G[i, i] / 2 - vs_val(datum.cBasis[i]) for i in range(n)]
    return validate_datum(datum.torus, datum.L, ell)


# -- Fourier lifts -----------------------------------------------------------

class LiftWindow(NamedTuple):
    datum: object     # the generating NADescentDatumTD
    parts: tuple      # (b, multiplier, radius) per coset b + L.Z^n


class FourierData(NamedTuple):
    coeffs: dict      # u in M (integer tuple) -> ValuedScalar
    window: LiftWindow


def _polarized_trop(datum):
    trop = c_trop(datum)
    if not trop.polarized:
        raise NotPolarization("lifting needs a positive definite valuation "
                              "Gram matrix")
    return trop


def _window_minimum(trop, b, v, radius, walk=None):
    """b.v plus the lattice minimum of part b's valuation growth at v,
    certified inside the window |a_i| <= radius: for b = reps[k] + L.c,
    class k's minimizers in walk (the coset walk at v, made if None) less c,
    and theta_b's integer piece at one of them, slope.v + (off - off_0)/E."""
    if radius < 0:
        raise PreconditionViolated("window radius must be nonnegative")
    vn, vd = _center(to_vector(v))
    walk = walk or _coset_argmins(trop, (*vn, vd)).minimizers
    k, c = _class_of(trop, b)
    mins = [tuple(x - y for x, y in zip(a, c)) for a in walk[k]]
    if any(abs(x) > radius for a in mins for x in a):
        raise WindowInsufficient("window radius %d misses the valuation "
                                 "minimum at %r" % (radius, tuple(v)))
    slope, off = _piece(trop, b, mins[0])
    off0, E = _piece(trop, b, (0,) * trop.n)[1], _offsets(trop)[0]
    return Fraction(sum(map(mul, slope, vn)) * E + (off - off0) * vd, E * vd)


@per_datum
def _class_of(trop, b):
    # (k, c) with b = reps[k] + L.c: U.b = box + d.q, reps[k] = U^-1.box
    info = polarization_type(trop)
    q, box = zip(*(divmod(int(x), d)
                   for x, d in zip(info.U.matvec(b), info.type)))
    rep = tuple(int(x) for x in info.Uinv.matvec(box))
    return info.reps.index(rep), tuple(int(x) for x in info.V.matvec(q))


def _part_coeffs(datum, b, multiplier, radius):
    n = datum.n
    out = {}
    for a in product(range(-radius, radius + 1), repeat=n):
        La = datum.L.matvec(a)
        u = tuple(int(b[i]) + int(La[i]) for i in range(n))
        g = vs_mul(multiplier, vs_mul(c_extend(datum, a), t_pair(datum, a, b)))
        if g:
            out[u] = g
    return out


def fourier_lift(datum, b, radius):
    """The Fourier coefficients of the canonical lift of theta_b: the
    coefficient at u = b + L.a is c(a) * t(a, b), over the window
    |a_i| <= radius.  The window must contain the valuation minimum so
    that downstream evaluation can start from a certified support.  A
    radius >= 1 reaches negative a_i, which raise cBasis and Tmat entries
    to negative powers: the scalar model inverts monomials only, so those
    entries must be monomials, or the lift raises NotInvertible."""
    trop = _polarized_trop(datum)
    b = tuple(int(c) for c in to_vector(b))
    radius = int(radius)
    _window_minimum(trop, b, [0] * datum.n, radius)
    coeffs = _part_coeffs(datum, b, ONE, radius)
    return FourierData(coeffs, LiftWindow(datum, ((b, ONE, radius),)))


def tropicalize_fourier(fd, v):
    """min over the support of <u, v> + val(coeff_u), certified against
    the infinite tail: per part the full lattice minimum of the quadratic
    valuation growth must be attained inside the window."""
    finite, certified = next(_tropicalize(fd, c_trop(fd.window.datum), [v]))
    if finite != certified:
        raise InternalInvariantViolated(
            "stored coefficients disagree with the certified minimum")
    return finite


def _tropicalize(fd, trop, samples):
    # Per sample v = vn / vd, lazily: (stored minimum, certified minimum of
    # the parts of the window datum, whose tropical datum is trop), from the
    # valuations over one denominator wden and one coset walk per sample.
    vals = [(u, vs_val(g)) for u, g in fd.coeffs.items()]
    wden = lcm(*(w.denominator for _, w in vals))
    vals = [(u, w.numerator * (wden // w.denominator)) for u, w in vals]
    for v in map(to_vector, samples):
        if not vals:
            yield INF, INF
            continue
        vn, vd = _center(v)
        den = lcm(vd, wden)
        vnum = [c * (den // vd) for c in vn]
        finite = Fraction(min(sum(map(mul, u, vnum)) + w * (den // wden)
                              for u, w in vals), den)
        walk = fd.window.parts and _coset_argmins(trop, (*vn, vd)).minimizers
        yield finite, min((vs_val(mult) + _window_minimum(trop, b, v, r, walk)
                           for b, mult, r in fd.window.parts), default=INF)


def verify_na_quasi_periodicity(fd, datum, wprime):
    """Check the coefficient recurrence of the functional equation,

        g_{u + L.w'} = c(w') * t(w', u) * g_u,

    exactly on every support pair (u, u + L.w') inside the window.  Factors
    of t(w', u) with a negative exponent move to the left, so no Tmat entry
    is inverted: valued series have no zero divisors."""
    w = tuple(int(c) for c in to_vector(wprime))
    Lw = tuple(int(c) for c in datum.L.matvec(w))
    cw = c_extend(datum, w)
    pairs = [u for u in fd.coeffs
             if tuple(u[i] + Lw[i] for i in range(len(u))) in fd.coeffs]
    if not pairs:
        raise WindowInsufficient("no coefficient pair at shift %r fits the "
                                 "window" % (w,))
    for u in pairs:
        shifted = tuple(u[i] + Lw[i] for i in range(len(u)))
        exps = [(T, u[i] * w[j]) for i, row in enumerate(datum.Tmat)
                for j, T in enumerate(row)]
        left = _prod_pows((T, -e) for T, e in exps if e < 0)
        right = _prod_pows((T, e) for T, e in exps if e > 0)
        if vs_mul(left, fd.coeffs[shifted]) != vs_mul(
                vs_mul(cw, right), fd.coeffs[u]):
            return False
    return True


# -- surjectivity of tropicalization ----------------------------------------

class LiftReport(NamedTuple):
    lambdas: tuple    # 1 per finite slot: no leading terms can cancel
    samples: tuple    # sample points where equality was checked
    verified: bool


def _combination_samples(trop):
    if trop.n <= 2:
        samples = []
        for cm in linearity_cells(trop).cells:
            verts = cm.vertices
            bary = tuple(sum(p[i] for p in verts) / len(verts)
                         for i in range(trop.n))
            samples.append(bary)
            samples.append(tuple((b + p) / 2
                           for b, p in zip(bary, verts[0])))
        return samples
    P = trop.torus.Pmat
    return [tuple(P.matvec([Fraction(i, 3) for i in idx]))
            for idx in product(range(3), repeat=trop.n)]


def surjective_lift(datum, targets, radius):
    """A Fourier datum whose tropicalization is the min-plus combination
    min_b { targets_b + theta_b } (coefficients in Q or INF): the canonical
    lift of each finite slot b, scaled by t^(c_b), becomes one part
    (b, t^(c_b), radius).  The report is verified when, at two interior
    samples of every linearity cell, the stored coefficients' minimum equals
    the parts' certified minimum, one coset walk per sample.  The parts'
    representatives lie in distinct cosets of L.Z^n: disjoint supports, no
    leading terms cancel, and every residue multiplier is 1."""
    trop = _polarized_trop(datum)
    reps = polarization_type(trop).reps
    targets = list(targets)
    if len(targets) != len(reps):
        raise PreconditionViolated("expected %d targets, got %d"
                                   % (len(reps), len(targets)))
    slots = [(b, Fraction(c)) for b, c in zip(reps, targets)
             if c is not INF]
    if not slots:
        raise PreconditionViolated("at least one finite target is needed")
    samples = _combination_samples(trop)
    radius = int(radius)
    parts = tuple((b, monomial(c), radius) for b, c in sorted(slots))
    coeffs = {}
    for b, mult, _ in parts:
        _window_minimum(trop, b, [0] * datum.n, radius)
        coeffs.update(_part_coeffs(datum, b, mult, radius))
    fd = FourierData(coeffs, LiftWindow(datum, parts))
    verified = all(finite == certified for finite, certified
                   in _tropicalize(fd, trop, samples))
    return fd, LiftReport((1,) * len(parts), tuple(samples), verified)


# -- divisibility ------------------------------------------------------------

def divide_datum(datum, d1):
    """Extract a d1-th root of the datum: the pair (L / d1, c_1) with
    c_1(f'_i)^(d1) = c(f'_i) exactly.  d1 must divide every invariant
    factor of L (equivalently the gcd of its entries), and every cBasis
    entry must have a d1-th root in the scalar model."""
    d1 = int(d1)
    if d1 < 1:
        raise PreconditionViolated("d1 must be a positive integer")
    if d1 == 1:
        return datum
    if gcd(*(int(x) for x in datum.L.entries)) % d1 != 0:
        raise PreconditionViolated(
            "%d does not divide the type of the polarization" % d1)
    L1 = Matrix.from_rows([[datum.L[i, j] / d1 for j in range(datum.n)]
                           for i in range(datum.n)])
    c1 = [vs_root(c, d1) for c in datum.cBasis]
    return build_na_datum(datum.torus, L1, datum.Tmat, c1)
