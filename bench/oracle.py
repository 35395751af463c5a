"""Independent exact reference values for the benchmark's output checks.

Nothing here imports tropitheta: the checks must not trust the code they
check.  Everything is exact (Fraction and int arithmetic); floats only size the
enumeration intervals, each padded by one so that rounding in the float
estimate cannot drop a lattice point, and every candidate is then tested
exactly.
"""

import itertools
import math
from fractions import Fraction


def transpose(A):
    return [list(col) for col in zip(*A)]


def matmul(A, B):
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def matvec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def inverse(A):
    """Gauss-Jordan inverse of a nonsingular square matrix."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        piv = M[c][c]
        M[c] = [x / piv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def quad(G, v):
    return sum(G[i][j] * v[i] * v[j] for i in range(len(v))
               for j in range(len(v)))


def _ldl(G):
    """G = L D L^T with L unit lower triangular, as (L, d)."""
    n = len(G)
    G = [[Fraction(x) for x in row] for row in G]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        d[j] = G[j][j] - sum(L[j][k] ** 2 * d[k] for k in range(j))
        for i in range(j + 1, n):
            L[i][j] = (G[i][j] - sum(L[i][k] * L[j][k] * d[k]
                                     for k in range(j))) / d[j]
    return L, d


def ellipsoid_points(G, fac, center, bound):
    """Every integer a with (a - center)^T G (a - center) <= bound, for
    fac = _ldl(G).

    With G = L D L^T the form is sum_i d_i (v_i + sum_{j>i} L_ji v_j)^2 for
    v = a - center, so coordinates are chosen from the last one down, each
    in the interval its remaining budget allows."""
    n = len(G)
    L, d = fac
    a = [0] * n
    out = []

    def level(i, used):
        s = sum((L[j][i] * (a[j] - center[j]) for j in range(i + 1, n)),
                Fraction(0))
        mid = center[i] - s
        reach = math.sqrt(float((bound - used) / d[i]))
        lo, hi = math.floor(mid - reach) - 1, math.ceil(mid + reach) + 1
        for k in range(lo, hi + 1):
            part = used + d[i] * (k - mid) ** 2
            if part > bound:
                continue
            a[i] = k
            if i == 0:
                out.append(tuple(a))
            else:
                level(i - 1, part)

    level(n - 1, Fraction(0))
    return out


def closest_distance(G, fac, center):
    """min over integer a of (a - center)^T G (a - center), for
    fac = _ldl(G): the same level-by-level search as ellipsoid_points, with
    candidates taken outward from each level's midpoint and the budget
    shrunk to the best distance found."""
    n = len(G)
    L, d = fac
    best = [quad(G, [math.floor(c + Fraction(1, 2)) - c for c in center])]
    a = [0] * n

    def level(i, used):
        s = sum((L[j][i] * (a[j] - center[j]) for j in range(i + 1, n)),
                Fraction(0))
        mid = center[i] - s
        reach = math.sqrt(float((best[0] - used) / d[i]))
        ks = range(math.floor(mid - reach) - 1, math.ceil(mid + reach) + 2)
        for k in sorted(ks, key=lambda k: abs(k - mid)):
            part = used + d[i] * (k - mid) ** 2
            if part > best[0]:
                break
            a[i] = k
            if i == 0:
                best[0] = part
            else:
                level(i - 1, part)

    level(n - 1, Fraction(0))
    return best[0]


def theta_values(P, L, ell, b, points, mode):
    """theta_b(x) = min_a (1/2) a^T G a + h.a + b.x at each point x, with
    G = L^T P and h = L^T x + P^T b - ell; the q_ell convention adds
    (1/2) Q(L^-1 b - G^-1 ell).  With ahat = -G^-1 h the minimand is
    (1/2) (a - ahat)^T G (a - ahat) - (1/2) ahat^T G ahat."""
    Lt = transpose(L)
    G = matmul(Lt, P)
    G_inv = inverse(G)
    fac = _ldl(G)
    shift = 0
    if mode == "q_ell":
        beta = matvec(inverse(L), b)
        r = matvec(G_inv, ell)
        shift = quad(G, [p - q for p, q in zip(beta, r)]) / 2
    Ptb = matvec(transpose(P), b)
    out = []
    for x in points:
        h = [p + q - e for p, q, e in zip(matvec(Lt, x), Ptb, ell)]
        ahat = [-c for c in matvec(G_inv, h)]
        low = (closest_distance(G, fac, ahat) - quad(G, ahat)) / 2
        out.append(low + sum(bi * xi for bi, xi in zip(b, x)) + shift)
    return out


def relevant_vectors(G):
    """Voronoi-relevant vectors of Z^n under the integer Gram matrix G: v
    is relevant exactly when +-v are the only shortest vectors of the coset
    v + 2Z^n.  Sorted, as tuples."""
    n = len(G)
    classes = [c for c in itertools.product((0, 1), repeat=n) if any(c)]
    # each class's own representative bounds its minimum
    points = ellipsoid_points(G, _ldl(G), [0] * n,
                              max(quad(G, c) for c in classes))
    by_class = {}
    for w in points:
        by_class.setdefault(tuple(c % 2 for c in w), []).append(w)
    out = []
    for cls in classes:
        coset = by_class[cls]
        best = min(quad(G, w) for w in coset)
        found = [w for w in coset if quad(G, w) == best]
        if len(found) == 2:
            out.extend(found)
    return sorted(out)
