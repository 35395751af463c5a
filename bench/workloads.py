"""Seeded job generators and output checks for the four workloads.

A workload is an endless iterator of rounds; a round is a list of jobs with
a fixed composition, so every round costs about the same whatever the seed.
A round's input files are written when the round is drawn.  The timed phase
runs whole rounds (see run.py), which keeps the job mix, and so jobs_per_s
and job_p50_ms, independent of where the clock stops.

Each job carries the CLI argv and a check that compares the fields carrying
the mathematics with independent references: closed forms, the exact
oracles of oracle.py, or the reference table of the fixed plane panel
below, produced at the commit that introduced the benchmark.  Checks read
only the keys they need, so artifacts may gain keys freely.
"""

import itertools
import json
import os
from fractions import Fraction
from typing import Callable, NamedTuple

import oracle


class Job(NamedTuple):
    kind: str
    argv: list              # CLI arguments without --output
    check: Callable         # (exit_code, out_dir) -> None or a message


def _file_job(command, path, check, payload, flags=(), raw=None):
    """A job whose input file is written now, before timing starts; raw
    replaces the JSON text of payload verbatim."""
    with open(path, "w") as handle:
        handle.write(json.dumps(payload) if raw is None else raw)
    return Job(command, [command, "--input", path, *flags], check)


def _read(out_dir, name):
    with open(os.path.join(out_dir, name)) as handle:
        return json.load(handle)


def _q(x):
    return str(x) if isinstance(x, (int, Fraction)) else str(Fraction(x))


def _mat(rows):
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [_q(x) for row in rows for x in row]}


def _datum(P, L, ell):
    return {"Pmat": _mat(P), "L": _mat(L), "ell": [_q(e) for e in ell]}


def _expect_exit(want):
    def check(code, out_dir):
        if code != want:
            return "exit %s, expected %s" % (code, want)
        return None
    return check


def _checked(want_code, artifact, compare):
    """Check the exit code, then compare() the parsed artifact."""
    def check(code, out_dir):
        if code != want_code:
            return "exit %s, expected %s" % (code, want_code)
        try:
            return compare(_read(out_dir, artifact))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return "%s unreadable or incomplete: %r" % (artifact, exc)
    return check


# -- plane panel ------------------------------------------------------------
#
# The first four data that acceptance test 04 draws (random_plane_datum with
# random.Random(7)): types (3,6), (3,3), (3,3), (3,6), with 42 to 136
# linearity cells and 4 to 84 Voronoi pieces.  Fresh draws from that
# distribution cost 0.2 s to 14 s per job, so a run of a few such jobs
# would measure the draw, not the program.  The seed instead moves each
# panel datum by a scale factor c and a signed permutation S of the
# coordinates: Pmat -> c S Pmat S, L -> S L S.  That maps every lattice
# minimization onto an equivalent one, so the cost and the certified
# verdicts stay those of the panel entry while the bytes of every input and
# output change with the seed.

PANEL = [
    # (Pmat rows, L rows, certify reference, voronoi reference)
    ([["6", "0"], ["-18", "21"]], [[6, -3], [-6, 6]],
     {"cells": 42, "status": "sampled-ok", "unimodular": True,
      "faithful": True},
     {"pieces": 4, "relevant": 4}),
    ([["15", "-6"], ["-9", "12"]], [[6, -3], [-3, 3]],
     {"cells": 100, "status": "sampled-ok", "unimodular": True,
      "faithful": True},
     {"pieces": 84, "relevant": 6}),
    ([["-18", "51"], ["-12", "27"]], [[-3, 9], [-3, 6]],
     {"cells": 136, "status": "sampled-ok", "unimodular": True,
      "faithful": True},
     {"pieces": 84, "relevant": 6}),
    ([["0", "12"], ["-12", "6"]], [[0, 3], [-6, 3]],
     {"cells": 132, "status": "sampled-ok", "unimodular": True,
      "faithful": True},
     {"pieces": 48, "relevant": 6}),
]

SIGNED_PERMUTATIONS = [((0, 1), (1, 1)), ((0, 1), (1, -1)),
                       ((0, 1), (-1, 1)), ((0, 1), (-1, -1)),
                       ((1, 0), (1, 1)), ((1, 0), (1, -1)),
                       ((1, 0), (-1, 1)), ((1, 0), (-1, -1))]


def _moved_panel_datum(rng, k):
    P, L, cert_ref, vor_ref = PANEL[k]
    c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    perm, sign = rng.choice(SIGNED_PERMUTATIONS)

    def move(M, scale):
        return [[scale * sign[i] * sign[j] * Fraction(M[perm[i]][perm[j]])
                 for j in range(2)] for i in range(2)]
    return _datum(move(P, c), move(L, 1), ["0", "0"]), cert_ref, vor_ref


def _certify_job(rng, k, path):
    datum, ref, _ = _moved_panel_datum(rng, k)

    def compare(out):
        got = {"cells": len(out["cell_verdicts"]),
               "status": out["injective"]["status"],
               "unimodular": out["unimodular"], "faithful": out["faithful"]}
        return None if got == ref else "certify %r, expected %r" % (got, ref)
    return _file_job("certify", path, _checked(0, "certify.json", compare),
                     {"datum": datum},
                     ("--resolution", str(CERTIFY_RESOLUTION)))


def _voronoi_datum_job(rng, k, path):
    datum, _, ref = _moved_panel_datum(rng, k)

    def compare(out):
        got = {"pieces": len(out["pieces"]),
               "relevant": len(out["relevant_vectors"])}
        if len(out["certificates"]) != len(out["pieces"]):
            return "one certificate per piece expected"
        return None if got == ref else "voronoi %r, expected %r" % (got, ref)
    return _file_job("voronoi", path, _checked(0, "voronoi.json", compare),
                     {"datum": datum})


# The injectivity grid.  At the default 20 a job takes 4-7 s and a run of
# run_seconds holds four of them; at 8 the linearity cells and the grid
# still make thousands of lattice_argmin calls per job, in 2-3 s.
CERTIFY_RESOLUTION = 8

# The panel entries of either type whose certify jobs cost the same to
# within 10% (136 and 132 cells).  With entries of unequal cost the median
# job time would fall between two clusters and swing with noise.
CERTIFY_PANEL = (2, 3)


def plane_certify(rng, job_dir):
    """certify at --resolution CERTIFY_RESOLUTION; a round is one job on
    each of the CERTIFY_PANEL entries, in seeded order."""
    for r in itertools.count():
        jobs = [_certify_job(rng, k, os.path.join(
            job_dir, "r%04d-%d.json" % (r, k))) for k in CERTIFY_PANEL]
        rng.shuffle(jobs)
        yield jobs


# -- elliptic ladder --------------------------------------------------------

# Degrees 32 and 64 (3 s and 12 s a job) are left out: with them a round
# takes 35 s and a run holds one, so its medians would be single jobs.
LADDER = (3, 4, 6, 8, 12, 16, 24)
PERIODS = (Fraction(12), Fraction(27, 2))


def _elliptic_reference(d, varpi):
    """Breakpoints and lattice lengths of the image polygon of the degree d
    theta map of R / varpi Z: breaks at multiples of varpi/d, shifted by
    half a step for odd d, and d edges of lattice length varpi/d."""
    step = varpi / d
    first = step / 2 if d % 2 else step
    breaks = [first + k * step for k in range(d)]
    breaks = [b for b in breaks if 0 < b < varpi]
    return [_q(b) for b in breaks], [_q(step)] * d


# acceptance test 02, pinned literally rather than through the formula: the
# degree-3 triangle of R / 12Z has breakpoints 2, 6, 10 and lengths 12/3
TRIANGLE = (["2", "6", "10"], ["4", "4", "4"])


def _example45_job(d, varpi):
    if (d, varpi) == (3, 12):
        breaks, lengths = TRIANGLE
    else:
        breaks, lengths = _elliptic_reference(d, varpi)

    def compare(out):
        got = (out["breakpoints"], out["image_polygon"]["lattice_lengths"],
               out["faithful"], out["injectivity_status"])
        want = (breaks, lengths, True, "certified")
        return None if got == want else "example45 d=%d varpi=%s: %r" % (
            d, varpi, got)
    return Job("example45",
               ["example45", "--d", str(d), "--varpi", _q(varpi)],
               _checked(0, "example45.json", compare))


def elliptic_degrees(rng, job_dir):
    """example45 for every degree of the ladder at both periods, in seeded
    order.  Its only inputs are the degree and the period, and the cost at
    one degree differs by up to 40% between the periods, so every round
    holds all of them and the seed only orders the round."""
    while True:
        jobs = [_example45_job(d, varpi) for d in LADDER for varpi in PERIODS]
        rng.shuffle(jobs)
        yield jobs


# -- decompositions and lifts -----------------------------------------------

def _scalar(exponent):
    return [[_q(exponent), "1"]]


def _diagonal_na(P, L, cexps):
    n = len(P)
    return {"Pmat": _mat([[P[i] if i == j else 0 for j in range(n)]
                          for i in range(n)]),
            "L": _mat([[L[i] if i == j else 0 for j in range(n)]
                       for i in range(n)]),
            "Tmat": [[_scalar(P[i] if i == j else 0) for j in range(n)]
                     for i in range(n)],
            "cBasis": [_scalar(c) for c in cexps]}


def _lift_keys(b, L, radius):
    return {",".join(str(b[i] + L[i] * a[i]) for i in range(len(b)))
            for a in itertools.product(range(-radius, radius + 1),
                                       repeat=len(b))}


def _lift_b_job(P, L, cexps, b, path, radius=4):
    """The canonical lift of theta_b on a diagonal monomial datum has the
    coefficient t^e(a) at u = b + L.a, |a_i| <= radius, with
    e(a) = sum_i a_i (c_i + P_i L_i (a_i - 1) / 2 + P_i b_i)."""
    want = {}
    for a in itertools.product(range(-radius, radius + 1), repeat=len(b)):
        key = ",".join(str(b[i] + L[i] * a[i]) for i in range(len(b)))
        e = sum(a[i] * (cexps[i] + P[i] * L[i] * Fraction(a[i] - 1, 2)
                        + P[i] * b[i]) for i in range(len(b)))
        want[key] = _scalar(e)

    def compare(out):
        if out["fourier"]["coefficients"] != want:
            return "lift coefficients differ for b=%r" % (b,)
        if not all(out["verification"]["quasi_periodicity"].values()):
            return "quasi-periodicity not verified"
        return None
    return _file_job("lift", path, _checked(0, "lift.json", compare),
                     {"na_datum": _diagonal_na(P, L, cexps), "b": list(b)})


def _lift_targets_job(P, L, cexps, targets, path, radius=4):
    reps = list(itertools.product(*[range(l) for l in L]))
    keys = set()
    for rep, t in zip(reps, targets):
        if t != "inf":
            keys |= _lift_keys(rep, L, radius)
    finite = sum(t != "inf" for t in targets)

    def compare(out):
        report = out["report"]
        if report["verified"] is not True:
            return "surjective lift not verified"
        if len(report["lambdas"]) != finite:
            return "one residue multiplier per finite target expected"
        if set(out["fourier"]["coefficients"]) != keys:
            return "lift coefficient set differs for targets %r" % (targets,)
        return None
    return _file_job("lift", path, _checked(0, "lift.json", compare),
                     {"na_datum": _diagonal_na(P, L, cexps),
                      "targets": targets})


TARGET_VALUES = ("0", "1/2", "-1/2", "1")


def _targets(rng, count):
    """Finite seeded values in half of the slots (rounded up), 'inf' in
    the rest: the number of lifted slots, and so the cost, is fixed."""
    finite = set(rng.sample(range(count), (count + 1) // 2))
    return [rng.choice(TARGET_VALUES) if i in finite else "inf"
            for i in range(count)]


def decompose_lift(rng, job_dir):
    """A round: voronoi with a datum on two panel data (4 and 48 pieces;
    an 84-piece entry would add 60% to the round's cost); lifts of elliptic
    na data of degree 3..8 at both periods, with a 'b' and with a
    'targets' payload each; both payloads on a 2-D
    diagonal na datum with Pmat = p.I.  The seed draws ell, b, the targets
    and p, none of which moves the cost much; the period would, and so
    would unequal diagonal entries."""
    for r in itertools.count():
        def path(tag):
            return os.path.join(job_dir, "r%04d-%s.json" % (r, tag))
        jobs = [_voronoi_datum_job(rng, k, path("vor%d" % k))
                for k in (0, 3)]
        for d in range(3, 9):
            for k, varpi in enumerate(PERIODS):
                cexp = varpi * d / 2 + Fraction(rng.randint(-2, 2), 2)
                tag = "%d-%d" % (d, k)
                jobs.append(_lift_b_job([varpi], [d], [cexp],
                                        [rng.randrange(d)], path("lb" + tag)))
                jobs.append(_lift_targets_job([varpi], [d], [cexp],
                                              _targets(rng, d),
                                              path("lt" + tag)))
        P = [rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))] * 2
        cexps = [p + Fraction(rng.randint(-1, 1), 2) for p in P]
        jobs.append(_lift_b_job(P, [2, 2], cexps,
                                [rng.randrange(2), rng.randrange(2)],
                                path("lb2d")))
        jobs.append(_lift_targets_job(P, [2, 2], cexps, _targets(rng, 4),
                                      path("lt2d")))
        rng.shuffle(jobs)
        yield jobs


# -- fresh small jobs -------------------------------------------------------

TYPES = {1: [(1,), (2,), (3,), (4,)],
         2: [(1, 2), (2, 2), (1, 3), (3, 3), (2, 4)],
         3: [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 3)]}


def _unimodular(rng, n):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 1):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            f = rng.choice((-1, 1))
            U[i] = [x + f * y for x, y in zip(U[i], U[j])]
    return U


def _random_datum(rng, n, type_, polarized=True):
    """L = U.diag(type).V with U, V unimodular and Pmat = W.L for a
    diagonally dominant symmetric W, so G = L^T.W.L is positive definite
    (negative definite when not polarized) and the type is known."""
    D = [[type_[i] if i == j else 0 for j in range(n)] for i in range(n)]
    L = oracle.matmul(oracle.matmul(_unimodular(rng, n), D),
                      _unimodular(rng, n))
    W = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        W[i][i] = Fraction(rng.randint(2 * n, 2 * n + 4), rng.randint(1, 2))
        for j in range(i):
            W[i][j] = W[j][i] = Fraction(rng.randint(-1, 1), rng.randint(1, 3))
    if not polarized:
        W = [[-x for x in row] for row in W]
    P = oracle.matmul(W, L)
    ell = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    return P, [[int(x) for x in row] for row in L], ell


def _theta_job(rng, n, mode, path):
    P, L, ell = _random_datum(rng, n, rng.choice(TYPES[n]))
    b = [rng.randint(-2, 2) for _ in range(n)]
    points = [[Fraction(rng.randint(-24, 24), rng.randint(1, 5))
               for _ in range(n)] for _ in range(8)]

    def compare(out):
        want = [_q(v) for v in oracle.theta_values(P, L, ell, b, points,
                                                    mode)]
        return None if out["values"] == want else "theta values differ"
    return _file_job("theta", path, _checked(0, "theta.json", compare),
                     {"datum": _datum(P, L, ell), "b": b,
                      "points": [[_q(c) for c in x] for x in points]},
                     ("--mode", mode))


def _type_job(rng, n, path):
    type_ = rng.choice(TYPES[n])
    P, L, ell = _random_datum(rng, n, type_)
    count = 1
    for t in type_:
        count *= t

    def compare(out):
        got = (out["type"], len(out["reps"]))
        return None if got == (list(type_), count) else "type %r" % (got,)
    return _file_job("type", path, _checked(0, "type.json", compare),
                     {"datum": _datum(P, L, ell)})


def _voronoi_gram_job(rng, n, path):
    B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    G = oracle.matmul(oracle.transpose(B), B)
    k = rng.randint(1, 2)
    G = [[int(G[i][j]) + k * (i == j) for j in range(n)] for i in range(n)]

    def compare(out):
        want = [list(v) for v in oracle.relevant_vectors(G)]
        got = out["relevant_vectors"]
        return None if (got, out["count"]) == (want, len(want)) else \
            "relevant vectors differ"
    return _file_job("voronoi", path, _checked(0, "voronoi.json", compare),
                     {"G": _mat(G)})


def _malformed_job(rng, path):
    """A job the CLI must reject with exit 1 (schema error)."""
    P, L, ell = _random_datum(rng, 2, (1, 2))
    datum = _datum(P, L, ell)
    case = rng.randrange(4)
    if case == 0:
        del datum["ell"]
        return _file_job("theta", path, _expect_exit(1),
                         {"datum": datum, "b": [0, 0], "points": [["0", "0"]]})
    if case == 1:
        return _file_job("theta", path, _expect_exit(1),
                         {"datum": datum, "b": ["0", 1],
                          "points": [["0", "0"]]})
    if case == 2:
        datum["L"]["entries"].append("1")
        return _file_job("type", path, _expect_exit(1), {"datum": datum})
    return _file_job("type", path, _expect_exit(1), None,
                     raw=json.dumps({"datum": datum})[:-2])


def _nonpolarized_job(rng, path):
    """A datum whose Gram matrix is negative definite: exit 2."""
    n = rng.choice((1, 2, 3))
    P, L, ell = _random_datum(rng, n, rng.choice(TYPES[n]), polarized=False)
    if rng.randrange(2):
        return _file_job("type", path, _expect_exit(2),
                         {"datum": _datum(P, L, ell)})
    return _file_job("theta", path, _expect_exit(2),
                     {"datum": _datum(P, L, ell), "b": [0] * n,
                      "points": [["0"] * n]})


def fresh_small_jobs(rng, job_dir):
    """A round of 20 jobs, each on a datum of its own: theta (8 points) for
    n = 1, 2, 3 in both modes twice, type for n = 1, 2, 3, voronoi on a
    Gram matrix for n = 2, 3, 4, one malformed payload (exit 1) and one
    non-polarization (exit 2)."""
    for r in itertools.count():
        def path(k):
            return os.path.join(job_dir, "r%05d-%02d.json" % (r, k))
        makers = [lambda p, n=n, m=m: _theta_job(rng, n, m, p)
                  for n in (1, 2, 3) for m in ("q_ell", "lambda_gamma")] * 2
        makers += [lambda p, n=n: _type_job(rng, n, p) for n in (1, 2, 3)]
        makers += [lambda p, n=n: _voronoi_gram_job(rng, n, p)
                   for n in (2, 3, 4)]
        makers += [lambda p: _malformed_job(rng, p),
                   lambda p: _nonpolarized_job(rng, p)]
        jobs = [make(path(k)) for k, make in enumerate(makers)]
        rng.shuffle(jobs)
        yield jobs


WORKLOADS = {
    "plane_certify": plane_certify,
    "elliptic_degrees": elliptic_degrees,
    "decompose_lift": decompose_lift,
    "fresh_small_jobs": fresh_small_jobs,
}
