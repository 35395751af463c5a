"""Exact JSON serialization for all pipeline objects.

Rationals travel as strings ("3", "-5/7"), matrices as row-major entry
lists with explicit shape, valued scalars as [exponent, coefficient]
string pairs sorted by exponent, and Fourier coefficients keyed by
comma-joined integer vectors.  Everything re-parses to equal values and
serializes with sorted keys, so identical inputs produce byte-identical
files.
"""

import json
import os
import re
from fractions import Fraction

from .errors import SchemaError
from .exactlinalg import Matrix
from .nalift import ValuedScalar, build_na_datum
from .torus import build_torus, validate_datum


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_to_str(q):
    return str(Fraction(q))


def rational_from_str(s):
    # A JSON integer (not a bool) or a string of the form -?[0-9]+(/[0-9]+)?
    # in ASCII.  A JSON float has lost its exact value before it gets here,
    # so it is refused; so is every other form that Fraction reads: decimal
    # points, exponents ("1e10000000": a time that grows faster than the
    # exponent), signs, blanks, "_" separators and non-ASCII digits
    if type(s) is int:
        return Fraction(s)
    match = _RATIONAL.fullmatch(s) if type(s) is str else None
    den = int(match[2] or 1) if match else 0
    if not den:
        raise SchemaError("not a rational: %r" % (s,))
    return Fraction(int(match[1]), den)


def vector_to_json(v):
    return [rational_to_str(c) for c in v]


def vector_from_json(obj):
    if not isinstance(obj, list):
        raise SchemaError("vector must be a list, got %r" % (obj,))
    return tuple(rational_from_str(c) for c in obj)


def rows_to_json(rows, cols):
    return {"rows": len(rows), "cols": cols,
            "entries": [rational_to_str(c) for row in rows for c in row]}


def matrix_from_json(obj):
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (TypeError, KeyError) as exc:
        raise SchemaError("matrix needs rows/cols/entries") from exc
    if type(rows) is not int or type(cols) is not int:
        raise SchemaError("matrix rows and cols must be integers")
    entries = vector_from_json(entries)
    if rows < 1 or cols < 1 or len(entries) != rows * cols:
        raise SchemaError("matrix shape %dx%d does not fit %d entries"
                          % (rows, cols, len(entries)))
    return Matrix.from_rows([entries[i * cols:(i + 1) * cols]
                             for i in range(rows)])


def datum_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("datum must be an object")
    for key in ("Pmat", "L", "ell"):
        if key not in obj:
            raise SchemaError("datum needs %r" % key)
    torus = build_torus(matrix_from_json(obj["Pmat"]))
    n = torus.n
    L, ell = _square_L(obj, n), vector_from_json(obj["ell"])
    if len(ell) != n:
        raise SchemaError("ell must have %d entries, as Pmat has rows" % n)
    return validate_datum(torus, L, ell)


def _square_L(obj, n):
    L = matrix_from_json(obj["L"])
    if (L.rows, L.cols) != (n, n):
        raise SchemaError("L must be %d x %d, as Pmat is" % (n, n))
    return L


def scalar_to_json(s):
    return [[rational_to_str(g), rational_to_str(a)] for g, a in s.terms]


def scalar_from_json(obj):
    if not isinstance(obj, list):
        raise SchemaError("valued scalar must be a list of pairs")
    terms = []
    for pair in obj:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError("scalar term must be [exponent, coefficient]")
        terms.append((rational_from_str(pair[0]), rational_from_str(pair[1])))
    return ValuedScalar(terms)


def na_datum_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("descent datum must be an object")
    for key in ("Pmat", "L", "Tmat", "cBasis"):
        if key not in obj:
            raise SchemaError("descent datum needs %r" % key)
    torus = build_torus(matrix_from_json(obj["Pmat"]))
    n = torus.n
    L = _square_L(obj, n)
    rows, cBasis = obj["Tmat"], obj["cBasis"]
    if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(row, list) or len(row) != n for row in rows):
        raise SchemaError("Tmat must be %d x %d, as Pmat is" % (n, n))
    if not isinstance(cBasis, list) or len(cBasis) != n:
        raise SchemaError("cBasis must have %d entries, as Pmat has rows" % n)
    Tmat = [[scalar_from_json(x) for x in row] for row in rows]
    return build_na_datum(torus, L, Tmat,
                          [scalar_from_json(c) for c in cBasis])


def _ukey(u):
    return ",".join(str(int(c)) for c in u)


def fourier_to_json(fd):
    return {"coefficients": {_ukey(u): scalar_to_json(g)
                             for u, g in fd.coeffs.items()},
            "window": {"parts": [{"b": [int(c) for c in b],
                                  "multiplier": scalar_to_json(mult),
                                  "radius": int(radius)}
                                 for b, mult, radius in fd.window.parts]}}


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump(obj, path):
    """Serialize deterministically and write atomically."""
    return _write_atomic(dumps(obj), path)


def _write_atomic(text, path):
    # write into a fresh file beside path, then move it into place; the file
    # is created with mode 0o666 less the umask, as open(path, "w") creates
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, "tmp%s.tmp" % os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load(path):
    # ValueError covers json.JSONDecodeError and an integer literal over
    # the interpreter's digit limit
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc)) from exc
