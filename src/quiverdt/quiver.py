"""Quivers, framings, dimension vectors, and the bilinear forms on them.

A FramedQuiver is a quiver plus one extra vertex * with w_i arrows * -> i.
Dimension vectors are plain int tuples; ExtDimVector adds the framing
coordinate star, restricted to {0, 1} everywhere in this package.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterator, NamedTuple

DimVector = tuple  # coords in N^{Q_0}

BUILTIN_SOURCES = ("trivial_potential", "c3", "conifold")

# the arrow matrix each built-in potential lives on, and its description
_BUILTIN_SHAPES = {
    "c3": (((3,),), "one vertex with three loops"),
    "conifold": (((0, 2), (2, 0)), "two vertices with two arrows each way"),
}


class ExtDimVector(NamedTuple):
    unframed: tuple
    star: int


def ext(coords, star: int = 0) -> ExtDimVector:
    a = ExtDimVector(tuple(int(c) for c in coords), int(star))
    if any(c < 0 for c in a.unframed) or a.star not in (0, 1):
        raise ValueError(f"bad dimension vector {a}")
    return a


class Record:
    """An immutable value: its fields are its __slots__, set once in __init__
    through _set; ==, hash and repr run over them, less those in _hidden.
    (dataclasses would cost every start-up its import of inspect and ast.)"""

    __slots__ = ()
    _hidden = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple((n, getattr(self, n)) for n in self.__slots__ if n not in self._hidden)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in self._fields())
        return f"{type(self).__qualname__}({body})"


class Quiver(Record):
    __slots__ = ("n_vertices", "arrows")  # arrows[i][j] = number of arrows i -> j

    def __init__(self, n_vertices: int, arrows):
        if n_vertices < 1:
            raise ValueError("quiver needs at least one vertex")
        rows = tuple(tuple(int(m) for m in row) for row in arrows)
        if len(rows) != n_vertices or any(len(r) != n_vertices for r in rows):
            raise ValueError("arrow matrix must be n x n")
        if any(m < 0 for r in rows for m in r):
            raise ValueError("arrow multiplicities must be nonnegative")
        self._set(n_vertices=n_vertices, arrows=rows)


class FramedQuiver(Record):
    __slots__ = ("base", "w", "bu_source")

    def __init__(self, base: Quiver, w, bu_source: str = "trivial_potential"):
        w = tuple(int(x) for x in w)
        if len(w) != base.n_vertices or any(x < 0 for x in w):
            raise ValueError("framing vector must match the vertex count")
        if bu_source not in BUILTIN_SOURCES and bu_source != "user_supplied":
            raise ValueError(f"unknown builtin_BU {bu_source!r}")
        self._set(base=base, w=w, bu_source=bu_source)

    @property
    def n_vertices(self) -> int:
        return self.base.n_vertices


def euler_form(fq: FramedQuiver, a: ExtDimVector, b: ExtDimVector) -> int:
    """Euler-Ringel form of the framed quiver, chi(a, b)."""
    arrows = fq.base.arrows
    au, bu = a.unframed, b.unframed
    val = sum(x * y for x, y in zip(au, bu)) + a.star * b.star
    val -= sum(m * au[i] * bu[j]
               for i, row in enumerate(arrows) for j, m in enumerate(row) if m)
    val -= a.star * sum(wi * bi for wi, bi in zip(fq.w, bu))
    return val


def skew_form(fq: FramedQuiver, a: ExtDimVector, b: ExtDimVector) -> int:
    return euler_form(fq, a, b) - euler_form(fq, b, a)


def tits_form(fq: FramedQuiver, a: ExtDimVector) -> int:
    return euler_form(fq, a, a)


def nu(fq: FramedQuiver, alpha) -> int:
    """The framing weight w . alpha; equals skew((alpha,0), (0,1))."""
    return sum(wi * ai for wi, ai in zip(fq.w, alpha))


def is_symmetric(fq: FramedQuiver) -> bool:
    arrows = fq.base.arrows
    n = fq.base.n_vertices
    return all(arrows[i][j] == arrows[j][i] for i in range(n) for j in range(i))


def dim_vectors_up_to(n_vertices: int, total: int) -> Iterator[tuple]:
    """All alpha in N^n with |alpha| <= total, in lexicographic order."""
    for alpha in itertools.product(range(total + 1), repeat=n_vertices):
        if sum(alpha) <= total:
            yield alpha


def sub_vectors(alpha) -> Iterator[tuple]:
    """All beta with 0 <= beta <= alpha componentwise."""
    return itertools.product(*(range(a + 1) for a in alpha))


def zero_vector(n: int) -> tuple:
    return (0,) * n


class QuiverFileError(ValueError):
    pass


def load_quiver_file(path: str) -> FramedQuiver:
    """Read a quiver spec file: JSON with vertices, arrows, framing, builtin_BU.

    arrows is a list of [i, j, multiplicity] entries; framing is the vector w.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise QuiverFileError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise QuiverFileError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise QuiverFileError(f"{path}: top level must be an object")
    try:
        n = int(raw["vertices"])
    except (KeyError, TypeError, ValueError):
        raise QuiverFileError(f"{path}: missing or bad 'vertices'") from None
    if n < 1:
        raise QuiverFileError(f"{path}: need at least one vertex")
    mat = [[0] * n for _ in range(n)]
    for entry in raw.get("arrows", []):
        try:
            i, j, m = (int(x) for x in entry)
        except (TypeError, ValueError):
            raise QuiverFileError(f"{path}: arrow entries are [i, j, multiplicity]") from None
        if not (0 <= i < n and 0 <= j < n) or m < 0:
            raise QuiverFileError(f"{path}: arrow [{i}, {j}, {m}] out of range")
        mat[i][j] += m
    w = raw.get("framing", [0] * n)
    if not isinstance(w, list) or len(w) != n:
        raise QuiverFileError(f"{path}: framing must be a list of {n} integers")
    source = raw.get("builtin_BU", "trivial_potential")
    if source not in BUILTIN_SOURCES:
        raise QuiverFileError(f"{path}: builtin_BU must be one of {BUILTIN_SOURCES}")
    fq = FramedQuiver(Quiver(n, tuple(tuple(r) for r in mat)), tuple(w), source)
    try:
        check_builtin_shape(fq, source)
    except ValueError as exc:
        raise QuiverFileError(f"{path}: builtin_BU {exc}") from None
    return fq


def check_builtin_shape(fq: FramedQuiver, name: str) -> None:
    """Refuse the built-in potential `name` on a quiver of the wrong shape."""
    shape = _BUILTIN_SHAPES.get(name)
    if shape is not None and fq.base.arrows != shape[0]:
        raise ValueError(f"{name} needs {shape[1]}")


# a few stock quivers used all over the tests and scripts

def jordan_quiver(w=(1,)) -> FramedQuiver:
    return FramedQuiver(Quiver(1, ((1,),)), w)


def loop_quiver(loops: int, w=(1,)) -> FramedQuiver:
    return FramedQuiver(Quiver(1, ((loops,),)), w)


def kronecker_quiver(w=(1, 0)) -> FramedQuiver:
    return FramedQuiver(Quiver(2, ((0, 2), (0, 0))), w)


def c3_quiver(w=(1,)) -> FramedQuiver:
    return FramedQuiver(Quiver(1, ((3,),)), w, "c3")


def conifold_quiver(w=(1, 0)) -> FramedQuiver:
    return FramedQuiver(Quiver(2, ((0, 2), (2, 0))), w, "conifold")
