"""Quivers, framings, dimension vectors, and the bilinear forms on them.

A FramedQuiver is a quiver plus one extra vertex * with w_i arrows * -> i.
Dimension vectors are plain int tuples, and so are series keys: the framing
vertex enters only through the weight nu(alpha) = w . alpha.
"""

import itertools
import json
from collections.abc import Iterator

DimVector = tuple  # coords in N^{Q_0}

BUILTIN_SOURCES = ("trivial_potential", "c3", "conifold")

# the arrow matrix each built-in potential lives on, and its description
_BUILTIN_SHAPES = {
    "c3": (((3,),), "one vertex with three loops"),
    "conifold": (((0, 2), (2, 0)), "two vertices with two arrows each way"),
}


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


def int_entries(values, what: str) -> tuple:
    """values as an int tuple; a bool or an entry int() would change (1.5)
    is refused."""
    values = tuple(values)
    for x in values:
        if isinstance(x, bool) or int(x) != x:
            raise ValueError(f"{what} entry {x} is not an integer")
    return tuple(int(x) for x in values)


class Quiver(Record):
    __slots__ = ("n_vertices", "arrows")  # arrows[i][j] = number of arrows i -> j

    def __init__(self, n_vertices: int, arrows):
        if n_vertices < 1:
            raise ValueError("quiver needs at least one vertex")
        rows = tuple(int_entries(row, "arrow matrix") for row in arrows)
        if len(rows) != n_vertices or any(len(r) != n_vertices for r in rows):
            raise ValueError("arrow matrix must be n x n")
        if any(m < 0 for r in rows for m in r):
            raise ValueError("arrow multiplicities must be nonnegative")
        self._set(n_vertices=n_vertices, arrows=rows)


class FramedQuiver(Record):
    __slots__ = ("base", "w", "bu_source")

    def __init__(self, base: Quiver, w, bu_source: str = "trivial_potential"):
        w = int_entries(w, "framing vector")
        if len(w) != base.n_vertices:
            raise ValueError(f"framing vector must match the vertex count: "
                             f"got {len(w)} for {base.n_vertices} vertices")
        if any(x < 0 for x in w):
            raise ValueError(f"framing vector {w} has a negative entry")
        if bu_source not in BUILTIN_SOURCES:
            raise ValueError(f"unknown builtin_BU {bu_source!r}")
        shape = _BUILTIN_SHAPES.get(bu_source)
        if shape is not None and base.arrows != shape[0]:
            raise ValueError(f"builtin_BU {bu_source} needs {shape[1]}")
        self._set(base=base, w=w, bu_source=bu_source)

    @property
    def n_vertices(self) -> int:
        return self.base.n_vertices


def euler_form(fq: FramedQuiver, a, b) -> int:
    """Euler-Ringel form of the quiver, chi(a, b) for dimension vectors a, b."""
    val = sum(x * y for x, y in zip(a, b))
    val -= sum(m * a[i] * b[j]
               for i, row in enumerate(fq.base.arrows) for j, m in enumerate(row) if m)
    return val


def tits_form(fq: FramedQuiver, a) -> int:
    return euler_form(fq, a, a)


def nu(fq: FramedQuiver, alpha) -> int:
    """The framing weight w . alpha: the w_i arrows * -> i pair alpha with
    the framing vertex, so this is the skew form of the classes (alpha, 0)
    and (0, 1) of the quiver with * added."""
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
    Every count and weight must be a JSON integer: a float, a bool (an int
    subclass, hence `type(x) is int`) or a string is refused, and so is any
    other key, which would otherwise be ignored (a misspelt builtin_BU).
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
    allowed = ("vertices", "arrows", "framing", "builtin_BU")
    for key in raw:
        if key not in allowed:
            raise QuiverFileError(f"{path}: unknown key {key!r} (allowed: {', '.join(allowed)})")
    n = raw.get("vertices")
    if type(n) is not int:
        raise QuiverFileError(f"{path}: missing or bad 'vertices'")
    if n < 1:
        raise QuiverFileError(f"{path}: need at least one vertex")
    mat = [[0] * n for _ in range(n)]
    arrows = raw.get("arrows", [])
    for entry in arrows if isinstance(arrows, list) else [arrows]:
        if not (isinstance(entry, list) and len(entry) == 3
                and all(type(x) is int for x in entry)):
            raise QuiverFileError(f"{path}: arrow entries are [i, j, multiplicity]")
        i, j, m = entry
        if not (0 <= i < n and 0 <= j < n) or m < 0:
            raise QuiverFileError(f"{path}: arrow [{i}, {j}, {m}] out of range")
        mat[i][j] += m
    w = raw.get("framing", [0] * n)
    if not (isinstance(w, list) and all(type(x) is int for x in w)):
        raise QuiverFileError(f"{path}: framing must be a list of integers")
    base = Quiver(n, tuple(tuple(r) for r in mat))
    try:  # the framing's length and signs, the potential and its arrows
        return FramedQuiver(base, tuple(w), raw.get("builtin_BU", "trivial_potential"))
    except ValueError as exc:
        raise QuiverFileError(f"{path}: {exc}") from None


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
