"""The value classes: repr, equality, hashing, immutability and validation.

These pin the behaviour the classes had as frozen dataclasses, so that
their base class can change without any caller noticing, and check that a
cold `import quiverdt.cli` stays free of `dataclasses` and `inspect`.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quiverdt.hn import UniversalSeries, hn_factorize, universal_for
from quiverdt.oracle import count_stack
from quiverdt.qtorus import TorusSeries
from quiverdt.quiver import FramedQuiver, Quiver, jordan_quiver, kronecker_quiver
from quiverdt.stability import MINUS_INF, PLUS_INF, StabilityParams
from quiverdt.scalar import ONE
from quiverdt.wallcross import FramedSeries, dt_omega, framed_at

ROOT = Path(__file__).resolve().parent.parent


def _jordan_bu():
    return universal_for(jordan_quiver(), 1)


class TestRepr:
    def test_quivers(self):
        assert repr(kronecker_quiver().base) == "Quiver(n_vertices=2, arrows=((0, 2), (0, 0)))"
        assert repr(jordan_quiver()) == (
            "FramedQuiver(base=Quiver(n_vertices=1, arrows=((1,),)), w=(1,), "
            "bu_source='trivial_potential')")

    def test_stability_params(self):
        assert repr(StabilityParams((1, 0), Fraction(1, 2), "plus")) == (
            "StabilityParams(theta=(Fraction(1, 1), Fraction(0, 1)), "
            "c=Fraction(1, 2), side='plus')")
        assert repr(StabilityParams((0,), PLUS_INF)) == (
            "StabilityParams(theta=(Fraction(0, 1),), c=inf, side='exact')")

    def test_universal_series_leaves_out_the_memo(self):
        bu = _jordan_bu()
        before = repr(bu)
        hn_factorize(bu, (0,))
        assert repr(bu) == before == (
            "UniversalSeries(series=TorusSeries(N=1, {(0,): (1)/(1), "
            "(1,): (v^2)/(v^2-1)}))")

    def test_framed_series(self):
        fs = framed_at(_jordan_bu(), (0,), 0, "plus", 0)
        assert repr(fs) == (
            "FramedSeries(series=TorusSeries(N=1, {(0,): (1)/(1), (1,): (-v)/(1)}), "
            "params=StabilityParams(theta=(Fraction(0, 1),), c=Fraction(0, 1), "
            "side='plus'), mu=Fraction(0, 1))")


HASHABLE = [
    lambda: Quiver(2, ((0, 2), (0, 0))),
    lambda: kronecker_quiver(),
    lambda: StabilityParams((1, 0), Fraction(1, 2), "minus"),
    lambda: StabilityParams((0,), PLUS_INF),
    lambda: FramedQuiver(Quiver(1, ((3,),)), (2,), "c3"),
    lambda: StabilityParams((2, -1), MINUS_INF),
]

UNHASHABLE = [
    lambda: TorusSeries.one(jordan_quiver(), 2),
    _jordan_bu,
    lambda: FramedSeries(TorusSeries.one(jordan_quiver(), 1), StabilityParams((0,))),
    lambda: dt_omega(_jordan_bu().series),  # Omega is a series
]


class TestValueSemantics:
    @pytest.mark.parametrize("make", HASHABLE)
    def test_equal_values_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize("make", UNHASHABLE)
    def test_series_holders_are_unhashable(self, make):
        with pytest.raises(TypeError):
            hash(make())

    @pytest.mark.parametrize("make", UNHASHABLE)
    def test_series_holders_compare_by_value(self, make):
        assert make() == make()

    def test_field_differences_show(self):
        assert Quiver(1, ((1,),)) != Quiver(1, ((2,),))
        assert jordan_quiver() != jordan_quiver((2,))
        assert StabilityParams((0,), 0, "plus") != StabilityParams((0,), 0, "minus")
        assert FramedQuiver(Quiver(1, ((3,),)), (1,), "c3") != FramedQuiver(Quiver(1, ((3,),)), (1,))

    def test_other_types_are_unequal(self):
        fq = kronecker_quiver()
        assert fq != (fq.base, fq.w, fq.bu_source)
        assert fq.base != (2, ((0, 2), (0, 0)))
        assert StabilityParams((0,)) != jordan_quiver()

    def test_memo_stays_out_of_equality(self):
        a, b = _jordan_bu(), _jordan_bu()
        hn_factorize(a, (0,))
        assert a == b

    @pytest.mark.parametrize("make, name", [
        (HASHABLE[0], "arrows"), (HASHABLE[1], "w"), (HASHABLE[2], "c"),
        (HASHABLE[4], "bu_source"),
        (UNHASHABLE[0], "coeffs"), (UNHASHABLE[1], "series"),
        (UNHASHABLE[2], "mu"), (UNHASHABLE[3], "trunc"),
    ])
    def test_assignment_raises(self, make, name):
        obj = make()
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            obj.brand_new = 1


class TestConstruction:
    def test_keywords(self):
        base = Quiver(n_vertices=1, arrows=[[3]])
        assert base.arrows == ((3,),)
        fq = FramedQuiver(base=base, w=[2], bu_source="c3")
        assert fq == FramedQuiver(base, (2,), "c3") and fq.w == (2,)
        sp = StabilityParams(theta=[1, 0], c="1/2", side="plus")
        assert sp.theta == (1, 0) and sp.c == Fraction(1, 2)
        assert StabilityParams((0,)).c == 0 and StabilityParams((0,)).side == "exact"
        series = TorusSeries(fq=jordan_quiver(), trunc=1, coeffs={})
        assert series.is_zero()
        bu = UniversalSeries(series=TorusSeries.one(jordan_quiver(), 1))
        assert bu.series == TorusSeries.one(jordan_quiver(), 1)
        fs = FramedSeries(series=series, params=sp)
        assert fs.mu is None

    def test_normalization(self):
        sp = StabilityParams((0,), float("inf"))
        assert sp.c == PLUS_INF and type(sp.c) is float
        series = TorusSeries(jordan_quiver(), 1, {(1,): 1, (2,): 1, (0,): 0})
        assert list(series.coeffs) == [(1,)]

    @pytest.mark.parametrize("make, message", [
        (lambda: Quiver(0, ()), "^quiver needs at least one vertex$"),
        (lambda: Quiver(2, ((0,),)), "^arrow matrix must be n x n$"),
        (lambda: Quiver(1, ((-1,),)), "^arrow multiplicities must be nonnegative$"),
        (lambda: Quiver(1, ((1.5,),)), "^arrow matrix entry 1.5 is not an integer$"),
        (lambda: FramedQuiver(Quiver(1, ((1,),)), (1, 0)),
         "^framing vector must match the vertex count: got 2 for 1 vertices$"),
        (lambda: FramedQuiver(Quiver(2, ((0, 1), (0, 0))), (-1, 0)),
         r"^framing vector \(-1, 0\) has a negative entry$"),
        (lambda: FramedQuiver(Quiver(1, ((1,),)), (1.5,)),
         "^framing vector entry 1.5 is not an integer$"),
        (lambda: FramedQuiver(Quiver(1, ((1,),)), (1,), "x"), "^unknown builtin_BU 'x'$"),
        (lambda: FramedQuiver(Quiver(1, ((1,),)), (1,), "user_supplied"),
         "^unknown builtin_BU 'user_supplied'$"),
        (lambda: FramedQuiver(Quiver(1, ((2,),)), (1,), "c3"),
         "^builtin_BU c3 needs one vertex with three loops$"),
        (lambda: FramedQuiver(Quiver(2, ((0, 2), (0, 0))), (1, 0), "conifold"),
         "^builtin_BU conifold needs two vertices with two arrows each way$"),
        (lambda: StabilityParams((0,), 0, "up"),
         r"^side must be one of \('exact', 'plus', 'minus'\), not 'up'$"),
        (lambda: StabilityParams((0,), PLUS_INF, "plus"), "^side tags need a finite c$"),
        (lambda: count_stack(jordan_quiver(), (1,), "all", 4), "^q must be a prime at most 5$"),
        (lambda: UniversalSeries(TorusSeries.zero(jordan_quiver(), 1)),
         "^universal series needs constant term 1$"),
        (lambda: TorusSeries(kronecker_quiver(), 4, {(1,): ONE}),
         r"^series key \(1,\) must list one dimension per vertex: got 1 for 2 vertices$"),
        # coeff reads a class through the constructor's key check
        (lambda: TorusSeries.one(kronecker_quiver(), 4).coeff((0,)),
         r"^series key \(0,\) must list one dimension per vertex: got 1 for 2 vertices$"),
        (lambda: TorusSeries.one(kronecker_quiver(), 4).coeff((1, 1, 0)),
         r"^series key \(1, 1, 0\) must list one dimension per vertex: got 3 for 2 vertices$"),
        (lambda: TorusSeries.one(kronecker_quiver(), -1), "^N = -1 is negative$"),
    ])
    def test_validation_messages(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


def test_cold_import_skips_dataclasses_and_inspect():
    """A fresh `python -S` (no site .pth hooks) that imports the CLI and
    loads a quiver pulls in none of the heavy introspection modules, nor
    typing, contextlib or __future__ (annotations evaluate at definition)."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import quiverdt.cli; from quiverdt.quiver import load_quiver_file;"
        "load_quiver_file(sys.argv[2]);"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize',"
        " 'typing', 'contextlib', '__future__') if m in sys.modules))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src"),
         str(ROOT / "quivers" / "kronecker.json")],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == []
