from fractions import Fraction

import pytest

from reference_hn import remultiply_check, series_sum
import quiverdt.hn as hn
from quiverdt.hn import (UniversalSeries, gl_motive, hn_factorize, universal_for,
                         universal_trivial)
from quiverdt.quiver import (FramedQuiver, c3_quiver, conifold_quiver,
                             jordan_quiver, kronecker_quiver, loop_quiver)
from quiverdt.qtorus import TorusSeries
from quiverdt.scalar import ONE, L, Scalar

V = Scalar.v_pow(1)


class TestGLMotive:
    def test_small_values(self):
        assert gl_motive(0) == ONE
        assert gl_motive(1) == L - 1
        assert gl_motive(2) == (L * L - 1) * (L * L - L)

    def test_point_counts(self):
        # |GL_n(F_q)| for q = 2: 1, 6, 168
        assert gl_motive(1).specialize_L(2) == 1
        assert gl_motive(2).specialize_L(2) == 6
        assert gl_motive(3).specialize_L(2) == 168


class TestUniversalTrivial:
    def test_jordan_coefficients(self):
        bu = universal_trivial(jordan_quiver(), 3).series
        assert bu.constant_term() == ONE
        assert bu.coeff((1,)) == L / (L - 1)
        assert bu.coeff((2,)) == V ** 6 / (V ** 6 - V ** 4 - V ** 2 + 1)

    def test_no_arrows(self):
        bu = universal_trivial(loop_quiver(0), 2).series
        assert bu.coeff((1,)) == -V / (L - 1)

    def test_kronecker_low_degrees(self):
        bu = universal_trivial(kronecker_quiver(), 2).series
        assert bu.coeff((1, 0)) == -V / (L - 1)
        assert bu.coeff((1, 1)) == L * L / ((L - 1) * (L - 1))

    @pytest.mark.parametrize("fq", [kronecker_quiver(), loop_quiver(2), conifold_quiver()])
    def test_one_monomial_is_the_product_form(self, fq):
        # (-v)^chi L^arrow_dim / [GL_alpha], the twist and L power multiplied out
        bu = universal_trivial(fq, 4).series
        for alpha, c in bu.coeffs.items():
            arrow_dim = sum(m * alpha[i] * alpha[j]
                            for i, row in enumerate(fq.base.arrows) for j, m in enumerate(row))
            denom = ONE
            for a in alpha:
                denom = denom * gl_motive(a)
            chi = sum(a * a for a in alpha) - arrow_dim
            assert c == Scalar.neg_v_pow(chi) * L ** arrow_dim / denom, alpha


class TestValidation:
    def test_needs_constant_one(self):
        with pytest.raises(ValueError, match="constant term 1"):
            UniversalSeries(TorusSeries(jordan_quiver(), 2, {}))

    @pytest.mark.parametrize("fq", [kronecker_quiver(), c3_quiver(), conifold_quiver()],
                             ids=["trivial", "c3", "conifold"])
    def test_negative_trunc_refused_where_built(self, fq):
        with pytest.raises(ValueError, match="^N = -1 is negative$"):
            universal_for(fq, -1)


class TestBuiltins:
    # a potential is refused on arrows of the wrong shape when the quiver is built
    def test_c3_shape_guard(self):
        with pytest.raises(ValueError, match="^builtin_BU c3 needs one vertex with three loops$"):
            FramedQuiver(jordan_quiver().base, (1,), "c3")

    def test_conifold_shape_guard(self):
        with pytest.raises(ValueError,
                           match="^builtin_BU conifold needs two vertices "
                                 "with two arrows each way$"):
            FramedQuiver(kronecker_quiver().base, (1, 0), "conifold")

    def test_c3_series(self):
        bu = universal_for(c3_quiver(), 3)
        assert bu.series.constant_term() == ONE
        assert bu.series.coeff((1,)) == L * L / (L - 1)

    def test_conifold_series(self):
        bu = universal_for(conifold_quiver(), 2)
        assert bu.series.coeff((1, 0)) == -V / (L - 1)
        assert bu.series.coeff((0, 1)) == -V / (L - 1)

    def test_universal_for_dispatch(self):
        # bu_source picks the series: a built-in potential on the same arrows
        # as a trivial one gives another series
        assert universal_for(jordan_quiver(), 2) == universal_trivial(jordan_quiver(), 2)
        for fq in (c3_quiver(), conifold_quiver()):
            trivial = universal_trivial(FramedQuiver(fq.base, fq.w), 3)
            assert universal_for(fq, 3).series.coeffs != trivial.series.coeffs


class TestFactorization:
    def test_single_slope_is_whole_series(self):
        bu = universal_trivial(jordan_quiver(), 3)
        parts = hn_factorize(bu, (0,))
        assert set(parts) == {Fraction(0)}
        assert parts[Fraction(0)] == bu.series

    def test_kronecker_known_pieces(self):
        bu = universal_trivial(kronecker_quiver(), 3)
        parts = hn_factorize(bu, (1, 0))
        assert parts[Fraction(1, 2)].coeff((1, 1)) == (L + 1) / (L - 1)
        assert parts[Fraction(2, 3)].coeff((2, 1)) == -V / (L - 1)
        assert parts[Fraction(1)].coeff((1, 0)) == -V / (L - 1)

    def test_pieces_are_pure_slope(self):
        bu = universal_trivial(kronecker_quiver(), 3)
        for mu, piece in hn_factorize(bu, (1, 0)).items():
            for key in sorted(piece.coeffs):
                n = sum(key)
                if n:
                    assert Fraction(key[0], n) == mu

    def test_supports_partition_classes(self):
        bu = universal_trivial(kronecker_quiver(), 3)
        parts = hn_factorize(bu, (1, 0))
        seen = []
        for piece in parts.values():
            seen += [k for k in sorted(piece.coeffs) if sum(k)]
        assert len(seen) == len(set(seen))

    def test_constant_terms_one(self):
        bu = universal_trivial(kronecker_quiver(), 3)
        for piece in hn_factorize(bu, (1, 0)).values():
            assert piece.constant_term() == ONE

    @pytest.mark.parametrize("theta, got", [((1,), 1), ((1, 0, 2), 3)])
    def test_theta_one_weight_per_vertex(self, theta, got):
        bu = universal_trivial(kronecker_quiver(), 3)
        with pytest.raises(ValueError, match=f"^theta must list one weight per vertex: "
                                             f"got {got} for 2 vertices$"):
            hn_factorize(bu, theta)


class TestRemultiply:
    def test_certifies_factorization(self):
        for fq, theta in [(kronecker_quiver(), (1, 0)),
                          (kronecker_quiver(), (2, -1)),
                          (conifold_quiver(), (1, 0)),
                          (loop_quiver(2), (0,))]:
            bu = universal_for(fq, 4)
            parts = hn_factorize(bu, theta)
            assert remultiply_check(parts, bu)

    def test_rejects_perturbation(self):
        bu = universal_trivial(kronecker_quiver(), 3)
        parts = hn_factorize(bu, (1, 0))
        mu = Fraction(1, 2)
        bad = series_sum(parts[mu], TorusSeries(bu.series.fq, 3, {(1, 1): ONE}))
        assert not remultiply_check({**parts, mu: bad}, bu)

    def test_order_matters(self):
        # multiplying in increasing slope order must not reproduce B_U
        bu = universal_trivial(kronecker_quiver(), 3)
        parts = hn_factorize(bu, (1, 0))
        flipped = {-mu: piece for mu, piece in parts.items()}
        assert not remultiply_check(flipped, bu)


class TestSplitOnce:
    """hn_factorize splits each theta once per UniversalSeries."""

    def test_second_call_equal_in_new_dict(self):
        bu = universal_trivial(kronecker_quiver(), 3)
        first, second = hn_factorize(bu, (1, 0)), hn_factorize(bu, (1, 0))
        assert first == second and first is not second
        assert list(first) == list(second)
        assert all(first[mu] is second[mu] for mu in first)

    def test_mutating_a_result_does_not_leak(self):
        bu = universal_trivial(kronecker_quiver(), 3)
        first = hn_factorize(bu, (1, 0))
        want = dict(first)
        first.pop(Fraction(1, 2))
        first[Fraction(7)] = TorusSeries.one(bu.series.fq, 3)
        assert hn_factorize(bu, (1, 0)) == want

    def test_int_and_fraction_theta_share_an_entry(self, monkeypatch):
        import quiverdt.hn as hn
        calls = []
        split = hn._hn_split
        monkeypatch.setattr(hn, "_hn_split", lambda *a: calls.append(a) or split(*a))
        bu = universal_trivial(kronecker_quiver(), 3)
        ints = hn_factorize(bu, (1, 0))
        fracs = hn_factorize(bu, (Fraction(1), Fraction(0, 5)))
        assert ints == fracs and len(calls) == 1
        hn_factorize(bu, (Fraction(1, 2), 0))
        assert len(calls) == 2
        assert set(bu._hn) == {(1, 0), (Fraction(1, 2), 0)}

    def test_equality_and_repr_ignore_the_memo(self):
        used, fresh = (universal_trivial(kronecker_quiver(), 3) for _ in range(2))
        hn_factorize(used, (1, 0))
        assert used == fresh
        assert repr(used) == repr(fresh) == \
            f"UniversalSeries(series={fresh.series!r})"

    def test_split_is_compatible_with_truncation(self):
        # the ideal of degree > 3 is two-sided: each piece at N = 5 cut to
        # N = 3 is the piece at N = 3, and a slope with no class of degree
        # <= 3 (2/5 and 3/5 at theta = (1, 0)) cuts to 1
        fq = kronecker_quiver()
        big = hn_factorize(universal_for(fq, 5), (1, 0))
        small = hn_factorize(universal_for(fq, 3), (1, 0))
        one = TorusSeries.one(fq, 3)
        assert set(small) < set(big)
        for mu, piece in big.items():
            cut = TorusSeries(fq, 3, piece.coeffs)
            assert cut == small.get(mu, one), mu
        assert {mu for mu in big if mu not in small} == \
            {Fraction(2, 5), Fraction(3, 5)}



class TestGLMotiveCache:
    def test_each_n_built_once(self):
        gl_motive.cache_clear()
        universal_trivial(kronecker_quiver(), 7)
        info = gl_motive.cache_info()
        assert (info.misses, info.currsize) == (8, 8)  # n = 0..7

    def test_output_unchanged(self, monkeypatch):
        cached = universal_trivial(kronecker_quiver(), 5)
        monkeypatch.setattr(hn, "gl_motive", gl_motive.__wrapped__)
        assert universal_trivial(kronecker_quiver(), 5) == cached
        assert all(gl_motive(n) == gl_motive.__wrapped__(n) for n in range(6))
