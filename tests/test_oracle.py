import itertools
from fractions import Fraction

import pytest

import reference_oracle as ref
from quiverdt import oracle
from quiverdt.hn import gl_motive, hn_factorize, universal_for, universal_trivial
from quiverdt.oracle import (MAX_TOTAL_DIM, BudgetError, count_framed_stable,
                             count_stack, gl_order, hall_filtration_check,
                             verify_coefficient)
from quiverdt.quiver import (dim_vectors_up_to, jordan_quiver,
                             kronecker_quiver, loop_quiver, tits_form)
from quiverdt.scalar import L, Scalar, V
from quiverdt.stability import MINUS_INF, PLUS_INF, StabilityParams, theta_slope
from reference_qtorus import ext

JORDAN = jordan_quiver()
KRON = kronecker_quiver()
HALF = Fraction(1, 2)


class TestConfig:
    def test_q_validated(self):
        # each entry point refuses a bad q before it counts anything
        for q in (0, 4, 7):
            calls = [
                lambda: count_stack(JORDAN, (1,), "all", q),
                lambda: count_framed_stable(JORDAN, (1,), (0,), 0, "plus", q),
                lambda: hall_filtration_check(JORDAN, (1,), (0,), 0, q),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="^q must be a prime at most 5$"):
                    call()

    def test_dim_cap_validated(self):
        # one cap for every entry point, on a class of two vertices too
        assert MAX_TOTAL_DIM == 4
        calls = [
            lambda: count_stack(KRON, (3, 2), "all", 2),
            lambda: count_stack(KRON, (3, 2), StabilityParams((1, 0), HALF), 2, framed=True),
            lambda: count_framed_stable(KRON, (3, 2), (1, 0), HALF, "plus", 2),
            lambda: hall_filtration_check(KRON, (3, 2), (1, 0), HALF, 2),
        ]
        for call in calls:
            with pytest.raises(BudgetError,
                               match="^budget exceeded: total dimension 5 > max_total_dim 4$"):
                call()


THETA = "theta must list one weight per vertex: got 1 for 2 vertices"


def alpha_length(n):
    return f"alpha must list one dimension per vertex: got {n} for 2 vertices"


class TestRefusals:
    """theta and alpha are checked against the quiver by every entry point:
    one line naming both lengths, or the class with a negative entry."""

    @pytest.mark.parametrize("call, message", [
        (lambda: count_stack(KRON, (1, 1), StabilityParams((0,)), 2), THETA),
        (lambda: count_stack(KRON, (1, 1), StabilityParams((0,), 0, "plus"), 2, framed=True),
         THETA),
        (lambda: count_framed_stable(KRON, (1, 1), (0,), Fraction(1, 3), "exact", 2), THETA),
        (lambda: count_framed_stable(KRON, (1, 1), (0,), MINUS_INF, "exact", 2), THETA),
        (lambda: hall_filtration_check(KRON, (1, 1), (0,), HALF, 2), THETA),
        (lambda: count_stack(KRON, (1, 1, 0), "all", 2), alpha_length(3)),
        (lambda: count_stack(KRON, (1,), "all", 2), alpha_length(1)),
        (lambda: count_framed_stable(KRON, (1,), (1, 0), HALF, "plus", 2), alpha_length(1)),
        (lambda: count_framed_stable(KRON, (1, 0, 0), (1, 0), PLUS_INF, "exact", 2),
         alpha_length(3)),
        (lambda: hall_filtration_check(KRON, (1,), (1, 0), HALF, 2), alpha_length(1)),
        (lambda: count_framed_stable(KRON, (1, -1), (1, 0), HALF, "plus", 2),
         r"alpha \(1, -1\) has a negative entry"),
        (lambda: hall_filtration_check(KRON, (-1, 1), (1, 0), HALF, 2),
         r"alpha \(-1, 1\) has a negative entry"),
        (lambda: count_framed_stable(KRON, (1.5, 1), (1, 0), HALF, "plus", 2),
         "alpha entry 1.5 is not an integer"),
        (lambda: hall_filtration_check(KRON, (1, Fraction(1, 2)), (1, 0), HALF, 2),
         "alpha entry 1/2 is not an integer"),
        (lambda: count_stack(KRON, (1.5, 1), "all", 2),
         "alpha entry 1.5 is not an integer"),
        (lambda: count_stack(KRON, (1, 1.5), StabilityParams((1, 0)), 2),
         "alpha entry 1.5 is not an integer"),
        (lambda: count_framed_stable(KRON, (1, 1), (1, 0), HALF, "left", 2),
         r"side must be one of \('exact', 'plus', 'minus'\), not 'left'"),
        (lambda: count_framed_stable(KRON, (1, 1), (1, 0), PLUS_INF, "plus", 2),
         "side tags need a finite c"),
        (lambda: count_framed_stable(KRON, (1, 1), (1, 0), MINUS_INF, "minus", 2),
         "side tags need a finite c"),
    ], ids=["stack-theta", "stack-framed-theta", "stable-theta", "stable-minus-inf-theta",
            "hall-theta", "stack-alpha-3", "stack-alpha-1", "stable-alpha-1",
            "stable-plus-inf-alpha-3", "hall-alpha-1", "stable-negative", "hall-negative",
            "stable-fraction", "hall-fraction", "stack-fraction", "stack-semistable-fraction",
            "stable-unknown-side", "stable-plus-inf-side", "stable-minus-inf-side"])
    def test_one_line_value_error(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestGLOrder:
    def test_values(self):
        assert gl_order(0, 2) == 1
        assert gl_order(1, 2) == 1
        assert gl_order(2, 2) == 6
        assert gl_order(3, 2) == 168
        assert gl_order(2, 3) == 48

    def test_matches_motive(self):
        for n in range(4):
            for q in (2, 3):
                assert gl_motive(n).specialize_L(q) == gl_order(n, q)


class TestCountAll:
    def test_zero_class(self):
        assert count_stack(JORDAN, (0,), "all", 2) == 1

    def test_jordan_closed_form(self):
        assert count_stack(JORDAN, (2,), "all", 2) == Fraction(8, 3)
        assert count_stack(JORDAN, (1,), "all", 3) == Fraction(3, 2)

    def test_framed_point(self):
        # loop entry q^1 and framing slot q^1 over GL_1 x GL_1
        assert count_stack(JORDAN, (1,), "all", 2, framed=True) == 4

    def test_matches_universal_series(self):
        bu = universal_trivial(KRON, 3).series
        for alpha in [(1, 0), (1, 1), (2, 1)]:
            chi = tits_form(KRON, alpha)
            for q in (2, 3):
                n = count_stack(KRON, alpha, "all", q)
                assert verify_coefficient(bu.coeff(alpha), n, q, chi=chi)

    def test_isoclass_cross_check(self):
        """The orbit formula against explicit orbit enumeration."""
        cases = [(JORDAN, (2,)), (KRON, (1, 1)), (loop_quiver(2), (2,))]
        for fq, alpha in cases:
            assert ref.count_stack_isoclasses(fq, alpha, 2) == \
                count_stack(fq, alpha, "all", 2)

    def test_isoclass_budget(self):
        with pytest.raises(ref.BudgetError, match="total dimension 3 > 2"):
            ref.count_stack_isoclasses(JORDAN, (3,), 2)

    def test_bad_sp(self):
        with pytest.raises(TypeError, match="StabilityParams"):
            count_stack(JORDAN, (1,), "some", 2)

    def test_bad_sp_refused_at_the_zero_class(self):
        # sp is checked before the zero class returns its count of 1
        with pytest.raises(TypeError, match="^sp must be 'all' or StabilityParams$"):
            count_stack(KRON, (0, 0), "bogus", 2)


class TestCountSemistable:
    def test_kronecker_stable_classes(self):
        sp = StabilityParams((1, 0))
        assert count_stack(KRON, (1, 0), sp, 2) == 1
        assert count_stack(KRON, (1, 1), sp, 2) == 3

    def test_matches_hn_pieces(self):
        bu = universal_trivial(KRON, 3)
        parts = hn_factorize(bu, (1, 0))
        for alpha, mu in [((1, 1), HALF), ((2, 1), Fraction(2, 3))]:
            chi = tits_form(KRON, alpha)
            n = count_stack(KRON, alpha, StabilityParams((1, 0)), 2)
            assert verify_coefficient(parts[mu].coeff(alpha), n, 2, chi=chi)

    def test_dim_cap(self):
        with pytest.raises(BudgetError, match="total dimension 5 > max_total_dim 4"):
            count_stack(JORDAN, (5,), "all", 2)

    def test_framed_needs_finite_c(self):
        for c in (PLUS_INF, MINUS_INF):
            sp = StabilityParams((0,), c)
            with pytest.raises(ValueError,
                               match="^semistable framed counting needs a finite c$"):
                count_stack(JORDAN, (1,), sp, 2, framed=True)
            # unframed slopes never see c
            assert count_stack(JORDAN, (1,), sp, 2) == ref.count_stack(JORDAN, (1,), sp, 2)


class TestSlopeTestsPerClass:
    def test_star_one_decides_each_class_once(self, monkeypatch):
        """Slopes depend on the dimension vector only: one test per class and
        side of the framing, plus alpha's own slope, not one per subspace tuple."""
        calls = []

        def counted(*args):
            calls.append(args)
            return theta_slope(*args)

        monkeypatch.setattr(oracle, "theta_slope", counted)
        alpha = (2, 2)
        got = count_stack(KRON, alpha, StabilityParams((1, 0), HALF), 2, framed=True)
        assert got == ref.count_stack(KRON, ext(alpha, 1), StabilityParams((1, 0), HALF), 2)
        assert 0 < len(calls) <= 2 * (alpha[0] + 1) * (alpha[1] + 1) + 1


class TestFramedStable:
    def test_jordan_on_plus_side(self):
        for n, q, want in [(1, 2, 2), (1, 3, 3), (2, 2, 4), (2, 3, 9)]:
            got = count_framed_stable(JORDAN, (n,), (0,), 0, "plus", q)
            assert got == want

    def test_on_the_wall_nothing_is_stable(self):
        assert count_framed_stable(JORDAN, (1,), (0,), 0, "exact", 2) == 0

    def test_empty_class(self):
        assert count_framed_stable(JORDAN, (0,), (0,), 0, "plus", 2) == 1

    def test_minus_infinity(self):
        assert count_framed_stable(JORDAN, (0,), (0,), MINUS_INF, "exact", 2) == 1
        assert count_framed_stable(JORDAN, (1,), (0,), MINUS_INF, "exact", 2) == 0

    def test_plus_infinity_cyclic(self):
        for n, q in [(1, 2), (2, 2), (1, 3)]:
            got = count_framed_stable(JORDAN, (n,), (0,), PLUS_INF, "exact", q)
            assert got == q ** n

    def test_kronecker_projective_line(self):
        got = count_framed_stable(KRON, (1, 1), (1, 0), HALF, "plus", 2)
        assert got == 3  # q + 1 points

    def test_budget_env(self):
        # the loop's walk at alpha = 4 over F_5, with its 7629394532 normal
        # forms, is refused at its price before anything runs
        with pytest.raises(BudgetError, match=(
                r"^budget exceeded: 0 steps so far \+ \d+ for the walk of arrow 0 -> 0 "
                r"over 7629394532 normal forms = \d+ > budget 100000000$")):
            count_framed_stable(JORDAN, (4,), (0,), 0, "plus", 5)

    def test_dim_cap(self):
        with pytest.raises(BudgetError, match="total dimension 5 > max_total_dim 4"):
            count_framed_stable(JORDAN, (5,), (0,), 0, "plus", 2)


class TestVerifyCoefficient:
    def test_plain(self):
        assert verify_coefficient(1 / (L - 1), 1, 2)
        assert not verify_coefficient(1 / (L - 1), 2, 2)

    def test_chi_strips_sign_normalization(self):
        coeff = -V / (L - 1)  # normalized with chi = 1
        assert verify_coefficient(coeff, 1, 2, chi=1)

    def test_wrong_parity_raises(self):
        with pytest.raises(ValueError, match="half-power"):
            verify_coefficient(-V / (L - 1), 1, 2, chi=0)

    @pytest.mark.parametrize("fq, theta", [(KRON, (1, 0)), (JORDAN, (0,))],
                             ids=["kronecker", "jordan"])
    def test_twist_by_shift_matches_product(self, fq, theta):
        """On every universal and HN-piece coefficient that check-oracle
        compares, the shifted coefficient evaluated over the integers equals
        the former route: the product with (-v)^(-chi), evaluated over
        Fractions."""
        N = 4
        bu = universal_for(fq, N)
        parts = hn_factorize(bu, theta)
        classes = [a for a in dim_vectors_up_to(fq.n_vertices, N) if sum(a)]
        coeffs = [(a, bu.series.coeff(a)) for a in classes] + \
            [(a, parts[theta_slope(theta, a)].coeff(a)) for a in classes
             if theta_slope(theta, a) in parts]
        assert len(coeffs) > len(classes)
        for a, coeff in coeffs:
            chi = tits_form(fq, a)
            raw = coeff * Scalar.neg_v_pow(-chi)
            assert coeff.times_neg_v_pow(-chi) == raw
            for q in (2, 3, 5):
                x = Fraction(q)
                old = sum(c * x ** (k // 2) for k, c in enumerate(raw.num)) / \
                    sum(c * x ** (k // 2) for k, c in enumerate(raw.den))
                assert coeff.times_neg_v_pow(-chi).specialize_L(q) == old, (a, q)


class TestHallFiltration:
    def test_jordan_at_the_wall(self):
        assert hall_filtration_check(JORDAN, (1,), (0,), 0, 2)
        assert hall_filtration_check(JORDAN, (2,), (0,), 0, 2)

    def test_jordan_off_the_wall(self):
        assert hall_filtration_check(JORDAN, (1,), (0,), 1, 2)

    def test_kronecker(self):
        assert hall_filtration_check(KRON, (1, 1), (1, 0), HALF, 2)
        assert hall_filtration_check(KRON, (1, 0), (1, 0), 1, 2)

    def test_dim_cap(self):
        with pytest.raises(BudgetError, match="total dimension 5 > max_total_dim 4"):
            hall_filtration_check(JORDAN, (5,), (0,), 0, 2)

    def test_infinite_c_refused(self):
        for c in (PLUS_INF, MINUS_INF):
            with pytest.raises(ValueError, match="^hall_filtration_check needs a finite c$"):
                hall_filtration_check(JORDAN, (1,), (0,), c, 2)


def normal_forms(q, m, n, loop):
    """The matrices F_q^n -> F_q^m that the normal-form walk visits, as
    tuples of columns, with their weights.  The walk reads tables that give
    the image y of the k-th unit vector the bit k q^m + y, so each column is
    read back from the fail mask."""
    size = q ** m
    units = [oracle._index([int(r == c) for r in range(n)], q) for c in range(n)]
    tables = {u: [1 << (k * size + y) for y in range(size)] for k, u in enumerate(units)}
    points = list(itertools.product(range(q), repeat=m))
    block = (1 << size) - 1
    for weight, fail in oracle._fail_runs(q, m, n, loop, tables):
        yield weight, tuple(points[(fail >> k * size & block).bit_length() - 1]
                            for k in range(n))


def matrix_class(cols, q, loop):
    """{lam M + mu I}: lam != 0, and mu = 0 unless M is a loop."""
    return {tuple(tuple((lam * x + mu * (r == c)) % q for r, x in enumerate(col))
                  for c, col in enumerate(cols))
            for lam in range(1, q) for mu in (range(q) if loop else (0,))}


# every shape up to 2 x 2 at q = 2, 3, 5 and 3 x 3 at q <= 3; loops are square
SHAPES = [(q, m, n, loop) for q in (2, 3, 5) for m in range(3) for n in range(3)
          for loop in (False, True) if m == n or not loop] + \
    [(q, 3, 3, loop) for q in (2, 3) for loop in (False, True)]


@pytest.mark.parametrize("q,m,n,loop", SHAPES)
def test_normal_forms_partition_the_matrices(q, m, n, loop):
    forms = list(normal_forms(q, m, n, loop))
    assert sum(weight for weight, _ in forms) == q ** (m * n)
    seen = set()
    for weight, cols in forms:
        cls = matrix_class(cols, q, loop)
        assert len(cls) == weight
        assert not cls & seen  # distinct normal forms, disjoint classes
        seen |= cls
    assert len(seen) == q ** (m * n)  # the classes cover every matrix


@pytest.mark.parametrize("q,m,n,loop", SHAPES)
def test_fail_masks_match_matrix_vector_products(q, m, n, loop):
    """Each normal form's fail mask, read off the fail tables of one arrow,
    holds the candidates (S, T) with M b outside T for some basis vector b
    of S, found here by explicit matrix-vector products on the columns.  A
    loop's candidates are the subspaces S, with T = S; an arrow's are every
    pair (S, T), at position s * #targets + t."""
    sources = ref.subspaces(q, n)
    targets = sources if loop else ref.subspaces(q, m)
    if loop:
        alpha, i, j, cands = (n,), 0, 0, [(s,) for s in range(len(sources))]
    else:
        alpha, i, j = (n, m), 0, 1
        cands = list(itertools.product(range(len(sources)), range(len(targets))))
    tables = oracle._fail_tables(q, alpha, cands, i, j)
    basis = sorted({b for _, vecs, _ in sources for b in vecs})
    missed = {}  # a set of images -> the targets missing one of them, as bits

    def misses(images):
        if images not in missed:
            missed[images] = sum(1 << t for t, (_, _, members) in enumerate(targets)
                                 if not images <= members)
        return missed[images]

    runs = zip(normal_forms(q, m, n, loop), oracle._fail_runs(q, m, n, loop, tables),
               strict=True)
    for (weight, cols), (got_weight, got) in runs:
        rows = tuple(tuple(col[r] for col in cols) for r in range(m))
        image = {b: ref._matvec(rows, b, q) for b in basis}
        want = 0
        for s, (_, vecs, _) in enumerate(sources):
            hit = misses(frozenset(image[b] for b in vecs))
            want |= (hit >> s & 1) << s if loop else hit << s * len(targets)
        assert got_weight == weight
        assert got == want, cols
