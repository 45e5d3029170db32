import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_qtorus as ref_qt
from quiverdt.quiver import (BUILTIN_SOURCES, FramedQuiver, Quiver,
                             QuiverFileError, c3_quiver, conifold_quiver,
                             dim_vectors_up_to, euler_form,
                             is_symmetric, jordan_quiver, kronecker_quiver,
                             load_quiver_file, loop_quiver,
                             sub_vectors, tits_form)
from quiverdt.stability import check_alpha
from reference_qtorus import ext, nu, skew_form

FORM_QUIVERS = [jordan_quiver((2,)), loop_quiver(0), kronecker_quiver((1, 1)),
                conifold_quiver((2, 3)), FramedQuiver(Quiver(2, ((1, 1), (0, 0))), (1, 0))]


class TestExtVector:
    """The star-1 classes of the reference torus (tests/reference_qtorus.py)."""

    def test_round_trip(self):
        a = ext((2, 1), 1)
        assert a.unframed == (2, 1) and a.star == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ext((-1,))

    def test_rejects_star_out_of_range(self):
        with pytest.raises(ValueError):
            ext((1,), 2)
        with pytest.raises(ValueError, match="^star 0.5 is not 0 or 1$"):
            ext((1, 1), 0.5)

    def test_rejects_non_integer_entry(self):
        with pytest.raises(ValueError, match="^dimension vector entry 1.5 is not an integer$"):
            ext((1.5, 1))
        assert ext((2.0, 1)).unframed == (2, 1)


class TestValidation:
    def test_quiver_needs_vertex(self):
        with pytest.raises(ValueError):
            Quiver(0, ())

    def test_quiver_matrix_shape(self):
        with pytest.raises(ValueError):
            Quiver(2, ((0, 1),))

    def test_quiver_nonnegative(self):
        with pytest.raises(ValueError):
            Quiver(1, ((-1,),))

    def test_framing_length(self):
        with pytest.raises(ValueError):
            FramedQuiver(Quiver(1, ((1,),)), (1, 0))

    @pytest.mark.parametrize("build, message", [
        (lambda: Quiver(1, ((True,),)), "arrow matrix entry True"),
        (lambda: FramedQuiver(Quiver(1, ((1,),)), (True,)), "framing vector entry True"),
        (lambda: check_alpha(kronecker_quiver(), (True, False)), "alpha entry True"),
    ], ids=["arrows", "framing", "class"])
    def test_refuses_bools(self, build, message):
        # True == 1, so only the type tells a bool from the integer 1
        with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
            build()

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            FramedQuiver(Quiver(1, ((1,),)), (1,), "mystery")


class TestForms:
    def test_jordan_euler(self):
        fq = jordan_quiver()
        # one loop cancels the diagonal term on unframed classes
        assert tits_form(fq, (3,)) == 0
        # the framing vertex sees w arrows (the star form of the reference)
        assert ref_qt.euler_form(fq, ext((0,), 1), ext((2,), 0)) == -2
        a = ext((2,), 1)
        assert ref_qt.euler_form(fq, a, a) == -2 + 1

    def test_kronecker_euler(self):
        fq = kronecker_quiver()
        assert euler_form(fq, (1, 0), (0, 1)) == -2
        assert euler_form(fq, (0, 1), (1, 0)) == 0
        assert tits_form(fq, (1, 1)) == 0
        assert tits_form(fq, (2, 1)) == 1

    @pytest.mark.parametrize("fq", FORM_QUIVERS)
    def test_forms_are_the_star_form_at_star_0(self, fq):
        classes = list(dim_vectors_up_to(fq.n_vertices, 3))
        for a in classes:
            assert tits_form(fq, a) == ref_qt.euler_form(fq, ext(a), ext(a)), a
            for b in classes:
                assert euler_form(fq, a, b) == ref_qt.euler_form(fq, ext(a), ext(b)), (a, b)

    def test_skew_antisymmetric(self):
        fq = conifold_quiver()
        a, b = ext((2, 1), 1), ext((0, 3), 0)
        assert skew_form(fq, a, b) == -skew_form(fq, b, a)
        assert skew_form(fq, a, a) == 0

    def test_skew_vanishes_on_symmetric_unframed(self):
        fq = conifold_quiver()
        a, b = ext((2, 1)), ext((1, 3))
        assert skew_form(fq, a, b) == 0

    def test_nu_is_framing_pairing(self):
        fq = conifold_quiver(w=(2, 3))
        assert nu(fq, (1, 1)) == 5

    @pytest.mark.parametrize("fq", FORM_QUIVERS)
    def test_nu_is_the_skew_pairing_with_the_framing_vertex(self, fq):
        star = ext((0,) * fq.n_vertices, 1)
        for a in dim_vectors_up_to(fq.n_vertices, 3):
            assert nu(fq, a) == skew_form(fq, ext(a, 0), star), a

    def test_symmetry_flags(self):
        assert is_symmetric(jordan_quiver())
        assert is_symmetric(c3_quiver())
        assert is_symmetric(conifold_quiver())
        assert not is_symmetric(kronecker_quiver())


class TestEnumeration:
    def test_dim_vectors_lex(self):
        got = list(dim_vectors_up_to(2, 1))
        assert got == [(0, 0), (0, 1), (1, 0)]

    def test_dim_vectors_total_bound(self):
        assert all(sum(a) <= 3 for a in dim_vectors_up_to(3, 3))
        assert len(list(dim_vectors_up_to(1, 5))) == 6

    def test_sub_vectors(self):
        got = set(sub_vectors((1, 2)))
        assert got == {(i, j) for i in range(2) for j in range(3)}

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    def test_sub_vector_count(self, alpha):
        expect = 1
        for a in alpha:
            expect *= a + 1
        assert len(list(sub_vectors(tuple(alpha)))) == expect


class TestStockQuivers:
    def test_jordan(self):
        fq = jordan_quiver()
        assert fq.base.arrows == ((1,),) and fq.w == (1,)
        assert fq.bu_source == "trivial_potential"

    def test_loop_counts(self):
        assert loop_quiver(0).base.arrows == ((0,),)
        assert loop_quiver(2).base.arrows == ((2,),)

    def test_kronecker(self):
        fq = kronecker_quiver()
        assert fq.base.arrows == ((0, 2), (0, 0)) and fq.w == (1, 0)

    def test_builtin_sources(self):
        assert c3_quiver().bu_source == "c3"
        assert conifold_quiver().bu_source == "conifold"
        assert conifold_quiver().base.arrows == ((0, 2), (2, 0))


ARROW = "arrow entries are [i, j, multiplicity]"
FRAMING = "framing must be a list of integers"


class TestLoader:
    def write(self, tmp_path, payload):
        p = tmp_path / "q.json"
        p.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
        return str(p)

    def test_loads_shipped_files(self):
        root = Path(__file__).resolve().parent.parent / "quivers"
        fq = load_quiver_file(str(root / "kronecker.json"))
        assert fq.base.arrows == ((0, 2), (0, 0)) and fq.w == (1, 0)
        fq = load_quiver_file(str(root / "conifold.json"))
        assert fq.bu_source == "conifold"

    def test_arrow_entries_accumulate(self, tmp_path):
        path = self.write(tmp_path, {"vertices": 1,
                                     "arrows": [[0, 0, 1], [0, 0, 2]],
                                     "framing": [0]})
        assert load_quiver_file(path).base.arrows == ((3,),)

    def test_default_framing_and_source(self, tmp_path):
        path = self.write(tmp_path, {"vertices": 2})
        fq = load_quiver_file(path)
        assert fq.w == (0, 0) and fq.bu_source == "trivial_potential"

    def test_missing_file(self):
        with pytest.raises(QuiverFileError, match="No such file"):
            load_quiver_file("quivers/absent.json")

    def test_bad_json_reports_line(self, tmp_path):
        path = self.write(tmp_path, '{\n "vertices": 1,\n}')
        with pytest.raises(QuiverFileError, match="line 3"):
            load_quiver_file(path)

    def test_top_level_object(self, tmp_path):
        path = self.write(tmp_path, "[1, 2]")
        with pytest.raises(QuiverFileError, match="top level"):
            load_quiver_file(path)

    def test_missing_vertices(self, tmp_path):
        path = self.write(tmp_path, {"arrows": []})
        with pytest.raises(QuiverFileError, match="vertices"):
            load_quiver_file(path)

    def test_no_vertex(self, tmp_path):
        path = self.write(tmp_path, {"vertices": 0})
        with pytest.raises(QuiverFileError) as info:
            load_quiver_file(path)
        assert str(info.value) == f"{path}: need at least one vertex"

    def test_arrow_entry_shape(self, tmp_path):
        path = self.write(tmp_path, {"vertices": 1, "arrows": [[0, 0]]})
        with pytest.raises(QuiverFileError, match="multiplicity"):
            load_quiver_file(path)

    def test_arrow_out_of_range(self, tmp_path):
        path = self.write(tmp_path, {"vertices": 1, "arrows": [[0, 1, 1]]})
        with pytest.raises(QuiverFileError, match="out of range"):
            load_quiver_file(path)

    def test_framing_length(self, tmp_path):
        # FramedQuiver's refusal, passed on with the path
        path = self.write(tmp_path, {"vertices": 2, "framing": [1]})
        with pytest.raises(QuiverFileError) as info:
            load_quiver_file(path)
        assert str(info.value) == \
            f"{path}: framing vector must match the vertex count: got 1 for 2 vertices"

    @pytest.mark.parametrize("raw, message", [
        ({"vertices": 2, "arrows": [[0, 1, 2.7]], "framing": [1, 0]}, ARROW),
        ({"vertices": 2, "arrows": [[0, True, 2]]}, ARROW),
        ({"vertices": 2, "arrows": ["012"]}, ARROW),
        ({"vertices": 2, "arrows": 3}, ARROW),
        ({"vertices": 2, "arrows": [[0, 1, 2]], "framing": [1.5, 0]}, FRAMING),
        ({"vertices": 2, "framing": [True, 0]}, FRAMING),
        ({"vertices": 2, "framing": ["x", 0]}, FRAMING),
        ({"vertices": 2, "framing": [-1, 0]}, "framing vector (-1, 0) has a negative entry"),
        ({"vertices": 1.9}, "missing or bad 'vertices'"),
        ({"vertices": True}, "missing or bad 'vertices'"),
        ({"vertices": "2"}, "missing or bad 'vertices'"),
    ], ids=["float_multiplicity", "bool_vertex", "string_entry", "arrows_not_list",
            "float_framing", "bool_framing", "string_framing", "negative_framing",
            "float_vertices", "bool_vertices", "string_vertices"])
    def test_only_json_integers(self, tmp_path, raw, message):
        """int() truncation, bools and strings are refused, not read as
        a different quiver; each refusal is one line with the path."""
        path = self.write(tmp_path, raw)
        with pytest.raises(QuiverFileError) as info:
            load_quiver_file(path)
        assert str(info.value) == f"{path}: {message}"

    def test_unknown_builtin(self, tmp_path):
        # FramedQuiver's refusal, passed on with the path
        path = self.write(tmp_path, {"vertices": 1, "builtin_BU": "nope"})
        with pytest.raises(QuiverFileError) as info:
            load_quiver_file(path)
        assert str(info.value) == f"{path}: unknown builtin_BU 'nope'"

    def test_unknown_key(self, tmp_path):
        # a misspelt builtin_BU would otherwise load the trivial-potential series
        path = self.write(tmp_path, {"vertices": 1, "arrows": [[0, 0, 3]], "builtin_bu": "c3"})
        with pytest.raises(QuiverFileError) as info:
            load_quiver_file(path)
        assert str(info.value) == (f"{path}: unknown key 'builtin_bu' "
                                   "(allowed: vertices, arrows, framing, builtin_BU)")

    def test_builtin_shape_checked(self, tmp_path):
        path = self.write(tmp_path, {"vertices": 1, "arrows": [[0, 0, 2]],
                                     "framing": [1], "builtin_BU": "c3"})
        with pytest.raises(QuiverFileError, match="three loops"):
            load_quiver_file(path)
        path = self.write(tmp_path, {"vertices": 2, "arrows": [[0, 1, 2]],
                                     "framing": [1, 0], "builtin_BU": "conifold"})
        with pytest.raises(QuiverFileError):
            load_quiver_file(path)

    @pytest.mark.parametrize("raw, message", [
        ({"vertices": 1, "arrows": [[0, 0, 2]], "builtin_BU": "c3"},
         "builtin_BU c3 needs one vertex with three loops"),
        ({"vertices": 2, "arrows": [[0, 1, 2], [1, 0, 1]], "builtin_BU": "conifold"},
         "builtin_BU conifold needs two vertices with two arrows each way"),
    ], ids=["c3", "conifold"])
    def test_builtin_shape_message(self, tmp_path, raw, message):
        path = self.write(tmp_path, raw)
        with pytest.raises(QuiverFileError) as info:
            load_quiver_file(path)
        assert str(info.value) == f"{path}: {message}"

    def test_sources_constant(self):
        assert set(BUILTIN_SOURCES) == {"trivial_potential", "c3", "conifold"}
