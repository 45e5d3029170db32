import argparse
import re
import shlex
from pathlib import Path

import pytest

import quiverdt.cli as cli
from quiverdt.cli import CLIError, parse_int_vector, parse_level, parse_rational
from quiverdt.hn import hn_factorize, universal_for
from quiverdt.oracle import BUDGET
from quiverdt.qtorus import serialize
from quiverdt.quiver import load_quiver_file
from quiverdt.stability import MINUS_INF, PLUS_INF

QDIR = Path(__file__).resolve().parent.parent / "quivers"


def quiver(name: str) -> str:
    return str(QDIR / f"{name}.json")


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_rational(self):
        assert parse_rational("3/4") == 0.75
        assert parse_rational("-2") == -2
        with pytest.raises(CLIError, match="no decimals"):
            parse_rational("0.5")
        with pytest.raises(CLIError):
            parse_rational("1/0")

    def test_level(self):
        assert parse_level("+inf") == PLUS_INF
        assert parse_level("inf") == PLUS_INF
        assert parse_level("-inf") == MINUS_INF
        assert parse_level("7/2") == 3.5

    def test_int_vector(self):
        assert parse_int_vector("1, 2,3", "alpha") == (1, 2, 3)
        with pytest.raises(CLIError, match="bad alpha"):
            parse_int_vector("1,x", "alpha")


class TestExamples:
    def test_walls_jordan(self, capsys):
        code, out, err = invoke(capsys, "walls", quiver("jordan"), "--alpha", "3")
        assert (code, err) == (0, "")
        assert out == "0\n"

    def test_ncdt_c3_euler(self, capsys):
        code, out, _ = invoke(capsys, "ncdt", quiver("c3"), "--trunc", "5",
                              "--euler")
        assert code == 0
        assert out == "1 1 3 6 13 24\n"

    def test_omega_conifold(self, capsys):
        code, out, _ = invoke(capsys, "omega", quiver("conifold"), "--trunc", "2")
        assert code == 0
        assert "1,0\t(-v)/(1)" in out.splitlines()
        assert "1,1\t(v^4+v^2)/(1)" in out.splitlines()

    def test_omega_conifold_euler_point_is_v_one(self, capsys):
        # Omega = -v reads -1 at v = 1; the point v = -1 would give +1
        code, out, _ = invoke(capsys, "omega", quiver("conifold"), "--trunc", "2",
                              "--euler")
        assert code == 0
        assert out.splitlines() == ["0,1\t-1", "1,0\t-1", "1,1\t2"]

    def test_transfer_jordan(self, capsys):
        code, out, _ = invoke(capsys, "transfer", quiver("jordan"))
        assert code == 0
        assert "1\t(-v)/(1)" in out.splitlines()

    def test_smooth_model_kronecker(self, capsys):
        code, out, _ = invoke(capsys, "smooth-model", quiver("kronecker"),
                              "--theta", "1,0", "--mu", "1/2", "--trunc", "3")
        assert code == 0
        assert "1,1\t(v^2+1)/(v^2-1)" in out.splitlines()

    def test_framed_jordan_above_wall(self, capsys):
        code, out, _ = invoke(capsys, "framed", quiver("jordan"), "--c", "0",
                              "--side", "+", "--mu", "0", "--trunc", "3")
        assert code == 0
        assert out.splitlines() == ["0\t(1)/(1)", "1\t(-v)/(1)",
                                    "2\t(v^2)/(1)", "3\t(-v^3)/(1)"]

    def test_framed_side_flag_matches_infinity(self, capsys):
        _, above, _ = invoke(capsys, "framed", quiver("jordan"), "--c", "0",
                             "--side", "+", "--mu", "0")
        _, top, _ = invoke(capsys, "framed", quiver("jordan"), "--c", "+inf")
        assert above == top


class TestOutputShapes:
    def test_pretty_format(self, capsys):
        code, out, _ = invoke(capsys, "universal", quiver("jordan"),
                              "--trunc", "2", "--format", "pretty")
        assert code == 0
        assert out.splitlines()[0] == "x^(0) : (1)/(1)"
        assert out.splitlines()[1].startswith("x^(1) : ")

    def test_euler_multi_vertex_rows(self, capsys):
        code, out, _ = invoke(capsys, "ncdt", quiver("conifold"),
                              "--trunc", "2", "--euler")
        assert code == 0
        assert all("\t" in line for line in out.splitlines())

    def test_trunc_gives_prefix(self, capsys):
        _, small, _ = invoke(capsys, "universal", quiver("kronecker"),
                             "--trunc", "2")
        _, big, _ = invoke(capsys, "universal", quiver("kronecker"),
                           "--trunc", "3")
        assert big.startswith(small.rstrip("\n"))

    def test_deterministic(self, capsys):
        first = invoke(capsys, "hn", quiver("kronecker"), "--theta", "1,0")
        second = invoke(capsys, "hn", quiver("kronecker"), "--theta", "1,0")
        assert first == second

    def test_hn_sections_decreasing(self, capsys):
        code, out, _ = invoke(capsys, "hn", quiver("kronecker"),
                              "--theta", "1,0", "--trunc", "2")
        headers = [l for l in out.splitlines() if l.startswith("# slope ")]
        slopes = [cli.parse_rational(h.split()[-1]) for h in headers]
        assert code == 0
        assert slopes == sorted(slopes, reverse=True)

    def test_hn_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "pieces"
        code, out, _ = invoke(capsys, "hn", quiver("kronecker"),
                              "--theta", "1,0", "--trunc", "3",
                              "--out-dir", str(out_dir))
        assert code == 0
        names = out.split()
        assert "slope_1_2.txt" in names
        assert "alpha=1,1;star=0;coeff=" in (out_dir / "slope_1_2.txt").read_text()
        # each file holds its piece, serialized, and nothing else
        pieces = hn_factorize(universal_for(load_quiver_file(quiver("kronecker")), 3), (1, 0))
        files = {f"slope_{str(mu).replace('/', '_')}.txt": serialize(piece) + "\n"
                 for mu, piece in pieces.items()}
        assert sorted(names) == sorted(files) == sorted(p.name for p in out_dir.iterdir())
        for name in names:
            assert (out_dir / name).read_text() == files[name]
        # the names follow the sections of the plain report: slope decreasing
        _, plain, _ = invoke(capsys, "hn", quiver("kronecker"),
                             "--theta", "1,0", "--trunc", "3")
        sections = [l.split()[-1] for l in plain.splitlines() if l.startswith("# slope ")]
        assert names == [f"slope_{mu.replace('/', '_')}.txt" for mu in sections]
        slopes = [cli.parse_rational(mu) for mu in sections]
        assert slopes == sorted(slopes, reverse=True) and len(set(slopes)) > 2

    def test_w_override(self, capsys):
        code, out, _ = invoke(capsys, "ncdt", quiver("jordan"), "--w", "0",
                              "--trunc", "3")
        assert code == 0
        assert out == "0\t(1)/(1)\n"


class TestErrors:
    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, "universal", str(QDIR / "absent.json"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "No such file" in err

    def test_float_rejected(self, capsys):
        code, _, err = invoke(capsys, "framed", quiver("jordan"), "--c", "0.5")
        assert code == 1
        assert "not an exact rational" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = invoke(capsys, "framed", quiver("jordan"))
        assert code == 1 and "error:" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "summon", quiver("jordan"))
        assert code == 1

    def test_theta_length(self, capsys):
        code, _, err = invoke(capsys, "hn", quiver("kronecker"),
                              "--theta", "1")
        assert code == 1 and "per vertex" in err

    def test_w_override_length(self, capsys):
        code, _, err = invoke(capsys, "ncdt", quiver("jordan"), "--w", "1,1")
        assert code == 1 and "vertex count: got 2 for 1 vertices" in err

    def test_pole_reported_not_raised(self, capsys):
        code, _, err = invoke(capsys, "universal", quiver("jordan"), "--euler")
        assert code == 1 and "not specializable" in err


class TestOneSubcommandParser:
    """A job builds the parser of its own subcommand only, which reads its
    arguments exactly as the parser of every subcommand does."""

    def test_main_builds_one_subcommand(self, capsys, monkeypatch):
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda only=None: built.append(only)
                            or build(only))
        for argv, only in [(("walls", quiver("jordan"), "--alpha", "2"), "walls"),
                           (("summon", quiver("jordan")), None), (("-h",), None),
                           ((), None)]:
            built.clear()
            try:
                cli.main(list(argv))
            except SystemExit:  # -h
                pass
            assert built == [only]
        capsys.readouterr()

    def test_same_arguments_as_the_full_parser(self):
        from test_cli_golden import COMMANDS
        for command in COMMANDS:
            argv = shlex.split(command)
            try:
                want = vars(cli._build_parser().parse_args(argv))
            except CLIError as exc:
                with pytest.raises(CLIError, match=re.escape(str(exc))):
                    cli._build_parser(argv[0]).parse_args(argv)
                continue
            assert vars(cli._build_parser(argv[0]).parse_args(argv)) == want, command

    @pytest.mark.parametrize("argv", [("-h",), ("universal", "-h"), ("check-oracle", "-h")])
    def test_help_is_unchanged(self, capsys, argv):
        """The help of a subcommand is its help in the parser of every subcommand."""
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(list(argv))
        full = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.main(list(argv))
        assert capsys.readouterr().out == full and "usage: quiverdt" in full


class TestFalsyValues:
    """Zero and empty option values reach the job; they are not defaults."""

    @pytest.mark.parametrize("args, message", [
        (("--q", "0", "--max-dim", "1"), "q must be a prime at most 5"),
        (("--max-dim", "0"), "--max-dim must be between 1 and 4"),
        (("--theta", ""), "not an exact rational: '' (write p/q, no decimals)"),
    ], ids=["q_zero", "max_dim_zero", "theta_empty"])
    def test_check_oracle_refuses(self, capsys, args, message):
        code, out, err = invoke(capsys, "check-oracle", quiver("jordan"), *args)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_unset_options_keep_the_jobspec_defaults(self):
        parser = cli._build_parser()
        for argv in (["framed", "q.json", "--c", "0"], ["check-oracle", "q.json"]):
            args = parser.parse_args(argv)
            set_by_parser = {name for name in cli._OPTIONS
                             if getattr(args, name, None) is not None}
            assert set_by_parser <= {"c"}

    def test_empty_out_dir_is_one_error_line(self, capsys):
        code, out, err = invoke(capsys, "hn", quiver("jordan"), "--out-dir", "")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestNegativeValues:
    """A negative value after any option that takes one may be its own argument."""

    CASES = {
        "framed_jordan": ("framed", "jordan", "--theta", "-1/2", "--c", "-1/2",
                          "--side", "+", "--mu", "-1/2", "-N", "3"),
        "framed_minus_inf": ("framed", "jordan", "--c", "-inf", "-N", "3"),
        "hn_kronecker": ("hn", "kronecker", "--theta", "-1,0", "-N", "3"),
        "smooth_model": ("smooth-model", "kronecker", "--theta", "-1,0",
                         "--mu", "-1/2", "-N", "3"),
        "check_oracle": ("check-oracle", "kronecker", "--q", "2", "--max-dim", "2",
                         "--theta", "-1,0", "--c", "-3/2"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_separate_value_matches_attached(self, capsys, case):
        sub, name, *rest = self.CASES[case]
        attached = []
        for tok in rest:
            if attached and attached[-1] in ("--c", "--theta", "--mu"):
                attached[-1] += "=" + tok
            else:
                attached.append(tok)
        assert len(attached) < len(rest)
        code, out, err = invoke(capsys, sub, quiver(name), *rest)
        assert (code, err) == (0, "") and out
        assert invoke(capsys, sub, quiver(name), *attached) == (code, out, err)

    @pytest.mark.parametrize("value", ["-1/x", "-1.5", "-inf/2"])
    def test_bad_negative_value_is_one_error_line(self, capsys, value):
        code, out, err = invoke(capsys, "framed", quiver("jordan"), "--c", value,
                                "--mu", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("walls", "kronecker", "--alpha", "-1,2"), "alpha (-1, 2) has a negative entry"),
        (("framed", "kronecker", "--theta", "1,0", "--c", "1/2", "--mu", "1/2",
          "--w", "-1,0"), "framing vector (-1, 0) has a negative entry"),
        (("universal", "jordan", "-N", "-1"), "truncation must be nonnegative"),
        (("check-oracle", "jordan", "--max-dim", "-1"),
         "--max-dim must be between 1 and 4"),
        (("walls", "kronecker", "--alp", "-1,2"), "alpha (-1, 2) has a negative entry"),
        (("smooth-model", "kronecker", "--theta", "1,0", "--m", "-1/2", "-N", "-1"),
         "truncation must be nonnegative"),
    ], ids=["walls_alpha", "framed_w", "short_trunc", "check_oracle_max_dim",
            "walls_abbreviated_alpha", "smooth_model_abbreviated_mu"])
    def test_every_value_option(self, capsys, argv, message):
        sub, name, *rest = argv
        code, out, err = invoke(capsys, sub, quiver(name), *rest)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_every_option_reads_a_negative_value(self):
        """Every option that takes a value, of every subcommand, in full and
        by its shortest unique prefix, reads a separate -1 as its value."""
        subs = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        for name, sp in subs.choices.items():
            options = [o for a in sp._actions for o in a.option_strings]
            required = [tok for a in sp._actions if a.required and a.option_strings
                        for tok in (a.option_strings[0], "1")]
            for action in sp._actions:
                if not action.option_strings or action.nargs == 0:
                    continue
                opt = action.option_strings[0]
                forms = {opt} | {opt[:n] for n in range(3, len(opt))
                                 if sum(o.startswith(opt[:n]) for o in options) == 1}
                for form in forms:
                    argv = [name, "q.json", *required, form, "-1"]
                    try:
                        value = getattr(cli._build_parser(name).parse_args(argv),
                                        action.dest)
                    except CLIError as exc:  # read as a value, then refused
                        assert "invalid choice: '-1'" in str(exc), argv
                    else:
                        assert value in ("-1", -1), argv

    def test_missing_value_still_refused(self, capsys):
        code, out, err = invoke(capsys, "framed", quiver("jordan"), "--c", "--mu", "0")
        assert (code, out) == (1, "")
        assert err == "error: argument --c: expected one argument\n"


class TestCheckOracle:
    def test_passes_on_jordan(self, capsys):
        code, out, _ = invoke(capsys, "check-oracle", quiver("jordan"),
                              "--max-dim", "2", "--theta", "0", "--c", "0")
        assert code == 0
        lines = out.splitlines()
        assert "universal\talpha=1\tok" in lines
        assert "semistable\talpha=2\tok" in lines
        assert "filtration\talpha=1\tok" in lines
        assert all(line.endswith("ok") for line in lines)

    def test_universal_only_without_theta(self, capsys):
        code, out, _ = invoke(capsys, "check-oracle", quiver("two_loops"),
                              "--max-dim", "2")
        assert code == 0
        assert all(line.startswith("universal") for line in out.splitlines())

    def test_q_three(self, capsys):
        code, out, _ = invoke(capsys, "check-oracle", quiver("jordan"),
                              "--q", "3", "--max-dim", "2")
        assert code == 0

    def test_refuses_builtin_series(self, capsys):
        code, _, err = invoke(capsys, "check-oracle", quiver("c3"))
        assert code == 1 and "trivial-potential" in err

    def test_failure_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_coefficient",
                            lambda *args, **kwargs: False)
        code, out, _ = invoke(capsys, "check-oracle", quiver("jordan"),
                              "--max-dim", "1")
        assert code == 2
        assert "FAIL" in out

    def test_bad_q(self, capsys):
        code, _, err = invoke(capsys, "check-oracle", quiver("jordan"),
                              "--q", "4")
        assert code == 1 and "prime at most 5" in err

    def test_budget_error_states_work_and_budget(self, capsys):
        code, out, err = invoke(capsys, "check-oracle", quiver("jordan"), "--q", "5",
                                "--max-dim", "4", "--theta", "0", "--c", "0")
        assert code == 1 and out == ""
        [line] = err.splitlines()
        # the filtration check at alpha = 4 is refused before its walk: once,
        # the pre-pass over pairs of the 1120 subspaces of F_5^4; then the
        # loop's (5^15 - 1)/4 + 1 normal forms (entry (0, 0) zero, up to
        # scaling, and zero), each reading up to 156 tables (the normalized
        # points of F_5^4), and the tables themselves: a bit per candidate,
        # basis point and image, and 9^4 entries per table
        prepass, forms = 1120 ** 2, (5 ** 15 - 1) // 4 + 1
        walk = 1120 * 4 * 5 ** 4 + 156 * (9 ** 4 + forms)
        assert line == (f"error: budget exceeded: {prepass} steps so far + {walk} for the walk "
                        f"of arrow 0 -> 0 over {forms} normal forms = {prepass + walk} "
                        f"> budget {BUDGET}")


class TestCheckOracleLevel:
    """--c only feeds the filtration check, which needs --theta and a finite level."""

    @pytest.mark.parametrize("args, message", [
        (("--c", "0"), "check-oracle --c needs --theta"),
        (("--theta", "0", "--c", "+inf"), "check-oracle --c needs a finite level, not +inf"),
        (("--theta", "0", "--c", "-inf"), "check-oracle --c needs a finite level, not -inf"),
    ], ids=["no_theta", "plus_inf", "minus_inf"])
    def test_refused_not_dropped(self, capsys, args, message):
        code, out, err = invoke(capsys, "check-oracle", quiver("jordan"),
                                "--max-dim", "1", *args)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_finite_level_adds_filtration_rows(self, capsys):
        code, out, err = invoke(capsys, "check-oracle", quiver("jordan"),
                                "--max-dim", "1", "--theta", "0", "--c", "0")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["universal\talpha=1\tok", "semistable\talpha=1\tok",
                                    "filtration\talpha=1\tok"]


class TestBadClassesAndTheta:
    """A negative class, a wrong-length theta and a too-large --max-dim are
    refused at once with one error line, not run or silently cut."""

    @pytest.mark.parametrize("argv, message", [
        (("walls", "kronecker", "--alpha=-1,2"), "alpha (-1, 2) has a negative entry"),
        (("walls", "kronecker", "--alpha", "1,1", "--theta", "1"),
         "theta must list one weight per vertex: got 1 for 2 vertices"),
        (("walls", "kronecker", "--alpha", "1,1", "--theta", "1,0,2"),
         "theta must list one weight per vertex: got 3 for 2 vertices"),
        (("hn", "kronecker", "--theta", "1"),
         "theta must list one weight per vertex: got 1 for 2 vertices"),
        (("check-oracle", "kronecker", "--max-dim", "2", "--theta", "1"),
         "theta must list one weight per vertex: got 1 for 2 vertices"),
        # refused also where theta is not read
        (("universal", "kronecker", "--theta", "1"),
         "theta must list one weight per vertex: got 1 for 2 vertices"),
        (("ncdt", "conifold", "--theta", "1"),
         "theta must list one weight per vertex: got 1 for 2 vertices"),
        (("omega", "kronecker", "--theta", "1"),
         "theta must list one weight per vertex: got 1 for 2 vertices"),
        (("transfer", "kronecker", "--theta", "1"),
         "theta must list one weight per vertex: got 1 for 2 vertices"),
        (("framed", "kronecker", "--c", "+inf", "--theta", "1"),
         "theta must list one weight per vertex: got 1 for 2 vertices"),
        (("smooth-model", "kronecker", "--mu", "0", "--theta", "1"),
         "theta must list one weight per vertex: got 1 for 2 vertices"),
    ], ids=["walls_negative_alpha", "walls_short_theta", "walls_long_theta",
            "hn_short_theta", "check_oracle_short_theta", "universal_short_theta",
            "ncdt_short_theta", "omega_short_theta", "transfer_short_theta",
            "framed_inf_short_theta", "smooth_model_short_theta"])
    def test_one_error_line(self, capsys, argv, message):
        sub, name, *rest = argv
        code, out, err = invoke(capsys, sub, quiver(name), *rest)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_max_dim_above_the_cap_counts_nothing(self, capsys, monkeypatch):
        def count_stack(*args):
            raise AssertionError("check-oracle counted before refusing --max-dim")

        monkeypatch.setattr(cli, "count_stack", count_stack)
        code, out, err = invoke(capsys, "check-oracle", quiver("kronecker"),
                                "--max-dim", "5")
        assert (code, out, err) == (1, "", "error: --max-dim must be between 1 and 4\n")
