"""Command-line front end.

One job per invocation: load a quiver file, run one subcommand, print a
deterministic report.  All numeric parameters are exact rationals written
p/q (plus +inf / -inf for the stability level); floats are rejected.
Exit codes: 0 success, 2 verification failure (check-oracle), 1 any error.
"""

import argparse
import os
import re
import sys
from fractions import Fraction

from .hn import ladder_at, slope_ladder, universal_for, verify_coefficient
from .oracle import MAX_TOTAL_DIM, count_stack, hall_filtration_check
from .quiver import FramedQuiver, dim_vectors_up_to, load_quiver_file, tits_form
from .qtorus import TorusSeries, serialize
from .stability import (MINUS_INF, PLUS_INF, StabilityParams, check_theta,
                        find_walls, theta_slope)
from .wallcross import (dt_omega, framed_at, ncdt, smooth_model_series,
                        transfer_series)

_RAT = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

SIDE_FLAGS = {"+": "plus", "-": "minus", "0": "exact"}
FORMATS = ("tsv", "pretty", "euler")


class CLIError(ValueError):
    pass


def parse_rational(text: str) -> Fraction:
    t = text.strip()
    if not _RAT.match(t):
        raise CLIError(f"not an exact rational: {text!r} (write p/q, no decimals)")
    return Fraction(t)


def parse_level(text: str):
    t = text.strip()
    if t in ("+inf", "inf"):
        return PLUS_INF
    if t == "-inf":
        return MINUS_INF
    return parse_rational(t)


def parse_int_vector(text: str, what: str) -> tuple:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise CLIError(f"bad {what}: {text!r} (comma-separated integers)") from None


def parse_rat_vector(text: str) -> tuple:
    return tuple(parse_rational(p) for p in text.split(","))


# ---- report formatting ------------------------------------------------------

def _fmt_alpha(key) -> str:
    return ",".join(str(a) for a in key)


def _sorted_terms(series: TorusSeries):
    return sorted(series.coeffs.items(),
                  key=lambda kv: (sum(kv[0]), kv[0]))


def format_series(series: TorusSeries, fmt: str) -> str:
    if fmt == "euler":
        if series.fq.base.n_vertices == 1:
            vals = [series.coeff((n,)).specialize()
                    for n in range(series.trunc + 1)]
            return " ".join(str(x) for x in vals)
        return "\n".join(f"{_fmt_alpha(k)}\t{c.specialize()}"
                         for k, c in _sorted_terms(series))
    if fmt == "pretty":
        lines = [f"x^({_fmt_alpha(k)}) : {c}" for k, c in _sorted_terms(series)]
        return "\n".join(lines) if lines else "0"
    return "\n".join(f"{_fmt_alpha(k)}\t{c}" for k, c in _sorted_terms(series))


# ---- dispatch ---------------------------------------------------------------

def _run(job):
    """Execute one job; returns (exit_code, report_text)."""
    try:
        return _dispatch(job)
    # CLIError and QuiverFileError are ValueErrors; OSError is from --out-dir
    except (ValueError, ZeroDivisionError, RuntimeError, OverflowError,
            OSError) as exc:
        return 1, f"error: {exc}"


def _load(job) -> FramedQuiver:
    fq = load_quiver_file(job.quiver)
    if job.w is not None:
        fq = FramedQuiver(fq.base, job.w, fq.bu_source)
    return fq


def _dispatch(job):
    if job.trunc < 0:
        raise CLIError(f"truncation must be nonnegative, not {job.trunc}")
    fq = _load(job)
    theta = None if job.theta is None else check_theta(fq, job.theta)
    sub = job.subcommand
    if sub == "check-oracle":
        return _check_oracle(job, fq, theta)
    if theta is None:
        theta = (Fraction(0),) * fq.base.n_vertices
    if sub == "walls":
        return 0, " ".join(str(w) for w in find_walls(fq, theta, job.alpha))
    BU = universal_for(fq, job.trunc)
    if sub == "hn":  # one list, slope decreasing, for the report or the files
        parts = [(mu, B, f"slope_{str(mu).replace('/', '_')}.txt")
                 for mu, B, _ in slope_ladder(BU, theta)]
        if job.out_dir is None:
            return 0, "\n".join(f"# slope {mu}\n{format_series(B, job.fmt)}"
                                for mu, B, _ in parts)
        os.makedirs(job.out_dir, exist_ok=True)
        for _, B, name in parts:
            with open(os.path.join(job.out_dir, name), "w") as fh:
                fh.write(serialize(B) + "\n")
        return 0, "\n".join(name for *_, name in parts)
    if sub in ("omega", "transfer"):
        B = BU.series if job.mu is None else ladder_at(BU, theta, job.mu)[1]
    if sub == "omega":  # under --euler one line per class, also on one vertex
        om = dt_omega(B)
        if job.fmt != "euler":
            return 0, format_series(om, job.fmt)
        return 0, "\n".join(f"{_fmt_alpha(k)}\t{c.specialize()}"
                            for k, c in _sorted_terms(om))

    if sub == "universal":
        series = BU.series
    elif sub == "ncdt":
        series = ncdt(BU)
    elif sub == "framed":
        series = framed_at(BU, theta, job.c, job.side, job.mu).series
    elif sub == "smooth-model":
        series = smooth_model_series(BU, theta, job.mu)
    else:  # transfer; argparse lets known subcommands only through
        series = transfer_series(B)
    return 0, format_series(series, job.fmt)


def _check_oracle(job, fq: FramedQuiver, theta):
    """Pass/fail table comparing series coefficients with finite-field counts;
    theta is the checked --theta, or None without one."""
    if fq.bu_source != "trivial_potential":
        raise CLIError("check-oracle needs a trivial-potential quiver")
    if not 1 <= job.max_dim <= MAX_TOTAL_DIM:
        raise CLIError(f"--max-dim must be between 1 and {MAX_TOTAL_DIM}, not {job.max_dim}")
    if job.c is not None and theta is None:
        raise CLIError("check-oracle --c needs --theta")
    if job.c in (PLUS_INF, MINUS_INF):
        raise CLIError(f"check-oracle --c needs a finite level, not {job.c:+}")
    q, N = job.q, job.max_dim
    BU = universal_for(fq, N)
    rows = []  # (kind, alpha, ok)
    classes = [a for a in dim_vectors_up_to(fq.base.n_vertices, N) if 0 < sum(a) <= N]
    for a in sorted(classes, key=lambda x: (sum(x), x)):
        checks = [("universal", BU.series, "all")]
        if theta is not None:
            B_mu = ladder_at(BU, theta, theta_slope(theta, a))[1]
            checks.append(("semistable", B_mu, StabilityParams(theta)))
        chi = tits_form(fq, a)
        for kind, series, sp in checks:
            cnt = count_stack(fq, a, sp, q)
            rows.append((kind, a, verify_coefficient(series.coeff(a), cnt, q, chi=chi)))
        if job.c is not None:
            rows.append(("filtration", a, hall_filtration_check(fq, a, theta, job.c, q)))
    report = "\n".join(f"{kind}\talpha={_fmt_alpha(a)}\t{'ok' if ok else 'FAIL'}"
                       for kind, a, ok in rows)
    return (0 if all(ok for *_, ok in rows) else 2), report


# ---- argument parsing -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a separate value that starts with "-" (-1/2, -inf, -1,0) is a value,
        # also after an abbreviated option; argparse alone reads only -1 and
        # -1.5 that way (and no option string here looks like a value)
        self._negative_number_matcher = re.compile(r"^-(\d|inf$)")

    def error(self, message):  # argparse default exits with 2; keep 2 for verification
        raise CLIError(message)


_MU = "slope class, rational"
_WHOLE = "slope class; omitted means the whole universal series"

# subcommand: (help, takes the common options, its own options in order)
_SUBCOMMANDS = {
    "universal": ("universal series coefficients", True, ()),
    "hn": ("slope factorization of the universal series", True, (
        ("--out-dir", dict(help="write one series file per slope here")),)),
    "walls": ("critical stability levels for one class", True, (
        ("--alpha", dict(required=True, help="dimension vector, comma-separated")),)),
    "ncdt": ("cyclic-stability series", True, ()),
    "framed": ("framed series at a stability level", True, (
        ("--c", dict(required=True, help="stability level: rational, +inf, or -inf")),
        ("--side", dict(choices=sorted(SIDE_FLAGS),
                        help="+ for just above c, - for just below, 0 for exactly c")),
        ("--mu", dict(help=_MU)))),
    "smooth-model": ("smooth-model motive series at one slope", True, (
        ("--mu", dict(required=True, help=_MU)),)),
    "omega": ("DT invariants of a slope factor", True, (("--mu", dict(help=_WHOLE)),)),
    "transfer": ("wall-crossing transfer series", True, (("--mu", dict(help=_WHOLE)),)),
    "check-oracle": ("verify coefficients by finite-field counting", False, (
        ("quiver", dict(help="quiver spec file (JSON)")),
        ("--q", dict(type=int, help="field size, prime <= 5")),
        ("--max-dim", dict(type=int, help="largest total dimension")),
        ("--theta", dict(help="also check semistable counts at this theta")),
        ("--c", dict(help="also run the filtration check at this level")))),
}


def _build_parser(only=None) -> _Parser:
    """The parser with every subcommand, or with subcommand `only` alone.

    A job parses with the parser of its own subcommand, which reads its
    arguments exactly as the full one does.
    """
    p = _Parser(prog="quiverdt", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="subcommand", required=True)
    for name, (text, common, options) in _SUBCOMMANDS.items():
        if only not in (None, name):
            continue
        sp = subs.add_parser(name, help=text)
        if common:
            sp.add_argument("quiver", help="quiver spec file (JSON)")
            sp.add_argument("--trunc", "-N", type=int,
                            help="truncation: keep classes with total dimension <= N")
            sp.add_argument("--format", choices=FORMATS, dest="fmt")
            sp.add_argument("--euler", action="store_const", const="euler", dest="fmt",
                            help="shorthand for --format euler")
            sp.add_argument("--w", help="framing override, comma-separated weights")
            sp.add_argument("--theta", help="stability weights, comma-separated rationals")
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return p


# what each option sets on the job, in parsing order: its default and the
# parser of its text (None keeps argparse's value)
_OPTIONS = {
    "trunc": (4, None), "fmt": ("tsv", None),
    "theta": (None, parse_rat_vector),
    "w": (None, lambda text: parse_int_vector(text, "framing")),
    "alpha": (None, lambda text: parse_int_vector(text, "alpha")),
    "c": (None, parse_level),
    "side": ("exact", SIDE_FLAGS.__getitem__),
    "mu": (None, parse_rational),
    "q": (2, None), "max_dim": (3, None), "out_dir": (None, None),
}


def _job_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed namespace with every option of _OPTIONS set: parsed, or
    its default when not given (zero and "" are values too)."""
    for name, (default, parse) in _OPTIONS.items():
        value = getattr(args, name, None)
        if value is None:
            value = default
        elif parse:
            value = parse(value)
        setattr(args, name, value)
    return args


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = _build_parser(only).parse_args(argv)
        job = _job_from_args(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code, report = _run(job)
    if report:
        print(report, file=sys.stderr if code == 1 else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
