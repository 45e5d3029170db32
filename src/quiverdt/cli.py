"""Command-line front end.

One job per invocation: load a quiver file, run one subcommand, print a
deterministic report.  All numeric parameters are exact rationals written
p/q (plus +inf / -inf for the stability level); floats are rejected.
Exit codes: 0 success, 2 verification failure (check-oracle), 1 any error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .hn import hn_factorize, universal_for
from .oracle import (FiniteFieldConfig, count_stack, hall_filtration_check,
                     verify_coefficient)
from .quiver import (FramedQuiver, dim_vectors_up_to, ext, load_quiver_file,
                     tits_form)
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


class JobSpec:
    """One CLI job; the class attributes are the option defaults."""

    trunc: int = 4
    theta: tuple | None = None
    c: object = None  # Fraction or one of the infinity sentinels
    side: str = "exact"
    mu: Fraction | None = None
    w: tuple | None = None
    fmt: str = "tsv"
    alpha: tuple | None = None
    q: int = 2
    max_dim: int = 3
    out_dir: str | None = None

    def __init__(self, quiver_path: str, subcommand: str, **options):
        self.quiver_path, self.subcommand = quiver_path, subcommand
        for name, value in options.items():
            if name not in JobSpec.__annotations__:
                raise TypeError(f"JobSpec got an unexpected keyword argument {name!r}")
            setattr(self, name, value)


# ---- report formatting ------------------------------------------------------

def _fmt_alpha(key) -> str:
    return ",".join(str(a) for a in key)


def _sorted_terms(series: TorusSeries):
    return sorted(series.coeffs.items(),
                  key=lambda kv: (sum(kv[0]), kv[0]))


def format_series(series: TorusSeries, fmt: str) -> str:
    if fmt == "euler":
        if series.fq.base.n_vertices == 1:
            vals = [series.coeff((n,)).specialize("euler")
                    for n in range(series.trunc + 1)]
            return " ".join(str(x) for x in vals)
        return "\n".join(f"{_fmt_alpha(k)}\t{c.specialize('euler')}"
                         for k, c in _sorted_terms(series))
    if fmt == "pretty":
        lines = [f"x^({_fmt_alpha(k)}) : {c}" for k, c in _sorted_terms(series)]
        return "\n".join(lines) if lines else "0"
    return "\n".join(f"{_fmt_alpha(k)}\t{c}" for k, c in _sorted_terms(series))


# ---- dispatch ---------------------------------------------------------------

def run(job: JobSpec):
    """Execute one job; returns (exit_code, report_text)."""
    try:
        return _dispatch(job)
    # CLIError and QuiverFileError are ValueErrors; OSError is from --out-dir
    except (ValueError, ZeroDivisionError, RuntimeError, OverflowError,
            OSError) as exc:
        return 1, f"error: {exc}"


def _load(job: JobSpec) -> FramedQuiver:
    fq = load_quiver_file(job.quiver_path)
    if job.w is not None:
        if len(job.w) != fq.base.n_vertices or any(x < 0 for x in job.w):
            raise CLIError("framing override must list one weight per vertex")
        fq = FramedQuiver(fq.base, job.w, fq.bu_source)
    return fq


def _theta_for(job: JobSpec, fq: FramedQuiver) -> tuple:
    if job.theta is None:
        return (Fraction(0),) * fq.base.n_vertices
    return check_theta(fq, job.theta)


def _dispatch(job: JobSpec):
    if job.trunc < 0:
        raise CLIError("truncation must be nonnegative")
    if job.fmt not in FORMATS:
        raise CLIError(f"unknown format {job.fmt!r}")
    fq = _load(job)
    N = job.trunc
    sub = job.subcommand

    if sub == "universal":
        return 0, format_series(universal_for(fq, N).series, job.fmt)

    if sub == "hn":
        theta = _theta_for(job, fq)
        parts = hn_factorize(universal_for(fq, N), theta, N)
        if job.out_dir is not None:
            os.makedirs(job.out_dir, exist_ok=True)
            names = []
            for mu in sorted(parts, reverse=True):
                name = f"slope_{str(mu).replace('/', '_')}.txt"
                with open(os.path.join(job.out_dir, name), "w") as fh:
                    fh.write(serialize(parts[mu]) + "\n")
                names.append(name)
            return 0, "\n".join(names)
        blocks = []
        for mu in sorted(parts, reverse=True):
            blocks.append(f"# slope {mu}")
            blocks.append(format_series(parts[mu], job.fmt))
        return 0, "\n".join(blocks)

    if sub == "walls":
        if job.alpha is None:
            raise CLIError("walls needs --alpha")
        theta = _theta_for(job, fq)
        walls = find_walls(fq, theta, job.alpha)
        return 0, " ".join(str(w) for w in walls)

    if sub == "ncdt":
        return 0, format_series(ncdt(universal_for(fq, N)), job.fmt)

    if sub == "framed":
        if job.c is None:
            raise CLIError("framed needs --c")
        theta = _theta_for(job, fq)
        fs = framed_at(universal_for(fq, N), theta, N, job.c, job.side, job.mu)
        return 0, format_series(fs.series, job.fmt)

    if sub == "smooth-model":
        if job.mu is None:
            raise CLIError("smooth-model needs --mu")
        theta = _theta_for(job, fq)
        series = smooth_model_series(universal_for(fq, N), theta, N, job.mu)
        return 0, format_series(series, job.fmt)

    if sub in ("omega", "transfer"):
        BU = universal_for(fq, N)
        if job.mu is not None:
            theta = _theta_for(job, fq)
            parts = hn_factorize(BU, theta, N)
            B = parts.get(Fraction(job.mu), TorusSeries.one(fq, N))
        else:
            B = BU.series
        if sub == "transfer":
            return 0, format_series(transfer_series(B), job.fmt)
        om = dt_omega(B)
        if job.fmt != "euler":
            return 0, format_series(om, "tsv")
        # one line per class, also on one vertex
        return 0, "\n".join(f"{_fmt_alpha(k)}\t{c.specialize('euler')}"
                            for k, c in _sorted_terms(om))

    if sub == "check-oracle":
        return _check_oracle(job, fq)

    raise CLIError(f"unknown subcommand {job.subcommand!r}")


def _check_oracle(job: JobSpec, fq: FramedQuiver):
    """Pass/fail table comparing series coefficients with finite-field counts."""
    if fq.bu_source != "trivial_potential":
        raise CLIError("check-oracle needs a trivial-potential quiver")
    q = job.q
    cfg = FiniteFieldConfig(max_total_dim=job.max_dim)
    n = fq.base.n_vertices
    N = job.max_dim
    theta = None if job.theta is None else check_theta(fq, job.theta)
    if job.c is not None and theta is None:
        raise CLIError("check-oracle --c needs --theta")
    if job.c in (PLUS_INF, MINUS_INF):
        raise CLIError(f"check-oracle --c needs a finite level, not {job.c:+}")
    BU = universal_for(fq, N)
    parts = hn_factorize(BU, theta, N) if theta is not None else None

    rows = []
    failed = False
    classes = [a for a in dim_vectors_up_to(n, N) if 0 < sum(a) <= N]
    for a in sorted(classes, key=lambda x: (sum(x), x)):
        chi = tits_form(fq, ext(a, 0))
        cnt = count_stack(fq, ext(a, 0), "all", q, cfg)
        ok = verify_coefficient(BU.series.coeff(a), cnt, q, chi=chi)
        failed |= not ok
        rows.append(f"universal\talpha={','.join(map(str, a))}\t{'ok' if ok else 'FAIL'}")
        if parts is None:
            continue
        mu = theta_slope(theta, a)
        coeff = parts.get(mu, TorusSeries.one(fq, N)).coeff(a)
        sp = StabilityParams(theta)
        scnt = count_stack(fq, ext(a, 0), sp, q, cfg)
        ok = verify_coefficient(coeff, scnt, q, chi=chi)
        failed |= not ok
        rows.append(f"semistable\talpha={','.join(map(str, a))}\t{'ok' if ok else 'FAIL'}")
        if job.c is not None:
            ok = hall_filtration_check(fq, a, theta, job.c, q, cfg)
            failed |= not ok
            rows.append(f"filtration\talpha={','.join(map(str, a))}\t{'ok' if ok else 'FAIL'}")
    return (2 if failed else 0), "\n".join(rows)


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


# the JobSpec fields that options set, in parsing order, with their parsers
_OPTION_PARSERS = {
    "trunc": None, "fmt": None,
    "theta": parse_rat_vector,
    "w": lambda text: parse_int_vector(text, "framing"),
    "alpha": lambda text: parse_int_vector(text, "alpha"),
    "c": parse_level,
    "side": SIDE_FLAGS.__getitem__,
    "mu": parse_rational,
    "q": None, "max_dim": None, "out_dir": None,
}


def _job_from_args(args) -> JobSpec:
    job = JobSpec(quiver_path=args.quiver, subcommand=args.subcommand)
    for name, parse in _OPTION_PARSERS.items():
        value = getattr(args, name, None)
        if value is not None:  # zero and "" are values too
            setattr(job, name, parse(value) if parse else value)
    return job


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = _build_parser(only).parse_args(argv)
        job = _job_from_args(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code, report = run(job)
    if report:
        print(report, file=sys.stderr if code == 1 else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
