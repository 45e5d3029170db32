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
from .quiver import FramedQuiver, ext, load_quiver_file, tits_form
from .qtorus import TorusSeries, serialize
from .stability import MINUS_INF, PLUS_INF, find_walls, theta_slope
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
    return ",".join(str(a) for a in key.unframed)


def _sorted_terms(series: TorusSeries):
    return sorted(series.coeffs.items(),
                  key=lambda kv: (sum(kv[0].unframed), kv[0].unframed, kv[0].star))


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
    if len(job.theta) != fq.base.n_vertices:
        raise CLIError("theta must list one rational per vertex")
    return job.theta


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
        if len(job.alpha) != fq.base.n_vertices:
            raise CLIError("alpha must list one dimension per vertex")
        theta = _theta_for(job, fq)
        wl = find_walls(fq, theta, job.alpha, max(N, sum(job.alpha)))
        return 0, " ".join(str(w) for w in wl.walls)

    if sub == "ncdt":
        return 0, format_series(ncdt(fq, universal_for(fq, N)), job.fmt)

    if sub == "framed":
        if job.c is None:
            raise CLIError("framed needs --c")
        theta = _theta_for(job, fq)
        fs = framed_at(fq, universal_for(fq, N), theta, N, job.c, job.side, job.mu)
        return 0, format_series(fs.series, job.fmt)

    if sub == "smooth-model":
        if job.mu is None:
            raise CLIError("smooth-model needs --mu")
        theta = _theta_for(job, fq)
        series = smooth_model_series(fq, theta, job.mu, universal_for(fq, N), N)
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
            return 0, format_series(transfer_series(B, fq), job.fmt)
        om = dt_omega(B)
        lines = []
        for a in sorted(om.omega, key=lambda k: (sum(k), k)):
            val = om.omega[a]
            if job.fmt == "euler":
                lines.append(f"{','.join(map(str, a))}\t{val.specialize('euler')}")
            else:
                lines.append(f"{','.join(map(str, a))}\t{val}")
        return 0, "\n".join(lines)

    if sub == "check-oracle":
        return _check_oracle(job, fq)

    raise CLIError(f"unknown subcommand {job.subcommand!r}")


def _check_oracle(job: JobSpec, fq: FramedQuiver):
    """Pass/fail table comparing series coefficients with finite-field counts."""
    from .quiver import dim_vectors_up_to
    from .stability import StabilityParams

    if fq.bu_source != "trivial_potential":
        raise CLIError("check-oracle needs a trivial-potential quiver")
    q = job.q
    cfg = FiniteFieldConfig(q, max_total_dim=min(job.max_dim, 4))
    n = fq.base.n_vertices
    N = job.max_dim
    theta = job.theta
    if theta is not None and len(theta) != n:
        raise CLIError("theta must list one rational per vertex")
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
    def error(self, message):  # argparse default exits with 2; keep 2 for verification
        raise CLIError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="quiverdt", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, theta=True):
        sp.add_argument("quiver", help="quiver spec file (JSON)")
        sp.add_argument("--trunc", "-N", type=int, default=4,
                        help="truncation: keep classes with total dimension <= N")
        sp.add_argument("--format", choices=FORMATS, default="tsv", dest="fmt")
        sp.add_argument("--euler", action="store_const", const="euler", dest="fmt",
                        help="shorthand for --format euler")
        sp.add_argument("--w", help="framing override, comma-separated weights")
        if theta:
            sp.add_argument("--theta", help="stability weights, comma-separated rationals")

    common(subs.add_parser("universal", help="universal series coefficients"))
    hn = subs.add_parser("hn", help="slope factorization of the universal series")
    common(hn)
    hn.add_argument("--out-dir", help="write one series file per slope here")
    walls = subs.add_parser("walls", help="critical stability levels for one class")
    common(walls)
    walls.add_argument("--alpha", required=True, help="dimension vector, comma-separated")
    common(subs.add_parser("ncdt", help="cyclic-stability series"))
    fr = subs.add_parser("framed", help="framed series at a stability level")
    common(fr)
    fr.add_argument("--c", required=True, help="stability level: rational, +inf, or -inf")
    fr.add_argument("--side", choices=sorted(SIDE_FLAGS), default="0",
                    help="+ for just above c, - for just below, 0 for exactly c")
    fr.add_argument("--mu", help="slope class, rational")
    sm = subs.add_parser("smooth-model", help="smooth-model motive series at one slope")
    common(sm)
    sm.add_argument("--mu", required=True, help="slope class, rational")
    om = subs.add_parser("omega", help="DT invariants of a slope factor")
    common(om)
    om.add_argument("--mu", help="slope class; omitted means the whole universal series")
    tr = subs.add_parser("transfer", help="wall-crossing transfer series")
    common(tr)
    tr.add_argument("--mu", help="slope class; omitted means the whole universal series")
    co = subs.add_parser("check-oracle", help="verify coefficients by finite-field counting")
    co.add_argument("quiver", help="quiver spec file (JSON)")
    co.add_argument("--q", type=int, default=2, help="field size, prime <= 5")
    co.add_argument("--max-dim", type=int, default=3, help="largest total dimension")
    co.add_argument("--theta", help="also check semistable counts at this theta")
    co.add_argument("--c", help="also run the filtration check at this level")
    return p


# argparse reads a separate value that starts with "-" and is not a plain
# negative number (-1/2, -inf, -1,0) as an option; these options get it attached
_RATIONAL_OPTIONS = ("--c", "--theta", "--mu")
_NEGATIVE_VALUE = re.compile(r"^-(\d|inf$)")


def _attach_negative_values(argv: list) -> list:
    """["--c", "-1/2"] -> ["--c=-1/2"] for the options that take rationals."""
    out: list = []
    for tok in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


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
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser().parse_args(_attach_negative_values(argv))
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
