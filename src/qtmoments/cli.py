"""Command-line interface: batch moment computation, listings, and the
cross-verification driver.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Results go to
stdout, diagnostics to stderr.  All JSON output carries a schema tag.  The
``partitions`` and ``cards`` listings write ``LISTING_CHUNK`` lines per call,
each from one f-string with sorted keys: the bytes of ``json.dumps(record,
sort_keys=True)`` for :func:`partition_record` and :func:`arrangement_record`.
The symbolic ``charlier`` table streams one decoded P_k at a time, in text chunks.
A request naming a command is parsed by its subparser alone, not the whole tree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import islice

from .cards import _contributor_letter_stream, _expansion_states, moment_by_cards
from .cfrac import cf_series, cf_spec, render_cf
from .fock import (
    CheckReport,
    OperatorWord,
    ScalarGauge,
    check_adjointness,
    check_commutation,
    check_gram_positivity,
    moment_by_operator,
    vacuum_expectation_word,
)
from .orthopoly import (
    binomial,
    charlier_strict,
    charlier_t_gauge,
    check_charlier_fock_identity,
    check_orthogonality,
    default_jfraction_depth,
    ejsmont,
    jfraction_series,
    moments_by_motzkin,
    poisson_limit_check,
    specialize,
    _three_term_rows,
)
from .partitions import enumerate_partitions, moment_by_partitions, partition_record
from .ring import Poly

SCHEMA = "qtmoments/1"

#: The two nesting conventions: each ``--mode`` name's operator gauge and Jacobi preset.
MODES = {
    "strict": (ScalarGauge.IDENTITY, charlier_strict),
    "covered": (ScalarGauge.T_POWER_N, charlier_t_gauge),
}
PRESETS = {
    "strict": charlier_strict,
    "tgauge": charlier_t_gauge,
    "ejsmont": ejsmont,
}

#: One encoder for every JSON line: the bytes of ``json.dumps(obj, sort_keys=True)``
#: without building an encoder per line.
_JSON = json.JSONEncoder(sort_keys=True)

#: Lines per ``write`` of a listing: bounded, so no listing is held whole in memory.
LISTING_CHUNK = 512


def rational(text: str) -> Fraction:
    """Parse 'a/b' or an integer literal."""
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}: {exc}")


def _write_lines(lines) -> None:
    """Write newline-terminated lines to stdout, ``LISTING_CHUNK`` per write."""
    write = sys.stdout.write
    while chunk := "".join(islice(lines, LISTING_CHUNK)):
        write(chunk)


def _routes(mode: str, n_max: int) -> dict:
    """The five moment routes in one convention, each a function of n <= n_max.

    The Motzkin and J-fraction routes build their series to n_max on first use
    and then read it, so a caller looping over n builds each series once.
    """
    gauge, preset = MODES[mode]
    motzkin = cache(lambda: moments_by_motzkin(preset(), n_max))
    cfrac = cache(lambda: jfraction_series(preset(), n_max))
    return {
        "partitions": lambda n: moment_by_partitions(n, gauge),
        "operator": lambda n: moment_by_operator(n, gauge),
        "cards": lambda n: moment_by_cards(n, gauge),
        "motzkin": lambda n: motzkin()[n],
        "cfrac": lambda n: cfrac()[n],
    }


@cache
def _moment(method: str, mode: str, n: int) -> Poly:
    """One route's symbolic moment, kept for the life of the process."""
    return _routes(mode, n)[method](n)


@cache
def _moment_text(method: str, mode: str, n: int) -> str:
    """The canonical text of :func:`_moment`, rendered once and kept with it."""
    return _moment(method, mode, n).canonical_str()


def cmd_moments(args) -> int:
    """Print the n-th moment by the chosen routes and whether they agree.  A point
    request reads each moment and its text from :func:`_moment` and :func:`_moment_text`,
    so a process computes and renders each once; a symbolic request computes afresh."""
    point = args.point
    results = {name: route(args.n) if point is None else _moment(name, args.mode, args.n)
               for name, route in _routes(args.mode, args.n).items()
               if args.method in ("all", name)}
    values = list(results.values())
    agree = all(v == values[0] for v in values)

    def text(name):
        return _moment_text(name, args.mode, args.n) if point else results[name].canonical_str()

    if args.output == "json":
        record = {
            "schema": SCHEMA,
            "n": args.n,
            "mode": args.mode,
            "gauge": MODES[args.mode][0].value,
            "methods": {name: text(name) for name in results},
            "agree": agree,
        }
        if point is not None:
            record["value"] = {name: str(p.eval(point)) for name, p in results.items()}
        print(_JSON.encode(record))
    elif args.output == "csv":
        if point is None:
            print("method,n,moment")
            for name, poly in results.items():
                print(f"{name},{args.n},{poly.canonical_str()}")
        else:
            print("method,n,q,t,lambda,moment")
            for name, poly in results.items():
                print(
                    f"{name},{args.n},{point['q']},{point['t']},{point['lambda']},"
                    f"{poly.eval(point)}"
                )
    else:
        for name in results:
            print(f"{name}: {text(name)}")
        if point is not None:
            for name, poly in results.items():
                print(f"{name} at (q,t,lambda)={tuple(map(str, point.values()))}: {poly.eval(point)}")
        print(text(next(iter(results))))
    if not agree:
        print("error: moment methods disagree", file=sys.stderr)
        return 1
    return 0


def cmd_partitions(args) -> int:
    partitions = enumerate_partitions(args.n)
    if args.output == "json":
        # block ids are below n, so each prints from one table of their texts
        digit = [str(b) for b in range(args.n)].__getitem__
        lines = (f'{{"blocks": {r["blocks"]}, "rc": {r["rc"]}, '
                 f'"rgs": [{", ".join(map(digit, r["rgs"]))}], '
                 f'"rn_covered": {r["rn_covered"]}, "rn_strict": {r["rn_strict"]}, '
                 f'"schema": "{SCHEMA}"}}\n' for r in map(partition_record, partitions))
    else:
        lines = (f"{p}  blocks={r['blocks']} rc={r['rc']} "
                 f"rn_strict={r['rn_strict']} rn_covered={r['rn_covered']}\n"
                 for p in partitions for r in [partition_record(p)])
    _write_lines(lines)
    return 0


def cmd_charlier(args) -> int:
    preset = PRESETS[args.preset]()
    if args.point is not None:
        # Over exact fractions at the point: no symbolic moment is formed.
        moments = moments_by_motzkin(specialize(preset, args.point), args.n_max)
        if args.output == "json":
            print(_JSON.encode(
                {
                    "schema": SCHEMA,
                    "preset": args.preset,
                    "moments": [
                        {"n": n, "q": str(args.q), "t": str(args.t),
                         "lambda": str(args.lam), "moment": str(v)}
                        for n, v in enumerate(moments)
                    ],
                }))
        else:
            print("n,q,t,lambda,moment")
            for n, v in enumerate(moments):
                print(f"{n},{args.q},{args.t},{args.lam},{v}")
        return 0
    # Canonical text is digits, " *+-^" and variable names, which JSON writes as they are.
    rows = _three_term_rows(preset, args.n_max)
    json_out, write = args.output == "json", sys.stdout.write
    write('{"polys": [' if json_out else "")
    for k in range(args.n_max + 1):
        write((', "' if k else '"') if json_out else f"P_{k} = ")
        for chunk in next(rows)._text_chunks():  # P_k is dropped with its last chunk
            write(chunk)
        write('"' if json_out else "\n")
    if json_out:
        write("], " + _JSON.encode({"preset": args.preset, "schema": SCHEMA})[1:] + "\n")
    return 0


def _card_lines(words, covered: bool, json_out: bool):
    """The ``cards`` listing lines of ``words`` (letters in application order),
    formatted straight from the expansion walk: each partition's blocks are
    filled from the walk's block ids, one list per block."""
    sep = '", "' if json_out else ","
    weights: dict = {}  # (lambda, q, t) exponents -> canonical text
    for text, cards, owner, exps in _expansion_states(words, covered):
        weight = weights.get(exps)
        if weight is None:
            monomial = dict(zip(("lambda", "q", "t"), exps))
            weight = weights[exps] = Poly.from_terms([(1, monomial)]).canonical_str()
        blocks = [[] for _ in range(exps[0])]  # lambda counts the blocks
        for element, block in enumerate(owner, 1):
            blocks[block].append(element)
        names = sep.join(cards)
        if json_out:
            yield (f'{{"cards": ["{names}"], "partition": {blocks}, "schema": "{SCHEMA}", '
                   f'"weight": "{weight}", "word": "{text}"}}\n')
        else:
            yield f"{text}  cards={names}  weight={weight}  partition={blocks}\n"


def cmd_cards(args) -> int:
    gauge, _ = MODES[args.mode]
    words = (_contributor_letter_stream(args.n) if args.word is None
             else [OperatorWord.from_string(args.word).application_order()])
    _write_lines(_card_lines(words, gauge is ScalarGauge.T_POWER_N, args.output == "json"))
    return 0


def cmd_cfrac(args) -> int:
    preset = PRESETS[args.preset]()
    depth = args.depth if args.depth is not None else default_jfraction_depth(args.order)
    spec = cf_spec(preset, depth)
    series = cf_series(spec, args.order)
    strings = [c.canonical_str() for c in series]
    if args.output == "json":
        print(_JSON.encode(
            {"schema": SCHEMA, "preset": args.preset, "depth": depth, "series": strings}))
    else:
        print(render_cf(spec))
        for k, s in enumerate(strings):
            print(f"z^{k}: {s}")
    return 0


def cmd_binomial(args) -> int:
    params = binomial(args.m, args.p, args.q, args.t)
    moments = moments_by_motzkin(params, args.n_max)
    if args.output == "json":
        print(_JSON.encode(
            {
                "schema": SCHEMA,
                "m": str(args.m),
                "p": str(args.p),
                "q": str(args.q),
                "t": str(args.t),
                "moments": [str(v) for v in moments],
            }))
    else:
        print("n,q,t,m,p,moment")
        for k, v in enumerate(moments):
            print(f"{k},{args.q},{args.t},{args.m},{args.p},{v}")
    return 0


def _check_moments(n_max: int):
    """Per convention and n, each other route against the partition sum."""
    for mode in MODES:
        (_, partitions), *others = _routes(mode, n_max).items()
        for n in range(1, n_max + 1):
            report, expected = CheckReport(f"moments {mode} n={n}"), partitions(n)
            for name, route in others:
                report.record(route(n) == expected, name)
            yield report


def _check_fock(n_max: int):
    identity = [[1, 0], [0, 1]]
    yield check_commutation(12)
    for q, t in [(Fraction(1, 3), Fraction(1, 2)), (Fraction(-1, 4), Fraction(2, 3))]:
        yield check_adjointness(3, identity, q, t)
    for q, t in [
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(-1, 4), Fraction(1, 2)),
        (Fraction(0), Fraction(1)),
        (Fraction(9, 10), Fraction(1)),
    ]:
        yield check_gram_positivity(4, identity, q, t)


def _check_orthopoly(n_max: int):
    n_ortho = min(n_max, 6)
    for _, preset_fn in MODES.values():
        preset = preset_fn()
        yield check_orthogonality(preset, n_ortho, moments_by_motzkin(preset, 2 * n_ortho))
    yield check_charlier_fock_identity(min(n_max, 8))


def _check_poisson_limit(n_max: int):
    yield poisson_limit_check(min(n_max, 6), Fraction(1), [10, 100, 1000])


def _check_cards(n_max: int):
    """Each arrangement induces a distinct partition of {1..n}, with the (lambda,
    q, t) = (blocks, rc, rn) the partition search gives it, and every one occurs."""
    for n in range(1, min(n_max, 7) + 1):
        report, seen = CheckReport(f"cards bijection n={n}"), set()
        expected = {p.rgs: p.statistics[:3] for p in enumerate_partitions(n)}
        for text, _, owner, exps in _expansion_states(_contributor_letter_stream(n)):
            report.record(exps == expected.get(owner) and owner not in seen, text)
            seen.add(owner)
        report.record(len(seen) == len(expected), "count")
        yield report


#: ``verify``'s checks in ``--suite all`` order: (suite, check, failed).  ``check(n_max)``
#: yields CheckReports, each printed as ``str(report)`` if ``failed`` is None, else as
#: ``name: ok`` or as ``name: `` and ``failed`` filled from the report's failures.
CHECKS = [
    ("moments", _check_moments, "MISMATCH {}"),
    ("fock", _check_fock, None),
    ("orthopoly", _check_orthopoly, None),
    ("orthopoly", _check_poisson_limit, "FAILED"),
    ("cards", _check_cards, "MISMATCH"),
]
SUITES = list(dict.fromkeys(suite for suite, _, _ in CHECKS))


def cmd_verify(args) -> int:
    failures = []
    for suite, check, failed in CHECKS:
        for report in check(args.n_max) if args.suite in ("all", suite) else ():
            print(report if failed is None else
                  f"{report.name}: {'ok' if report.passed else failed.format(report.failures)}")
            if not report.passed:
                failures.append(report.name)
    if failures:
        print(f"verification failed: {failures}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def cmd_word(args) -> int:
    gauge, _ = MODES[args.mode]
    word = OperatorWord.from_string(args.word)
    value = vacuum_expectation_word(word, gauge)
    if args.output == "json":
        print(_JSON.encode({"schema": SCHEMA, "word": word.letters,
                            "poly": value.to_json_dict(), "canonical": value.canonical_str()}))
    else:
        print(value.canonical_str())
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared for the life of
    the process: every ``main`` call parses with the same tree, which holds no
    per-request state.  ``commands`` maps each command to its subparser."""
    parser = argparse.ArgumentParser(
        prog="qtmoments",
        description="Exact cross-verified moments of a two-parameter deformed Poisson model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, outputs=("json", "pretty")):
        p.add_argument("--mode", choices=sorted(MODES), default="strict",
                       help="nesting convention: strict (scalar lambda) or covered "
                            "(scalar lambda*t^N)")
        p.add_argument("--output", choices=outputs, default="pretty")

    p = sub.add_parser("moments", help="moment polynomial by one or all methods")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=[*_routes("strict", 0), "all"], default="all")
    p.add_argument("--q", type=rational, default=None)
    p.add_argument("--t", type=rational, default=None)
    p.add_argument("--lambda", dest="lam", type=rational, default=None)
    add_common(p, ("json", "csv", "pretty"))
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("partitions", help="list partitions with their statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", choices=["json", "pretty"], default="json")
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser(
        "charlier",
        help="orthogonal polynomial table, or a rational moment table when "
             "--q/--t/--lambda are given",
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--preset", choices=sorted(PRESETS), default="strict")
    p.add_argument("--q", type=rational, default=None)
    p.add_argument("--t", type=rational, default=None)
    p.add_argument("--lambda", dest="lam", type=rational, default=None)
    p.add_argument("--output", choices=["json", "csv", "pretty"], default="pretty")
    p.set_defaults(func=cmd_charlier)

    p = sub.add_parser("cards", help="dump card arrangements")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=int, default=None)
    source.add_argument("--word", type=str, default=None,
                        help="one operator word over C,A,N,S (leftmost applied last)")
    add_common(p)
    p.set_defaults(func=cmd_cards)

    p = sub.add_parser("cfrac", help="continued-fraction series and rendering")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--preset", choices=sorted(PRESETS), default="strict")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--output", choices=["json", "pretty"], default="pretty")
    p.set_defaults(func=cmd_cfrac)

    p = sub.add_parser("binomial", help="rational binomial moments")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m", type=rational, required=True)
    p.add_argument("--p", type=rational, required=True)
    p.add_argument("--q", type=rational, default=Fraction(1, 3))
    p.add_argument("--t", type=rational, default=Fraction(2, 3))
    p.add_argument("--output", choices=["json", "csv", "pretty"], default="pretty")
    p.set_defaults(func=cmd_binomial)

    p = sub.add_parser("word", help="vacuum expectation of one operator word")
    p.add_argument("--word", type=str, required=True)
    add_common(p)
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("verify", help="run the cross-check matrix")
    p.add_argument("--suite", choices=["all", *SUITES], default="all")
    p.add_argument(
        "--n-max", type=int, default=8,
        help="largest n to check; moments use it as given, cards stop at 7, "
        "orthogonality and the Poisson limit at 6, charlier-fock at 8, "
        "and the fock suite ignores it",
    )
    p.set_defaults(func=cmd_verify)

    parser.commands = sub.choices
    return parser


def _parse_args(parser, argv: list) -> argparse.Namespace:
    """``parser.parse_args(argv)``, without the top-level parse when ``argv`` names a command."""
    if not argv or argv[0] not in parser.commands:
        return parser.parse_args(argv)
    args, extras = parser.commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one request; the parser is built once per process and reused.  Every
    message and exit code is the tree's, though a command's subparser reads it."""
    parser = build_parser()
    args = _parse_args(parser, sys.argv[1:] if argv is None else argv)

    if args.command in ("moments", "charlier"):
        given = {"q": args.q, "t": args.t, "lambda": args.lam}
        if any(v is not None for v in given.values()) and None in given.values():
            parser.error("give all of --q, --t, --lambda or none")
        args.point = None if args.q is None else given
        if args.command == "charlier" and args.point is None and args.output == "csv":
            parser.error("charlier --output csv needs --q, --t and --lambda")
    if args.command in ("moments", "partitions", "cards") and args.n is not None and args.n < 1:
        parser.error("--n must be >= 1")
    if args.command == "verify" and args.n_max < 1:
        parser.error("--n-max must be >= 1")

    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit flush
        return 0
    except ValueError as exc:  # every rejected argument, the model's own errors included
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
