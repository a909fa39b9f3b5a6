"""Command-line front end: stats tables, identity verifiers, bijections.

Exit codes are a contract: 0 for MATCH / success, 1 for MISMATCH,
2 for usage or runtime errors.  JSON output carries ``schema: 1``.
The enumeration budget defaults to 10^6 elements and can be overridden
with the PROJSTAT_BUDGET environment variable or --budget.

``verify`` is built from the verifier signatures in ``identities.VERIFIERS``:
each parameter is a flag (``--caps`` is another name for ``--qmax``), each
default comes from the signature, a parameter without one is required, and
a flag the chosen verifier does not take is refused.

A call pays for its own command only: :func:`build_parser` makes the three
subcommands with their help, and each adds its arguments the first time it
parses (:class:`_Subcommand`), so ``stats`` never builds the verifier
flags.  ``stats --dist --format json`` writes each row from one template,
the bytes ``json.dumps(sort_keys=True)`` prints, without a dict per row.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .bijections import bipartite_from_tuple, nvec_decode, nvec_encode, order_involution
from .groups import ascii_digits, format_window, make_group, parse_group, parse_int, parse_window
from .identities import REQUIRED, VERIFIERS, parameters
from .rsk import rs_correspondence, rs_transpose_map, tableau_descents
from .stats import bn_descent_split, des_set, distribution, stat_record


def _int(text: str) -> int:
    """An integer flag, by :func:`~projstat.groups.parse_int`."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII digits, as the group and window parsers take
    them; the empty text is the empty list."""
    parts = [part.strip() for part in text.split(",")] if text else []
    if not all(map(ascii_digits, parts)):
        raise argparse.ArgumentTypeError(f"expected comma-separated ASCII digits, got {text!r}")
    return tuple(int(part) for part in parts)


def _emit(args, payload: dict, rows=None, header=("field", "value"), table_header=True) -> None:
    """Print the payload as JSON, or the rows (default: the payload's
    fields) as CSV or a table; a list or bool cell is JSON-encoded."""
    if args.format == "json":
        print(json.dumps({"schema": 1, **payload}, sort_keys=True))
        return
    rows = [[json.dumps(v) if isinstance(v, (list, bool)) else v for v in row]
            for row in (payload.items() if rows is None else rows)]
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        print(buf.getvalue().rstrip("\n"))
        return
    cols = [header, *rows] if table_header else rows
    widths = [max(len(str(row[i])) for row in cols) for i in range(len(cols[0]))]
    lines = ("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip() for row in cols)
    print("\n".join(lines))


# one row of ``stats --dist`` JSON, its keys in json.dumps(sort_keys=True) order
_DIST_ROW = '{"col": %d, "count": %d, "des": %d, "fmaj": %d}'


def cmd_stats(args) -> int:
    group = parse_group(args.group)
    if args.element and args.dist:
        raise ValueError("--dist lists a whole group; drop the element argument")
    if args.element:
        g = parse_window(args.element, group)
        rec = stat_record(g).to_json()
        payload = {"group": str(group), "element": format_window(g), "stats": rec}
        _emit(args, payload, rec.items(), ("stat", "value"))
        return 0
    rows = sorted(distribution(group, ("des", "fmaj", "col"), args.budget).items())
    if args.format == "json":  # the bytes of _emit's json.dumps, with no dict per row
        dist = ", ".join([_DIST_ROW % (c, cnt, d, f) for (d, f, c), cnt in rows])
        print(f'{{"distribution": [{dist}], "group": {json.dumps(str(group))}, "schema": 1}}')
        return 0
    _emit(args, {}, [(*key, cnt) for key, cnt in rows], ("des", "fmaj", "col", "count"))
    return 0


def _verify_flags() -> dict:
    """Every verifier parameter but ``budget``: the flags of ``verify``."""
    return dict.fromkeys(
        name
        for verifier in VERIFIERS.values()
        for name in parameters(verifier)
        if name != "budget"
    )


def cmd_verify(args) -> int:
    params = parameters(VERIFIERS[args.identity])
    kwargs = {n: getattr(args, n) for n in _verify_flags() if getattr(args, n) is not None}
    for name, value in kwargs.items():
        if name not in params:
            raise ValueError(f"{args.identity} takes no --{name}")
        if name in ("tmax", "qmax", "amax", "umax") and value < 1:
            raise ValueError(f"--{name} must be positive, got {value}")
    for name, default in params.items():
        if default is REQUIRED and name not in kwargs:
            raise ValueError(f"{args.identity} needs --{name}")
    if "budget" in params:
        kwargs["budget"] = args.budget
    report = VERIFIERS[args.identity](**kwargs)
    rows = [
        ("identity", report.identity),
        ("params", json.dumps(report.params, sort_keys=True)),
        ("region", json.dumps(report.region, sort_keys=True)),
        ("outcome", report.outcome),
        ("count", report.element_count),
        ("millis", round(report.elapsed_ms, 3)),
    ]
    if report.first_mismatch:
        rows.append(("firstMismatch", json.dumps(report.first_mismatch)))
    rows += [("note", note) for note in report.notes]
    _emit(args, report.to_json(), rows, table_header=False)
    return 0 if report.matched else 1


def cmd_bijection(args) -> int:
    kind = args.kind
    needs = {"nvec": ("group", "f"), "bipartite": ("group", "element")}.get(kind, ("element",))
    for name in needs:
        if getattr(args, name) is None:
            what = "an element" if name == "element" else f"--{name}"
            raise ValueError(f"{kind} needs {what}")
    if args.group or "group" in needs:
        group = parse_group(args.group)
    else:  # B_n, n from the window length
        group = make_group(2, 1, 1, args.element.count(",") + 1)
    if kind == "nvec":
        f = _int_list(args.f)
        g, lam, h = nvec_encode(f, group)
        payload = {
            "kind": kind,
            "f": list(f),
            "element": format_window(g),
            "lambda": list(lam),
            "h": h,
            "roundTrip": list(nvec_decode(g, lam, h)) == list(f),
        }
    else:
        g = parse_window(args.element, group)
        payload = {"kind": kind, "element": format_window(g)}
    if kind == "bipartite":
        bp = bipartite_from_tuple(g, _int_list(args.lam), _int_list(args.mu), args.h, args.k)
        payload |= {
            "row1": list(bp.row1),
            "row2": list(bp.row2),
            "columnSumClass": bp.column_sum_class(group.r, group.s),
        }
    elif kind == "order-involution":
        image = order_involution(g)
        payload |= {
            "image": format_window(image),
            "desPrimeOfElement": sorted(des_set(g, "PRIME")),
            "desOfImage": sorted(des_set(image, "COLOR")),
            "colPreserved": stat_record(g).col == stat_record(image).col,
        }
    elif kind in ("rs", "rs-transpose"):
        ps, qs = rs_correspondence(g)
        for name, tableaux in (("P", ps), ("Q", qs)):
            payload |= {f"{name}{c}": [list(row) for row in t] for c, t in enumerate(tableaux)}
        if kind == "rs":
            payload |= {f"desQ{c}": sorted(tableau_descents(q)) for c, q in enumerate(qs)}
        else:
            image = rs_transpose_map(g)
            payload |= {
                "image": format_window(image),
                "negPreserved": sorted(bn_descent_split(g).neg)
                == sorted(bn_descent_split(image).neg),
                "desTransported": des_set(g, "COLOR") == des_set(image, "PRIME"),
            }
    _emit(args, payload)
    return 0


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments the first time it
    parses: ``fill(parser)`` runs once, so a call builds the arguments of
    its own command only."""

    def __init__(self, *args, fill, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)


def _stats_arguments(parser) -> None:
    parser.add_argument("group", help="group descriptor, e.g. G(6,2,3,8)")
    parser.add_argument("element", nargs="?", help="window notation, e.g. [2^2,1,3]")
    parser.add_argument("--dist", action="store_true", help="force the distribution table")
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")


def _verify_arguments(parser) -> None:
    parser.add_argument("identity", choices=sorted(VERIFIERS))
    for name in _verify_flags():
        aliases = ("--caps",) if name == "qmax" else ()
        parser.add_argument(f"--{name}", *aliases, type=_int_list if name == "parts" else _int)
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parser.add_argument(
        "--json", action="store_const", const="json", dest="format", help="same as --format json"
    )


def _bijection_arguments(parser) -> None:
    parser.add_argument(
        "kind", choices=("nvec", "bipartite", "order-involution", "rs", "rs-transpose")
    )
    parser.add_argument("element", nargs="?", help="window notation input")
    parser.add_argument("--group", default=None, help="group descriptor (default: B_n)")
    parser.add_argument("--f", default=None, help="comma-separated vector for nvec")
    parser.add_argument("--lam", default="", help="partition, e.g. 1,0 (default: empty)")
    parser.add_argument("--mu", default="", help="partition, e.g. 0,0 (default: empty)")
    parser.add_argument("--h", type=_int, default=0)
    parser.add_argument("--k", type=_int, default=0)
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projstat",
        description="Exact descent statistics and identity verifiers for G(r,p,s,n).",
    )
    parser.add_argument(
        "--budget",
        type=_int,
        default=None,
        help="max group order to enumerate (default 10^6 or PROJSTAT_BUDGET)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    sub.add_parser(
        "stats", help="statistics of one element or a distribution", fill=_stats_arguments
    )
    sub.add_parser(
        "verify",
        help="run one identity verifier",
        description="Flags are the verifier's parameters; its signature holds the defaults.",
        fill=_verify_arguments,
    )
    sub.add_parser(
        "bijection", help="apply one of the explicit bijections", fill=_bijection_arguments
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process; parsing leaves no
    state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a rebound cmd_* is the one run
        return globals()[f"cmd_{args.command}"](args)
    except BrokenPipeError:  # pragma: no cover
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
