"""Command-line front end: stats tables, identity verifiers, bijections.

Exit codes are a contract: 0 for MATCH / success, 1 for MISMATCH,
2 for usage or runtime errors.  JSON output carries ``schema: 1``.
The enumeration budget defaults to 10^6 elements and can be overridden
with the PROJSTAT_BUDGET environment variable or --budget.

Every argument is declared once, in ``_MAIN`` (``--budget`` and the
command) and ``_COMMANDS`` (each command's positionals and options), and
:func:`_parse` reads argv by that table as argparse read it.  ``--budget``
goes before the command.  After it, options come before or after the
positionals, which are one run of tokens (an option after the first one
leaves the later ones unset, as in argparse).  An option is written
``--name value`` or ``--name=value``, a long name may be cut to any unique
prefix, a value may be ``-`` or look like a negative number, the last of
a repeated option wins, and every token after ``--`` is a positional.
``-h`` prints the usage, the description and each argument's help and
choices, in this module's layout; a usage error prints the usage and
``projstat <command>: error: <message>`` and exits 2.

``verify`` takes its flags from the verifier signatures in
``identities.VERIFIERS``, read only when a ``verify`` call parses: each
parameter is a flag (``--caps`` is another name for ``--qmax``), each
default comes from the signature, a parameter without one is required, and
a flag the chosen verifier does not take is refused.

``stats --dist --format json`` writes each row from one template, the
bytes ``json.dumps(sort_keys=True)`` prints, without a dict per row.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from types import SimpleNamespace

from .bijections import bipartite_from_tuple, nvec_decode, nvec_encode, order_involution
from .groups import ascii_digits, format_window, make_group, parse_group, parse_int, parse_window
from .identities import REQUIRED, VERIFIERS, parameters
from .rsk import rs_correspondence, rs_transpose_map, tableau_descents
from .stats import bn_descent_split, des_set, distribution, stat_record


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII digits, as the group and window parsers take
    them; the empty text is the empty list."""
    parts = [part.strip() for part in text.split(",")] if text else []
    if not all(map(ascii_digits, parts)):
        raise ValueError(f"expected comma-separated ASCII digits, got {text!r}")
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


# The declarations are plain namespaces: a namedtuple class costs the
# import more than the whole table.
def _arg(name, *aliases, dest=None, type=str, const=None, default=None, choices=(), required=False, help=""):
    """One declared argument.  A name without a leading "-" is a positional,
    filled in declaration order, and a required one must be given.  Any
    other name is an option, also spelt as its aliases, which reads one
    value by ``type`` or, when it has a ``const``, reads none and stores the
    const.  Either stores into ``dest`` (default: the name without dashes),
    which holds ``default`` until then; a value outside nonempty ``choices``
    is refused."""
    return SimpleNamespace(
        name=name, aliases=aliases, dest=dest or name.lstrip("-"), type=type, const=const,
        default=default, choices=choices, required=required, help=help,
    )


def _command(help: str, args: tuple, description: str = "") -> SimpleNamespace:
    """A command: its help in the command list, the arguments (an entry may
    also be a function that returns arguments, called when the command
    parses), and the description its own help shows (default: the help)."""
    return SimpleNamespace(help=help, args=args, description=description or help)


_HELP = _arg("-h", "--help", const=True, help="show this help message and exit")
_FORMAT = _arg("--format", choices=("table", "json", "csv"), default="table")


def _verify_options() -> list:
    """The integer flags of ``verify``, one per verifier parameter."""
    return [
        _arg(f"--{name}", *(("--caps",) if name == "qmax" else ()),
             type=_int_list if name == "parts" else parse_int)
        for name in _verify_flags()
    ]


# Every argument of every command.  Only a ``verify`` call reads the
# verifier signatures, through ``_verify_options``.
_COMMANDS = {
    "stats": _command("statistics of one element or a distribution", (
        _arg("group", required=True, help="group descriptor, e.g. G(6,2,3,8)"),
        _arg("element", help="window notation, e.g. [2^2,1,3]"),
        _arg("--dist", const=True, default=False, help="force the distribution table"),
        _FORMAT,
    )),
    "verify": _command(
        "run one identity verifier",
        (
            _arg("identity", choices=tuple(sorted(VERIFIERS)), required=True),
            _verify_options,
            _FORMAT,
            _arg("--json", const="json", dest="format", help="same as --format json"),
        ),
        "Flags are the verifier's parameters; its signature holds the defaults.",
    ),
    "bijection": _command("apply one of the explicit bijections", (
        _arg("kind", choices=("nvec", "bipartite", "order-involution", "rs", "rs-transpose"),
             required=True),
        _arg("element", help="window notation input"),
        _arg("--group", help="group descriptor (default: B_n)"),
        _arg("--f", help="comma-separated vector for nvec"),
        _arg("--lam", default="", help="partition, e.g. 1,0 (default: empty)"),
        _arg("--mu", default="", help="partition, e.g. 0,0 (default: empty)"),
        _arg("--h", type=parse_int, default=0),
        _arg("--k", type=parse_int, default=0),
        _FORMAT,
    )),
}
_COMMAND = _arg("command", choices=tuple(_COMMANDS), required=True)
_MAIN = _command("", (
    _arg("--budget", type=parse_int,
         help="max group order to enumerate (default 10^6 or PROJSTAT_BUDGET)"),
    _COMMAND,
), "Exact descent statistics and identity verifiers for G(r,p,s,n).")


def _is_option(arg) -> bool:
    return arg.name[0] == "-"


def _metavar(arg) -> str:
    if arg.choices:
        return "{" + ",".join(arg.choices) + "}"
    return arg.dest.upper() if _is_option(arg) else arg.name


def _spelling(arg, name: str) -> str:
    return name if arg.const is not None else f"{name} {_metavar(arg)}"


def _label(arg) -> str:
    """How an error names the argument."""
    return "/".join((arg.name, *arg.aliases)) if _is_option(arg) else arg.dest


def _usage(prog: str, args) -> str:
    words = [f"usage: {prog} [-h]", *(f"[{_spelling(a, a.name)}]" for a in args if _is_option(a))]
    for arg in args:
        if not _is_option(arg):
            words.append(_metavar(arg) if arg.required else f"[{_metavar(arg)}]")
    return " ".join(words)


def _help(prog: str, command, args) -> str:
    rows = [(_metavar(a), a.help) for a in args if not _is_option(a)]
    if command is _MAIN:
        rows += [(f"  {name}", sub.help) for name, sub in _COMMANDS.items()]
    for arg in (_HELP, *filter(_is_option, args)):
        rows.append((", ".join(_spelling(arg, n) for n in (arg.name, *arg.aliases)), arg.help))
    width = min(max(len(left) for left, _ in rows), 24)  # a longer one puts its help below
    body = "\n".join(
        (f"  {left:{width}}  {text}" if len(left) <= width else f"  {left}\n  {'':{width}}  {text}").rstrip()
        for left, text in rows
    )
    return f"{_usage(prog, args)}\n\n{command.description}\n\n{body}"


def _option(token: str, options: dict):
    """What argparse reads a token as: None for a positional or a value,
    else (option, the value written into the token or None), with None
    for the option when no option matches."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return options[token], None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return options[name], value
    if token[1] == "-":  # a long option, abbreviated to a prefix
        hits, value = [n for n in options if n.startswith(name)], value if eq else None
    else:  # -hVALUE
        hits, value = [token[:2]] if token[:2] in options else [], token[2:]
    if len(hits) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return options[hits[0]], value
    # a negative number or a text with a space is a value; no long option
    # looks like a number, so they skip the regex (compiled on first use)
    if " " in token or token[1] != "-" and re.match(r"^-\d+$|^-\d*\.\d+$", token):
        return None
    return None, None


def _value(arg, text: str):
    try:
        value = arg.type(text)
    except ValueError as exc:
        raise ValueError(f"argument {_label(arg)}: {exc}") from None
    if arg.choices and value not in arg.choices:
        choices = ", ".join(map(repr, arg.choices))
        raise ValueError(f"argument {_label(arg)}: invalid choice: {value!r} (choose from {choices})")
    return value


def _read(prog: str, command, tokens, values: dict, extras: list) -> int:
    """Read tokens by the command's arguments into values, left to right,
    and return how many were read.  The top level stops after the command
    name.  Unknown tokens go to extras, refused once all is read.  The
    positionals are one run of tokens: an option after the first leaves
    the optional ones unset, and a later positional is unknown."""
    args = [arg for item in command.args for arg in (item() if callable(item) else [item])]
    options = {n: a for a in (_HELP, *args) if _is_option(a) for n in (a.name, *a.aliases)}
    positionals = [a for a in args if not _is_option(a)]
    for arg in args:
        values.setdefault(arg.dest, arg.default)
    try:
        # every token after the first "--" is a positional; argparse reads a
        # "--" before the command as the command's name
        cut = tokens.index("--") if "--" in tokens else len(tokens)
        found = [_option(token, options) for token in tokens[:cut]] + [None] * (len(tokens) - cut)
        i, run = 0, False
        while i < len(tokens):
            token, hit = tokens[i], found[i]
            i += 1
            if i - 1 == cut and command is not _MAIN:
                continue
            if hit is None:
                if not positionals:
                    extras.append(token)
                else:
                    arg = positionals.pop(0)
                    values[arg.dest] = _value(arg, token)
                    if arg is _COMMAND:
                        return i
                run = True
                continue
            if run:
                positionals, run = [a for a in positionals if a.required], False
            arg, value = hit
            if arg is None:
                extras.append(token)
            elif arg.const is not None:
                if value is not None:
                    raise ValueError(f"argument {_label(arg)}: ignored explicit argument {value!r}")
                if arg is _HELP:
                    print(_help(prog, command, args))
                    raise SystemExit(0)
                values[arg.dest] = arg.const
            else:
                if value is None:
                    if i in (len(tokens), cut) or found[i] is not None:
                        raise ValueError(f"argument {_label(arg)}: expected one argument")
                    value, i = tokens[i], i + 1
                values[arg.dest] = _value(arg, value)
        missing = [a.dest for a in positionals if a.required]
        if missing:
            raise ValueError(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
        return i
    except ValueError as exc:
        print(_usage(prog, args), f"{prog}: error: {exc}", sep="\n", file=sys.stderr)
        raise SystemExit(2) from None


def _parse(argv) -> SimpleNamespace:
    """The values of one call's arguments; a usage error exits 2, and -h
    prints the help and exits 0."""
    values, extras = {}, []
    read = _read("projstat", _MAIN, argv, values, extras)
    name = values["command"]
    _read(f"projstat {name}", _COMMANDS[name], argv[read:], values, extras)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
