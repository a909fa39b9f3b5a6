import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from projstat import cli
from projstat.cli import VERIFIERS, main
from projstat.groups import BUDGET_ENV_VAR, parse_group, parse_int
from projstat.stats import distribution

# `projstat verify ... --json` for every verify command in README.md and in
# this file, one default run per identity and a few with explicit caps: the
# exit code, and the report without its "millis" or the error message.
GOLDEN = json.loads(Path(__file__).with_name("golden_verify_reports.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stats_single_element(capsys):
    code, out, _ = run(
        capsys, "stats", "G(6,2,3,8)", "[2^2,7^3,6^3,4^5,8^1,1^1,5^3,3^2]"
    )
    assert code == 0
    assert "des      15" in out
    assert "fdes     30" in out
    assert "col      6" in out
    assert "fmaj     106" in out


def test_stats_single_row_group(capsys):
    code, out, _ = run(capsys, "stats", "G(1,1,1,1)")
    assert code == 0
    assert out.splitlines()[1].split() == ["0", "0", "0", "1"]


def test_stats_distribution_b2(capsys):
    code, out, _ = run(capsys, "stats", "G(2,1,1,2)", "--dist", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert sum(row["count"] for row in payload["distribution"]) == 8
    fmaj_poly = {}
    for row in payload["distribution"]:
        fmaj_poly[row["fmaj"]] = fmaj_poly.get(row["fmaj"], 0) + row["count"]
    # [2]_q [4]_q = (1+q)(1+q+q^2+q^3) = 1 + 2q + 2q^2 + 2q^3 + q^4
    assert fmaj_poly == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}


def test_stats_csv(capsys):
    code, out, _ = run(capsys, "stats", "G(2,1,1,1)", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "des,fmaj,col,count"
    assert lines[1:] == ["0,0,0,1", "1,1,1,1"]


@pytest.mark.parametrize(
    "text", ["G(1,1,1,1)", "G(1,1,1,7)", "G(2,1,1,5)", "G(4,1,2,4)", "G(6,2,3,4)", "G(6,6,2,4)"]
)
def test_stats_dist_prints_the_sorted_distribution(capsys, text):
    # JSON is written from a row template: it must be the bytes json.dumps prints
    group = parse_group(text)
    hist = distribution(group, ("des", "fmaj", "col"))
    rows = [(d, f, c, cnt) for (d, f, c), cnt in sorted(hist.items())]
    dist = [{"des": d, "fmaj": f, "col": c, "count": cnt} for d, f, c, cnt in rows]
    want = json.dumps({"schema": 1, "group": str(group), "distribution": dist}, sort_keys=True)
    assert run(capsys, "stats", text, "--dist", "--format", "json") == (0, want + "\n", "")
    cells = [["des", "fmaj", "col", "count"], *([str(v) for v in row] for row in rows)]

    code, out, _ = run(capsys, "stats", text, "--dist", "--format", "csv")
    assert (code, list(csv.reader(io.StringIO(out)))) == (0, cells)
    code, out, _ = run(capsys, "stats", text, "--dist")
    assert (code, [line.split() for line in out.splitlines()]) == (0, cells)


def test_verify_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "character-fmaj",
        "--r", "2", "--p", "1", "--s", "1", "--n", "3", "--eps", "-1", "--k", "1",
    )
    assert code == 0
    assert "MATCH" in out

    code, _, err = run(
        capsys, "verify", "character-fmaj",
        "--r", "6", "--p", "2", "--s", "3", "--n", "4", "--k", "1",
    )
    assert code == 2
    assert "error:" in err

    # rank 0 is one element, as for the other Carlitz verifiers
    code, out, _ = run(capsys, "verify", "fdes-trivariate", "--r", "3", "--n", "0", "--json")
    assert (code, json.loads(out)["count"]) == (0, 1)


def test_verify_carlitz_fdes_classical(capsys):
    code, out, _ = run(
        capsys, "verify", "carlitz-fdes",
        "--r", "1", "--p", "1", "--s", "1", "--n", "3", "--tmax", "6",
    )
    assert code == 0


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "hilbert",
        "--r", "1", "--p", "1", "--s", "1", "--nmax", "3", "--caps", "6", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["outcome"] == "MATCH"
    assert payload["firstMismatch"] is None
    assert payload["params"]["nmax"] == 3


def test_verify_signed_multinomial_parts(capsys):
    code, _, _ = run(capsys, "verify", "signed-multinomial", "--n", "4", "--parts", "2,2")
    assert code == 0


def test_verify_signed_multinomial_ignores_zero_parts(capsys):
    # 3000 empty blocks hold no values: one filling, the identity, of sign 1
    parts = [0] * 3000 + [3]
    argv = ["--n", "3", "--parts", ",".join(map(str, parts)), "--json"]
    code, out, err = run(capsys, "verify", "signed-multinomial", *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["outcome"], report["count"], report["params"]["parts"]) == ("MATCH", 1, parts)


def test_bijection_rs(capsys):
    code, out, _ = run(capsys, "bijection", "rs", "[5,-2,-1,-4,6,-3,-7]", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["P0"] == [[5, 6]]
    assert payload["P1"] == [[1, 3, 7], [2, 4]]
    assert payload["Q0"] == [[1, 5]]
    assert payload["Q1"] == [[2, 4, 7], [3, 6]]


def test_bijection_rs_prints_one_tableau_per_color(capsys):
    code, out, _ = run(
        capsys, "bijection", "rs", "[1^2,3,2^1]", "--group", "G(3,1,1,3)", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [payload[f"P{c}"] for c in range(3)] == [[[3]], [[2]], [[1]]]
    assert [payload[f"Q{c}"] for c in range(3)] == [[[2]], [[3]], [[1]]]
    assert [payload[f"desQ{c}"] for c in range(3)] == [[], [], []]
    code, _, err = run(capsys, "bijection", "rs-transpose", "[1^2,3,2^1]", "--group", "G(3,1,1,3)")
    assert code == 2
    assert "Robinson-Schensted here is for B_n only, not G(3,1,1,3)" in err


def test_bijection_rs_transpose(capsys):
    code, out, _ = run(capsys, "bijection", "rs-transpose", "[5,-2,-1,-4,6,-3,-7]")
    assert code == 0
    assert "[5,3^1,7^1,1^1,6,4^1,2^1]" in out
    assert "negPreserved    true" in out


def test_bijection_nvec(capsys):
    code, out, _ = run(
        capsys, "bijection", "nvec", "--group", "G(2,1,1,2)", "--f", "3,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["element"] == "[1^1,2^1]"
    assert payload["lambda"] == [1, 0]
    assert payload["h"] == 0
    assert payload["roundTrip"] is True


def test_bijection_bipartite(capsys):
    code, out, _ = run(
        capsys, "bijection", "bipartite", "[1^1,2^1]", "--group", "G(2,1,1,2)",
        "--lam", "1,0", "--mu", "0,0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["row1"] == [3, 1]
    assert payload["row2"] == [1, 1]


def test_bijection_bipartite_defaults_to_empty_partitions(capsys):
    code, out, _ = run(capsys, "bijection", "bipartite", "[1,2]", "--group", "G(2,1,1,2)")
    assert code == 0
    assert "row1            [0, 0]" in out.splitlines()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bijection", "nvec", "--group", "G(2,1,1,2)", "--f", ""], "need 2 nonnegative entries, got ()"),
        (["verify", "signed-multinomial", "--n", "3", "--parts", ""], "() is not a composition of 3"),
    ],
)
def test_an_empty_int_list_reaches_its_own_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_bijection_order_involution(capsys):
    code, out, _ = run(
        capsys, "bijection", "order-involution", "[1^1,2^1]", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["image"] == "[2^1,1^1]"
    assert payload["colPreserved"] is True


def test_budget_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("PROJSTAT_BUDGET", "4")
    code, _, err = run(capsys, "stats", "G(2,1,1,2)")
    assert code == 2
    assert "budget" in err
    code, out, _ = run(capsys, "--budget", "100", "stats", "G(2,1,1,2)")
    assert code == 0


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "stats", "G(2,1,1,2)", "[1,1]")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "group, element, message",
    [
        ("G(1,1,1,3)", "[1^1,2,3]", "G(1,1,1,3) takes no color markers in '[1^1,2,3]'"),
        ("G(2,1,1,3)", "[1^0,2,3]", "color 0 is written without a marker in '[1^0,2,3]'"),
        ("G(2,1,1,3)", "[1^2,2,3]", "color 2 out of range [1, 1] in '[1^2,2,3]'"),
    ],
)
def test_window_color_errors_exit_2(capsys, group, element, message):
    code, out, err = run(capsys, "stats", group, element)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_mismatch_exits_1(capsys, monkeypatch):
    import projstat.cli as cli
    from projstat.identities import VerificationReport

    report = VerificationReport(
        identity="signed-wreath",
        params={"r": 2, "n": 1},
        region={"q": 2},
        outcome="MISMATCH",
        first_mismatch={"monomial": {"q": 1}, "lhs": 0, "rhs": 1},
        element_count=2,
        elapsed_ms=0.1,
    )
    # cli.VERIFIERS is the verifier registry; the CLI reads each signature
    monkeypatch.setitem(cli.VERIFIERS, "signed-wreath", lambda r, n=3, budget=None: report)
    code, out, _ = run(capsys, "verify", "signed-wreath", "--r", "2", "--n", "1")
    assert code == 1
    assert "MISMATCH" in out
    assert "firstMismatch" in out


# the field/value commands: every kind of bijection and the stats of one element
FIELD_VALUE_COMMANDS = [
    ["stats", "G(6,2,3,8)", "[2^2,7^3,6^3,4^5,8^1,1^1,5^3,3^2]"],
    ["bijection", "nvec", "--group", "G(2,1,1,2)", "--f", "3,1"],
    ["bijection", "bipartite", "[1^1,2^1]", "--group", "G(2,1,1,2)", "--lam", "1,0", "--mu", "0,0"],
    ["bijection", "order-involution", "[1^1,2^1]"],
    ["bijection", "rs", "[5,-2,-1,-4,6,-3,-7]"],
    ["bijection", "rs-transpose", "[5,-2,-1,-4,6,-3,-7]"],
]


@pytest.mark.parametrize("argv", FIELD_VALUE_COMMANDS, ids=lambda argv: argv[1])
def test_table_and_csv_rows_are_the_json_fields(capsys, argv):
    _, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    del payload["schema"]
    fields = payload["stats"] if argv[0] == "stats" else payload
    cells = {k: json.dumps(v) if isinstance(v, (list, bool)) else str(v) for k, v in fields.items()}
    header = ["stat" if argv[0] == "stats" else "field", "value"]

    code, out, _ = run(capsys, *argv, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert (code, rows[0], len(rows) - 1, dict(rows[1:])) == (0, header, len(cells), cells)

    code, out, _ = run(capsys, *argv, "--format", "table")
    lines = [line.split(None, 1) for line in out.splitlines()]
    assert (code, lines[0], len(lines) - 1, dict(lines[1:])) == (0, header, len(cells), cells)


# every call of main() parses by the same module-level declarations: nothing
# of a call may reach the next
def test_the_parser_keeps_nothing_between_calls(capsys, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    argv = ["stats", "G(2,1,1,3)", "--dist"]
    code, _, err = run(capsys, "--budget", "5", *argv)
    assert (code, "exceeds enumeration budget 5" in err) == (2, True)
    assert run(capsys, *argv)[0] == 0
    argv = ["verify", "lift", "--r", "2", "--n", "2"]
    code, out, _ = run(capsys, *argv, "--json")
    assert (code, json.loads(out)["outcome"]) == (0, "MATCH")
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[0]) == (0, "identity  lift")


def test_a_rebound_command_runs_after_the_parser_exists(capsys, monkeypatch):
    assert run(capsys, "stats", "G(2,1,1,1)")[0] == 0
    monkeypatch.setattr(cli, "cmd_stats", lambda args: 7)
    assert run(capsys, "stats", "G(2,1,1,1)")[0] == 7


# a call pays for its own command's arguments only: the verifier
# signatures are read when a verify call parses, never by stats
def test_only_a_verify_call_reads_the_verifier_flags(capsys, monkeypatch):
    calls = []
    real = cli._verify_flags
    monkeypatch.setattr(cli, "_verify_flags", lambda: calls.append(1) or real())
    assert run(capsys, "stats", "G(2,1,1,2)", "--dist")[0] == 0
    assert run(capsys, "bijection", "rs", "[1,2]")[0] == 0
    assert calls == []
    assert run(capsys, "verify", "lift", "--r", "2", "--n", "2")[0] == 0
    assert calls != []


@pytest.mark.parametrize(
    "command, flags",
    [
        ("stats", ["--dist", "--format"]),
        ("verify", [*(f"--{name}" for name in cli._verify_flags()), "--caps", "--format", "--json"]),
        ("bijection", ["--group", "--f", "--lam", "--mu", "--h", "--k", "--format"]),
    ],
)
def test_each_command_help_lists_every_flag(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: projstat {command} ")
    assert [flag for flag in flags if f"{flag} " not in out] == []


def _help_content(parser) -> list:
    """What a help text must show: every flag, positional, help string,
    choice set and description that the parser declares."""
    content = [parser.description] if parser.description else []
    for action in parser._actions:
        content += [*action.option_strings, action.help]
        if action.choices:
            content.append("{" + ",".join(action.choices) + "}")
        elif not action.option_strings:
            content.append(action.dest)
        if isinstance(action, argparse._SubParsersAction):
            content += [text for sub in action._get_subactions() for text in (sub.dest, sub.help)]
    return [text for text in content if text and text != argparse.SUPPRESS]


# help keeps its content, not the reference's layout
@pytest.mark.parametrize("command", [None, "stats", "verify", "bijection"])
def test_help_shows_everything_the_reference_help_shows(capsys, command):
    parser = build_parser()
    if command is not None:
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[command]
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: {parser.prog} ")
    assert [text for text in _help_content(parser) if text not in out] == []


def test_verify_json_flag_is_format_json(capsys):
    argv = ["verify", "lift", "--r", "2", "--n", "2"]
    args = cli._parse([*argv, "--json"])
    assert (hasattr(args, "json"), args.format) == (False, "json")
    # the last of --json and --format wins
    code, out, _ = run(capsys, *argv, "--json", "--format", "table")
    assert (code, out.splitlines()[0]) == (0, "identity  lift")
    code, out, _ = run(capsys, *argv, "--format", "table", "--json")
    assert (code, json.loads(out)["outcome"]) == (0, "MATCH")


@pytest.mark.parametrize("n", [300_000, 10**6])
def test_signed_multinomial_refuses_a_huge_filling_count_at_once(capsys, monkeypatch, n):
    # multinomial(n; n/2, n/2) >= 2^(n/2), so no factorial is computed
    monkeypatch.delenv("PROJSTAT_BUDGET", raising=False)
    start = time.perf_counter()
    result = run(capsys, "verify", "signed-multinomial", "--n", str(n), "--parts", f"{n // 2},{n // 2}")
    assert time.perf_counter() - start < 2
    assert result == (2, "", "error: filling count at least 1048576 exceeds enumeration budget 1000000\n")


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: " ".join(entry["argv"][1:-1]))
def test_verify_json_matches_golden(capsys, entry):
    code, out, err = run(capsys, *entry["argv"])
    assert code == entry["exit"]
    if "report" in entry:
        report = json.loads(out)
        del report["millis"]
        assert json.dumps(report, sort_keys=True) == json.dumps(entry["report"], sort_keys=True)
    else:
        assert err == entry["stderr"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["signed-multinomial", "--n", "3"], "error: signed-multinomial needs --parts"),
        (["six-stats", "--r", "2", "--n", "5"], "error: six-stats takes no --n"),
        (["carlitz-des", "--n", "2"], "error: carlitz-des needs --r"),
        (["character-fmaj", "--r", "2", "--caps", "4"], "error: character-fmaj takes no --qmax"),
        (["hilbert", "--r", "2", "--caps", "0"], "error: --qmax must be positive, got 0"),
    ],
)
def test_verify_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv, "--json")
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--budget", "1", "verify", "signed-multinomial", "--n", "16", "--parts", "8,8"],
            "error: filling count 12870 exceeds enumeration budget 1",
        ),
        (["verify", "carlitz-des", "--r", "2", "--p", "5", "--n", "0"], "error: p=5 does not divide r=2"),
        (["verify", "carlitz-fdes", "--r", "2", "--s", "4", "--n", "0"], "error: s=4 does not divide r=2"),
        # r is validated before gcd(ps, r) divides ps
        (["verify", "hilbert", "--r", "0", "--p", "0"], "error: r must be a positive integer, got 0"),
        (["verify", "six-stats", "--r", "0", "--p", "0"], "error: r must be a positive integer, got 0"),
        (["verify", "carlitz-des", "--r", "0", "--n", "0"], "error: r must be a positive integer, got 0"),
        (["verify", "carlitz-fdes", "--r", "0", "--n", "0"], "error: r must be a positive integer, got 0"),
        (
            ["verify", "carlitz-des", "--r", "4", "--n", "3", "--qmax", "3"],
            "error: caps q<=3, a<=3 leave nothing to compare",
        ),
        (
            ["verify", "fdes-trivariate", "--r", "4", "--n", "2", "--qmax", "3"],
            "error: qmax=3 is smaller than r/s=4",
        ),
        # the region is refused before the budget, the group before the region
        (
            ["--budget", "1", "verify", "carlitz-des", "--r", "4", "--n", "3", "--qmax", "3"],
            "error: caps q<=3, a<=3 leave nothing to compare",
        ),
        (
            ["verify", "carlitz-des", "--r", "2", "--s", "0", "--n", "3", "--qmax", "1"],
            "error: s must be a positive integer, got 0",
        ),
        (["verify", "six-stats", "--r", "2", "--nmax", "-3"], "error: nmax must be a nonnegative integer, got -3"),
        (["verify", "hilbert", "--r", "2", "--nmax", "-1"], "error: nmax must be a nonnegative integer, got -1"),
    ],
)
def test_verify_refusals_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out, err) == (2, "", message + "\n")


def test_each_identity_takes_only_its_parameters(capsys):
    import inspect

    from projstat.cli import VERIFIERS

    flags = {"r", "p", "s", "n", "nmax", "eps", "k", "parts", "tmax", "qmax", "amax", "umax"}
    for name, verifier in VERIFIERS.items():
        params = set(inspect.signature(verifier).parameters) - {"budget"}
        assert params <= flags, name
        for flag in sorted(flags - params):
            code, _, err = run(capsys, "verify", name, f"--{flag}", "1")
            assert (code, err) == (2, f"error: {name} takes no --{flag}\n")


def test_importing_the_cli_loads_neither_inspect_nor_dataclasses():
    # both cost more to import than the whole library; typing is not
    # checked, since site hooks may load it before projstat is imported.
    # Nor does a stats call load argparse, or the gettext and locale that
    # argparse's messages would pull in.
    code = (
        "import sys, projstat.cli, projstat\n"
        "print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))\n"
        "projstat.cli.main(['stats', 'G(2,1,1,2)', '--dist'])\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1], len(lines) > 2) == ("[]", "[]", True)


def test_stats_refuses_a_huge_rank_by_name(capsys):
    code, out, err = run(capsys, "stats", "G(1,1,1,300000)", "--dist")
    assert (code, out) == (2, "")
    assert err == (
        "error: G(1,1,1,300000): group order at least 3628800"
        " exceeds enumeration budget 1000000\n"
    )


def test_stats_refuses_a_huge_rank_r_without_printing_its_order(capsys):
    # the order 2 * 10^6000 is past the 4300 digits str() takes
    code, out, err = run(capsys, "stats", f"G({10**3000},1,1,2)")
    assert (code, out) == (2, "")
    assert err == (
        f"error: G({10**3000},1,1,2): group order at least 10^6000"
        " exceeds enumeration budget 1000000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bijection", "nvec", "--group", "G(2,1,1,2)", "--f", "\uff13,1"],
        ["bijection", "bipartite", "[1,2]", "--group", "G(2,1,1,2)", "--lam", "1,0", "--mu", "0,\u0660"],
        ["bijection", "bipartite", "[1,2]", "--group", "G(2,1,1,2)", "--lam", "1_0,0", "--mu", "0,0"],
    ],
)
def test_int_lists_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: expected comma-separated ASCII digits, got ")


def test_parts_take_ascii_digits_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "signed-multinomial", "--n", "3", "--parts", "\u0661,2"])
    assert exc.value.code == 2
    assert "argument --parts: expected comma-separated ASCII digits, got '\u0661,2'" in capsys.readouterr().err


# a usage error prints the usage line of the command it was read by, then
# "<prog>: error: <message>", and nothing on stdout
@pytest.mark.parametrize(
    "argv, prog, message",
    [
        (["stats", "G(2,1,1,2)", "--format", "xml"], "projstat stats",
         "argument --format: invalid choice: 'xml' (choose from 'table', 'json', 'csv')"),
        (["verify", "--r", "2"], "projstat verify", "the following arguments are required: identity"),
        (["bijection", "rs", "[1,2]", "[2,1]"], "projstat bijection", "unrecognized arguments: [2,1]"),
        (["nope"], "projstat",
         "argument command: invalid choice: 'nope' (choose from 'stats', 'verify', 'bijection')"),
    ],
)
def test_a_usage_error_prints_the_usage_and_the_message(capsys, argv, prog, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert (exc.value.code, out, error) == (2, "", f"{prog}: error: {message}")
    assert usage.startswith(f"usage: {prog} [-h] ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "signed-wreath", "--r", "\u0662", "--n", "2"], "--r"),
        (["verify", "signed-wreath", "--r", "2", "--n", "1_0"], "--n"),
        (["verify", "carlitz-des", "--r", "2", "--n", "2", "--tmax", "+4"], "--tmax"),
        (["verify", "character-fmaj", "--r", "2", "--eps", " 1"], "--eps"),
        (["verify", "character-fmaj", "--r", "2", "--k", "-"], "--k"),
        (["bijection", "bipartite", "[1,2]", "--group", "G(2,1,1,2)", "--h", "\uff11"], "--h"),
        (["bijection", "bipartite", "[1,2]", "--group", "G(2,1,1,2)", "--k", "1.0"], "--k"),
        (["--budget", "1_0", "stats", "G(2,1,1,2)"], "--budget"),
        (["--budget", "+10", "stats", "G(2,1,1,2)"], "--budget"),
        (["--budget", "\u0661\u0660", "stats", "G(2,1,1,2)"], "--budget"),
    ],
)
def test_integer_flags_take_ascii_digits_only(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer in ASCII digits, got " in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["\u0661\u0660", "1_0", "+10", " 10 "])
def test_budget_env_takes_ascii_digits_only(capsys, monkeypatch, raw):
    # int() reads each of these as 10, which G(2,1,1,2) (order 8) would pass
    monkeypatch.setenv("PROJSTAT_BUDGET", raw)
    code, out, err = run(capsys, "stats", "G(2,1,1,2)")
    assert (code, out, err) == (2, "", f"error: PROJSTAT_BUDGET must be an integer, got {raw!r}\n")


def test_integer_flags_take_a_minus_sign(capsys):
    code, out, _ = run(capsys, "verify", "character-fmaj", "--r", "2", "--n", "2", "--eps", "-1", "--json")
    report = json.loads(out)
    assert (code, report["outcome"], report["params"]["eps"]) == (0, "MATCH", -1)
    code, _, err = run(capsys, "--budget", "-1", "stats", "G(2,1,1,1)")
    assert (code, err) == (2, "error: G(2,1,1,1): group order 2 exceeds enumeration budget -1\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nvec", "--f", "3,1"], "nvec needs --group"),
        (["nvec", "--group", "G(2,1,1,2)"], "nvec needs --f"),
        (["bipartite", "[1,2]"], "bipartite needs --group"),
        (["bipartite", "--group", "G(2,1,1,2)"], "bipartite needs an element"),
        (["order-involution"], "order-involution needs an element"),
        (["rs"], "rs needs an element"),
        (["rs-transpose", "--group", "G(2,1,1,2)"], "rs-transpose needs an element"),
    ],
)
def test_bijection_names_a_missing_input(capsys, argv, message):
    code, out, err = run(capsys, "bijection", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# the texts read as the help flag of `stats`: -h, --help and the
# abbreviations of --help that no other option of stats shares
HELP_TEXTS = ("-h", "--h", "--he", "--hel", "--help")


@pytest.mark.parametrize("text", HELP_TEXTS)
def test_stats_help_flags_exit_0_with_the_usage(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["stats", text])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(max_size=16),
        st.text(alphabet=st.sampled_from("G(),0123456789 -_²١"), max_size=16),
    )
)
def test_stats_on_random_text_exits_2(text):
    from projstat.groups import parse_group

    assume(text not in HELP_TEXTS)  # the help, which exits 0 (tested above)
    try:
        parse_group(text)
    except ValueError:
        pass
    else:
        assume(False)  # a well-formed group is not random text
    try:
        code = main(["stats", text])
    except SystemExit as exc:  # a usage error, for text that looks like an option
        code = exc.code
    assert code == 2


# The argparse declaration the CLI parsed by before it read argv from its
# own table: a test-only reference that cli._parse must agree with.
def _int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return cli._int_list(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _stats_arguments(parser) -> None:
    parser.add_argument("group", help="group descriptor, e.g. G(6,2,3,8)")
    parser.add_argument("element", nargs="?", help="window notation, e.g. [2^2,1,3]")
    parser.add_argument("--dist", action="store_true", help="force the distribution table")
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")


def _verify_arguments(parser) -> None:
    parser.add_argument("identity", choices=sorted(VERIFIERS))
    for name in cli._verify_flags():
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
    sub = parser.add_subparsers(dest="command", required=True)
    _stats_arguments(
        sub.add_parser("stats", help="statistics of one element or a distribution")
    )
    _verify_arguments(
        sub.add_parser(
            "verify",
            help="run one identity verifier",
            description="Flags are the verifier's parameters; its signature holds the defaults.",
        )
    )
    _bijection_arguments(sub.add_parser("bijection", help="apply one of the explicit bijections"))
    return parser


def _outcome(parse, argv):
    """How a parse of argv ends: its values, or its exit code and, for an
    error, the message after "error: " (the prog before it may differ)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, err.getvalue().rpartition("error: ")[2]


# What the generated argv is made of.  Each command maps its options to the
# values each takes (none for a flag), then lists texts for its first
# positional and for the ones after it.  BAD values, STRAYS and missing
# values come now and then, so that many argv parse and their values are
# compared, and every error still shows up.
INTS = ["3", "0", "-1"]
FORMATS = ["table", "json", "csv"]
TEXTS = ["1,0", "", "-", "G(2,1,1,2)", "-1", "a b", "--dist x"]
BAD = ["+4", "1_0", "\u0661", " 1", "1.0", "-1.5", "xml", "--zzz", "-x"]
# A cluster such as -hx is left out: argparse 3.13 prints the help for it,
# where 3.11 and this parser refuse it.
STRAYS = ["--zzz", "-x", "--budget", "-h", "--help", "--he", "--=x", "-h=1", "--help=1"]
BUDGETS = [["--budget", "5"], ["--bud=-1"], ["--budget=0"]] * 3 + [["--budget", "1_0"], ["-h"], ["--zzz"]]
COMMAND_ARGS = {
    "stats": ({"--dist": [], "--format": FORMATS}, ["G(2,1,1,2)", "-1"], ["[1,2]", "-", "-1"]),
    "verify": (
        {
            **{f"--{name}": INTS for name in cli._verify_flags()},
            "--parts": ["2,2", "3", ""],
            "--caps": INTS,
            "--format": FORMATS,
            "--json": [],
        },
        ["lift", "hilbert", "six-stats", "nope"],
        ["lift", "-1"],
    ),
    "bijection": (
        {"--group": TEXTS, "--f": TEXTS, "--lam": TEXTS, "--mu": TEXTS, "--h": INTS, "--k": INTS, "--format": FORMATS},
        ["nvec", "rs", "bipartite", "nope"],
        ["[1,2]", "-1", "rs"],
    ),
}


@st.composite
def _chunk(draw, options, positionals):
    """An option, spelt as its name or a prefix of it, with its value as a
    separate token or after "="; or a positional; or a stray token."""
    kind = draw(st.sampled_from(["option"] * 8 + ["positional", "stray"]))
    if kind == "positional":
        return [draw(st.sampled_from(positionals))]
    if kind == "stray":
        return [draw(st.sampled_from(STRAYS))]
    name = draw(st.sampled_from(sorted(options)))
    spelt = name[: draw(st.integers(min(3, len(name)), len(name)))]
    if not options[name]:
        return draw(st.sampled_from([[spelt]] * 5 + [[f"{spelt}=1"]]))
    value = draw(st.sampled_from(options[name] if draw(st.integers(0, 5)) else BAD))
    return draw(st.sampled_from([[spelt, value]] * 4 + [[f"{spelt}={value}"]] * 4 + [[spelt]]))


@st.composite
def _argv(draw, command):
    """--budget and help before the command; after it a run of positionals
    (the first one now and then missing) anywhere among options, which may
    repeat and may hold --budget, help and more positionals."""
    options, firsts, seconds = COMMAND_ARGS[command]
    chunks = draw(st.lists(_chunk(options, firsts + seconds), max_size=6))
    run = draw(st.lists(st.sampled_from(seconds), max_size=2))
    if draw(st.integers(0, 5)):
        run.insert(0, draw(st.sampled_from(firsts)))
    chunks.insert(draw(st.integers(0, len(chunks))), run)
    chunks[:0] = [draw(st.sampled_from(BUDGETS)) for _ in range(draw(st.integers(0, 2)))] + [[command]]
    return [token for chunk in chunks for token in chunk]


@pytest.mark.parametrize("command", COMMAND_ARGS)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_parser_reads_argv_as_the_argparse_reference(command, data):
    argv = data.draw(_argv(command))
    assert _outcome(cli._parse, argv) == _outcome(build_parser().parse_args, argv)


# "--" ends the options: every later token is a positional
@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--", "G(2,1,1,2)"],
        ["stats", "--dist", "--", "G(2,1,1,2)", "[1,2]"],
        ["stats", "G(2,1,1,2)", "--", "--dist"],
        ["stats", "G(2,1,1,2)", "--"],
        ["stats", "G(2,1,1,2)", "--format", "--", "json"],
        ["bijection", "--k", "1", "rs", "--", "-1"],
        ["--", "stats", "G(2,1,1,2)"],
    ],
)
def test_a_double_dash_reads_as_in_the_argparse_reference(argv):
    assert _outcome(cli._parse, argv) == _outcome(build_parser().parse_args, argv)
