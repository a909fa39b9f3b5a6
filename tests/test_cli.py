import argparse
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
from projstat.cli import build_parser, main
from projstat.groups import BUDGET_ENV_VAR, parse_group
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


# main() parses with one parser per process: nothing of a call may reach the next
def test_the_shared_parser_keeps_nothing_between_calls(capsys, monkeypatch):
    assert cli._parser() is cli._parser()
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


def _subcommands(parser) -> dict:
    [sub] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


def _option_strings(parser) -> set:
    return {opt for action in parser._actions for opt in action.option_strings}


# each subcommand adds its arguments the first time it parses, so a call pays
# for its own command's arguments only
def test_a_subcommand_adds_its_arguments_when_it_first_parses(capsys, monkeypatch):
    parser = build_parser()
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    assert run(capsys, "stats", "G(2,1,1,2)", "--dist")[0] == 0
    subs = _subcommands(parser)
    assert _option_strings(subs["stats"]) == {"-h", "--help", "--dist", "--format"}
    for name in ("verify", "bijection"):
        assert _option_strings(subs[name]) == {"-h", "--help"}
    assert run(capsys, "verify", "lift", "--r", "2", "--n", "2")[0] == 0
    flags = {f"--{name}" for name in cli._verify_flags()} | {"--caps", "--format", "--json"}
    assert _option_strings(subs["verify"]) == {"-h", "--help", *flags}
    assert _option_strings(subs["bijection"]) == {"-h", "--help"}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("stats", ["--dist", "--format"]),
        ("verify", [*(f"--{name}" for name in cli._verify_flags()), "--caps", "--format", "--json"]),
        ("bijection", ["--group", "--f", "--lam", "--mu", "--h", "--k", "--format"]),
    ],
)
def test_each_command_help_lists_every_flag(capsys, monkeypatch, command, flags):
    parser = build_parser()
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: projstat {command} ")
    assert [flag for flag in flags if f"{flag} " not in out] == []


def test_verify_json_flag_is_format_json(capsys):
    argv = ["verify", "lift", "--r", "2", "--n", "2"]
    assert not hasattr(build_parser().parse_args([*argv, "--json"]), "json")
    # argparse: the last of --json and --format wins
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
    # checked, since site hooks may load it before projstat is imported
    code = "import sys, projstat.cli, projstat; print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


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


# the texts argparse reads as the help flag of `stats`: -h, --help and the
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

    assume(text not in HELP_TEXTS)  # argparse's help, which exits 0 (tested below)
    try:
        parse_group(text)
    except ValueError:
        pass
    else:
        assume(False)  # a well-formed group is not random text
    try:
        code = main(["stats", text])
    except SystemExit as exc:  # argparse, for text that looks like an option
        code = exc.code
    assert code == 2
