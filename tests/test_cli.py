import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import monodom
from monodom.cli import COMMANDS, _dump, build_parser, main
from monodom.errors import MonodomError

# Ideals whose `resolution --show-matrices` output is pinned byte for byte
# in GOLDEN_TEXT and GOLDEN_JSON at the end of this file, over Q and F_3,
# and whose `analyze --json` output is pinned in GOLDEN_ANALYZE_JSON.
GOLDEN_IDEALS = {
    "P6": "x1*x2, x2*x3, x3*x4, x4*x5, x5*x6, x6*x7",
    "C4": "a*b, b*c, c*d, a*d",
    "nonscarf": "a^2*b, a*b^2, a*c, b*c^2, c^3",
    # exponent levels with gaps: a in {1, 2, 5}, b in {1, 2, 3}, c in {2, 4, 7}
    "gapped": "a^5*b, a^2*c^7, b^3*c^2, a*b^2*c^4",
}
GOLDEN_FIELDS = {"Q": (), "F3": ("--field", "fp", "--prime", "3")}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_m3_report(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--ideal", "a*d,b*d,c*d,d^2", "--vars", "a,b,c,d"
        )
        assert code == 0
        assert "codim:        1" in out
        assert "odom:         4" in out
        assert "pd:           4" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            "--ideal",
            "a*d,b*d,c*d,d^2",
            "--vars",
            "a,b,c,d",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["codim"] == 1
        assert payload["odom"] == 4
        assert payload["pd"] == 4
        assert payload["betti"] == [1, 4, 6, 4, 1]
        assert payload["minimal_nets"]["polarized"] == [
            ["d_1"],
            ["a_1", "b_1", "c_1", "d_2"],
        ]
        assert all(c["status"] in ("pass", "vacuous") for c in payload["checks"])
        assert list(payload) == sorted(payload)

    def test_json_byte_stable(self, capsys):
        args = ("analyze", "--ideal", "a*b,c*d,a*c,b*d", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_checks_all_pass_for_variables(self, capsys):
        code, out, _ = run(capsys, "analyze", "--ideal", "a,b,c", "--json")
        payload = json.loads(out)
        assert code == 0
        assert {c["status"] for c in payload["checks"]} <= {"pass", "vacuous"}

    def test_json_ideal_text_reparses(self, capsys):
        from monodom import parse_ideal

        _, out, _ = run(
            capsys, "analyze", "--ideal", "a^2*e, b^3*f, c*e^2, d^2*f^3", "--json"
        )
        payload = json.loads(out)
        M = parse_ideal(payload["ideal"], payload["vars"])
        assert M.render() == payload["ideal"]
        assert list(M.table.names) == payload["vars"]

    def test_polarized_output_reparses(self, capsys):
        from monodom import parse_ideal, polarize

        _, out, _ = run(
            capsys, "polarize", "--ideal", "a*d,b*d,c*d,d^2", "--vars", "a,b,c,d",
            "--json",
        )
        payload = json.loads(out)
        M = parse_ideal(payload["ideal"], payload["vars"])
        base = parse_ideal("a*d,b*d,c*d,d^2", ["a", "b", "c", "d"])
        assert [g.exponents for g in M.generators] == [
            g.exponents for g in polarize(base).generators
        ]


class TestBetti:
    def test_total_vector(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--ideal", "a*d,b*d,c*d", "--vars", "a,b,c,d", "--json"
        )
        assert code == 0
        assert json.loads(out)["betti"] == [1, 3, 3, 1]

    def test_oracle_flag_agrees(self, capsys):
        base = ("betti", "--ideal", "a^2,a*b,b^2", "--json")
        _, out1, _ = run(capsys, *base)
        _, out2, _ = run(capsys, *base, "--oracle")
        a, b = json.loads(out1), json.loads(out2)
        assert a["betti"] == b["betti"]
        assert a["multigraded_betti"] == b["multigraded_betti"]


class TestOtherCommands:
    def test_odom_both_methods(self, capsys):
        code, out, _ = run(
            capsys,
            "odom",
            "--method",
            "both",
            "--ideal",
            "a*e,b*e,c*e,d*e,a*b,c*d",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dominant-sets"]["odom"] == 4
        assert payload["nets"]["odom"] == 4

    def test_nets_polarized(self, capsys):
        code, out, _ = run(
            capsys,
            "nets",
            "--polarized",
            "--ideal",
            "a*d,b*d,c*d,d^2",
            "--vars",
            "a,b,c,d",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["minimal_nets"] == [
            ["d_1"],
            ["a_1", "b_1", "c_1", "d_2"],
        ]

    def test_polarize(self, capsys):
        code, out, _ = run(capsys, "polarize", "--ideal", "a^2,a*b,b^2")
        assert code == 0
        assert out.strip() == "a_1*a_2, a_1*b_1, b_1*b_2"

    def test_scarf(self, capsys):
        code, out, _ = run(capsys, "scarf", "--ideal", "a^2,a*b,b^2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["is_scarf"] is True
        assert payload["ranks"] == [1, 3, 2]

    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["scarf"], ["betti", "--oracle"], ["resolution"]],
        ids=["analyze", "scarf", "betti-oracle", "resolution"],
    )
    def test_scarf_builds_one_lattice(self, capsys, lattice_builds, command):
        code, out, _ = run(
            capsys, *command, "--ideal", "a^2*b, a*b^2, a*c, b*c^2, c^3", "--json"
        )
        assert code == 0
        assert json.loads(out)["betti"] == [1, 5, 6, 2]
        assert len(lattice_builds) == 1

    @pytest.mark.parametrize(
        "command", [["analyze"], ["scarf"], ["betti", "--oracle"]], ids=lambda c: "-".join(c)
    )
    def test_p12_builds_one_table_and_one_strand_map(
        self, capsys, lattice_builds, strand_map_builds, command
    ):
        p12 = ", ".join(f"x{i}*x{i + 1}" for i in range(1, 13))
        code, _, _ = run(capsys, *command, "--ideal", p12, "--json")
        assert code == 0
        assert len(lattice_builds) == len(strand_map_builds) == 1

    def test_betti_builds_no_lattice(self, capsys, lattice_builds):
        # the engine takes its lcm codes from the Lyubeznik walk
        code, out, _ = run(
            capsys, "betti", "--ideal", "a^2*b, a*b^2, a*c, b*c^2, c^3", "--json"
        )
        assert code == 0
        assert json.loads(out)["betti"] == [1, 5, 6, 2]
        assert lattice_builds == []

    def test_odom_both_polarizes_once(self, capsys, monkeypatch):
        import sys

        from monodom import monomials

        calls = []
        real = monomials.polarize

        def counted(ideal):
            calls.append(ideal)
            return real(ideal)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "monodom" and vars(module).get("polarize") is real:
                monkeypatch.setattr(module, "polarize", counted)
        code, _, _ = run(capsys, "odom", "--method", "both", "--ideal", "a^2*b, a*b^2, a*c")
        assert code == 0
        assert len(calls) == 1

    def test_resolution_matrices(self, capsys):
        code, out, _ = run(
            capsys, "resolution", "--show-matrices", "--ideal", "a^2,a*b,b^2"
        )
        assert code == 0
        assert "matrix f_2" in out

    @pytest.mark.parametrize("field", GOLDEN_FIELDS)
    @pytest.mark.parametrize("name", GOLDEN_IDEALS)
    def test_resolution_matrices_golden_text(self, capsys, name, field):
        code, out, _ = run(
            capsys, "resolution", "--show-matrices", "--ideal", GOLDEN_IDEALS[name],
            *GOLDEN_FIELDS[field],
        )
        assert code == 0
        assert out == GOLDEN_TEXT[name, field]

    @pytest.mark.parametrize("field", GOLDEN_FIELDS)
    @pytest.mark.parametrize("name", GOLDEN_IDEALS)
    def test_resolution_matrices_golden_json(self, capsys, name, field):
        code, out, _ = run(
            capsys, "resolution", "--show-matrices", "--json",
            "--ideal", GOLDEN_IDEALS[name], *GOLDEN_FIELDS[field],
        )
        assert code == 0
        golden = json.loads(GOLDEN_JSON[name, field])
        assert out == json.dumps(golden, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("field", GOLDEN_FIELDS)
    @pytest.mark.parametrize("name", GOLDEN_IDEALS)
    def test_analyze_json_golden(self, capsys, name, field):
        code, out, err = run(
            capsys, "analyze", "--json", "--ideal", GOLDEN_IDEALS[name],
            *GOLDEN_FIELDS[field],
        )
        assert (code, err) == (0, "")
        golden = json.loads(GOLDEN_ANALYZE_JSON[name, field])
        assert out == json.dumps(golden, sort_keys=True, indent=2) + "\n"

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("a, b"))
        code, out, _ = run(capsys, "betti", "--ideal", "-", "--json")
        assert code == 0
        assert json.loads(out)["betti"] == [1, 2, 1]

    def test_field_fp(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--ideal", "a^2,a*b,b^2", "--field", "fp", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["betti"] == [1, 3, 2]
        assert payload["field"] == "fp:32003"


class TestParserReuse:
    """`main` builds one parser per command per process; no call may see another's."""

    @pytest.fixture
    def parser_builds(self, monkeypatch):
        import functools

        import monodom.cli as cli_mod

        calls = []
        real = cli_mod.build_parser

        def counted(only=None):
            calls.append(only)
            return real(only)

        monkeypatch.setattr(cli_mod, "build_parser", counted)
        # a fresh cache, so that this test builds the parsers itself
        monkeypatch.setattr(cli_mod, "_parser", functools.cache(cli_mod._parser.__wrapped__))
        return calls

    def test_built_once_across_calls(self, capsys, parser_builds):
        for command in (["polarize"], ["betti", "--json"], ["analyze"], ["polarize", "--json"], ["betti"]):
            code, _, _ = run(capsys, *command, "--ideal", "a^2, a*b")
            assert code == 0
        assert parser_builds == ["polarize", "betti", "analyze"]
        # no command, or an unknown one: the full parser, also built once
        for argv in ([], ["analyz"], []):
            with pytest.raises(SystemExit):
                main(argv)
        assert parser_builds == ["polarize", "betti", "analyze", None]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert build_parser("odom") is not build_parser("odom")

    def test_valid_call_after_an_argparse_error(self, capsys, parser_builds):
        args = ("odom", "--json", "--ideal", "a*e, b*e, c*e, d*e, a*b, c*d")
        code, before, _ = run(capsys, *args)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["odom", "--method", "neither", "--ideal", "a"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert run(capsys, *args) == (0, before, "")
        assert json.loads(before)["nets"]["odom"] == 4
        assert parser_builds == ["odom"]

    def test_no_option_leaks_into_the_next_call(self, capsys, parser_builds):
        args = ("analyze", "--json", "--ideal", GOLDEN_IDEALS["C4"])
        code, out, _ = run(capsys, *args, "--field", "fp", "--prime", "3")
        assert code == 0 and json.loads(out)["field"] == "fp:3"
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == json.dumps(
            json.loads(GOLDEN_ANALYZE_JSON["C4", "Q"]), sort_keys=True, indent=2
        ) + "\n"
        assert parser_builds == ["analyze"]


def _subparsers(parser):
    import argparse

    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestOneCommandParser:
    """`build_parser(c)` builds command c alone and prints what the full
    parser prints for it: the top-level usage, which "unrecognized
    arguments" errors print, and c's own help."""

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_usage_and_help_match_the_full_parser(self, monkeypatch, command, columns):
        monkeypatch.setenv("COLUMNS", columns)  # argparse wraps to this width
        full, one = build_parser(), build_parser(command)
        assert list(_subparsers(one)) == [command]
        assert one.format_usage() == full.format_usage()
        assert _subparsers(one)[command].format_help() == _subparsers(full)[command].format_help()


class TestDecoding:
    def test_analyze_json_decodes_nothing_and_spells_each_printed_code_once(
        self, capsys, monkeypatch
    ):
        # the printed multidegrees are spelled off their lattice codes: no
        # code becomes a Monomial, and each printed one is spelled once
        from monodom import taylor

        decoded, spelled = [], []
        real_decode, real_spell = taylor._monomial, taylor.TaylorComplex._spell

        def counted_decode(tbl, exponents):
            decoded.append(exponents)
            return real_decode(tbl, exponents)

        def counted_spell(lattice, code):
            spelling = real_spell(lattice, code)
            spelled.append(spelling[0])
            return spelling

        monkeypatch.setattr(taylor, "_monomial", counted_decode)
        monkeypatch.setattr(taylor.TaylorComplex, "_spell", counted_spell)
        texts = [*GOLDEN_IDEALS.values(), ", ".join(f"x{i}*x{i + 1}" for i in range(1, 11))]
        for text in texts:
            decoded.clear()
            spelled.clear()
            code, out, _ = run(capsys, "analyze", "--json", "--ideal", text)
            assert code == 0
            assert decoded == []
            printed = {m for _, m, _ in json.loads(out)["multigraded_betti"]}
            assert len(spelled) == len(set(spelled)) and set(spelled) == printed

    def test_printing_commands_never_decode(self, capsys, monkeypatch):
        from monodom import taylor

        def refuse(lattice, codes):
            raise AssertionError("a lattice code was decoded")

        monkeypatch.setattr(taylor.TaylorComplex, "monomials", refuse)
        commands = [
            ["analyze"], ["analyze", "--json"],
            ["betti"], ["betti", "--json"],
            ["betti", "--oracle"], ["betti", "--oracle", "--json"],
            ["scarf"], ["scarf", "--json"],
            ["resolution"], ["resolution", "--json"],
        ]
        for text in GOLDEN_IDEALS.values():
            for argv in commands:
                code, out, _ = run(capsys, *argv, "--ideal", text)
                assert code == 0 and out, argv


class TestVerifyCommand:
    def test_exhaustive_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--exhaustive", "--n-max", "2", "--exp-max", "2",
            "--q-max", "8", "--trials", "0",
        )
        assert code == 0
        assert "zero failures" in out

    def test_seeded_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--trials", "20", "--seed", "5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ideals"] == 20
        assert payload["params"] == {
            "exhaustive": False, "exp_max": 3, "n_max": 4, "q_max": 5,
            "seed": 5, "trials": 20,
        }

    def test_exhaustive_json_leaves_out_trials_and_seed(self, capsys):
        # the walk reads neither, so its params do not echo them
        argv = ("verify", "--exhaustive", "--n-max", "1", "--q-max", "1", "--exp-max", "2")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["params"] == {
            "exhaustive": True, "exp_max": 2, "n_max": 1, "q_max": 1,
        }
        assert payload["ideals"] == 2
        assert run(capsys, *argv, "--json", "--trials", "5", "--seed", "9") == (0, out, "")


# every subcommand's --json form, as run on each GOLDEN_IDEALS entry
JSON_COMMANDS = {
    "analyze": ("analyze",),
    "betti": ("betti",),
    "betti-oracle": ("betti", "--oracle"),
    "resolution-matrices": ("resolution", "--show-matrices"),
    "nets": ("nets",),
    "nets-polarized": ("nets", "--polarized"),
    "odom-both": ("odom", "--method", "both"),
    "scarf": ("scarf",),
    "polarize": ("polarize",),
}


def assert_canonical(out):
    """`out` is one canonical JSON document: sorted keys, two-space indent,
    ASCII escapes, as `json.dumps(sort_keys=True, indent=2)` lays it out."""
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# each subcommand's options besides -h, grouped as `cli.build_parser` adds them
IDEAL_INPUT = ("--ideal", "--vars")
JSON = ("--json",)
FIELD = ("--field", "--prime")
SURFACE = {
    "analyze": IDEAL_INPUT + JSON + FIELD,
    "betti": IDEAL_INPUT + JSON + FIELD + ("--oracle",),
    "resolution": IDEAL_INPUT + JSON + FIELD + ("--show-matrices",),
    "nets": IDEAL_INPUT + JSON + ("--polarized",),
    "odom": IDEAL_INPUT + JSON + ("--method",),
    "scarf": IDEAL_INPUT + JSON + FIELD,
    "polarize": IDEAL_INPUT + JSON,
    "verify": JSON + FIELD + (
        "--trials", "--seed", "--n-max", "--q-max", "--exp-max", "--exhaustive",
    ),
}


class TestSurface:
    def test_each_subcommand_takes_only_its_options(self):
        import argparse

        from monodom.cli import build_parser

        (commands,) = [
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = {
            name: tuple(s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help"))
            for name, sub in commands.items()
        }
        assert options == SURFACE
        assert sum(map(len, options.values())) == 42

    # the (command, option) pairs that no handler reads
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--trials", "3", "--ideal", "a*b"),
            ("verify", "--trials", "3", "--vars", "a,b"),
            ("nets", "--ideal", "a*b, b*c", "--field", "fp"),
            ("nets", "--ideal", "a*b, b*c", "--prime", "3"),
            ("odom", "--ideal", "a*b, b*c", "--field", "fp"),
            ("odom", "--ideal", "a*b, b*c", "--prime", "1000000"),
            ("polarize", "--ideal", "a*b, b*c", "--field", "fp"),
            ("polarize", "--ideal", "a*b, b*c", "--prime", "3"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


# the layouts over Q for every command, and over F_3 for those that take --field
LAYOUT_CASES = [
    (command, name, field)
    for command, argv in JSON_COMMANDS.items()
    for name in GOLDEN_IDEALS
    for field in GOLDEN_FIELDS
    if field == "Q" or "--field" in SURFACE[argv[0]]
]


class TestCanonicalJson:
    @pytest.mark.parametrize("command, name, field", LAYOUT_CASES)
    def test_subcommand_layout(self, capsys, command, name, field):
        code, out, err = run(
            capsys, *JSON_COMMANDS[command], "--json", "--ideal", GOLDEN_IDEALS[name],
            *GOLDEN_FIELDS[field],
        )
        assert (code, err) == (0, "")
        assert_canonical(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--trials", "200", "--seed", "42"),
            ("--exhaustive", "--n-max", "2", "--exp-max", "2", "--q-max", "8", "--trials", "0"),
        ],
        ids=["seeded", "exhaustive"],
    )
    def test_verify_layout(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--json")
        assert (code, err) == (0, "")
        assert_canonical(out)


# strings over all of Unicode, with quotes, backslashes and control
# characters made likely
JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud800'))
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | JSON_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=25,
)


@given(JSON_VALUES)
@example([])
@example({})
@example([[]])
@example({"a": {}})
@example([1, True])
@settings(max_examples=300, deadline=None)
def test_dump_matches_json_dumps(payload):
    assert _dump(payload) == json.dumps(payload, sort_keys=True, indent=2)


# the error classes in monodom.__all__, the documented exit code of each,
# and the constructor arguments of those that take more than a message
ERRORS = [
    name for name in monodom.__all__
    if isinstance(getattr(monodom, name), type)
    and issubclass(getattr(monodom, name), MonodomError)
]
EXIT_CODES = {
    "MonodomError": 1,
    "TableMismatchError": 1,
    "InvalidIdealError": 1,
    "UnknownVariableError": 1,
    "IdealSyntaxError": 1,
    "InvalidParameterError": 1,
    "GuardExceeded": 2,
    "TaylorTooLarge": 2,
    "InternalInvariantError": 3,
    "FuzzFailure": 3,
}
ERROR_ARGS = {
    "IdealSyntaxError": ("forced", 0),
    "TaylorTooLarge": (20, 14),
    "FuzzFailure": ("forced", "a, b", "trial 0"),
}


class TestExitCodes:
    # a non-ASCII digit after '^' is not an exponent, even where int() reads it
    @pytest.mark.parametrize("text", ["a*^2", "a^\u00b2", "a^\u0663, b"])
    def test_parse_error_is_1(self, capsys, text):
        code, _, err = run(capsys, "analyze", "--ideal", text)
        assert code == 1 and "error" in err

    def test_unknown_variable_is_1(self, capsys):
        code, _, _ = run(capsys, "analyze", "--ideal", "a*z", "--vars", "a,b")
        assert code == 1

    def test_missing_ideal_is_1(self, capsys):
        code, _, _ = run(capsys, "analyze")
        assert code == 1

    def test_non_prime_field_is_1(self, capsys):
        code, _, err = run(
            capsys, "betti", "--ideal", "a^2,b", "--field", "fp", "--prime", "4"
        )
        assert code == 1 and err == "error: 4 is not prime\n"

    def test_prime_beyond_primality_test_is_1(self, capsys):
        code, _, err = run(
            capsys, "betti", "--ideal", "a^2,b", "--field", "fp", "--prime", str(10**25)
        )
        assert code == 1 and err.startswith("error: ") and "too large" in err

    def test_bad_fuzz_parameters_is_1(self, capsys):
        code, _, err = run(capsys, "verify", "--n-max", "0")
        assert code == 1
        assert err == "error: n_max, q_max and exp_max must all be >= 1\n"

    def test_negative_trials_is_1(self, capsys):
        code, out, err = run(capsys, "verify", "--trials", "-1")
        assert code == 1 and out == ""
        assert err == "error: trials must be >= 0\n"

    def test_guard_is_2(self, capsys):
        big = ", ".join(f"x{i}" for i in range(1, 16))
        code, _, err = run(capsys, "analyze", "--ideal", big)
        assert code == 2 and "Taylor" in err or "2^15" in err

    @pytest.mark.parametrize("n_max", ["8", str(10**9)])
    def test_exhaustive_pool_over_the_guard_is_2(self, capsys, n_max):
        # 10^8 exponent vectors would exhaust memory; the guard fires first
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--exhaustive", "--n-max", n_max, "--exp-max", "9"
        )
        assert time.perf_counter() - t0 < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: exhaustive pool of 10^") and err.count("\n") == 1

    def test_exhaustive_walk_over_the_guard_is_2(self, capsys):
        # 99,999 vectors pass the pool guard, but pairs of them number
        # billions; the walk guard fires before any pool is built
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--exhaustive", "--n-max", "5", "--exp-max", "9",
            "--q-max", "2", "--trials", "0",
        )
        assert time.perf_counter() - t0 < 0.5
        assert code == 2 and out == ""
        assert err == (
            "error: exhaustive walk over at least 50499495 subsets of at most 2 "
            "exponent vectors exceeds the guard of 1000000\n"
        )

    def test_pairwise_check_over_the_guard_is_2(self, capsys, monkeypatch):
        # comparing these 1000 generators pairwise, over 2000 variables,
        # used to run for minutes; the guard fires before the first pair
        import io

        text = ", ".join(f"x{i}*y{i}" for i in range(1000))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "polarize", "--ideal", "-")
        assert time.perf_counter() - t0 < 0.5
        assert code == 2 and out == ""
        assert err == (
            "error: pairwise divisibility check of 1000 generators in 2000 "
            "variables, 1000^2 x (2000 + 32) = 2032000000, exceeds the guard "
            "of 15000000\n"
        )

    def test_wide_polarization_skips_the_pairwise_guard(self, capsys):
        # (x, y)^299: 300 generators parse under the pairwise guard, and
        # their polarization over 598 variables is canonical by
        # construction, so no pairwise check runs and no guard trips
        text = ", ".join(f"x^{299 - i}*y^{i}" for i in range(300))
        text = text.replace("*y^0", "").replace("x^0*", "")
        code, out, err = run(capsys, "polarize", "--json", "--ideal", text)
        assert code == 0 and err == ""
        assert len(json.loads(out)["vars"]) == 598
        code, out, err = run(
            capsys, "odom", "--method", "nets", "--json", "--ideal", text
        )
        assert code == 0 and err == ""
        assert json.loads(out)["nets"]["odom"] == 2
        code, out, err = run(capsys, "analyze", "--ideal", text)
        assert code == 2 and out == ""
        assert err == "error: refusing to build 2^300 Taylor symbols (limit q <= 14)\n"

    @pytest.mark.parametrize(
        "limits,entries",
        [
            (["--n-max", str(10**12), "--q-max", "1"], f"{10**12} x 1 = {10**12}"),
            (["--n-max", "4", "--q-max", str(10**11)], f"4 x {10**11} = {4 * 10**11}"),
        ],
    )
    def test_random_draw_over_the_guard_is_2(self, capsys, limits, entries):
        # one draw would hold up to n_max * q_max exponents; the guard
        # fires before the first one is drawn
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--trials", "1", "--seed", "3", *limits, "--exp-max", "1"
        )
        assert time.perf_counter() - t0 < 0.5
        assert code == 2 and out == ""
        assert err == (
            f"error: random draw of up to {entries} exponent entries exceeds "
            "the guard of 10000\n"
        )

    def test_internal_failure_is_3(self, capsys, monkeypatch):
        import monodom.cli as cli_mod

        real = cli_mod.check_report

        def sabotaged(ideal, field):
            report = real(ideal, field)
            bad = type(report.checks[0])(report.checks[0].name, "fail", "forced")
            report.checks[0] = bad
            return report

        monkeypatch.setattr(cli_mod, "check_report", sabotaged)
        code, _, _ = run(capsys, "analyze", "--ideal", "a,b")
        assert code == 3

    def test_fuzz_failure_is_3(self, capsys, monkeypatch):
        import monodom.cli as cli_mod
        from monodom.errors import FuzzFailure

        def boom(params, field):
            raise FuzzFailure("check failed", "a, b", "trial 0")

        monkeypatch.setattr(cli_mod, "fuzz", boom)
        code, _, err = run(capsys, "verify", "--trials", "1")
        assert code == 3 and "trial 0" in err

    @pytest.mark.parametrize("name", ERRORS)
    def test_each_error_class_has_its_exit_code(self, capsys, monkeypatch, name):
        import functools

        import monodom.cli as cli_mod

        exc = getattr(monodom, name)(*ERROR_ARGS.get(name, ("forced",)))

        def handler(args):
            raise exc

        monkeypatch.setattr(cli_mod, "_cmd_polarize", handler)
        monkeypatch.setattr(cli_mod, "_parser", functools.cache(cli_mod._parser.__wrapped__))
        code, out, err = run(capsys, "polarize", "--ideal", "a")
        assert (code, out) == (EXIT_CODES[name], "")
        assert err == f"error: {exc}\n"
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1

    def test_minimalization_warning_on_stderr(self, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run(capsys, "polarize", "--ideal", "a, a*b")
        assert code == 0
        assert out.strip() == "a_1"

    def test_minimalization_warning_is_one_clean_line(self, capsys):
        code, out, err = run(capsys, "polarize", "--ideal", "a, a*b")
        assert (code, out) == (0, "a_1\n")
        assert err == "warning: generating set was not minimal; reduced to a\n"


HUGE = "a^3000000000*b, b^2"  # an exponent past every fixed-width kernel


class TestHostileInputs:
    def test_closed_stdout_exits_1_quietly(self):
        import os
        import subprocess
        import sys

        import monodom

        src = os.path.dirname(os.path.dirname(os.path.abspath(monodom.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        # about 160 KB of matrices, well past what a pipe buffers
        ideal = ", ".join(f"x{i}*x{i + 1}" for i in range(1, 12))
        proc = subprocess.Popen(
            [sys.executable, "-m", "monodom.cli", "resolution", "--show-matrices",
             "--ideal", ideal],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"minimal free resolution")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_deep_polarization_analyze(self, capsys):
        code, out, _ = run(capsys, "analyze", "--json", "--ideal", "a^990*b, b^2")
        payload = json.loads(out)
        assert code == 0
        assert payload["betti"] == [1, 2, 1] and payload["odom"] == 2
        assert len(payload["witnesses"]["net"]) == 2

    def test_deep_polarization_odom(self, capsys):
        code, out, _ = run(capsys, "odom", "--json", "--ideal", "a^990*b, b^2")
        payload = json.loads(out)
        assert code == 0
        assert payload["nets"]["odom"] == payload["dominant-sets"]["odom"] == 2

    def test_deep_polarization_nets(self, capsys):
        code, out, _ = run(
            capsys, "nets", "--polarized", "--json", "--ideal", "a^990*b, b^2"
        )
        payload = json.loads(out)
        assert code == 0
        # b_1 alone, or b_2 with any one copy of a
        assert len(payload["minimal_nets"]) == 991
        assert payload["minimal_nets"][0] == ["b_1"]

    def test_nets_of_one_wide_generator(self, capsys):
        gen = "*".join(f"x{i}" for i in range(1, 1201))
        code, out, _ = run(capsys, "nets", "--json", "--ideal", gen)
        payload = json.loads(out)
        assert code == 0
        assert payload["minimal_nets"] == [[f"x{i}"] for i in range(1, 1201)]

    def test_nets_of_the_thirty_cycle(self, capsys):
        # 4,610 minimal nets; a search that counted its non-minimal
        # candidates against the 100,000 guard refused this ideal
        ideal = ", ".join([f"x{i}*x{i + 1}" for i in range(1, 30)] + ["x1*x30"])
        code, out, err = run(capsys, "nets", "--json", "--ideal", ideal)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert len(payload["minimal_nets"]) == 4610
        assert (payload["min_card"], payload["max_card"]) == (15, 20)

    def test_huge_exponent_analyze_is_guarded(self, capsys):
        code, out, err = run(capsys, "analyze", "--ideal", HUGE)
        assert code == 2 and out == ""
        assert err == "error: refusing to polarize into 3000000002 variables (limit 1000)\n"

    def test_huge_exponent_betti(self, capsys):
        code, out, _ = run(capsys, "betti", "--json", "--ideal", HUGE)
        assert code == 0
        assert json.loads(out)["multigraded_betti"] == [
            [0, "1", 1], [1, "b^2", 1], [1, "a^3000000000*b", 1],
            [2, "a^3000000000*b^2", 1],
        ]

    def test_huge_exponent_scarf(self, capsys):
        code, out, _ = run(capsys, "scarf", "--json", "--ideal", HUGE)
        payload = json.loads(out)
        assert code == 0
        assert payload["is_scarf"] is True and payload["ranks"] == [1, 2, 1]

    def test_huge_exponent_odom(self, capsys):
        code, out, _ = run(
            capsys, "odom", "--json", "--method", "dominant-sets", "--ideal", HUGE
        )
        assert code == 0
        assert json.loads(out)["dominant-sets"]["odom"] == 2
        # the nets route polarizes, which the variable bound refuses
        code, _, err = run(capsys, "odom", "--ideal", HUGE)
        assert code == 2 and "polarize" in err


# short ideal-like text: Unicode letters and digits, and the grammar's symbols
GRAMMAR_TEXT = st.text(
    st.characters(categories=("L", "Nd")) | st.sampled_from("^*, "), max_size=30
)


@given(text=GRAMMAR_TEXT, command=st.sampled_from(["polarize", "nets"]))
@example(text="a^\u00b2", command="polarize")
@settings(max_examples=100, deadline=None)
def test_any_text_ends_in_a_clean_exit(text, command):
    import contextlib
    import io
    import warnings

    if text == "-":  # reads stdin
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a non-minimal generating set
            code = main([command, f"--ideal={text}"])
    assert code in (0, 1, 2, 3)
    if code:
        assert "error: " in err.getvalue()


GOLDEN_TEXT = {
    ("P6", "Q"): """\
minimal free resolution of the quotient; betti [1, 6, 11, 9, 3]
degree 0:
  [0]   mdeg 1
degree 1:
  [x1*x2]   mdeg x1*x2
  [x2*x3]   mdeg x2*x3
  [x3*x4]   mdeg x3*x4
  [x4*x5]   mdeg x4*x5
  [x5*x6]   mdeg x5*x6
  [x6*x7]   mdeg x6*x7
degree 2:
  [x1*x2, x2*x3]   mdeg x1*x2*x3
  [x2*x3, x3*x4]   mdeg x2*x3*x4
  [x1*x2, x4*x5]   mdeg x1*x2*x4*x5
  [x3*x4, x4*x5]   mdeg x3*x4*x5
  [x1*x2, x5*x6]   mdeg x1*x2*x5*x6
  [x2*x3, x5*x6]   mdeg x2*x3*x5*x6
  [x4*x5, x5*x6]   mdeg x4*x5*x6
  [x1*x2, x6*x7]   mdeg x1*x2*x6*x7
  [x2*x3, x6*x7]   mdeg x2*x3*x6*x7
  [x3*x4, x6*x7]   mdeg x3*x4*x6*x7
  [x5*x6, x6*x7]   mdeg x5*x6*x7
degree 3:
  [x1*x2, x3*x4, x4*x5]   mdeg x1*x2*x3*x4*x5
  [x1*x2, x2*x3, x5*x6]   mdeg x1*x2*x3*x5*x6
  [x1*x2, x4*x5, x5*x6]   mdeg x1*x2*x4*x5*x6
  [x2*x3, x4*x5, x5*x6]   mdeg x2*x3*x4*x5*x6
  [x1*x2, x2*x3, x6*x7]   mdeg x1*x2*x3*x6*x7
  [x2*x3, x3*x4, x6*x7]   mdeg x2*x3*x4*x6*x7
  [x1*x2, x5*x6, x6*x7]   mdeg x1*x2*x5*x6*x7
  [x2*x3, x5*x6, x6*x7]   mdeg x2*x3*x5*x6*x7
  [x3*x4, x5*x6, x6*x7]   mdeg x3*x4*x5*x6*x7
degree 4:
  [x1*x2, x3*x4, x4*x5, x5*x6]   mdeg x1*x2*x3*x4*x5*x6
  [x1*x2, x2*x3, x5*x6, x6*x7]   mdeg x1*x2*x3*x5*x6*x7
  [x2*x3, x4*x5, x5*x6, x6*x7]   mdeg x2*x3*x4*x5*x6*x7
matrix f_1:
  [0] <- [x1*x2]: 1 * x1*x2
  [0] <- [x2*x3]: 1 * x2*x3
  [0] <- [x3*x4]: 1 * x3*x4
  [0] <- [x4*x5]: 1 * x4*x5
  [0] <- [x5*x6]: 1 * x5*x6
  [0] <- [x6*x7]: 1 * x6*x7
matrix f_2:
  [x1*x2] <- [x1*x2, x2*x3]: -1 * x3
  [x2*x3] <- [x1*x2, x2*x3]: 1 * x1
  [x2*x3] <- [x2*x3, x3*x4]: -1 * x4
  [x3*x4] <- [x2*x3, x3*x4]: 1 * x2
  [x1*x2] <- [x1*x2, x4*x5]: -1 * x4*x5
  [x4*x5] <- [x1*x2, x4*x5]: 1 * x1*x2
  [x3*x4] <- [x3*x4, x4*x5]: -1 * x5
  [x4*x5] <- [x3*x4, x4*x5]: 1 * x3
  [x1*x2] <- [x1*x2, x5*x6]: -1 * x5*x6
  [x5*x6] <- [x1*x2, x5*x6]: 1 * x1*x2
  [x2*x3] <- [x2*x3, x5*x6]: -1 * x5*x6
  [x5*x6] <- [x2*x3, x5*x6]: 1 * x2*x3
  [x4*x5] <- [x4*x5, x5*x6]: -1 * x6
  [x5*x6] <- [x4*x5, x5*x6]: 1 * x4
  [x1*x2] <- [x1*x2, x6*x7]: -1 * x6*x7
  [x6*x7] <- [x1*x2, x6*x7]: 1 * x1*x2
  [x2*x3] <- [x2*x3, x6*x7]: -1 * x6*x7
  [x6*x7] <- [x2*x3, x6*x7]: 1 * x2*x3
  [x3*x4] <- [x3*x4, x6*x7]: -1 * x6*x7
  [x6*x7] <- [x3*x4, x6*x7]: 1 * x3*x4
  [x5*x6] <- [x5*x6, x6*x7]: -1 * x7
  [x6*x7] <- [x5*x6, x6*x7]: 1 * x5
matrix f_3:
  [x1*x2, x2*x3] <- [x1*x2, x3*x4, x4*x5]: 1 * x4*x5
  [x2*x3, x3*x4] <- [x1*x2, x3*x4, x4*x5]: 1 * x1*x5
  [x1*x2, x4*x5] <- [x1*x2, x3*x4, x4*x5]: -1 * x3
  [x3*x4, x4*x5] <- [x1*x2, x3*x4, x4*x5]: 1 * x1*x2
  [x1*x2, x2*x3] <- [x1*x2, x2*x3, x5*x6]: 1 * x5*x6
  [x1*x2, x5*x6] <- [x1*x2, x2*x3, x5*x6]: -1 * x3
  [x2*x3, x5*x6] <- [x1*x2, x2*x3, x5*x6]: 1 * x1
  [x1*x2, x4*x5] <- [x1*x2, x4*x5, x5*x6]: 1 * x6
  [x1*x2, x5*x6] <- [x1*x2, x4*x5, x5*x6]: -1 * x4
  [x4*x5, x5*x6] <- [x1*x2, x4*x5, x5*x6]: 1 * x1*x2
  [x2*x3, x3*x4] <- [x2*x3, x4*x5, x5*x6]: 1 * x5*x6
  [x3*x4, x4*x5] <- [x2*x3, x4*x5, x5*x6]: 1 * x2*x6
  [x2*x3, x5*x6] <- [x2*x3, x4*x5, x5*x6]: -1 * x4
  [x4*x5, x5*x6] <- [x2*x3, x4*x5, x5*x6]: 1 * x2*x3
  [x1*x2, x2*x3] <- [x1*x2, x2*x3, x6*x7]: 1 * x6*x7
  [x1*x2, x6*x7] <- [x1*x2, x2*x3, x6*x7]: -1 * x3
  [x2*x3, x6*x7] <- [x1*x2, x2*x3, x6*x7]: 1 * x1
  [x2*x3, x3*x4] <- [x2*x3, x3*x4, x6*x7]: 1 * x6*x7
  [x2*x3, x6*x7] <- [x2*x3, x3*x4, x6*x7]: -1 * x4
  [x3*x4, x6*x7] <- [x2*x3, x3*x4, x6*x7]: 1 * x2
  [x1*x2, x5*x6] <- [x1*x2, x5*x6, x6*x7]: 1 * x7
  [x1*x2, x6*x7] <- [x1*x2, x5*x6, x6*x7]: -1 * x5
  [x5*x6, x6*x7] <- [x1*x2, x5*x6, x6*x7]: 1 * x1*x2
  [x2*x3, x5*x6] <- [x2*x3, x5*x6, x6*x7]: 1 * x7
  [x2*x3, x6*x7] <- [x2*x3, x5*x6, x6*x7]: -1 * x5
  [x5*x6, x6*x7] <- [x2*x3, x5*x6, x6*x7]: 1 * x2*x3
  [x3*x4, x4*x5] <- [x3*x4, x5*x6, x6*x7]: 1 * x6*x7
  [x4*x5, x5*x6] <- [x3*x4, x5*x6, x6*x7]: 1 * x3*x7
  [x3*x4, x6*x7] <- [x3*x4, x5*x6, x6*x7]: -1 * x5
  [x5*x6, x6*x7] <- [x3*x4, x5*x6, x6*x7]: 1 * x3*x4
matrix f_4:
  [x1*x2, x3*x4, x4*x5] <- [x1*x2, x3*x4, x4*x5, x5*x6]: -1 * x6
  [x1*x2, x2*x3, x5*x6] <- [x1*x2, x3*x4, x4*x5, x5*x6]: 1 * x4
  [x1*x2, x4*x5, x5*x6] <- [x1*x2, x3*x4, x4*x5, x5*x6]: -1 * x3
  [x2*x3, x4*x5, x5*x6] <- [x1*x2, x3*x4, x4*x5, x5*x6]: 1 * x1
  [x1*x2, x2*x3, x5*x6] <- [x1*x2, x2*x3, x5*x6, x6*x7]: -1 * x7
  [x1*x2, x2*x3, x6*x7] <- [x1*x2, x2*x3, x5*x6, x6*x7]: 1 * x5
  [x1*x2, x5*x6, x6*x7] <- [x1*x2, x2*x3, x5*x6, x6*x7]: -1 * x3
  [x2*x3, x5*x6, x6*x7] <- [x1*x2, x2*x3, x5*x6, x6*x7]: 1 * x1
  [x2*x3, x4*x5, x5*x6] <- [x2*x3, x4*x5, x5*x6, x6*x7]: -1 * x7
  [x2*x3, x3*x4, x6*x7] <- [x2*x3, x4*x5, x5*x6, x6*x7]: 1 * x5
  [x2*x3, x5*x6, x6*x7] <- [x2*x3, x4*x5, x5*x6, x6*x7]: -1 * x4
  [x3*x4, x5*x6, x6*x7] <- [x2*x3, x4*x5, x5*x6, x6*x7]: 1 * x2
""",
    ("P6", "F3"): """\
minimal free resolution of the quotient; betti [1, 6, 11, 9, 3]
degree 0:
  [0]   mdeg 1
degree 1:
  [x1*x2]   mdeg x1*x2
  [x2*x3]   mdeg x2*x3
  [x3*x4]   mdeg x3*x4
  [x4*x5]   mdeg x4*x5
  [x5*x6]   mdeg x5*x6
  [x6*x7]   mdeg x6*x7
degree 2:
  [x1*x2, x2*x3]   mdeg x1*x2*x3
  [x2*x3, x3*x4]   mdeg x2*x3*x4
  [x1*x2, x4*x5]   mdeg x1*x2*x4*x5
  [x3*x4, x4*x5]   mdeg x3*x4*x5
  [x1*x2, x5*x6]   mdeg x1*x2*x5*x6
  [x2*x3, x5*x6]   mdeg x2*x3*x5*x6
  [x4*x5, x5*x6]   mdeg x4*x5*x6
  [x1*x2, x6*x7]   mdeg x1*x2*x6*x7
  [x2*x3, x6*x7]   mdeg x2*x3*x6*x7
  [x3*x4, x6*x7]   mdeg x3*x4*x6*x7
  [x5*x6, x6*x7]   mdeg x5*x6*x7
degree 3:
  [x1*x2, x3*x4, x4*x5]   mdeg x1*x2*x3*x4*x5
  [x1*x2, x2*x3, x5*x6]   mdeg x1*x2*x3*x5*x6
  [x1*x2, x4*x5, x5*x6]   mdeg x1*x2*x4*x5*x6
  [x2*x3, x4*x5, x5*x6]   mdeg x2*x3*x4*x5*x6
  [x1*x2, x2*x3, x6*x7]   mdeg x1*x2*x3*x6*x7
  [x2*x3, x3*x4, x6*x7]   mdeg x2*x3*x4*x6*x7
  [x1*x2, x5*x6, x6*x7]   mdeg x1*x2*x5*x6*x7
  [x2*x3, x5*x6, x6*x7]   mdeg x2*x3*x5*x6*x7
  [x3*x4, x5*x6, x6*x7]   mdeg x3*x4*x5*x6*x7
degree 4:
  [x1*x2, x3*x4, x4*x5, x5*x6]   mdeg x1*x2*x3*x4*x5*x6
  [x1*x2, x2*x3, x5*x6, x6*x7]   mdeg x1*x2*x3*x5*x6*x7
  [x2*x3, x4*x5, x5*x6, x6*x7]   mdeg x2*x3*x4*x5*x6*x7
matrix f_1:
  [0] <- [x1*x2]: 1 * x1*x2
  [0] <- [x2*x3]: 1 * x2*x3
  [0] <- [x3*x4]: 1 * x3*x4
  [0] <- [x4*x5]: 1 * x4*x5
  [0] <- [x5*x6]: 1 * x5*x6
  [0] <- [x6*x7]: 1 * x6*x7
matrix f_2:
  [x1*x2] <- [x1*x2, x2*x3]: 2 * x3
  [x2*x3] <- [x1*x2, x2*x3]: 1 * x1
  [x2*x3] <- [x2*x3, x3*x4]: 2 * x4
  [x3*x4] <- [x2*x3, x3*x4]: 1 * x2
  [x1*x2] <- [x1*x2, x4*x5]: 2 * x4*x5
  [x4*x5] <- [x1*x2, x4*x5]: 1 * x1*x2
  [x3*x4] <- [x3*x4, x4*x5]: 2 * x5
  [x4*x5] <- [x3*x4, x4*x5]: 1 * x3
  [x1*x2] <- [x1*x2, x5*x6]: 2 * x5*x6
  [x5*x6] <- [x1*x2, x5*x6]: 1 * x1*x2
  [x2*x3] <- [x2*x3, x5*x6]: 2 * x5*x6
  [x5*x6] <- [x2*x3, x5*x6]: 1 * x2*x3
  [x4*x5] <- [x4*x5, x5*x6]: 2 * x6
  [x5*x6] <- [x4*x5, x5*x6]: 1 * x4
  [x1*x2] <- [x1*x2, x6*x7]: 2 * x6*x7
  [x6*x7] <- [x1*x2, x6*x7]: 1 * x1*x2
  [x2*x3] <- [x2*x3, x6*x7]: 2 * x6*x7
  [x6*x7] <- [x2*x3, x6*x7]: 1 * x2*x3
  [x3*x4] <- [x3*x4, x6*x7]: 2 * x6*x7
  [x6*x7] <- [x3*x4, x6*x7]: 1 * x3*x4
  [x5*x6] <- [x5*x6, x6*x7]: 2 * x7
  [x6*x7] <- [x5*x6, x6*x7]: 1 * x5
matrix f_3:
  [x1*x2, x2*x3] <- [x1*x2, x3*x4, x4*x5]: 1 * x4*x5
  [x2*x3, x3*x4] <- [x1*x2, x3*x4, x4*x5]: 1 * x1*x5
  [x1*x2, x4*x5] <- [x1*x2, x3*x4, x4*x5]: 2 * x3
  [x3*x4, x4*x5] <- [x1*x2, x3*x4, x4*x5]: 1 * x1*x2
  [x1*x2, x2*x3] <- [x1*x2, x2*x3, x5*x6]: 1 * x5*x6
  [x1*x2, x5*x6] <- [x1*x2, x2*x3, x5*x6]: 2 * x3
  [x2*x3, x5*x6] <- [x1*x2, x2*x3, x5*x6]: 1 * x1
  [x1*x2, x4*x5] <- [x1*x2, x4*x5, x5*x6]: 1 * x6
  [x1*x2, x5*x6] <- [x1*x2, x4*x5, x5*x6]: 2 * x4
  [x4*x5, x5*x6] <- [x1*x2, x4*x5, x5*x6]: 1 * x1*x2
  [x2*x3, x3*x4] <- [x2*x3, x4*x5, x5*x6]: 1 * x5*x6
  [x3*x4, x4*x5] <- [x2*x3, x4*x5, x5*x6]: 1 * x2*x6
  [x2*x3, x5*x6] <- [x2*x3, x4*x5, x5*x6]: 2 * x4
  [x4*x5, x5*x6] <- [x2*x3, x4*x5, x5*x6]: 1 * x2*x3
  [x1*x2, x2*x3] <- [x1*x2, x2*x3, x6*x7]: 1 * x6*x7
  [x1*x2, x6*x7] <- [x1*x2, x2*x3, x6*x7]: 2 * x3
  [x2*x3, x6*x7] <- [x1*x2, x2*x3, x6*x7]: 1 * x1
  [x2*x3, x3*x4] <- [x2*x3, x3*x4, x6*x7]: 1 * x6*x7
  [x2*x3, x6*x7] <- [x2*x3, x3*x4, x6*x7]: 2 * x4
  [x3*x4, x6*x7] <- [x2*x3, x3*x4, x6*x7]: 1 * x2
  [x1*x2, x5*x6] <- [x1*x2, x5*x6, x6*x7]: 1 * x7
  [x1*x2, x6*x7] <- [x1*x2, x5*x6, x6*x7]: 2 * x5
  [x5*x6, x6*x7] <- [x1*x2, x5*x6, x6*x7]: 1 * x1*x2
  [x2*x3, x5*x6] <- [x2*x3, x5*x6, x6*x7]: 1 * x7
  [x2*x3, x6*x7] <- [x2*x3, x5*x6, x6*x7]: 2 * x5
  [x5*x6, x6*x7] <- [x2*x3, x5*x6, x6*x7]: 1 * x2*x3
  [x3*x4, x4*x5] <- [x3*x4, x5*x6, x6*x7]: 1 * x6*x7
  [x4*x5, x5*x6] <- [x3*x4, x5*x6, x6*x7]: 1 * x3*x7
  [x3*x4, x6*x7] <- [x3*x4, x5*x6, x6*x7]: 2 * x5
  [x5*x6, x6*x7] <- [x3*x4, x5*x6, x6*x7]: 1 * x3*x4
matrix f_4:
  [x1*x2, x3*x4, x4*x5] <- [x1*x2, x3*x4, x4*x5, x5*x6]: 2 * x6
  [x1*x2, x2*x3, x5*x6] <- [x1*x2, x3*x4, x4*x5, x5*x6]: 1 * x4
  [x1*x2, x4*x5, x5*x6] <- [x1*x2, x3*x4, x4*x5, x5*x6]: 2 * x3
  [x2*x3, x4*x5, x5*x6] <- [x1*x2, x3*x4, x4*x5, x5*x6]: 1 * x1
  [x1*x2, x2*x3, x5*x6] <- [x1*x2, x2*x3, x5*x6, x6*x7]: 2 * x7
  [x1*x2, x2*x3, x6*x7] <- [x1*x2, x2*x3, x5*x6, x6*x7]: 1 * x5
  [x1*x2, x5*x6, x6*x7] <- [x1*x2, x2*x3, x5*x6, x6*x7]: 2 * x3
  [x2*x3, x5*x6, x6*x7] <- [x1*x2, x2*x3, x5*x6, x6*x7]: 1 * x1
  [x2*x3, x4*x5, x5*x6] <- [x2*x3, x4*x5, x5*x6, x6*x7]: 2 * x7
  [x2*x3, x3*x4, x6*x7] <- [x2*x3, x4*x5, x5*x6, x6*x7]: 1 * x5
  [x2*x3, x5*x6, x6*x7] <- [x2*x3, x4*x5, x5*x6, x6*x7]: 2 * x4
  [x3*x4, x5*x6, x6*x7] <- [x2*x3, x4*x5, x5*x6, x6*x7]: 1 * x2
""",
    ("C4", "Q"): """\
minimal free resolution of the quotient; betti [1, 4, 4, 1]
degree 0:
  [0]   mdeg 1
degree 1:
  [a*b]   mdeg a*b
  [a*d]   mdeg a*d
  [b*c]   mdeg b*c
  [c*d]   mdeg c*d
degree 2:
  [a*b, a*d]   mdeg a*b*d
  [a*b, b*c]   mdeg a*b*c
  [a*d, c*d]   mdeg a*c*d
  [b*c, c*d]   mdeg b*c*d
degree 3:
  [a*d, b*c, c*d]   mdeg a*b*c*d
matrix f_1:
  [0] <- [a*b]: 1 * a*b
  [0] <- [a*d]: 1 * a*d
  [0] <- [b*c]: 1 * b*c
  [0] <- [c*d]: 1 * c*d
matrix f_2:
  [a*b] <- [a*b, a*d]: -1 * d
  [a*d] <- [a*b, a*d]: 1 * b
  [a*b] <- [a*b, b*c]: -1 * c
  [b*c] <- [a*b, b*c]: 1 * a
  [a*d] <- [a*d, c*d]: -1 * c
  [c*d] <- [a*d, c*d]: 1 * a
  [b*c] <- [b*c, c*d]: -1 * d
  [c*d] <- [b*c, c*d]: 1 * b
matrix f_3:
  [a*b, a*d] <- [a*d, b*c, c*d]: -1 * c
  [a*b, b*c] <- [a*d, b*c, c*d]: 1 * d
  [a*d, c*d] <- [a*d, b*c, c*d]: -1 * b
  [b*c, c*d] <- [a*d, b*c, c*d]: 1 * a
""",
    ("C4", "F3"): """\
minimal free resolution of the quotient; betti [1, 4, 4, 1]
degree 0:
  [0]   mdeg 1
degree 1:
  [a*b]   mdeg a*b
  [a*d]   mdeg a*d
  [b*c]   mdeg b*c
  [c*d]   mdeg c*d
degree 2:
  [a*b, a*d]   mdeg a*b*d
  [a*b, b*c]   mdeg a*b*c
  [a*d, c*d]   mdeg a*c*d
  [b*c, c*d]   mdeg b*c*d
degree 3:
  [a*d, b*c, c*d]   mdeg a*b*c*d
matrix f_1:
  [0] <- [a*b]: 1 * a*b
  [0] <- [a*d]: 1 * a*d
  [0] <- [b*c]: 1 * b*c
  [0] <- [c*d]: 1 * c*d
matrix f_2:
  [a*b] <- [a*b, a*d]: 2 * d
  [a*d] <- [a*b, a*d]: 1 * b
  [a*b] <- [a*b, b*c]: 2 * c
  [b*c] <- [a*b, b*c]: 1 * a
  [a*d] <- [a*d, c*d]: 2 * c
  [c*d] <- [a*d, c*d]: 1 * a
  [b*c] <- [b*c, c*d]: 2 * d
  [c*d] <- [b*c, c*d]: 1 * b
matrix f_3:
  [a*b, a*d] <- [a*d, b*c, c*d]: 2 * c
  [a*b, b*c] <- [a*d, b*c, c*d]: 1 * d
  [a*d, c*d] <- [a*d, b*c, c*d]: 2 * b
  [b*c, c*d] <- [a*d, b*c, c*d]: 1 * a
""",
    ("nonscarf", "Q"): """\
minimal free resolution of the quotient; betti [1, 5, 6, 2]
degree 0:
  [0]   mdeg 1
degree 1:
  [a^2*b]   mdeg a^2*b
  [a*b^2]   mdeg a*b^2
  [a*c]   mdeg a*c
  [b*c^2]   mdeg b*c^2
  [c^3]   mdeg c^3
degree 2:
  [a^2*b, a*b^2]   mdeg a^2*b^2
  [a^2*b, a*c]   mdeg a^2*b*c
  [a*b^2, a*c]   mdeg a*b^2*c
  [a*c, b*c^2]   mdeg a*b*c^2
  [a*c, c^3]   mdeg a*c^3
  [b*c^2, c^3]   mdeg b*c^3
degree 3:
  [a^2*b, a*b^2, a*c]   mdeg a^2*b^2*c
  [a*c, b*c^2, c^3]   mdeg a*b*c^3
matrix f_1:
  [0] <- [a^2*b]: 1 * a^2*b
  [0] <- [a*b^2]: 1 * a*b^2
  [0] <- [a*c]: 1 * a*c
  [0] <- [b*c^2]: 1 * b*c^2
  [0] <- [c^3]: 1 * c^3
matrix f_2:
  [a^2*b] <- [a^2*b, a*b^2]: -1 * b
  [a*b^2] <- [a^2*b, a*b^2]: 1 * a
  [a^2*b] <- [a^2*b, a*c]: -1 * c
  [a*c] <- [a^2*b, a*c]: 1 * a*b
  [a*b^2] <- [a*b^2, a*c]: -1 * c
  [a*c] <- [a*b^2, a*c]: 1 * b^2
  [a*c] <- [a*c, b*c^2]: -1 * b*c
  [b*c^2] <- [a*c, b*c^2]: 1 * a
  [a*c] <- [a*c, c^3]: -1 * c^2
  [c^3] <- [a*c, c^3]: 1 * a
  [b*c^2] <- [b*c^2, c^3]: -1 * c
  [c^3] <- [b*c^2, c^3]: 1 * b
matrix f_3:
  [a^2*b, a*b^2] <- [a^2*b, a*b^2, a*c]: 1 * c
  [a^2*b, a*c] <- [a^2*b, a*b^2, a*c]: -1 * b
  [a*b^2, a*c] <- [a^2*b, a*b^2, a*c]: 1 * a
  [a*c, b*c^2] <- [a*c, b*c^2, c^3]: 1 * c
  [a*c, c^3] <- [a*c, b*c^2, c^3]: -1 * b
  [b*c^2, c^3] <- [a*c, b*c^2, c^3]: 1 * a
""",
    ("nonscarf", "F3"): """\
minimal free resolution of the quotient; betti [1, 5, 6, 2]
degree 0:
  [0]   mdeg 1
degree 1:
  [a^2*b]   mdeg a^2*b
  [a*b^2]   mdeg a*b^2
  [a*c]   mdeg a*c
  [b*c^2]   mdeg b*c^2
  [c^3]   mdeg c^3
degree 2:
  [a^2*b, a*b^2]   mdeg a^2*b^2
  [a^2*b, a*c]   mdeg a^2*b*c
  [a*b^2, a*c]   mdeg a*b^2*c
  [a*c, b*c^2]   mdeg a*b*c^2
  [a*c, c^3]   mdeg a*c^3
  [b*c^2, c^3]   mdeg b*c^3
degree 3:
  [a^2*b, a*b^2, a*c]   mdeg a^2*b^2*c
  [a*c, b*c^2, c^3]   mdeg a*b*c^3
matrix f_1:
  [0] <- [a^2*b]: 1 * a^2*b
  [0] <- [a*b^2]: 1 * a*b^2
  [0] <- [a*c]: 1 * a*c
  [0] <- [b*c^2]: 1 * b*c^2
  [0] <- [c^3]: 1 * c^3
matrix f_2:
  [a^2*b] <- [a^2*b, a*b^2]: 2 * b
  [a*b^2] <- [a^2*b, a*b^2]: 1 * a
  [a^2*b] <- [a^2*b, a*c]: 2 * c
  [a*c] <- [a^2*b, a*c]: 1 * a*b
  [a*b^2] <- [a*b^2, a*c]: 2 * c
  [a*c] <- [a*b^2, a*c]: 1 * b^2
  [a*c] <- [a*c, b*c^2]: 2 * b*c
  [b*c^2] <- [a*c, b*c^2]: 1 * a
  [a*c] <- [a*c, c^3]: 2 * c^2
  [c^3] <- [a*c, c^3]: 1 * a
  [b*c^2] <- [b*c^2, c^3]: 2 * c
  [c^3] <- [b*c^2, c^3]: 1 * b
matrix f_3:
  [a^2*b, a*b^2] <- [a^2*b, a*b^2, a*c]: 1 * c
  [a^2*b, a*c] <- [a^2*b, a*b^2, a*c]: 2 * b
  [a*b^2, a*c] <- [a^2*b, a*b^2, a*c]: 1 * a
  [a*c, b*c^2] <- [a*c, b*c^2, c^3]: 1 * c
  [a*c, c^3] <- [a*c, b*c^2, c^3]: 2 * b
  [b*c^2, c^3] <- [a*c, b*c^2, c^3]: 1 * a
""",
    ("gapped", "Q"): """\
minimal free resolution of the quotient; betti [1, 4, 5, 2]
degree 0:
  [0]   mdeg 1
degree 1:
  [a^5*b]   mdeg a^5*b
  [a^2*c^7]   mdeg a^2*c^7
  [a*b^2*c^4]   mdeg a*b^2*c^4
  [b^3*c^2]   mdeg b^3*c^2
degree 2:
  [a^5*b, a^2*c^7]   mdeg a^5*b*c^7
  [a^5*b, a*b^2*c^4]   mdeg a^5*b^2*c^4
  [a^2*c^7, a*b^2*c^4]   mdeg a^2*b^2*c^7
  [a^5*b, b^3*c^2]   mdeg a^5*b^3*c^2
  [a*b^2*c^4, b^3*c^2]   mdeg a*b^3*c^4
degree 3:
  [a^5*b, a^2*c^7, a*b^2*c^4]   mdeg a^5*b^2*c^7
  [a^5*b, a*b^2*c^4, b^3*c^2]   mdeg a^5*b^3*c^4
matrix f_1:
  [0] <- [a^5*b]: 1 * a^5*b
  [0] <- [a^2*c^7]: 1 * a^2*c^7
  [0] <- [a*b^2*c^4]: 1 * a*b^2*c^4
  [0] <- [b^3*c^2]: 1 * b^3*c^2
matrix f_2:
  [a^5*b] <- [a^5*b, a^2*c^7]: -1 * c^7
  [a^2*c^7] <- [a^5*b, a^2*c^7]: 1 * a^3*b
  [a^5*b] <- [a^5*b, a*b^2*c^4]: -1 * b*c^4
  [a*b^2*c^4] <- [a^5*b, a*b^2*c^4]: 1 * a^4
  [a^2*c^7] <- [a^2*c^7, a*b^2*c^4]: -1 * b^2
  [a*b^2*c^4] <- [a^2*c^7, a*b^2*c^4]: 1 * a*c^3
  [a^5*b] <- [a^5*b, b^3*c^2]: -1 * b^2*c^2
  [b^3*c^2] <- [a^5*b, b^3*c^2]: 1 * a^5
  [a*b^2*c^4] <- [a*b^2*c^4, b^3*c^2]: -1 * b
  [b^3*c^2] <- [a*b^2*c^4, b^3*c^2]: 1 * a*c^2
matrix f_3:
  [a^5*b, a^2*c^7] <- [a^5*b, a^2*c^7, a*b^2*c^4]: 1 * b
  [a^5*b, a*b^2*c^4] <- [a^5*b, a^2*c^7, a*b^2*c^4]: -1 * c^3
  [a^2*c^7, a*b^2*c^4] <- [a^5*b, a^2*c^7, a*b^2*c^4]: 1 * a^3
  [a^5*b, a*b^2*c^4] <- [a^5*b, a*b^2*c^4, b^3*c^2]: 1 * b
  [a^5*b, b^3*c^2] <- [a^5*b, a*b^2*c^4, b^3*c^2]: -1 * c^2
  [a*b^2*c^4, b^3*c^2] <- [a^5*b, a*b^2*c^4, b^3*c^2]: 1 * a^4
""",
    ("gapped", "F3"): """\
minimal free resolution of the quotient; betti [1, 4, 5, 2]
degree 0:
  [0]   mdeg 1
degree 1:
  [a^5*b]   mdeg a^5*b
  [a^2*c^7]   mdeg a^2*c^7
  [a*b^2*c^4]   mdeg a*b^2*c^4
  [b^3*c^2]   mdeg b^3*c^2
degree 2:
  [a^5*b, a^2*c^7]   mdeg a^5*b*c^7
  [a^5*b, a*b^2*c^4]   mdeg a^5*b^2*c^4
  [a^2*c^7, a*b^2*c^4]   mdeg a^2*b^2*c^7
  [a^5*b, b^3*c^2]   mdeg a^5*b^3*c^2
  [a*b^2*c^4, b^3*c^2]   mdeg a*b^3*c^4
degree 3:
  [a^5*b, a^2*c^7, a*b^2*c^4]   mdeg a^5*b^2*c^7
  [a^5*b, a*b^2*c^4, b^3*c^2]   mdeg a^5*b^3*c^4
matrix f_1:
  [0] <- [a^5*b]: 1 * a^5*b
  [0] <- [a^2*c^7]: 1 * a^2*c^7
  [0] <- [a*b^2*c^4]: 1 * a*b^2*c^4
  [0] <- [b^3*c^2]: 1 * b^3*c^2
matrix f_2:
  [a^5*b] <- [a^5*b, a^2*c^7]: 2 * c^7
  [a^2*c^7] <- [a^5*b, a^2*c^7]: 1 * a^3*b
  [a^5*b] <- [a^5*b, a*b^2*c^4]: 2 * b*c^4
  [a*b^2*c^4] <- [a^5*b, a*b^2*c^4]: 1 * a^4
  [a^2*c^7] <- [a^2*c^7, a*b^2*c^4]: 2 * b^2
  [a*b^2*c^4] <- [a^2*c^7, a*b^2*c^4]: 1 * a*c^3
  [a^5*b] <- [a^5*b, b^3*c^2]: 2 * b^2*c^2
  [b^3*c^2] <- [a^5*b, b^3*c^2]: 1 * a^5
  [a*b^2*c^4] <- [a*b^2*c^4, b^3*c^2]: 2 * b
  [b^3*c^2] <- [a*b^2*c^4, b^3*c^2]: 1 * a*c^2
matrix f_3:
  [a^5*b, a^2*c^7] <- [a^5*b, a^2*c^7, a*b^2*c^4]: 1 * b
  [a^5*b, a*b^2*c^4] <- [a^5*b, a^2*c^7, a*b^2*c^4]: 2 * c^3
  [a^2*c^7, a*b^2*c^4] <- [a^5*b, a^2*c^7, a*b^2*c^4]: 1 * a^3
  [a^5*b, a*b^2*c^4] <- [a^5*b, a*b^2*c^4, b^3*c^2]: 1 * b
  [a^5*b, b^3*c^2] <- [a^5*b, a*b^2*c^4, b^3*c^2]: 2 * c^2
  [a*b^2*c^4, b^3*c^2] <- [a^5*b, a*b^2*c^4, b^3*c^2]: 1 * a^4
""",
}

# compact JSON; the CLI prints the same payload with sort_keys=True, indent=2
GOLDEN_JSON = {
    ("P6", "Q"): (
        '{"betti":[1,6,11,9,3],"matrices":{"1":[["[0]","[x1*x2]","1","x1*x2"],["[0]","[x2'
        '*x3]","1","x2*x3"],["[0]","[x3*x4]","1","x3*x4"],["[0]","[x4*x5]","1","x4*x5"],['
        '"[0]","[x5*x6]","1","x5*x6"],["[0]","[x6*x7]","1","x6*x7"]],"2":[["[x1*x2]","[x1'
        '*x2, x2*x3]","-1","x3"],["[x2*x3]","[x1*x2, x2*x3]","1","x1"],["[x2*x3]","[x2*x3'
        ', x3*x4]","-1","x4"],["[x3*x4]","[x2*x3, x3*x4]","1","x2"],["[x1*x2]","[x1*x2, x'
        '4*x5]","-1","x4*x5"],["[x4*x5]","[x1*x2, x4*x5]","1","x1*x2"],["[x3*x4]","[x3*x4'
        ', x4*x5]","-1","x5"],["[x4*x5]","[x3*x4, x4*x5]","1","x3"],["[x1*x2]","[x1*x2, x'
        '5*x6]","-1","x5*x6"],["[x5*x6]","[x1*x2, x5*x6]","1","x1*x2"],["[x2*x3]","[x2*x3'
        ', x5*x6]","-1","x5*x6"],["[x5*x6]","[x2*x3, x5*x6]","1","x2*x3"],["[x4*x5]","[x4'
        '*x5, x5*x6]","-1","x6"],["[x5*x6]","[x4*x5, x5*x6]","1","x4"],["[x1*x2]","[x1*x2'
        ', x6*x7]","-1","x6*x7"],["[x6*x7]","[x1*x2, x6*x7]","1","x1*x2"],["[x2*x3]","[x2'
        '*x3, x6*x7]","-1","x6*x7"],["[x6*x7]","[x2*x3, x6*x7]","1","x2*x3"],["[x3*x4]","'
        '[x3*x4, x6*x7]","-1","x6*x7"],["[x6*x7]","[x3*x4, x6*x7]","1","x3*x4"],["[x5*x6]'
        '","[x5*x6, x6*x7]","-1","x7"],["[x6*x7]","[x5*x6, x6*x7]","1","x5"]],"3":[["[x1*'
        'x2, x2*x3]","[x1*x2, x3*x4, x4*x5]","1","x4*x5"],["[x2*x3, x3*x4]","[x1*x2, x3*x'
        '4, x4*x5]","1","x1*x5"],["[x1*x2, x4*x5]","[x1*x2, x3*x4, x4*x5]","-1","x3"],["['
        'x3*x4, x4*x5]","[x1*x2, x3*x4, x4*x5]","1","x1*x2"],["[x1*x2, x2*x3]","[x1*x2, x'
        '2*x3, x5*x6]","1","x5*x6"],["[x1*x2, x5*x6]","[x1*x2, x2*x3, x5*x6]","-1","x3"],'
        '["[x2*x3, x5*x6]","[x1*x2, x2*x3, x5*x6]","1","x1"],["[x1*x2, x4*x5]","[x1*x2, x'
        '4*x5, x5*x6]","1","x6"],["[x1*x2, x5*x6]","[x1*x2, x4*x5, x5*x6]","-1","x4"],["['
        'x4*x5, x5*x6]","[x1*x2, x4*x5, x5*x6]","1","x1*x2"],["[x2*x3, x3*x4]","[x2*x3, x'
        '4*x5, x5*x6]","1","x5*x6"],["[x3*x4, x4*x5]","[x2*x3, x4*x5, x5*x6]","1","x2*x6"'
        '],["[x2*x3, x5*x6]","[x2*x3, x4*x5, x5*x6]","-1","x4"],["[x4*x5, x5*x6]","[x2*x3'
        ', x4*x5, x5*x6]","1","x2*x3"],["[x1*x2, x2*x3]","[x1*x2, x2*x3, x6*x7]","1","x6*'
        'x7"],["[x1*x2, x6*x7]","[x1*x2, x2*x3, x6*x7]","-1","x3"],["[x2*x3, x6*x7]","[x1'
        '*x2, x2*x3, x6*x7]","1","x1"],["[x2*x3, x3*x4]","[x2*x3, x3*x4, x6*x7]","1","x6*'
        'x7"],["[x2*x3, x6*x7]","[x2*x3, x3*x4, x6*x7]","-1","x4"],["[x3*x4, x6*x7]","[x2'
        '*x3, x3*x4, x6*x7]","1","x2"],["[x1*x2, x5*x6]","[x1*x2, x5*x6, x6*x7]","1","x7"'
        '],["[x1*x2, x6*x7]","[x1*x2, x5*x6, x6*x7]","-1","x5"],["[x5*x6, x6*x7]","[x1*x2'
        ', x5*x6, x6*x7]","1","x1*x2"],["[x2*x3, x5*x6]","[x2*x3, x5*x6, x6*x7]","1","x7"'
        '],["[x2*x3, x6*x7]","[x2*x3, x5*x6, x6*x7]","-1","x5"],["[x5*x6, x6*x7]","[x2*x3'
        ', x5*x6, x6*x7]","1","x2*x3"],["[x3*x4, x4*x5]","[x3*x4, x5*x6, x6*x7]","1","x6*'
        'x7"],["[x4*x5, x5*x6]","[x3*x4, x5*x6, x6*x7]","1","x3*x7"],["[x3*x4, x6*x7]","['
        'x3*x4, x5*x6, x6*x7]","-1","x5"],["[x5*x6, x6*x7]","[x3*x4, x5*x6, x6*x7]","1","'
        'x3*x4"]],"4":[["[x1*x2, x3*x4, x4*x5]","[x1*x2, x3*x4, x4*x5, x5*x6]","-1","x6"]'
        ',["[x1*x2, x2*x3, x5*x6]","[x1*x2, x3*x4, x4*x5, x5*x6]","1","x4"],["[x1*x2, x4*'
        'x5, x5*x6]","[x1*x2, x3*x4, x4*x5, x5*x6]","-1","x3"],["[x2*x3, x4*x5, x5*x6]","'
        '[x1*x2, x3*x4, x4*x5, x5*x6]","1","x1"],["[x1*x2, x2*x3, x5*x6]","[x1*x2, x2*x3,'
        ' x5*x6, x6*x7]","-1","x7"],["[x1*x2, x2*x3, x6*x7]","[x1*x2, x2*x3, x5*x6, x6*x7'
        ']","1","x5"],["[x1*x2, x5*x6, x6*x7]","[x1*x2, x2*x3, x5*x6, x6*x7]","-1","x3"],'
        '["[x2*x3, x5*x6, x6*x7]","[x1*x2, x2*x3, x5*x6, x6*x7]","1","x1"],["[x2*x3, x4*x'
        '5, x5*x6]","[x2*x3, x4*x5, x5*x6, x6*x7]","-1","x7"],["[x2*x3, x3*x4, x6*x7]","['
        'x2*x3, x4*x5, x5*x6, x6*x7]","1","x5"],["[x2*x3, x5*x6, x6*x7]","[x2*x3, x4*x5, '
        'x5*x6, x6*x7]","-1","x4"],["[x3*x4, x5*x6, x6*x7]","[x2*x3, x4*x5, x5*x6, x6*x7]'
        '","1","x2"]]},"strata":[["[0]"],["[x1*x2]","[x2*x3]","[x3*x4]","[x4*x5]","[x5*x6'
        ']","[x6*x7]"],["[x1*x2, x2*x3]","[x2*x3, x3*x4]","[x1*x2, x4*x5]","[x3*x4, x4*x5'
        ']","[x1*x2, x5*x6]","[x2*x3, x5*x6]","[x4*x5, x5*x6]","[x1*x2, x6*x7]","[x2*x3, '
        'x6*x7]","[x3*x4, x6*x7]","[x5*x6, x6*x7]"],["[x1*x2, x3*x4, x4*x5]","[x1*x2, x2*'
        'x3, x5*x6]","[x1*x2, x4*x5, x5*x6]","[x2*x3, x4*x5, x5*x6]","[x1*x2, x2*x3, x6*x'
        '7]","[x2*x3, x3*x4, x6*x7]","[x1*x2, x5*x6, x6*x7]","[x2*x3, x5*x6, x6*x7]","[x3'
        '*x4, x5*x6, x6*x7]"],["[x1*x2, x3*x4, x4*x5, x5*x6]","[x1*x2, x2*x3, x5*x6, x6*x'
        '7]","[x2*x3, x4*x5, x5*x6, x6*x7]"]]}'
    ),
    ("P6", "F3"): (
        '{"betti":[1,6,11,9,3],"matrices":{"1":[["[0]","[x1*x2]","1","x1*x2"],["[0]","[x2'
        '*x3]","1","x2*x3"],["[0]","[x3*x4]","1","x3*x4"],["[0]","[x4*x5]","1","x4*x5"],['
        '"[0]","[x5*x6]","1","x5*x6"],["[0]","[x6*x7]","1","x6*x7"]],"2":[["[x1*x2]","[x1'
        '*x2, x2*x3]","2","x3"],["[x2*x3]","[x1*x2, x2*x3]","1","x1"],["[x2*x3]","[x2*x3,'
        ' x3*x4]","2","x4"],["[x3*x4]","[x2*x3, x3*x4]","1","x2"],["[x1*x2]","[x1*x2, x4*'
        'x5]","2","x4*x5"],["[x4*x5]","[x1*x2, x4*x5]","1","x1*x2"],["[x3*x4]","[x3*x4, x'
        '4*x5]","2","x5"],["[x4*x5]","[x3*x4, x4*x5]","1","x3"],["[x1*x2]","[x1*x2, x5*x6'
        ']","2","x5*x6"],["[x5*x6]","[x1*x2, x5*x6]","1","x1*x2"],["[x2*x3]","[x2*x3, x5*'
        'x6]","2","x5*x6"],["[x5*x6]","[x2*x3, x5*x6]","1","x2*x3"],["[x4*x5]","[x4*x5, x'
        '5*x6]","2","x6"],["[x5*x6]","[x4*x5, x5*x6]","1","x4"],["[x1*x2]","[x1*x2, x6*x7'
        ']","2","x6*x7"],["[x6*x7]","[x1*x2, x6*x7]","1","x1*x2"],["[x2*x3]","[x2*x3, x6*'
        'x7]","2","x6*x7"],["[x6*x7]","[x2*x3, x6*x7]","1","x2*x3"],["[x3*x4]","[x3*x4, x'
        '6*x7]","2","x6*x7"],["[x6*x7]","[x3*x4, x6*x7]","1","x3*x4"],["[x5*x6]","[x5*x6,'
        ' x6*x7]","2","x7"],["[x6*x7]","[x5*x6, x6*x7]","1","x5"]],"3":[["[x1*x2, x2*x3]"'
        ',"[x1*x2, x3*x4, x4*x5]","1","x4*x5"],["[x2*x3, x3*x4]","[x1*x2, x3*x4, x4*x5]",'
        '"1","x1*x5"],["[x1*x2, x4*x5]","[x1*x2, x3*x4, x4*x5]","2","x3"],["[x3*x4, x4*x5'
        ']","[x1*x2, x3*x4, x4*x5]","1","x1*x2"],["[x1*x2, x2*x3]","[x1*x2, x2*x3, x5*x6]'
        '","1","x5*x6"],["[x1*x2, x5*x6]","[x1*x2, x2*x3, x5*x6]","2","x3"],["[x2*x3, x5*'
        'x6]","[x1*x2, x2*x3, x5*x6]","1","x1"],["[x1*x2, x4*x5]","[x1*x2, x4*x5, x5*x6]"'
        ',"1","x6"],["[x1*x2, x5*x6]","[x1*x2, x4*x5, x5*x6]","2","x4"],["[x4*x5, x5*x6]"'
        ',"[x1*x2, x4*x5, x5*x6]","1","x1*x2"],["[x2*x3, x3*x4]","[x2*x3, x4*x5, x5*x6]",'
        '"1","x5*x6"],["[x3*x4, x4*x5]","[x2*x3, x4*x5, x5*x6]","1","x2*x6"],["[x2*x3, x5'
        '*x6]","[x2*x3, x4*x5, x5*x6]","2","x4"],["[x4*x5, x5*x6]","[x2*x3, x4*x5, x5*x6]'
        '","1","x2*x3"],["[x1*x2, x2*x3]","[x1*x2, x2*x3, x6*x7]","1","x6*x7"],["[x1*x2, '
        'x6*x7]","[x1*x2, x2*x3, x6*x7]","2","x3"],["[x2*x3, x6*x7]","[x1*x2, x2*x3, x6*x'
        '7]","1","x1"],["[x2*x3, x3*x4]","[x2*x3, x3*x4, x6*x7]","1","x6*x7"],["[x2*x3, x'
        '6*x7]","[x2*x3, x3*x4, x6*x7]","2","x4"],["[x3*x4, x6*x7]","[x2*x3, x3*x4, x6*x7'
        ']","1","x2"],["[x1*x2, x5*x6]","[x1*x2, x5*x6, x6*x7]","1","x7"],["[x1*x2, x6*x7'
        ']","[x1*x2, x5*x6, x6*x7]","2","x5"],["[x5*x6, x6*x7]","[x1*x2, x5*x6, x6*x7]","'
        '1","x1*x2"],["[x2*x3, x5*x6]","[x2*x3, x5*x6, x6*x7]","1","x7"],["[x2*x3, x6*x7]'
        '","[x2*x3, x5*x6, x6*x7]","2","x5"],["[x5*x6, x6*x7]","[x2*x3, x5*x6, x6*x7]","1'
        '","x2*x3"],["[x3*x4, x4*x5]","[x3*x4, x5*x6, x6*x7]","1","x6*x7"],["[x4*x5, x5*x'
        '6]","[x3*x4, x5*x6, x6*x7]","1","x3*x7"],["[x3*x4, x6*x7]","[x3*x4, x5*x6, x6*x7'
        ']","2","x5"],["[x5*x6, x6*x7]","[x3*x4, x5*x6, x6*x7]","1","x3*x4"]],"4":[["[x1*'
        'x2, x3*x4, x4*x5]","[x1*x2, x3*x4, x4*x5, x5*x6]","2","x6"],["[x1*x2, x2*x3, x5*'
        'x6]","[x1*x2, x3*x4, x4*x5, x5*x6]","1","x4"],["[x1*x2, x4*x5, x5*x6]","[x1*x2, '
        'x3*x4, x4*x5, x5*x6]","2","x3"],["[x2*x3, x4*x5, x5*x6]","[x1*x2, x3*x4, x4*x5, '
        'x5*x6]","1","x1"],["[x1*x2, x2*x3, x5*x6]","[x1*x2, x2*x3, x5*x6, x6*x7]","2","x'
        '7"],["[x1*x2, x2*x3, x6*x7]","[x1*x2, x2*x3, x5*x6, x6*x7]","1","x5"],["[x1*x2, '
        'x5*x6, x6*x7]","[x1*x2, x2*x3, x5*x6, x6*x7]","2","x3"],["[x2*x3, x5*x6, x6*x7]"'
        ',"[x1*x2, x2*x3, x5*x6, x6*x7]","1","x1"],["[x2*x3, x4*x5, x5*x6]","[x2*x3, x4*x'
        '5, x5*x6, x6*x7]","2","x7"],["[x2*x3, x3*x4, x6*x7]","[x2*x3, x4*x5, x5*x6, x6*x'
        '7]","1","x5"],["[x2*x3, x5*x6, x6*x7]","[x2*x3, x4*x5, x5*x6, x6*x7]","2","x4"],'
        '["[x3*x4, x5*x6, x6*x7]","[x2*x3, x4*x5, x5*x6, x6*x7]","1","x2"]]},"strata":[["'
        '[0]"],["[x1*x2]","[x2*x3]","[x3*x4]","[x4*x5]","[x5*x6]","[x6*x7]"],["[x1*x2, x2'
        '*x3]","[x2*x3, x3*x4]","[x1*x2, x4*x5]","[x3*x4, x4*x5]","[x1*x2, x5*x6]","[x2*x'
        '3, x5*x6]","[x4*x5, x5*x6]","[x1*x2, x6*x7]","[x2*x3, x6*x7]","[x3*x4, x6*x7]","'
        '[x5*x6, x6*x7]"],["[x1*x2, x3*x4, x4*x5]","[x1*x2, x2*x3, x5*x6]","[x1*x2, x4*x5'
        ', x5*x6]","[x2*x3, x4*x5, x5*x6]","[x1*x2, x2*x3, x6*x7]","[x2*x3, x3*x4, x6*x7]'
        '","[x1*x2, x5*x6, x6*x7]","[x2*x3, x5*x6, x6*x7]","[x3*x4, x5*x6, x6*x7]"],["[x1'
        '*x2, x3*x4, x4*x5, x5*x6]","[x1*x2, x2*x3, x5*x6, x6*x7]","[x2*x3, x4*x5, x5*x6,'
        ' x6*x7]"]]}'
    ),
    ("C4", "Q"): (
        '{"betti":[1,4,4,1],"matrices":{"1":[["[0]","[a*b]","1","a*b"],["[0]","[a*d]","1"'
        ',"a*d"],["[0]","[b*c]","1","b*c"],["[0]","[c*d]","1","c*d"]],"2":[["[a*b]","[a*b'
        ', a*d]","-1","d"],["[a*d]","[a*b, a*d]","1","b"],["[a*b]","[a*b, b*c]","-1","c"]'
        ',["[b*c]","[a*b, b*c]","1","a"],["[a*d]","[a*d, c*d]","-1","c"],["[c*d]","[a*d, '
        'c*d]","1","a"],["[b*c]","[b*c, c*d]","-1","d"],["[c*d]","[b*c, c*d]","1","b"]],"'
        '3":[["[a*b, a*d]","[a*d, b*c, c*d]","-1","c"],["[a*b, b*c]","[a*d, b*c, c*d]","1'
        '","d"],["[a*d, c*d]","[a*d, b*c, c*d]","-1","b"],["[b*c, c*d]","[a*d, b*c, c*d]"'
        ',"1","a"]]},"strata":[["[0]"],["[a*b]","[a*d]","[b*c]","[c*d]"],["[a*b, a*d]","['
        'a*b, b*c]","[a*d, c*d]","[b*c, c*d]"],["[a*d, b*c, c*d]"]]}'
    ),
    ("C4", "F3"): (
        '{"betti":[1,4,4,1],"matrices":{"1":[["[0]","[a*b]","1","a*b"],["[0]","[a*d]","1"'
        ',"a*d"],["[0]","[b*c]","1","b*c"],["[0]","[c*d]","1","c*d"]],"2":[["[a*b]","[a*b'
        ', a*d]","2","d"],["[a*d]","[a*b, a*d]","1","b"],["[a*b]","[a*b, b*c]","2","c"],['
        '"[b*c]","[a*b, b*c]","1","a"],["[a*d]","[a*d, c*d]","2","c"],["[c*d]","[a*d, c*d'
        ']","1","a"],["[b*c]","[b*c, c*d]","2","d"],["[c*d]","[b*c, c*d]","1","b"]],"3":['
        '["[a*b, a*d]","[a*d, b*c, c*d]","2","c"],["[a*b, b*c]","[a*d, b*c, c*d]","1","d"'
        '],["[a*d, c*d]","[a*d, b*c, c*d]","2","b"],["[b*c, c*d]","[a*d, b*c, c*d]","1","'
        'a"]]},"strata":[["[0]"],["[a*b]","[a*d]","[b*c]","[c*d]"],["[a*b, a*d]","[a*b, b'
        '*c]","[a*d, c*d]","[b*c, c*d]"],["[a*d, b*c, c*d]"]]}'
    ),
    ("nonscarf", "Q"): (
        '{"betti":[1,5,6,2],"matrices":{"1":[["[0]","[a^2*b]","1","a^2*b"],["[0]","[a*b^2'
        ']","1","a*b^2"],["[0]","[a*c]","1","a*c"],["[0]","[b*c^2]","1","b*c^2"],["[0]","'
        '[c^3]","1","c^3"]],"2":[["[a^2*b]","[a^2*b, a*b^2]","-1","b"],["[a*b^2]","[a^2*b'
        ', a*b^2]","1","a"],["[a^2*b]","[a^2*b, a*c]","-1","c"],["[a*c]","[a^2*b, a*c]","'
        '1","a*b"],["[a*b^2]","[a*b^2, a*c]","-1","c"],["[a*c]","[a*b^2, a*c]","1","b^2"]'
        ',["[a*c]","[a*c, b*c^2]","-1","b*c"],["[b*c^2]","[a*c, b*c^2]","1","a"],["[a*c]"'
        ',"[a*c, c^3]","-1","c^2"],["[c^3]","[a*c, c^3]","1","a"],["[b*c^2]","[b*c^2, c^3'
        ']","-1","c"],["[c^3]","[b*c^2, c^3]","1","b"]],"3":[["[a^2*b, a*b^2]","[a^2*b, a'
        '*b^2, a*c]","1","c"],["[a^2*b, a*c]","[a^2*b, a*b^2, a*c]","-1","b"],["[a*b^2, a'
        '*c]","[a^2*b, a*b^2, a*c]","1","a"],["[a*c, b*c^2]","[a*c, b*c^2, c^3]","1","c"]'
        ',["[a*c, c^3]","[a*c, b*c^2, c^3]","-1","b"],["[b*c^2, c^3]","[a*c, b*c^2, c^3]"'
        ',"1","a"]]},"strata":[["[0]"],["[a^2*b]","[a*b^2]","[a*c]","[b*c^2]","[c^3]"],["'
        '[a^2*b, a*b^2]","[a^2*b, a*c]","[a*b^2, a*c]","[a*c, b*c^2]","[a*c, c^3]","[b*c^'
        '2, c^3]"],["[a^2*b, a*b^2, a*c]","[a*c, b*c^2, c^3]"]]}'
    ),
    ("nonscarf", "F3"): (
        '{"betti":[1,5,6,2],"matrices":{"1":[["[0]","[a^2*b]","1","a^2*b"],["[0]","[a*b^2'
        ']","1","a*b^2"],["[0]","[a*c]","1","a*c"],["[0]","[b*c^2]","1","b*c^2"],["[0]","'
        '[c^3]","1","c^3"]],"2":[["[a^2*b]","[a^2*b, a*b^2]","2","b"],["[a*b^2]","[a^2*b,'
        ' a*b^2]","1","a"],["[a^2*b]","[a^2*b, a*c]","2","c"],["[a*c]","[a^2*b, a*c]","1"'
        ',"a*b"],["[a*b^2]","[a*b^2, a*c]","2","c"],["[a*c]","[a*b^2, a*c]","1","b^2"],["'
        '[a*c]","[a*c, b*c^2]","2","b*c"],["[b*c^2]","[a*c, b*c^2]","1","a"],["[a*c]","[a'
        '*c, c^3]","2","c^2"],["[c^3]","[a*c, c^3]","1","a"],["[b*c^2]","[b*c^2, c^3]","2'
        '","c"],["[c^3]","[b*c^2, c^3]","1","b"]],"3":[["[a^2*b, a*b^2]","[a^2*b, a*b^2, '
        'a*c]","1","c"],["[a^2*b, a*c]","[a^2*b, a*b^2, a*c]","2","b"],["[a*b^2, a*c]","['
        'a^2*b, a*b^2, a*c]","1","a"],["[a*c, b*c^2]","[a*c, b*c^2, c^3]","1","c"],["[a*c'
        ', c^3]","[a*c, b*c^2, c^3]","2","b"],["[b*c^2, c^3]","[a*c, b*c^2, c^3]","1","a"'
        ']]},"strata":[["[0]"],["[a^2*b]","[a*b^2]","[a*c]","[b*c^2]","[c^3]"],["[a^2*b, '
        'a*b^2]","[a^2*b, a*c]","[a*b^2, a*c]","[a*c, b*c^2]","[a*c, c^3]","[b*c^2, c^3]"'
        '],["[a^2*b, a*b^2, a*c]","[a*c, b*c^2, c^3]"]]}'
    ),
    ("gapped", "Q"): (
        '{"betti":[1,4,5,2],"matrices":{"1":[["[0]","[a^5*b]","1","a^5*b"],["[0]","[a^2*c'
        '^7]","1","a^2*c^7"],["[0]","[a*b^2*c^4]","1","a*b^2*c^4"],["[0]","[b^3*c^2]","1"'
        ',"b^3*c^2"]],"2":[["[a^5*b]","[a^5*b, a^2*c^7]","-1","c^7"],["[a^2*c^7]","[a^5*b'
        ', a^2*c^7]","1","a^3*b"],["[a^5*b]","[a^5*b, a*b^2*c^4]","-1","b*c^4"],["[a*b^2*'
        'c^4]","[a^5*b, a*b^2*c^4]","1","a^4"],["[a^2*c^7]","[a^2*c^7, a*b^2*c^4]","-1","'
        'b^2"],["[a*b^2*c^4]","[a^2*c^7, a*b^2*c^4]","1","a*c^3"],["[a^5*b]","[a^5*b, b^3'
        '*c^2]","-1","b^2*c^2"],["[b^3*c^2]","[a^5*b, b^3*c^2]","1","a^5"],["[a*b^2*c^4]"'
        ',"[a*b^2*c^4, b^3*c^2]","-1","b"],["[b^3*c^2]","[a*b^2*c^4, b^3*c^2]","1","a*c^2'
        '"]],"3":[["[a^5*b, a^2*c^7]","[a^5*b, a^2*c^7, a*b^2*c^4]","1","b"],["[a^5*b, a*'
        'b^2*c^4]","[a^5*b, a^2*c^7, a*b^2*c^4]","-1","c^3"],["[a^2*c^7, a*b^2*c^4]","[a^'
        '5*b, a^2*c^7, a*b^2*c^4]","1","a^3"],["[a^5*b, a*b^2*c^4]","[a^5*b, a*b^2*c^4, b'
        '^3*c^2]","1","b"],["[a^5*b, b^3*c^2]","[a^5*b, a*b^2*c^4, b^3*c^2]","-1","c^2"],'
        '["[a*b^2*c^4, b^3*c^2]","[a^5*b, a*b^2*c^4, b^3*c^2]","1","a^4"]]},"strata":[["['
        '0]"],["[a^5*b]","[a^2*c^7]","[a*b^2*c^4]","[b^3*c^2]"],["[a^5*b, a^2*c^7]","[a^5'
        '*b, a*b^2*c^4]","[a^2*c^7, a*b^2*c^4]","[a^5*b, b^3*c^2]","[a*b^2*c^4, b^3*c^2]"'
        '],["[a^5*b, a^2*c^7, a*b^2*c^4]","[a^5*b, a*b^2*c^4, b^3*c^2]"]]}'
    ),
    ("gapped", "F3"): (
        '{"betti":[1,4,5,2],"matrices":{"1":[["[0]","[a^5*b]","1","a^5*b"],["[0]","[a^2*c'
        '^7]","1","a^2*c^7"],["[0]","[a*b^2*c^4]","1","a*b^2*c^4"],["[0]","[b^3*c^2]","1"'
        ',"b^3*c^2"]],"2":[["[a^5*b]","[a^5*b, a^2*c^7]","2","c^7"],["[a^2*c^7]","[a^5*b,'
        ' a^2*c^7]","1","a^3*b"],["[a^5*b]","[a^5*b, a*b^2*c^4]","2","b*c^4"],["[a*b^2*c^'
        '4]","[a^5*b, a*b^2*c^4]","1","a^4"],["[a^2*c^7]","[a^2*c^7, a*b^2*c^4]","2","b^2'
        '"],["[a*b^2*c^4]","[a^2*c^7, a*b^2*c^4]","1","a*c^3"],["[a^5*b]","[a^5*b, b^3*c^'
        '2]","2","b^2*c^2"],["[b^3*c^2]","[a^5*b, b^3*c^2]","1","a^5"],["[a*b^2*c^4]","[a'
        '*b^2*c^4, b^3*c^2]","2","b"],["[b^3*c^2]","[a*b^2*c^4, b^3*c^2]","1","a*c^2"]],"'
        '3":[["[a^5*b, a^2*c^7]","[a^5*b, a^2*c^7, a*b^2*c^4]","1","b"],["[a^5*b, a*b^2*c'
        '^4]","[a^5*b, a^2*c^7, a*b^2*c^4]","2","c^3"],["[a^2*c^7, a*b^2*c^4]","[a^5*b, a'
        '^2*c^7, a*b^2*c^4]","1","a^3"],["[a^5*b, a*b^2*c^4]","[a^5*b, a*b^2*c^4, b^3*c^2'
        ']","1","b"],["[a^5*b, b^3*c^2]","[a^5*b, a*b^2*c^4, b^3*c^2]","2","c^2"],["[a*b^'
        '2*c^4, b^3*c^2]","[a^5*b, a*b^2*c^4, b^3*c^2]","1","a^4"]]},"strata":[["[0]"],["'
        '[a^5*b]","[a^2*c^7]","[a*b^2*c^4]","[b^3*c^2]"],["[a^5*b, a^2*c^7]","[a^5*b, a*b'
        '^2*c^4]","[a^2*c^7, a*b^2*c^4]","[a^5*b, b^3*c^2]","[a*b^2*c^4, b^3*c^2]"],["[a^'
        '5*b, a^2*c^7, a*b^2*c^4]","[a^5*b, a*b^2*c^4, b^3*c^2]"]]}'
    ),
}

# compact JSON of `analyze --json`, printed with sort_keys=True, indent=2
GOLDEN_ANALYZE_JSON = {
    ("P6", "Q"): (
        '{"betti":[1,6,11,9,3],"checks":[{"name":"odom-routes-agree","status":"pass"},{"n'
        'ame":"codim-le-odom-le-pd","status":"pass"},{"name":"pd-n-iff-odom-n","status":"'
        'pass"},{"name":"pd-1-iff-odom-1","status":"pass"},{"name":"odom-n-minus-1-forces'
        '-pd","status":"vacuous"},{"name":"odom-q-minus-1-forces-pd","status":"vacuous"},'
        '{"name":"scarf-forces-pd-eq-odom","status":"vacuous"},{"name":"taylor-minimal-if'
        'f-odom-q","status":"pass"},{"name":"betti-binomial-odom","status":"pass"},{"name'
        '":"betti-binomial-pd","status":"pass"},{"name":"betti-sum-two-pow-odom","status"'
        ':"pass"},{"name":"betti-sum-non-ci","status":"pass"},{"name":"three-variables","'
        'status":"vacuous"},{"name":"scarf-cm-iff-equal-net-cards","status":"vacuous"},{"'
        'name":"odom-polarization-invariant","status":"pass"},{"name":"betti-engine-vs-or'
        'acle","status":"pass"}],"codim":3,"cohen_macaulay":false,"complete_intersection"'
        ':false,"field":"rational","graded_betti":[[0,0,1],[1,2,6],[2,3,5],[2,4,6],[3,5,9'
        '],[4,6,3]],"ideal":"x1*x2, x2*x3, x3*x4, x4*x5, x5*x6, x6*x7","minimal_nets":{"b'
        'ase":[["x2","x4","x6"],["x1","x3","x4","x6"],["x1","x3","x5","x6"],["x1","x3","x'
        '5","x7"],["x2","x3","x5","x6"],["x2","x3","x5","x7"],["x2","x4","x5","x7"]],"pol'
        'arized":[["x2_1","x4_1","x6_1"],["x1_1","x3_1","x4_1","x6_1"],["x1_1","x3_1","x5'
        '_1","x6_1"],["x1_1","x3_1","x5_1","x7_1"],["x2_1","x3_1","x5_1","x6_1"],["x2_1",'
        '"x3_1","x5_1","x7_1"],["x2_1","x4_1","x5_1","x7_1"]]},"multigraded_betti":[[0,"1'
        '",1],[1,"x6*x7",1],[1,"x5*x6",1],[1,"x4*x5",1],[1,"x3*x4",1],[1,"x2*x3",1],[1,"x'
        '1*x2",1],[2,"x5*x6*x7",1],[2,"x4*x5*x6",1],[2,"x3*x4*x6*x7",1],[2,"x3*x4*x5",1],'
        '[2,"x2*x3*x6*x7",1],[2,"x2*x3*x5*x6",1],[2,"x2*x3*x4",1],[2,"x1*x2*x6*x7",1],[2,'
        '"x1*x2*x5*x6",1],[2,"x1*x2*x4*x5",1],[2,"x1*x2*x3",1],[3,"x3*x4*x5*x6*x7",1],[3,'
        '"x2*x3*x5*x6*x7",1],[3,"x2*x3*x4*x6*x7",1],[3,"x2*x3*x4*x5*x6",1],[3,"x1*x2*x5*x'
        '6*x7",1],[3,"x1*x2*x4*x5*x6",1],[3,"x1*x2*x3*x6*x7",1],[3,"x1*x2*x3*x5*x6",1],[3'
        ',"x1*x2*x3*x4*x5",1],[4,"x2*x3*x4*x5*x6*x7",1],[4,"x1*x2*x3*x5*x6*x7",1],[4,"x1*'
        'x2*x3*x4*x5*x6",1]],"n":7,"odom":4,"pd":4,"q":6,"scarf":false,"taylor_minimal":f'
        'alse,"vars":["x1","x2","x3","x4","x5","x6","x7"],"witnesses":{"dominant_set":["x'
        '1*x2","x2*x3","x4*x5","x5*x6"],"net":["x1_1","x3_1","x4_1","x6_1"]}}'
    ),
    ("P6", "F3"): (
        '{"betti":[1,6,11,9,3],"checks":[{"name":"odom-routes-agree","status":"pass"},{"n'
        'ame":"codim-le-odom-le-pd","status":"pass"},{"name":"pd-n-iff-odom-n","status":"'
        'pass"},{"name":"pd-1-iff-odom-1","status":"pass"},{"name":"odom-n-minus-1-forces'
        '-pd","status":"vacuous"},{"name":"odom-q-minus-1-forces-pd","status":"vacuous"},'
        '{"name":"scarf-forces-pd-eq-odom","status":"vacuous"},{"name":"taylor-minimal-if'
        'f-odom-q","status":"pass"},{"name":"betti-binomial-odom","status":"pass"},{"name'
        '":"betti-binomial-pd","status":"pass"},{"name":"betti-sum-two-pow-odom","status"'
        ':"pass"},{"name":"betti-sum-non-ci","status":"pass"},{"name":"three-variables","'
        'status":"vacuous"},{"name":"scarf-cm-iff-equal-net-cards","status":"vacuous"},{"'
        'name":"odom-polarization-invariant","status":"pass"},{"name":"betti-engine-vs-or'
        'acle","status":"pass"}],"codim":3,"cohen_macaulay":false,"complete_intersection"'
        ':false,"field":"fp:3","graded_betti":[[0,0,1],[1,2,6],[2,3,5],[2,4,6],[3,5,9],[4'
        ',6,3]],"ideal":"x1*x2, x2*x3, x3*x4, x4*x5, x5*x6, x6*x7","minimal_nets":{"base"'
        ':[["x2","x4","x6"],["x1","x3","x4","x6"],["x1","x3","x5","x6"],["x1","x3","x5","'
        'x7"],["x2","x3","x5","x6"],["x2","x3","x5","x7"],["x2","x4","x5","x7"]],"polariz'
        'ed":[["x2_1","x4_1","x6_1"],["x1_1","x3_1","x4_1","x6_1"],["x1_1","x3_1","x5_1",'
        '"x6_1"],["x1_1","x3_1","x5_1","x7_1"],["x2_1","x3_1","x5_1","x6_1"],["x2_1","x3_'
        '1","x5_1","x7_1"],["x2_1","x4_1","x5_1","x7_1"]]},"multigraded_betti":[[0,"1",1]'
        ',[1,"x6*x7",1],[1,"x5*x6",1],[1,"x4*x5",1],[1,"x3*x4",1],[1,"x2*x3",1],[1,"x1*x2'
        '",1],[2,"x5*x6*x7",1],[2,"x4*x5*x6",1],[2,"x3*x4*x6*x7",1],[2,"x3*x4*x5",1],[2,"'
        'x2*x3*x6*x7",1],[2,"x2*x3*x5*x6",1],[2,"x2*x3*x4",1],[2,"x1*x2*x6*x7",1],[2,"x1*'
        'x2*x5*x6",1],[2,"x1*x2*x4*x5",1],[2,"x1*x2*x3",1],[3,"x3*x4*x5*x6*x7",1],[3,"x2*'
        'x3*x5*x6*x7",1],[3,"x2*x3*x4*x6*x7",1],[3,"x2*x3*x4*x5*x6",1],[3,"x1*x2*x5*x6*x7'
        '",1],[3,"x1*x2*x4*x5*x6",1],[3,"x1*x2*x3*x6*x7",1],[3,"x1*x2*x3*x5*x6",1],[3,"x1'
        '*x2*x3*x4*x5",1],[4,"x2*x3*x4*x5*x6*x7",1],[4,"x1*x2*x3*x5*x6*x7",1],[4,"x1*x2*x'
        '3*x4*x5*x6",1]],"n":7,"odom":4,"pd":4,"q":6,"scarf":false,"taylor_minimal":false'
        ',"vars":["x1","x2","x3","x4","x5","x6","x7"],"witnesses":{"dominant_set":["x1*x2'
        '","x2*x3","x4*x5","x5*x6"],"net":["x1_1","x3_1","x4_1","x6_1"]}}'
    ),
    ("C4", "Q"): (
        '{"betti":[1,4,4,1],"checks":[{"name":"odom-routes-agree","status":"pass"},{"name'
        '":"codim-le-odom-le-pd","status":"pass"},{"name":"pd-n-iff-odom-n","status":"pas'
        's"},{"name":"pd-1-iff-odom-1","status":"pass"},{"name":"odom-n-minus-1-forces-pd'
        '","status":"vacuous"},{"name":"odom-q-minus-1-forces-pd","status":"vacuous"},{"n'
        'ame":"scarf-forces-pd-eq-odom","status":"vacuous"},{"name":"taylor-minimal-iff-o'
        'dom-q","status":"pass"},{"name":"betti-binomial-odom","status":"pass"},{"name":"'
        'betti-binomial-pd","status":"pass"},{"name":"betti-sum-two-pow-odom","status":"v'
        'acuous"},{"name":"betti-sum-non-ci","status":"pass"},{"name":"three-variables","'
        'status":"vacuous"},{"name":"scarf-cm-iff-equal-net-cards","status":"vacuous"},{"'
        'name":"odom-polarization-invariant","status":"pass"},{"name":"betti-engine-vs-or'
        'acle","status":"pass"}],"codim":2,"cohen_macaulay":false,"complete_intersection"'
        ':false,"field":"rational","graded_betti":[[0,0,1],[1,2,4],[2,3,4],[3,4,1]],"idea'
        'l":"a*b, a*d, b*c, c*d","minimal_nets":{"base":[["a","c"],["b","d"]],"polarized"'
        ':[["a_1","c_1"],["b_1","d_1"]]},"multigraded_betti":[[0,"1",1],[1,"c*d",1],[1,"b'
        '*c",1],[1,"a*d",1],[1,"a*b",1],[2,"b*c*d",1],[2,"a*c*d",1],[2,"a*b*d",1],[2,"a*b'
        '*c",1],[3,"a*b*c*d",1]],"n":4,"odom":2,"pd":3,"q":4,"scarf":false,"taylor_minima'
        'l":false,"vars":["a","b","c","d"],"witnesses":{"dominant_set":["a*b","a*d"],"net'
        '":["a_1","c_1"]}}'
    ),
    ("C4", "F3"): (
        '{"betti":[1,4,4,1],"checks":[{"name":"odom-routes-agree","status":"pass"},{"name'
        '":"codim-le-odom-le-pd","status":"pass"},{"name":"pd-n-iff-odom-n","status":"pas'
        's"},{"name":"pd-1-iff-odom-1","status":"pass"},{"name":"odom-n-minus-1-forces-pd'
        '","status":"vacuous"},{"name":"odom-q-minus-1-forces-pd","status":"vacuous"},{"n'
        'ame":"scarf-forces-pd-eq-odom","status":"vacuous"},{"name":"taylor-minimal-iff-o'
        'dom-q","status":"pass"},{"name":"betti-binomial-odom","status":"pass"},{"name":"'
        'betti-binomial-pd","status":"pass"},{"name":"betti-sum-two-pow-odom","status":"v'
        'acuous"},{"name":"betti-sum-non-ci","status":"pass"},{"name":"three-variables","'
        'status":"vacuous"},{"name":"scarf-cm-iff-equal-net-cards","status":"vacuous"},{"'
        'name":"odom-polarization-invariant","status":"pass"},{"name":"betti-engine-vs-or'
        'acle","status":"pass"}],"codim":2,"cohen_macaulay":false,"complete_intersection"'
        ':false,"field":"fp:3","graded_betti":[[0,0,1],[1,2,4],[2,3,4],[3,4,1]],"ideal":"'
        'a*b, a*d, b*c, c*d","minimal_nets":{"base":[["a","c"],["b","d"]],"polarized":[["'
        'a_1","c_1"],["b_1","d_1"]]},"multigraded_betti":[[0,"1",1],[1,"c*d",1],[1,"b*c",'
        '1],[1,"a*d",1],[1,"a*b",1],[2,"b*c*d",1],[2,"a*c*d",1],[2,"a*b*d",1],[2,"a*b*c",'
        '1],[3,"a*b*c*d",1]],"n":4,"odom":2,"pd":3,"q":4,"scarf":false,"taylor_minimal":f'
        'alse,"vars":["a","b","c","d"],"witnesses":{"dominant_set":["a*b","a*d"],"net":["'
        'a_1","c_1"]}}'
    ),
    ("nonscarf", "Q"): (
        '{"betti":[1,5,6,2],"checks":[{"name":"odom-routes-agree","status":"pass"},{"name'
        '":"codim-le-odom-le-pd","status":"pass"},{"name":"pd-n-iff-odom-n","status":"pas'
        's"},{"name":"pd-1-iff-odom-1","status":"pass"},{"name":"odom-n-minus-1-forces-pd'
        '","status":"vacuous"},{"name":"odom-q-minus-1-forces-pd","status":"vacuous"},{"n'
        'ame":"scarf-forces-pd-eq-odom","status":"pass"},{"name":"taylor-minimal-iff-odom'
        '-q","status":"pass"},{"name":"betti-binomial-odom","status":"pass"},{"name":"bet'
        'ti-binomial-pd","status":"pass"},{"name":"betti-sum-two-pow-odom","status":"pass'
        '"},{"name":"betti-sum-non-ci","status":"pass"},{"name":"three-variables","status'
        '":"pass"},{"name":"scarf-cm-iff-equal-net-cards","status":"pass"},{"name":"odom-'
        'polarization-invariant","status":"pass"},{"name":"betti-engine-vs-oracle","statu'
        's":"pass"}],"codim":2,"cohen_macaulay":false,"complete_intersection":false,"fiel'
        'd":"rational","graded_betti":[[0,0,1],[1,2,1],[1,3,4],[2,4,6],[3,5,2]],"ideal":"'
        'a^2*b, a*b^2, a*c, b*c^2, c^3","minimal_nets":{"base":[["a","c"],["b","c"]],"pol'
        'arized":[["a_1","c_1"],["a_1","c_2"],["b_1","c_1"],["a_1","b_1","c_3"],["a_2","b'
        '_2","c_1"]]},"multigraded_betti":[[0,"1",1],[1,"c^3",1],[1,"b*c^2",1],[1,"a*c",1'
        '],[1,"a*b^2",1],[1,"a^2*b",1],[2,"b*c^3",1],[2,"a*c^3",1],[2,"a*b*c^2",1],[2,"a*'
        'b^2*c",1],[2,"a^2*b*c",1],[2,"a^2*b^2",1],[3,"a*b*c^3",1],[3,"a^2*b^2*c",1]],"n"'
        ':3,"odom":3,"pd":3,"q":5,"scarf":true,"taylor_minimal":false,"vars":["a","b","c"'
        '],"witnesses":{"dominant_set":["a^2*b","a*b^2","a*c"],"net":["a_1","b_1","c_3"]}'
        '}'
    ),
    ("nonscarf", "F3"): (
        '{"betti":[1,5,6,2],"checks":[{"name":"odom-routes-agree","status":"pass"},{"name'
        '":"codim-le-odom-le-pd","status":"pass"},{"name":"pd-n-iff-odom-n","status":"pas'
        's"},{"name":"pd-1-iff-odom-1","status":"pass"},{"name":"odom-n-minus-1-forces-pd'
        '","status":"vacuous"},{"name":"odom-q-minus-1-forces-pd","status":"vacuous"},{"n'
        'ame":"scarf-forces-pd-eq-odom","status":"pass"},{"name":"taylor-minimal-iff-odom'
        '-q","status":"pass"},{"name":"betti-binomial-odom","status":"pass"},{"name":"bet'
        'ti-binomial-pd","status":"pass"},{"name":"betti-sum-two-pow-odom","status":"pass'
        '"},{"name":"betti-sum-non-ci","status":"pass"},{"name":"three-variables","status'
        '":"pass"},{"name":"scarf-cm-iff-equal-net-cards","status":"pass"},{"name":"odom-'
        'polarization-invariant","status":"pass"},{"name":"betti-engine-vs-oracle","statu'
        's":"pass"}],"codim":2,"cohen_macaulay":false,"complete_intersection":false,"fiel'
        'd":"fp:3","graded_betti":[[0,0,1],[1,2,1],[1,3,4],[2,4,6],[3,5,2]],"ideal":"a^2*'
        'b, a*b^2, a*c, b*c^2, c^3","minimal_nets":{"base":[["a","c"],["b","c"]],"polariz'
        'ed":[["a_1","c_1"],["a_1","c_2"],["b_1","c_1"],["a_1","b_1","c_3"],["a_2","b_2",'
        '"c_1"]]},"multigraded_betti":[[0,"1",1],[1,"c^3",1],[1,"b*c^2",1],[1,"a*c",1],[1'
        ',"a*b^2",1],[1,"a^2*b",1],[2,"b*c^3",1],[2,"a*c^3",1],[2,"a*b*c^2",1],[2,"a*b^2*'
        'c",1],[2,"a^2*b*c",1],[2,"a^2*b^2",1],[3,"a*b*c^3",1],[3,"a^2*b^2*c",1]],"n":3,"'
        'odom":3,"pd":3,"q":5,"scarf":true,"taylor_minimal":false,"vars":["a","b","c"],"w'
        'itnesses":{"dominant_set":["a^2*b","a*b^2","a*c"],"net":["a_1","b_1","c_3"]}}'
    ),
    ("gapped", "Q"): (
        '{"betti":[1,4,5,2],"checks":[{"name":"odom-routes-agree","status":"pass"},{"name'
        '":"codim-le-odom-le-pd","status":"pass"},{"name":"pd-n-iff-odom-n","status":"pas'
        's"},{"name":"pd-1-iff-odom-1","status":"pass"},{"name":"odom-n-minus-1-forces-pd'
        '","status":"vacuous"},{"name":"odom-q-minus-1-forces-pd","status":"pass"},{"name'
        '":"scarf-forces-pd-eq-odom","status":"pass"},{"name":"taylor-minimal-iff-odom-q"'
        ',"status":"pass"},{"name":"betti-binomial-odom","status":"pass"},{"name":"betti-'
        'binomial-pd","status":"pass"},{"name":"betti-sum-two-pow-odom","status":"pass"},'
        '{"name":"betti-sum-non-ci","status":"pass"},{"name":"three-variables","status":"'
        'pass"},{"name":"scarf-cm-iff-equal-net-cards","status":"pass"},{"name":"odom-pol'
        'arization-invariant","status":"pass"},{"name":"betti-engine-vs-oracle","status":'
        '"pass"}],"codim":2,"cohen_macaulay":false,"complete_intersection":false,"field":'
        '"rational","graded_betti":[[0,0,1],[1,5,1],[1,6,1],[1,7,1],[1,9,1],[2,8,1],[2,10'
        ',1],[2,11,2],[2,13,1],[3,12,1],[3,14,1]],"ideal":"a^5*b, a^2*c^7, a*b^2*c^4, b^3'
        '*c^2","minimal_nets":{"base":[["a","b"],["a","c"],["b","c"]],"polarized":[["a_1"'
        ',"b_1"],["a_1","b_2"],["a_1","b_3"],["a_1","c_1"],["a_1","c_2"],["a_2","b_1"],["'
        'a_2","b_2"],["a_2","c_1"],["a_2","c_2"],["a_3","c_1"],["a_3","c_2"],["a_4","c_1"'
        '],["a_4","c_2"],["a_5","c_1"],["a_5","c_2"],["b_1","c_1"],["b_1","c_2"],["b_1","'
        'c_3"],["b_1","c_4"],["b_1","c_5"],["b_1","c_6"],["b_1","c_7"],["a_2","b_3","c_3"'
        '],["a_2","b_3","c_4"],["a_3","b_2","c_3"],["a_3","b_2","c_4"],["a_3","b_2","c_5"'
        '],["a_3","b_2","c_6"],["a_3","b_2","c_7"],["a_3","b_3","c_3"],["a_3","b_3","c_4"'
        '],["a_4","b_2","c_3"],["a_4","b_2","c_4"],["a_4","b_2","c_5"],["a_4","b_2","c_6"'
        '],["a_4","b_2","c_7"],["a_4","b_3","c_3"],["a_4","b_3","c_4"],["a_5","b_2","c_3"'
        '],["a_5","b_2","c_4"],["a_5","b_2","c_5"],["a_5","b_2","c_6"],["a_5","b_2","c_7"'
        '],["a_5","b_3","c_3"],["a_5","b_3","c_4"]]},"multigraded_betti":[[0,"1",1],[1,"b'
        '^3*c^2",1],[1,"a*b^2*c^4",1],[1,"a^2*c^7",1],[1,"a^5*b",1],[2,"a*b^3*c^4",1],[2,'
        '"a^2*b^2*c^7",1],[2,"a^5*b*c^7",1],[2,"a^5*b^2*c^4",1],[2,"a^5*b^3*c^2",1],[3,"a'
        '^5*b^2*c^7",1],[3,"a^5*b^3*c^4",1]],"n":3,"odom":3,"pd":3,"q":4,"scarf":true,"ta'
        'ylor_minimal":false,"vars":["a","b","c"],"witnesses":{"dominant_set":["a^5*b","a'
        '^2*c^7","a*b^2*c^4"],"net":["a_2","b_3","c_3"]}}'
    ),
    ("gapped", "F3"): (
        '{"betti":[1,4,5,2],"checks":[{"name":"odom-routes-agree","status":"pass"},{"name'
        '":"codim-le-odom-le-pd","status":"pass"},{"name":"pd-n-iff-odom-n","status":"pas'
        's"},{"name":"pd-1-iff-odom-1","status":"pass"},{"name":"odom-n-minus-1-forces-pd'
        '","status":"vacuous"},{"name":"odom-q-minus-1-forces-pd","status":"pass"},{"name'
        '":"scarf-forces-pd-eq-odom","status":"pass"},{"name":"taylor-minimal-iff-odom-q"'
        ',"status":"pass"},{"name":"betti-binomial-odom","status":"pass"},{"name":"betti-'
        'binomial-pd","status":"pass"},{"name":"betti-sum-two-pow-odom","status":"pass"},'
        '{"name":"betti-sum-non-ci","status":"pass"},{"name":"three-variables","status":"'
        'pass"},{"name":"scarf-cm-iff-equal-net-cards","status":"pass"},{"name":"odom-pol'
        'arization-invariant","status":"pass"},{"name":"betti-engine-vs-oracle","status":'
        '"pass"}],"codim":2,"cohen_macaulay":false,"complete_intersection":false,"field":'
        '"fp:3","graded_betti":[[0,0,1],[1,5,1],[1,6,1],[1,7,1],[1,9,1],[2,8,1],[2,10,1],'
        '[2,11,2],[2,13,1],[3,12,1],[3,14,1]],"ideal":"a^5*b, a^2*c^7, a*b^2*c^4, b^3*c^2'
        '","minimal_nets":{"base":[["a","b"],["a","c"],["b","c"]],"polarized":[["a_1","b_'
        '1"],["a_1","b_2"],["a_1","b_3"],["a_1","c_1"],["a_1","c_2"],["a_2","b_1"],["a_2"'
        ',"b_2"],["a_2","c_1"],["a_2","c_2"],["a_3","c_1"],["a_3","c_2"],["a_4","c_1"],["'
        'a_4","c_2"],["a_5","c_1"],["a_5","c_2"],["b_1","c_1"],["b_1","c_2"],["b_1","c_3"'
        '],["b_1","c_4"],["b_1","c_5"],["b_1","c_6"],["b_1","c_7"],["a_2","b_3","c_3"],["'
        'a_2","b_3","c_4"],["a_3","b_2","c_3"],["a_3","b_2","c_4"],["a_3","b_2","c_5"],["'
        'a_3","b_2","c_6"],["a_3","b_2","c_7"],["a_3","b_3","c_3"],["a_3","b_3","c_4"],["'
        'a_4","b_2","c_3"],["a_4","b_2","c_4"],["a_4","b_2","c_5"],["a_4","b_2","c_6"],["'
        'a_4","b_2","c_7"],["a_4","b_3","c_3"],["a_4","b_3","c_4"],["a_5","b_2","c_3"],["'
        'a_5","b_2","c_4"],["a_5","b_2","c_5"],["a_5","b_2","c_6"],["a_5","b_2","c_7"],["'
        'a_5","b_3","c_3"],["a_5","b_3","c_4"]]},"multigraded_betti":[[0,"1",1],[1,"b^3*c'
        '^2",1],[1,"a*b^2*c^4",1],[1,"a^2*c^7",1],[1,"a^5*b",1],[2,"a*b^3*c^4",1],[2,"a^2'
        '*b^2*c^7",1],[2,"a^5*b*c^7",1],[2,"a^5*b^2*c^4",1],[2,"a^5*b^3*c^2",1],[3,"a^5*b'
        '^2*c^7",1],[3,"a^5*b^3*c^4",1]],"n":3,"odom":3,"pd":3,"q":4,"scarf":true,"taylor'
        '_minimal":false,"vars":["a","b","c"],"witnesses":{"dominant_set":["a^5*b","a^2*c'
        '^7","a*b^2*c^4"],"net":["a_2","b_3","c_3"]}}'
    ),
}
