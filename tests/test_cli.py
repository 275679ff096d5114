"""The command-line workbench: output formats, exit codes, determinism."""

import json

import pytest
from click.testing import CliRunner

from groupoidlab import cli, structure
from groupoidlab.theorems import CHECKS, CheckOutcome, SuiteConfig, SuiteReport


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli.main, list(args))


# -- table ---------------------------------------------------------------------


def test_table_tsv_golden(runner):
    r = invoke(runner, "table", "--carrier", "zn:5", "--shape", "scalar", "--pair", "2,3")
    assert r.exit_code == 0
    assert r.output == (
        "0\t1\t2\t3\t4\n"
        "0\t3\t1\t4\t2\n"
        "2\t0\t3\t1\t4\n"
        "4\t2\t0\t3\t1\n"
        "1\t4\t2\t0\t3\n"
        "3\t1\t4\t2\t0\n"
    )


def test_table_json_is_compact_and_parseable(runner):
    r = invoke(runner, "table", "--carrier", "zn:4", "--pair", "2,3", "--format", "json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["labels"] == ["0", "1", "2", "3"]
    assert data["table"][0] == [0, 3, 2, 1]
    assert "\n" not in r.output.strip()


def test_table_cap_exceeded_is_a_budget_error(runner):
    r = invoke(runner, "table", "--carrier", "zn:300", "--pair", "2,3", "--cap", "16")
    assert r.exit_code == 3
    err = json.loads(r.stderr)
    assert err["error"] == "budget-exceeded"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_table_cap_below_one_is_a_usage_error(runner, cap):
    r = invoke(runner, "table", "--carrier", "zn:7", "--pair", "2,3", "--cap", cap)
    assert r.exit_code == 2
    assert "--cap" in r.output


def test_table_interval_matrix_entries(runner):
    r = invoke(runner, "table", "--carrier", "o(zn:4)", "--pair", "2,3")
    assert r.exit_code == 0
    assert r.output.splitlines()[0].split("\t") == ["[0,0]", "[0,1]", "[0,2]", "[0,3]"]


# -- check ---------------------------------------------------------------------


def test_check_text_with_witness(runner):
    r = invoke(runner, "check", "--carrier", "zn:4", "--pair", "2,3",
               "--identity", "bol", "--mode", "exhaustive", "--no-timing")
    assert r.exit_code == 0
    assert r.output == "bol: fails [exhaustive]  witness (1, 0, 0)\n"


def test_check_json(runner):
    r = invoke(runner, "check", "--carrier", "zn:10", "--pair", "5,6",
               "--identity", "moufang", "--mode", "exhaustive", "--format", "json",
               "--no-timing")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data == {"identity": "moufang", "method": "exhaustive", "status": "holds"}


def test_check_alternative_prints_three_verdicts(runner):
    r = invoke(runner, "check", "--carrier", "zn:14", "--pair", "7,8",
               "--identity", "alternative", "--mode", "exhaustive", "--no-timing")
    assert r.exit_code == 0
    assert r.output.splitlines() == [
        "alternative: holds [exhaustive]",
        "left-alternative: holds [exhaustive]",
        "right-alternative: holds [exhaustive]",
    ]


def test_check_sampled_mode_records_trials_and_seed(runner):
    r = invoke(runner, "check", "--carrier", "zn:9", "--pair", "2,5",
               "--identity", "associative", "--mode", "sampled:300:7",
               "--format", "json", "--no-timing")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["method"] == "sampled"
    assert data["trials"] == 300 and data["seed"] == 7


def test_check_timing_footer_goes_to_stderr(runner):
    r = invoke(runner, "check", "--carrier", "zn:4", "--pair", "2,3",
               "--identity", "bol", "--mode", "exhaustive")
    assert r.exit_code == 0
    assert "# elapsed" not in r.stdout
    assert "# elapsed" in r.stderr


def test_check_exhaustive_budget_blowup(runner):
    r = invoke(runner, "check", "--carrier", "o(zn:10)", "--shape", "mat:12x5",
               "--pair", "3,7", "--identity", "associative", "--mode", "exhaustive",
               "--no-timing")
    assert r.exit_code == 3
    assert json.loads(r.stderr)["error"] == "budget-exceeded"


def test_check_sampled_budget_blowup(runner, monkeypatch):
    """A sample's trials·vars·entries draws are refused before the first."""
    monkeypatch.setenv("GGL_BUDGET", "1000")
    r = invoke(runner, "check", "--carrier", "zn:5", "--pair", "2,3",
               "--identity", "commutative", "--mode", "sampled:1000")
    assert r.exit_code == 3
    assert r.stdout == ""
    assert json.loads(r.stderr) == {
        "error": "budget-exceeded",
        "detail": "sampled check cap exceeded: estimate 1000*2 = 2000 draws, "
        "budget is 1000 (set GGL_BUDGET to raise it)",
    }


def test_check_auto_samples_where_the_lifted_shadow_is_past_the_enumeration_cap(runner):
    """The shadow zn:2000003 fits the idempotent scan's budget but not the
    enumeration cap: AUTO samples rather than exiting 3."""
    r = invoke(runner, "check", "--carrier", "zn:2000003", "--shape", "mat:1x2", "--pair", "3,5",
               "--identity", "idempotent", "--no-timing")
    assert r.exit_code == 0
    assert r.stdout.startswith("idempotent: fails [sampled]")


def test_check_auto_lifts_where_the_shadow_scan_is_past_the_budget(runner):
    """The shadow zn:1000 is past the associative scan's budget (1000^3),
    not the lifted route's 3·1000 evaluations: AUTO is exact."""
    r = invoke(runner, "check", "--carrier", "zn:1000", "--shape", "mat:2x2", "--pair", "3,5",
               "--identity", "associative", "--no-timing")
    assert r.exit_code == 0
    assert r.stdout.startswith("associative: fails [lifted]  witness ([[1,1];[1,1]], [[0,0];[0,0]], [[0,0];[0,0]])")


def test_check_bad_mode_is_usage_error(runner):
    r = invoke(runner, "check", "--carrier", "zn:4", "--pair", "2,3",
               "--identity", "bol", "--mode", "sampled:abc")
    assert r.exit_code == 2


@pytest.mark.parametrize("mode", ["sampled:0", "sampled:-5:7"])
def test_check_non_positive_trials_is_usage_error(runner, mode):
    r = invoke(runner, "check", "--carrier", "zn:9", "--pair", "2,5",
               "--identity", "associative", "--mode", mode)
    assert r.exit_code == 2
    assert "at least one trial" in r.output
    assert "sampled_no_counterexample" not in r.output


@pytest.mark.parametrize("shape", ["poly:2:shuffle", "poly:2:conv"])
@pytest.mark.parametrize("identity", ["associative", "alternative"])
def test_check_lifted_on_a_shape_that_mixes_entries_is_usage_error(runner, shape, identity):
    r = invoke(runner, "check", "--carrier", "zn:5", "--shape", shape, "--pair", "2,3",
               "--identity", identity, "--mode", "lifted", "--no-timing")
    assert r.exit_code == 2
    assert "shape is not liftable: product mixes entries across positions" in r.output
    assert "Traceback" not in r.output


# -- structure -------------------------------------------------------------------


def test_structure_json_survey(runner):
    r = invoke(runner, "structure", "--carrier", "zn:8", "--pair", "2,6", "--no-timing")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["order"] == 8
    assert data["complete"] is True
    assert ["0", "2", "4", "6"] in data["normal"]
    assert data["simple"]["simple"] is False
    # identity-free survey: reports whether a semigroup witness exists at all
    assert data["smarandache"]["status"] == "s_groupoid"


def test_structure_past_the_power_set_work_takes_the_closures_without_sweeping(runner, monkeypatch):
    def refuse(*args):
        raise AssertionError("power-set sweep started")

    monkeypatch.setattr(structure, "_closed_flags", refuse)
    r = invoke(runner, "structure", "--carrier", "zn:30", "--pair", "7,11", "--no-timing")
    assert r.exit_code == 0  # 30*2^30 is past the default budget of 10^8
    data = json.loads(r.output)
    assert data["subgroupoids"]["strategy"] == "generated-closure"
    assert data["complete"] is False and data["ideals"] is None


def test_structure_takes_the_power_set_at_order_22(runner):
    # 22*2^22 = 92274688 fits the default budget; 23*2^23 does not
    r = invoke(runner, "structure", "--carrier", "zn:22", "--pair", "3,5", "--no-timing")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["subgroupoids"]["strategy"] == "power-set"
    assert data["complete"] is True and data["ideals"] is not None


def test_structure_has_no_order_cap_option(runner):
    r = invoke(runner, "structure", "--carrier", "zn:8", "--pair", "2,6", "--max-order", "30")
    assert r.exit_code == 2
    assert "--max-order" in r.output


def test_structure_past_the_closure_work_cap_exits_3(runner, monkeypatch):
    def refuse(*args):
        raise AssertionError("generated closures started")

    monkeypatch.setattr(structure, "_generated_closures", refuse)
    r = invoke(runner, "structure", "--carrier", "zn:120", "--pair", "7,11", "--no-timing")
    assert r.exit_code == 3
    diag = json.loads(r.stderr)
    assert diag["error"] == "budget-exceeded"
    assert "generated-closure work cap" in diag["detail"] and "budget is 100000000" in diag["detail"]


@pytest.mark.parametrize(
    "command",
    [
        ("structure", "--no-timing"),
        ("check", "--identity", "associative", "--mode", "exhaustive", "--no-timing"),
        ("table",),
    ],
)
def test_a_space_past_the_enumeration_cap_is_refused_in_one_message(runner, command):
    r = invoke(runner, command[0], "--carrier", "zn:10", "--shape", "mat:4x4", "--pair", "2,3", *command[1:])
    assert r.exit_code == 3
    assert json.loads(r.stderr) == {
        "error": "budget-exceeded",
        "detail": "enumeration cap exceeded: estimate 10^16 = 10000000000000000 elements, cap is 1000000",
    }


def test_structure_stdout_is_pure_json_even_with_timing(runner):
    r = invoke(runner, "structure", "--carrier", "zn:6", "--pair", "2,4")
    assert r.exit_code == 0
    json.loads(r.stdout)  # no trailing footer on stdout
    assert "# elapsed" in r.stderr


# -- verify ----------------------------------------------------------------------


def test_verify_subset_passes(runner):
    r = invoke(runner, "verify", "--suite", "default", "--only", "T8,T13", "--no-timing")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["passed"] is True
    assert [c["check"] for c in data["checks"]] == ["T8", "T13"]
    assert data["config"]["seed"] == 0


def test_verify_range_override(runner):
    r = invoke(runner, "verify", "--only", "T13", "--range", "parity_n=3..6", "--no-timing")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["checks"][0]["params"]["parity_n"] == [3, 6]


def test_verify_determinism_excluding_timings(runner):
    args = ["verify", "--suite", "default", "--only", "T8,T9,T13", "--seed", "42", "--no-timing"]
    a = runner.invoke(cli.main, args)
    b = runner.invoke(cli.main, args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_verify_unknown_check_id(runner):
    r = invoke(runner, "verify", "--only", "T99")
    assert r.exit_code == 2


@pytest.mark.parametrize("only", [",", "", " , "])
def test_verify_only_without_a_check_id_is_a_usage_error(runner, only):
    r = invoke(runner, "verify", "--only", only, "--no-timing")
    assert r.exit_code == 2
    assert "--only names no check id" in r.output
    assert '"checks"' not in r.output


@pytest.mark.parametrize(
    "only,named",
    [("T8,T8", "T8"), ("T13, T8,T13", "T13"), ("T8,T13,T13,T8", "T8, T13")],
)
def test_verify_repeated_only_id_is_a_usage_error(runner, only, named):
    r = invoke(runner, "verify", "--only", only, "--no-timing")
    assert r.exit_code == 2
    assert f"--only {named}: given more than once" in r.output
    assert '"checks"' not in r.output


def test_verify_unknown_suite(runner):
    r = invoke(runner, "verify", "--suite", "fancy")
    assert r.exit_code == 2


def test_verify_malformed_range(runner):
    r = invoke(runner, "verify", "--only", "T13", "--range", "parity_n=3-6")
    assert r.exit_code == 2


@pytest.mark.parametrize(
    "only,text,named",
    [
        ("T1", "n=1..3", "n=1..3"),  # a modulus below 2
        ("T8", "instances=3..5", "instances"),  # a list of instances
        ("T7", "nzn_n=1..2", "nzn_n"),  # a single modulus
        ("T1", "carriers=1..2", "carriers"),  # a list of carrier families
        ("T17", "moduli=3..7", "moduli"),  # a list of moduli
        ("T1", "n=10..3", "n=10..3"),  # an empty range
        ("T1", "foo=1..3", "foo"),  # no check has the key
    ],
)
def test_verify_range_takes_only_a_range_of_moduli_of_a_selected_check(runner, only, text, named):
    r = invoke(runner, "verify", "--only", only, "--range", text, "--no-timing")
    assert r.exit_code == 2
    assert f"--range {named}" in r.output
    assert "Traceback" not in r.output


def test_verify_repeated_range_key_is_a_usage_error(runner):
    r = invoke(runner, "verify", "--only", "T1", "--range", "n=3..5", "--range", "n=4..6", "--no-timing")
    assert r.exit_code == 2
    assert "--range n: given more than once" in r.output
    assert "Traceback" not in r.output


def test_verify_range_help_names_every_range_key(runner):
    keys = list(dict.fromkeys(
        k for c in CHECKS.values() for k, v in c.defaults.items() if isinstance(v, tuple)
    ))
    help_text = " ".join(invoke(runner, "verify", "--help").output.split())
    assert f"({', '.join(keys[:-1])} or {keys[-1]})" in help_text


def test_verify_exit_1_when_an_asserted_check_fails(runner, monkeypatch):
    fake = SuiteReport(
        outcomes=(
            CheckOutcome(check_id="T1", tier="asserted", summary="s", params={},
                         instances=1, failures=("boom",)),
        ),
        config=SuiteConfig(checks=("T1",)),
        timings={"T1": 0.0},
    )
    monkeypatch.setattr(cli, "run_suite", lambda config: fake)
    r = invoke(runner, "verify", "--only", "T1", "--no-timing")
    assert r.exit_code == 1
    data = json.loads(r.output)
    assert data["passed"] is False
    assert data["checks"][0]["status"] == "fail"


# -- count -----------------------------------------------------------------------


def test_count_with_provenance_line(runner):
    r = invoke(runner, "count", "--carrier", "nzn:3", "--class", "all-pairs")
    assert r.exit_code == 0
    assert r.output == "56\n# nzn:3 all-pairs\n"


def test_count_equal_pairs_flag(runner):
    r = invoke(runner, "count", "--carrier", "zni:6", "--class", "idempotent-pairs",
               "--equal-pairs")
    assert r.exit_code == 0
    assert r.output == "4\n# zni:6 idempotent-pairs equal-pairs-included\n"


@pytest.mark.parametrize("kind", ["all-pairs", "level-one-pairs"])
def test_count_refuses_equal_pairs_for_distinct_pair_classes(runner, kind):
    r = invoke(runner, "count", "--carrier", "zn:7", "--class", kind, "--equal-pairs")
    assert r.exit_code == 2
    assert "counts distinct pairs only, so equal pairs cannot be included" in r.output


@pytest.mark.parametrize(
    "carrier,kind,estimate",
    [
        ("zn:100000", "level-one-pairs", "99999*99998 pairs = 9999700002"),
        ("zn:200000", "idempotent-pairs", "199999^2 pairs = 39999600001"),
    ],
    ids=["level-one-pairs", "idempotent-pairs"],
)
def test_count_past_the_pair_test_work_exits_3(runner, carrier, kind, estimate):
    r = invoke(runner, "count", "--carrier", carrier, "--class", kind)
    assert r.exit_code == 3
    diag = json.loads(r.stderr)
    assert diag["error"] == "budget-exceeded"
    assert f"pair-test work cap exceeded: estimate {estimate}, budget is 100000000" in diag["detail"]


def test_count_rejects_unknown_class(runner):
    r = invoke(runner, "count", "--carrier", "zn:5", "--class", "bogus")
    assert r.exit_code == 2


def test_count_rejects_rational_carrier(runner):
    r = invoke(runner, "count", "--carrier", "q", "--class", "all-pairs")
    assert r.exit_code == 2


# -- demo ------------------------------------------------------------------------


def test_demo_list_has_eleven_rows(runner):
    r = invoke(runner, "demo", "--list")
    assert r.exit_code == 0
    rows = r.output.splitlines()
    assert len(rows) == 11
    assert all("\t" in row for row in rows)


def test_demo_replay_golden(runner):
    r = invoke(runner, "demo", "--example", "2.1.1")
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert lines[0].startswith("[2.1.1]")
    assert "a*b: (1, 0, 3)" in lines
    assert "(a*b)*c: (2, 2, 0)" in lines
    assert "a*(b*c): (0, 2, 2)" in lines


def test_all_demos_replay_clean(runner):
    list_out = invoke(runner, "demo", "--list").output.splitlines()
    for row in list_out:
        demo_id = row.split("\t")[0]
        r = invoke(runner, "demo", "--example", demo_id)
        assert r.exit_code == 0, (demo_id, r.output)
        assert "FAILED" not in r.output


def test_demo_unknown_id(runner):
    r = invoke(runner, "demo", "--example", "9.9.9")
    assert r.exit_code == 2


# -- usage errors ------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("table", "--carrier", "zn:1", "--pair", "2,3"),
        ("table", "--carrier", "bogus:4", "--pair", "2,3"),
        ("table", "--carrier", "zn:5", "--pair", "0,0"),
        ("table", "--carrier", "zn:5", "--pair", "2"),
        ("table", "--carrier", "zn:5", "--shape", "cube", "--pair", "2,3"),
        ("table", "--carrier", "q", "--pair", "1/2,1/3"),
        ("check", "--carrier", "zn:4294967311", "--pair", "2,4294967310", "--identity", "idempotent"),
        ("check", "--carrier", "nzn:1753413058", "--pair", "2,3", "--identity", "idempotent"),
    ],
)
def test_usage_errors_exit_2(runner, args):
    r = invoke(runner, *args)
    assert r.exit_code == 2


def test_pair_with_indeterminate_suffix(runner):
    r = invoke(runner, "table", "--carrier", "zni:3", "--pair", "I,2I")
    assert r.exit_code == 0
    assert r.output.splitlines()[0] == "0\tI\t2I"


# -- one refusal policy --------------------------------------------------------------


@pytest.mark.parametrize(
    "args,message",
    [
        (("table", "--carrier", "bogus:4", "--pair", "2,3"), "unknown carrier token: 'bogus:4'"),
        (("check", "--carrier", "zn:5", "--pair", "2,7I", "--identity", "idempotent"),
         "carrier has no indeterminate component; drop the I suffix"),
        (("structure", "--carrier", "zn:5", "--shape", "cube", "--pair", "2,3"), "unknown shape token: 'cube'"),
        (("count", "--carrier", "q", "--class", "all-pairs"), "unknown carrier token: 'q'"),
        (("demo", "--example", "9.9.9"), "unknown demo id: '9.9.9'"),
    ],
    ids=["table", "check", "structure", "count", "demo"],
)
def test_a_library_refusal_is_a_usage_error_of_its_command(runner, args, message):
    r = invoke(runner, *args)
    assert r.exit_code == 2
    assert f"Usage: main {args[0]} [OPTIONS]" in r.output
    assert f"Error: {message}" in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize(
    "args",
    [
        ("table", "--carrier", "zn:5", "--pair", "2,3"),
        ("check", "--carrier", "zn:5", "--pair", "2,3", "--identity", "associative", "--mode", "exhaustive", "--no-timing"),
        ("structure", "--carrier", "zn:5", "--pair", "2,3", "--no-timing"),
        ("verify", "--only", "T1", "--no-timing"),
        ("count", "--carrier", "zn:7", "--class", "level-one-pairs"),
        ("demo", "--example", "1.1.1"),
    ],
    ids=lambda args: args[0],
)
def test_a_tiny_budget_refuses_every_budgeted_command_with_exit_3(runner, monkeypatch, args):
    monkeypatch.setenv("GGL_BUDGET", "10")
    r = invoke(runner, *args)
    assert r.exit_code == 3
    assert r.stdout == ""
    diag = json.loads(r.stderr)
    assert diag["error"] == "budget-exceeded"
    assert diag["detail"].endswith("budget is 10 (set GGL_BUDGET to raise it)")


@pytest.mark.parametrize(
    "budget,args,detail",
    [
        ("1000", (), "estimate 36*4*7 = 1008 cells, budget is 1000"),
        (None, ("--range", "zn_n=300..10000"), "estimate 89401*4*300 = 107281200 cells, budget is 100000000"),
    ],
    ids=["zn:7-past-1000", "zn:300-past-the-default"],
)
def test_t7_refuses_the_first_sweep_past_the_row_budget(runner, monkeypatch, budget, args, detail):
    """T7 refuses a sweep's pairs*4*n cells of rows before it compiles any:
    zn:3..6 fit a budget of 1000 and zn:7 does not; the default budget
    refuses a range from order 300 at its first sweep."""
    if budget is None:
        monkeypatch.delenv("GGL_BUDGET", raising=False)
    else:
        monkeypatch.setenv("GGL_BUDGET", budget)
    r = invoke(runner, "verify", "--only", "T7", *args)
    assert r.exit_code == 3
    assert r.stdout == ""
    assert json.loads(r.stderr) == {
        "error": "budget-exceeded",
        "detail": f"ideal duality rows cap exceeded: {detail} (set GGL_BUDGET to raise it)",
    }
