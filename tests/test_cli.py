"""CLI surface: exit codes, report files, profile parsing."""

import csv
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloclab.cli import main, parse_profile_file
from alloclab.core import TiesPresent
from alloclab.cli import ParseError


def test_check_ordinality_pass_exit_zero(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    code = main(
        [
            "check", "--rule", "rsd", "--axiom", "ordinality",
            "--seed", "7", "--grid", "1/10,1/2,9/10", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "Pass"
    assert report["axiom"] == "ordinality"
    assert report["seed"] == 7
    assert "elapsed_ms" in report


def test_check_ordinality_fail_exit_one(tmp_path):
    out = tmp_path / "verdict.json"
    code = main(
        [
            "check", "--rule", "utilitarian", "--axiom", "ordinality",
            "--seed", "7", "--grid", "1/10,1/2,9/10", "--out", str(out),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["status"] == "Fail"
    assert "witness" in report


def test_report_deterministic_for_fixed_seed(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        main(
            [
                "check", "--rule", "rsd", "--axiom", "ordinality",
                "--seed", "3", "--grid", "1/10,9/10", "--out", str(path),
            ]
        )
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_decompose_permutation_matrix(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text('{"matrix": [["0","1","0"],["0","0","1"],["1","0","0"]]}')
    code = main(["decompose", "--matrix", f"@{matrix}"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["terms"] == [{"perm": [1, 2, 0], "weight": "1"}]


def test_decompose_rejects_non_bistochastic(capsys):
    code = main(["decompose", "--matrix", '[["1","0","0"],["1","0","0"],["0","1","0"]]'])
    assert code == 2


def test_lemma_command(tmp_path):
    out = tmp_path / "lemma.json"
    code = main(
        ["lemma", "--lemma", "L4", "--rule", "rsd", "--trials", "50",
         "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["lemma_id"] == "L4_top_or_bottom"
    assert report["failures"] == []


def test_lemma_csv_counts_every_failure(capsys):
    code = main(
        ["lemma", "--lemma", "L3", "--rule", "rsd", "--trials", "300",
         "--seed", "3", "--format", "csv"]
    )
    assert code == 1
    row = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[0]
    assert row["failures"] == "200"  # the JSON report keeps 100 witnesses


def test_stress_csv(tmp_path):
    out = tmp_path / "stress.csv"
    code = main(
        ["stress", "--rules", "uniform", "--seed", "2",
         "--grid", "1/10,9/10", "--samples", "1", "--format", "csv",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rule,axiom,status"
    assert len(lines) == 6


def test_stress_exploration_mode(tmp_path):
    out = tmp_path / "explore.json"
    code = main(
        ["stress", "--rules", "rsd", "--seed", "2", "--n", "4",
         "--grid", "1/2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["exploration"] is True


def test_theorem2_command(tmp_path):
    code = main(
        ["theorem2", "--rule", "ps", "--seed", "4", "--count", "2",
         "--grid", "1/10,9/10", "--samples", "1"]
    )
    assert code == 0
    code = main(
        ["theorem2", "--rule", "utilitarian", "--seed", "4", "--count", "2",
         "--grid", "1/10,9/10", "--samples", "1"]
    )
    assert code == 1


def test_missing_seed_for_randomized_command():
    assert main(["check", "--rule", "rsd", "--axiom", "ordinality"]) == 2
    assert main(["stress", "--rules", "uniform"]) == 2


def test_unknown_rule_and_axiom_are_usage_errors():
    assert main(["check", "--rule", "nope", "--axiom", "ordinality", "--seed", "1"]) == 2
    assert main(["check", "--rule", "rsd", "--axiom", "nope", "--seed", "1"]) == 2


def test_sd_strategy_proofness_not_ordinal_exit_one(tmp_path, capsys):
    out = tmp_path / "sd.json"
    code = main(
        ["check", "--rule", "utilitarian", "--axiom", "sd-strategy-proofness",
         "--seed", "2", "--grid", "1/10,9/10", "--out", str(out)]
    )
    assert code == 1
    assert "NotOrdinal" in json.loads(out.read_text())["error"]


@pytest.mark.parametrize("spec", ["blend:rsd:ps:0.5", "blend:rsd:ps:1/0"])
def test_malformed_blend_weight_is_usage_error(spec, capsys):
    code = main(
        ["check", "--rule", spec, "--axiom", "ordinality", "--grid", "1/2", "--seed", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lemma", "--lemma", "L1", "--rule", "rsd", "--trials", "-3", "--seed", "1"],
         "trials must be at least 1"),
        (["lemma", "--lemma", "L1", "--rule", "rsd", "--trials", "0", "--seed", "1"],
         "trials must be at least 1"),
        (["theorem2", "--rule", "rsd", "--count", "0", "--seed", "1"],
         "at least one V-profile"),
        (["check", "--rule", "rsd", "--axiom", "ordinality", "--seed", "1", "--samples", "-4"],
         "samples per cell must be 0 or more"),
    ],
)
def test_out_of_range_count_is_usage_error(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "at_cap, over_cap, profiles, message",
    [
        (["--samples", "1000"], ["--samples", "1001"], 216 + 8 * 1000,
         "error: --samples must be at most 1000, got 1001\n"),
        (["--profiles", "random:count=10000"], ["--profiles", "random:count=10001"], 10_000,
         "error: random:count must be at most 10000, got 10001\n"),
    ],
)
def test_profile_list_size_is_capped(at_cap, over_cap, profiles, message, monkeypatch, capsys):
    argv = ["check", "--rule", "rsd", "--axiom", "efficiency", "--seed", "1"]
    assert main([*argv, *at_cap]) == 1  # rsd fails within the first few profiles
    report = json.loads(capsys.readouterr().out)
    assert report["grid_description"].startswith(f"profiles={profiles};")

    def no_profiles(*args):
        raise AssertionError("profiles built before the size check")

    monkeypatch.setattr("alloclab.cli.default_efficiency_profiles", no_profiles)
    monkeypatch.setattr("alloclab.cli.random_profile", no_profiles)
    assert main([*argv, *over_cap]) == 2
    assert capsys.readouterr().err == message


def test_grid_efficiency_report_bytes_are_pinned(capsys):
    argv = ["check", "--rule", "rsd", "--axiom", "efficiency", "--grid", "1/4,3/4",
            "--samples", "0", "--seed", "3"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    report.pop("elapsed_ms")
    assert hashlib.sha256(json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest() == (
        "b001650869a205146a43b28c551396a9a84ffe3b9b5b3bb7b1de18785ddb1410"
    )


def test_zero_random_samples_per_cell_is_accepted(capsys):
    argv = ["check", "--rule", "rsd", "--axiom", "ordinality", "--seed", "1", "--grid", "1/2",
            "--samples", "0"]
    assert main(argv) == 0
    assert "per_cell=1+0 random" in json.loads(capsys.readouterr().out)["grid_description"]


def test_not_ordinal_report_honours_csv(tmp_path):
    out = tmp_path / "sd.csv"
    code = main(
        ["check", "--rule", "utilitarian", "--axiom", "sd-strategy-proofness",
         "--seed", "2", "--grid", "1/2", "--format", "csv", "--out", str(out)]
    )
    assert code == 1
    assert list(csv.reader(io.StringIO(out.read_text()))) == [
        ["axiom", "rule", "status"],
        ["sd-strategy-proofness", "utilitarian", "NotOrdinal"],
    ]


@pytest.mark.parametrize("n", ["2", "8"])
def test_n_outside_supported_range_is_usage_error(n, capsys):
    code = main(["stress", "--rules", "rsd", "--seed", "2", "--n", n, "--grid", "1/2"])
    assert code == 2
    assert "--n must be between 3 and 7" in capsys.readouterr().err


class TestProfileParsing:
    def test_csv_single_profile(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2/5,0\n1,1/2,0\n1,9/10,0\n")
        profiles = parse_profile_file(str(path))
        assert len(profiles) == 1
        assert profiles[0][0].values[1] == __import__("fractions").Fraction(2, 5)

    def test_csv_multiple_profiles(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2/5,0\n1,1/2,0\n1,9/10,0\n" * 2)
        assert len(parse_profile_file(str(path))) == 2

    def test_ties_reported_with_agent(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,1,0\n1,1/2,0\n1,9/10,0\n")
        with pytest.raises(TiesPresent, match="agent 0"):
            parse_profile_file(str(path))

    def test_malformed_field_located(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,x,0\n1,1/2,0\n1,9/10,0\n")
        with pytest.raises(ParseError, match="field 2"):
            parse_profile_file(str(path))

    def test_decimal_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,0.4,0\n1,1/2,0\n1,9/10,0\n")
        with pytest.raises(ParseError):
            parse_profile_file(str(path))

    def test_json_profiles(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            '{"profiles": [[["1","2/5","0"],["1","1/2","0"],["1","9/10","0"]]]}'
        )
        assert len(parse_profile_file(str(path))) == 1

    def test_missing_file_is_io_error(self):
        from alloclab.cli import IoError

        with pytest.raises(IoError):
            parse_profile_file("/nonexistent/profiles.csv")

    def test_efficiency_with_profile_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2/5,0\n1,1/2,0\n1,9/10,0\n")
        code = main(
            ["check", "--rule", "utilitarian", "--axiom", "efficiency",
             "--profiles", str(path), "--seed", "1"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "text, where",
        [
            (
                '[[["1","1/2","0"],["1","1/4","0"],["0","1/2","1"]],'
                ' [["1","0"],["0","1"]]]',
                "profile 1: 2 agents, but profile 0 has 3",
            ),
            ('[[["1","0"],["0","1"]]]', "profile 0: 2 agents; expected 3 to 7"),
        ],
    )
    def test_profile_sizes_checked(self, tmp_path, capsys, text, where):
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=where):
            parse_profile_file(str(path))
        code = main(
            ["check", "--rule", "utilitarian", "--axiom", "efficiency",
             "--profiles", str(path), "--seed", "1"]
        )
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, where",
        [
            ('[{"a":1}]', "profile 0"),
            ("[1]", "profile 0"),
            ('[["1","1/2","0"],"120",["0","1/2","1"]]', "agent 1"),
        ],
    )
    def test_json_non_list_entries_rejected(self, tmp_path, capsys, text, where):
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=where):
            parse_profile_file(str(path))
        code = main(
            ["check", "--rule", "utilitarian", "--axiom", "efficiency",
             "--profiles", str(path), "--seed", "1"]
        )
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1


def test_internal_error_is_exit_three(monkeypatch, capsys):
    import alloclab.cli as cli

    def crash(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_decompose", crash)
    assert main(["decompose", "--matrix", "[[1]]"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


PERMUTATION = '[["0","1","0"],["0","0","1"],["1","0","0"]]'


@pytest.mark.parametrize(
    "command, flags",
    [
        ("check", {"--rule", "--axiom", "--profiles", "--seed", "--grid", "--samples",
                   "--tau", "--delta", "--out", "--format"}),
        ("decompose", {"--matrix", "--out"}),
        ("lemma", {"--lemma", "--rule", "--trials", "--seed", "--out", "--format"}),
        ("stress", {"--rules", "--seed", "--grid", "--samples", "--tau", "--delta",
                    "--out", "--format", "--n"}),
        ("theorem2", {"--rule", "--count", "--seed", "--grid", "--samples", "--out"}),
    ],
)
def test_help_lists_only_the_flags_the_subcommand_reads(command, flags, capsys):
    assert main([command, "--help"]) == 0
    assert set(re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.M)) == flags


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem2", "--rule", "ps", "--seed", "1", "--grid", "1/2", "--format", "csv"],
        ["lemma", "--lemma", "L4", "--rule", "rsd", "--trials", "5", "--seed", "1",
         "--grid", "1/2"],
        ["lemma", "--lemma", "L4", "--rule", "rsd", "--trials", "5", "--seed", "1",
         "--samples", "3"],
        ["check", "--rule", "rsd", "--axiom", "ordinality", "--grid", "1/2", "--seed", "1",
         "--n", "3"],
        ["decompose", "--matrix", PERMUTATION, "--format", "json"],
    ],
)
def test_flag_the_subcommand_does_not_read_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, coverage",
    [
        (
            ["check", "--rule", "utilitarian", "--axiom", "strategy-proofness"],
            "grid: 6 orders x 7 mu per agent; cells_per_agent=42; profiles=74088; "
            "deviations_per_agent=42; scanned_blocks=1 of 5292",
        ),
        (
            ["check", "--rule", "rsd", "--axiom", "efficiency", "--seed", "1"],
            "profiles=232; scanned_profiles=1 of 232",
        ),
    ],
)
def test_fail_coverage_states_how_far_the_scan_got(tmp_path, argv, coverage):
    out = tmp_path / "verdict.json"
    assert main([*argv, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["status"] == "Fail"
    assert report["grid_description"] == coverage


@st.composite
def profile_files(draw):
    """One to three no-tie rational profiles sharing an agent count."""
    n = draw(st.integers(min_value=3, max_value=5))
    row = st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=30),
        min_size=n, max_size=n, unique=True,
    )
    profile = st.lists(row, min_size=n, max_size=n)
    return draw(st.lists(profile, min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(profiles=profile_files())
def test_profile_files_round_trip(profiles):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "p.csv"
        csv_path.write_text(
            "".join(",".join(map(str, row)) + "\n" for profile in profiles for row in profile)
        )
        json_path = Path(tmp) / "p.json"
        json_path.write_text(
            json.dumps([[[str(v) for v in row] for row in profile] for profile in profiles])
        )
        for path in (csv_path, json_path):
            parsed = parse_profile_file(str(path))
            assert [[list(u.values) for u in profile] for profile in parsed] == profiles
