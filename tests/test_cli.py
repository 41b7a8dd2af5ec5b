"""CLI surface: exit codes, report files, profile parsing."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alloclab
from alloclab.cli import (
    MAX_GRID_RATES,
    MAX_TRIALS,
    MAX_V_PROFILES,
    InputError,
    main,
    parse_profile_file,
)
from alloclab.core import TiesPresent
from alloclab.harness import default_v_profiles, verify_lemma
from alloclab.checkers import encode, report_json
from alloclab.rules import BASE_RULES


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


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "matrix",
    [_identity(8), _identity(8)[:7], [["0.5"] * 8] * 8, {"matrix": _identity(1100)}],
)
def test_decompose_refuses_matrices_over_the_size_cap(matrix, capsys):
    # The size is checked before any entry is converted, so a decimal entry
    # of an oversized matrix is not what gets reported.
    assert main(["decompose", "--matrix", json.dumps(matrix)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: matrix has more than 7 rows or a row of more than 7 entries\n"
    )


def test_decompose_takes_a_matrix_at_the_size_cap(capsys):
    # A circulant matrix: row i holds 1/28, ..., 7/28, shifted by i.
    matrix = [[Fraction((i - j) % 7 + 1, 28) for j in range(7)] for i in range(7)]
    assert main(["decompose", "--matrix", json.dumps([list(map(str, row)) for row in matrix])]) == 0
    recomposed = [[Fraction(0)] * 7 for _ in range(7)]
    for term in json.loads(capsys.readouterr().out)["terms"]:
        for agent, obj in enumerate(term["perm"]):
            recomposed[agent][obj] += Fraction(term["weight"])
    assert recomposed == matrix


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


@pytest.mark.parametrize("text", ["abc", "-3"])
def test_malformed_random_count_is_usage_error(text, monkeypatch, capsys):
    def no_profiles(*args):
        raise AssertionError("profiles built before the count check")

    monkeypatch.setattr("alloclab.cli.random_profile", no_profiles)
    argv = ["check", "--rule", "rsd", "--axiom", "efficiency", "--seed", "1",
            "--profiles", f"random:count={text}"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: random:count must be an integer from 1 to 10000, got '{text}'\n"
    )


def _one_v_profile(sizes):
    def build(seed, count):
        sizes.append(count)
        return default_v_profiles(seed, 1)

    return "default_v_profiles", build


def _one_trial(sizes):
    def run(lemma, rule, trials, seed):
        sizes.append(trials)
        return verify_lemma(lemma, rule, 1, seed)

    return "verify_lemma", run


@pytest.mark.parametrize(
    "argv, flag, cap, stub",
    [
        (["theorem2", "--rule", "rsd", "--grid", "1/2", "--seed", "1", "--count"],
         "--count", MAX_V_PROFILES, _one_v_profile),
        (["lemma", "--lemma", "L1", "--rule", "rsd", "--seed", "1", "--trials"],
         "--trials", MAX_TRIALS, _one_trial),
    ],
)
def test_v_profile_count_and_lemma_trials_are_capped(argv, flag, cap, stub, monkeypatch, capsys):
    # The stub records the size it is asked for and builds one item, so the
    # run at the cap stays short.
    sizes = []
    name, replacement = stub(sizes)
    monkeypatch.setattr(f"alloclab.cli.{name}", replacement)
    assert main([*argv, str(cap)]) == 0
    assert sizes == [cap]
    capsys.readouterr()
    assert main([*argv, str(cap + 1)]) == 2
    assert sizes == [cap]  # refused before any profile is built or trial runs
    assert capsys.readouterr().err == f"error: {flag} must be at most {cap}, got {cap + 1}\n"


def test_grid_efficiency_report_bytes_are_pinned(capsys):
    argv = ["check", "--rule", "rsd", "--axiom", "efficiency", "--grid", "1/4,3/4",
            "--samples", "0", "--seed", "3"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    report.pop("elapsed_ms")
    assert hashlib.sha256(json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest() == (
        "b001650869a205146a43b28c551396a9a84ffe3b9b5b3bb7b1de18785ddb1410"
    )


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["check", "--rule", "ps", "--axiom", "strategy-proofness", "--grid", "1/10,9/10"], 1,
         "e30b2bd72f6a6c14bab70d3bdb94666622fc9eb024696dbf00dcae2a2edbd239"),
        (["check", "--rule", "utilitarian", "--axiom", "ordinality", "--grid", "1/4,3/4",
          "--seed", "2"], 1,
         "da7935d98d964ee0f2c7df95a5b2b5e33f15f6f5aa13bd68de32babd9f1c7181"),
        (["check", "--rule", "ps", "--axiom", "sd-strategy-proofness", "--grid", "1/2",
          "--seed", "4"], 1,
         "d2c3159218cc2ec7c889e5f2195c07f36cef2d682f18e47193e735f3371b382b"),
        (["check", "--rule", "utilitarian", "--axiom", "continuity"], 1,
         "f80468801fd3594727a83081ae29e7d15c9809269b186e249ef56ef6b4757fb8"),
        (["check", "--rule", "utilitarian", "--axiom", "sd-strategy-proofness", "--grid",
          "1/4,3/4", "--seed", "4"], 1,
         "215b6cbf977a270315e6f8e40f4c70e5785ebb32c53ad80de9959721b820233f"),
        (["theorem2", "--rule", "utilitarian", "--grid", "1/4,3/4", "--seed", "5"], 1,
         "4e696e4052cafdefbf894ba7b1f7f7b761abbf03829fd123559e2abd4d54ceff"),
        (["decompose", "--matrix",
          '[["1/2","1/3","1/6"],["1/3","1/6","1/2"],["1/6","1/2","1/3"]]'], 0,
         "764723994a2a226946e83a2dd7f778bd917793416675cfe5127e8b5f73b6127b"),
        # Default-grid scans of utilitarian and its blends, pinned before
        # the scans took their allocations from the rules' block allocators.
        (["check", "--rule", "utilitarian", "--axiom", "strategy-proofness"], 1,
         "279111f2dcc0daacc2e2f2abc3a21514dda19cd1b7557e813213f5c7323767e0"),
        (["check", "--rule", "utilitarian", "--axiom", "non-bossiness"], 0,
         "ddbdd5c40cd639de7bf0801de9552e26d2b7de3a08d4225fedd490a3802c73c8"),
        (["check", "--rule", "blend:rsd:utilitarian:1/2", "--axiom", "strategy-proofness"], 1,
         "e642fbf90a53439b36ad2bf346d5035318d0495d6fd81fffd5347550fcb75be8"),
        (["check", "--rule", "blend:rsd:utilitarian:1/2", "--axiom", "non-bossiness"], 0,
         "6b828ba12da7fd342f74b49883f8fdae1c2643b5d583b9000232a2d1de0e5038"),
        (["check", "--rule", "blend:ps:utilitarian:1/2", "--axiom", "strategy-proofness"], 1,
         "0875f3bdc6bb84440b9dead6281a97d1215b500606d71950726e0c76f43e66d8"),
        (["check", "--rule", "blend:ps:utilitarian:1/2", "--axiom", "non-bossiness"], 0,
         "091ee58cb85dd221438e49a59eef1617c9f70fa586314d7b834e3f1f856259a9"),
    ],
    ids=["strategy-proofness", "ordinality", "sd-strategy-proofness", "continuity",
         "not-ordinal", "not-ordinal-on-u", "decompose",
         *(f"default-grid-{rule}-{axiom}"
           for rule in ("utilitarian", "blend-rsd-utilitarian", "blend-ps-utilitarian")
           for axiom in ("strategy-proofness", "non-bossiness"))],
)
def test_report_bytes_are_pinned(argv, code, digest, capsys):
    """Each report less `elapsed_ms`, as the sha256 of its sorted JSON."""
    assert main(argv) == code
    report = json.loads(capsys.readouterr().out)
    report.pop("elapsed_ms", None)
    assert hashlib.sha256(json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest() == (
        digest
    )


def _seeded_runs(group: str) -> list[list[str]]:
    """The seeded invocations of one group whose reports read the samplers'
    draws: a lemma at two seeds (with rsd and utilitarian where it takes a
    rule), theorem2's twins, ordinality's per-cell samples (on grid 1/2 the
    witness is a sampled profile) and random efficiency profiles."""
    seeds = ("1", "2")
    if group == "L10":
        return [["lemma", "--lemma", "L10", "--seed", seed] for seed in seeds]
    if group.startswith("L"):
        return [["lemma", "--lemma", group, "--rule", rule, "--seed", seed]
                for seed in seeds for rule in ("rsd", "utilitarian")]
    if group == "theorem2":
        return [["theorem2", "--rule", rule, "--seed", seed] for seed in seeds for rule in ("rsd", "ps")]
    if group == "ordinality":
        return [["check", "--rule", rule, "--axiom", "ordinality", *grid, "--seed", seed]
                for seed in seeds for grid in ([], ["--grid", "1/2"])
                for rule in ("utilitarian", "blend:rsd:utilitarian:1/2")]
    return [["check", "--rule", rule, "--axiom", "efficiency", "--profiles", "random:count=50",
             "--seed", seed] for seed in seeds for rule in ("utilitarian", "rsd")]


# sha256 of each group's exit codes and reports less `elapsed_ms` (see
# `test_sampled_report_bytes_are_pinned`).
SAMPLED_REPORT_SHA256 = {
    "L1": "4bfe9b63f17dc47108941a5f9b88683f379fbf4b19da4904931ba21f15f09ca9",
    "L2": "f11341a26d1623d29c8c30dd4668609e2436e665795435c42240a1c9b1bbb0ed",
    "L3": "5d121a14206aebb5ce0433aa899d5464fe9522d1541103120f7ce9fc81481f83",
    "L4": "3eee7383449b36d69f5721ae0c3952afea6c3f69db11d933fdbbcfb356de36bc",
    "L5": "ba8cbf85a524a7d925a4ebc2d7a9512b229dd107d261c78ed6b721ecdcf3ac34",
    "L6": "f351d50cdc7333003a87e0485910b195819645d50a5f614358292cdbb0a94851",
    "L7": "cbaa3a41b67eb68312df414c7b4d4f4167c59e22547f8217abc1e57f197cafe6",
    "L8": "cc1d0a678e45bbd00dcfc193ef8cf00f4bfd418a0ff9eb0ca337d9d510989146",
    "L9": "4feb6901f0da0218a6fc7c3f5f9b28253d4682982a08fa3f396ccb0d4a4ee1ce",
    "L10": "1f137c5fde3b0e1252881f6319053622c87cc8bdac29b13d0638e73815d6277c",
    "theorem2": "cd8c93b9ef3e1d6cd939c7e404497d2e432c344466395e216fc6fe580548cef8",
    "ordinality": "7614b455888089e56a8e6eb1e69d12bceae14d6c0e9052662aac210ff0f0cf61",
    "efficiency": "adbb37fb1aa10902ea04272ab9529567d30eff47537b0b5efdde039982a0c123",
}


@pytest.mark.parametrize("group", list(SAMPLED_REPORT_SHA256))
def test_sampled_report_bytes_are_pinned(group, capsys):
    """The sha256 of each run's exit code and report less `elapsed_ms`, in
    turn, pinned while the samplers still built every utility from a
    `Fraction` rate: a draw added, dropped or reordered changes it."""
    hashed = hashlib.sha256()
    for argv in _seeded_runs(group):
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        report.pop("elapsed_ms", None)
        hashed.update(json.dumps([code, report], sort_keys=True).encode())
    assert hashed.hexdigest() == SAMPLED_REPORT_SHA256[group]


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


def test_exploration_refuses_csv(monkeypatch, capsys):
    # The n > 3 exploration report is JSON only; the refusal comes before
    # the exploration runs.
    monkeypatch.setattr("alloclab.cli.exploration_stress", None)
    code = main(["stress", "--rules", "rsd", "--seed", "2", "--n", "4", "--format", "csv"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --format csv needs --n 3: the n > 3 exploration report is JSON only\n"
    )


@pytest.mark.parametrize("n", ["2", "8"])
def test_n_outside_supported_range_is_usage_error(n, capsys):
    code = main(["stress", "--rules", "rsd", "--seed", "2", "--n", n, "--grid", "1/2"])
    assert code == 2
    assert "--n must be between 3 and 7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rules, named",
    [
        ("rsd,rsd", "rsd"),
        ("rsd,ps,rsd", "rsd"),
        # both resolve to one rule, named by its weight in lowest terms
        ("blend:rsd:ps:1/2,blend:rsd:ps:2/4", "blend:rsd:ps:1/2"),
    ],
)
@pytest.mark.parametrize("n", ["3", "4"])
def test_stress_rules_naming_one_rule_twice_is_usage_error(rules, named, n, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("checkers ran before the rule list was checked")

    monkeypatch.setattr("alloclab.cli.theorem_stress", no_run)
    monkeypatch.setattr("alloclab.cli.exploration_stress", no_run)
    assert main(["stress", "--rules", rules, "--seed", "1", "--grid", "1/2", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --rules names {named} twice\n" and captured.out == ""


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
        with pytest.raises(InputError, match="field 2"):
            parse_profile_file(str(path))

    def test_decimal_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,0.4,0\n1,1/2,0\n1,9/10,0\n")
        with pytest.raises(InputError):
            parse_profile_file(str(path))

    def test_json_profiles(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            '{"profiles": [[["1","2/5","0"],["1","1/2","0"],["1","9/10","0"]]]}'
        )
        assert len(parse_profile_file(str(path))) == 1

    def test_missing_file_is_io_error(self):
        with pytest.raises(InputError, match="cannot read profile file"):
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
        with pytest.raises(InputError, match=where):
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
        with pytest.raises(InputError, match=where):
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
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--rule", "rsd", "--axiom", "ordinality", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["check", "--axiom", "ordinality", "--seed", "1"],
         "the following arguments are required: --rule"),
        (["check", "--rule", "rsd", "--axiom", "ordinality", "--seed", "1", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
        (["lemma", "--lemma", "L4", "--rule", "rsd", "--trials", "x", "--seed", "1"],
         "argument --trials: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
        (["check", "--rule", "blend:rsd:ps", "--axiom", "ordinality", "--grid", "1/2",
          "--seed", "1"], "blend spec must be blend:<rule>:<rule>:<p/q>"),
        (["lemma", "--lemma", "L99", "--seed", "1"], "--lemma must be one of"),
        (["lemma", "--lemma", "L1", "--seed", "1"], "L1_effectively_same needs a rule"),
        (["decompose", "--matrix", "@no-such-directory/matrix.json"], "cannot read matrix file"),
    ],
)
def test_argument_parser_errors_print_one_line(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


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
        (
            ["check", "--rule", "ps", "--axiom", "sd-strategy-proofness", "--grid", "1/2",
             "--seed", "4"],
            "cells=216; ordinal deviations=6 per agent; scanned_cells=4 of 216",
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


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("tied.json", '[[["1","1","0"],["1","1/2","0"],["1","9/10","0"]]]',
         ": profile 0: agent 0: tied utility values in "
         "(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1))"),
        ("rational.json", '[[["1","a","0"],["1","1/2","0"],["1","9/10","0"]]]',
         ": profile 0: agent 0: not an exact rational: 'a'"),
        ("decimal.json", "[[[1,0.5,0],[1,0.25,0],[0,0.5,1]]]",
         ": profile 0: agent 0: exact rational expected, got float"),
        ("broken.json", "[[[1,", ": invalid JSON: Expecting value: line 1 column 6 (char 5)"),
        ("huge.json", "[[[1" + "0" * 5000 + ",1,0],[1,2,0],[0,1,2]]]",
         ": invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
         "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"),
        ("object.json", '{"x": 1}', ": expected a list of profiles"),
        ("tied.csv", "1,2/5,0\n1,1,0\n1,9/10,0\n",
         ":2: agent 1: tied utility values in "
         "(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1))"),
        ("blank.csv", "\n  ,  \n\n", ": no profile rows"),
        ("incomplete.csv", "1,2/5,0\n1,1/2,0\n",
         ": 2 agent rows do not form complete profiles of 3 agents"),
        ("short.csv", "1,2/5,0\n1,1/2\n1,9/10,0\n", ":2: expected 3 columns"),
        ("boolean.json", '[[[true,"1/2",0],[1,"1/4",0],[1,"3/4",0]]]',
         ": profile 0: agent 0: exact rational expected, got bool"),
        ("binary.json", b"\xff\xfe[[[1,0,2]]]",
         ": 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("ragged.json", "[[[1,0,2],[1,2,0],[0,1]]]",
         ": profile 0: profile is not square (n agents, n objects)"),
        ("empty-profile.json", "[[]]", ": profile 0: empty profile"),
        ("no-profiles.json", "[]", ": no profiles"),
    ],
)
def test_malformed_profile_file_message_is_pinned(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    argv = ["check", "--rule", "utilitarian", "--axiom", "efficiency", "--seed", "1",
            "--profiles", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"


def test_unknown_generator_spec_is_usage_error(capsys):
    argv = ["check", "--rule", "rsd", "--axiom", "efficiency", "--seed", "1",
            "--profiles", "random:n=3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: unrecognized profile generator spec: 'random:n=3'\n"
    )


@pytest.mark.parametrize(
    "thresholds, code, width",
    [
        ([], 1, "1/1073741824"),
        (["--delta", "1/64"], 1, "1/128"),
        (["--tau", "2", "--delta", "1/64"], 0, None),  # utilitarian's jump is 1
    ],
)
def test_continuity_thresholds_reach_the_checker(thresholds, code, width, capsys):
    argv = ["check", "--rule", "utilitarian", "--axiom", "continuity", *thresholds]
    assert main(argv) == code
    report = json.loads(capsys.readouterr().out)
    assert report.get("witness", {}).get("width") == width


def test_a_gap_equal_to_tau_still_fails(capsys):
    # A jump counts when its gap is at least tau: set to the gap that the
    # default run reports, tau still lets the same path fail.
    argv = ["check", "--rule", "blend:utilitarian:rsd:1/1000", "--axiom", "continuity"]
    assert main(argv) == 1
    gap = json.loads(capsys.readouterr().out)["witness"]["gap"]
    assert gap == "1/1000"
    assert main([*argv, "--tau", gap]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["grid_description"] == "paths=3; failed_path=0"
    assert report["witness"]["gap"] == gap


@pytest.mark.parametrize("flag", ["--tau", "--delta"])
def test_nonpositive_continuity_threshold_is_usage_error(flag, capsys):
    argv = ["check", "--rule", "rsd", "--axiom", "continuity", flag, "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: continuity thresholds must be positive\n"


@pytest.mark.parametrize("rule, code, status", [("rsd", 0, "Pass"), ("utilitarian", 1, "Fail")])
def test_check_csv_row_on_a_verdict(rule, code, status, capsys):
    argv = ["check", "--rule", rule, "--axiom", "ordinality", "--seed", "1", "--grid", "1/2",
            "--format", "csv"]
    assert main(argv) == code
    assert capsys.readouterr().out == f"axiom,rule,status\r\nordinality,{rule},{status}\r\n"


@pytest.mark.parametrize(
    "matrix",
    [
        "[[0.5,0.5],[0.5,0.5]]", "[[null,1],[1,0]]", "7", "[1,2]", "[[true,false],[false,true]]",
        # a matrix is a list of lists, or {"matrix": <that>}; these once
        # decomposed as the identity
        '["100","010","001"]', '{"100": 0, "010": 0, "001": 0}',
        '[["1","0","0"],"010",["0","0","1"]]', '{"matrix": ["100","010","001"]}',
    ],
)
def test_malformed_matrix_is_usage_error(matrix, capsys):
    assert main(["decompose", "--matrix", matrix]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: matrix ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "matrix, line",
    [
        ('[["1","1","0"],["0","0","1"],["1/2","-1/2","1"]]', "error: negative entry -1/2\n"),
        ('[["1/2","1/3","1/5"],[0,1,0],["1/2",0,"1/2"]]', "error: row 0 sums to 31/30, not 1\n"),
        ('[["1/3","2/3"],["1/2","1/2"]]', "error: column 0 sums to 5/6, not 1\n"),
    ],
)
def test_non_bistochastic_matrix_names_its_first_fault(matrix, line, capsys):
    assert main(["decompose", "--matrix", matrix]) == 2
    captured = capsys.readouterr()
    assert captured.err == line and captured.out == ""


HUGE_MATRIX = "[[1" + "0" * 5000 + ",0],[0,1]]"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--rule", "rsd", "--axiom", "efficiency", "--seed", "1", "--profiles",
          "{deep}"], "error: {deep}: invalid JSON: maximum recursion depth exceeded"),
        (["decompose", "--matrix", "@{deep}"],
         "error: matrix is not valid JSON: maximum recursion depth exceeded"),
        # an integer over Python's digit limit, inline and in a file
        (["decompose", "--matrix", HUGE_MATRIX],
         "error: matrix is not valid JSON: Exceeds the limit (4300 digits)"),
        (["decompose", "--matrix", "@{huge}"],
         "error: matrix is not valid JSON: Exceeds the limit (4300 digits)"),
    ],
)
def test_deeply_nested_json_is_usage_error(argv, message, tmp_path, capsys):
    deep, huge = tmp_path / "deep.json", tmp_path / "huge.json"
    deep.write_text("[" * 100_000)
    huge.write_text(HUGE_MATRIX)
    assert main([arg.format(deep=deep, huge=huge) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message.format(deep=deep)) and err.count("\n") == 1


def test_matrix_file_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe[[1,0],[0,1]]")
    assert main(["decompose", "--matrix", f"@{path}"]) == 2
    assert capsys.readouterr().err == (
        f"error: matrix file {path}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_grid_rates_are_distinct_and_capped(monkeypatch, capsys):
    argv = ["check", "--rule", "rsd", "--axiom", "ordinality", "--seed", "1", "--samples", "0"]
    rates = [f"{k}/{MAX_GRID_RATES + 2}" for k in range(1, MAX_GRID_RATES + 2)]
    assert main([*argv, "--grid", ",".join(rates[:MAX_GRID_RATES])]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["grid_description"].startswith(f"cells=216; per_cell={MAX_GRID_RATES**3}+0")
    assert main([*argv, "--grid", "1/2,1/3,1/2"]) == 2
    assert capsys.readouterr().err == "error: grid value 1/2 repeated\n"

    def no_config(**kwargs):
        raise AssertionError("grid built before the rate count check")

    monkeypatch.setattr("alloclab.cli.CheckConfig", no_config)
    assert main([*argv, "--grid", ",".join(rates)]) == 2
    assert capsys.readouterr().err == (
        f"error: --grid takes at most {MAX_GRID_RATES} rates, got {MAX_GRID_RATES + 1}\n"
    )


NOT_RATIONAL = "not an exact rational: ''"
CONTINUITY = ["check", "--rule", "rsd", "--axiom", "continuity", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["check", "--rule", "rsd", "--axiom", "ordinality", "--samples", "0", "--grid", "",
          "--seed", "1"], NOT_RATIONAL),
        (["stress", "--rules", "rsd", "--samples", "0", "--grid", "", "--seed", "1"],
         NOT_RATIONAL),
        (["theorem2", "--rule", "rsd", "--grid", "", "--seed", "1"], NOT_RATIONAL),
        ([*CONTINUITY, "--tau", ""], NOT_RATIONAL),
        ([*CONTINUITY, "--delta", ""], NOT_RATIONAL),
        (["stress", "--rules", "", "--samples", "0", "--seed", "1"], "unknown rule: ''"),
        (["decompose", "--matrix", "[[1,0],[0,1]]", "--out", ""],
         "cannot write report to '': Is a directory"),
        (["lemma", "--lemma", "L10", "--rule", "", "--trials", "3", "--seed", "1"],
         "unknown rule: ''"),
    ],
    ids=["check", "stress", "theorem2", "check-tau", "check-delta", "stress-rules",
         "decompose-out", "lemma-rule"],
)
def test_empty_grid_is_refused(argv, error, capsys):
    """An empty flag value is refused, not read as the flag's absence."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and captured.out == ""


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["decompose", "--matrix", "[[1,0],[0,1]]", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write report to {str(out)!r}: No such file or directory\n"
    )


def _source_env() -> dict:
    """The environment for a child process that imports this checkout's
    alloclab."""
    src = str(Path(alloclab.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--matrix", "[[1,0],[0,1]]"],
        ["lemma", "--lemma", "L2", "--rule", "utilitarian", "--trials", "200", "--seed", "1"],
    ],
    ids=["buffered", "larger-than-buffer"],
)
def test_closed_stdout_is_io_error(argv):
    """A report that cannot reach stdout exits 2 with one stderr line, also
    when the write only fails at the final flush, and also when the process
    starts with no stdout at all."""
    env = _source_env()
    command = [sys.executable, "-m", "alloclab.cli", *argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(command, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (
        2, "error: cannot write report to stdout: Broken pipe\n"
    )
    closed = subprocess.run(
        ["sh", "-c", '"$@" >&-', "sh", *command], env=env, stderr=subprocess.PIPE, text=True
    )
    assert (closed.returncode, closed.stderr) == (
        2, "error: cannot write report to stdout: it is closed\n"
    )


def test_import_loads_no_dataclass_machinery():
    """Every CLI process pays for its imports: `dataclasses` alone pulls in
    `inspect`, `ast`, `dis` and `tokenize`."""
    env = _source_env()
    code = "import sys, alloclab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


def test_reports_do_not_depend_on_the_hash_seed():
    """Rule outputs are interned on ids and integer tuples, and a blend's
    mix table is keyed on ids: a stress run and a grid scan print the same
    bytes, `elapsed_ms` aside, under two hash seeds."""
    commands = [
        ["stress", "--grid", "1/4,3/4", "--seed", "766930",
         "--tau", "1/1000000", "--delta", "1/1000000000"],
        ["check", "--rule", "ps", "--axiom", "non-bossiness", "--grid", "1/10,2/5,3/5,9/10"],
    ]
    runs = {}
    for hash_seed in ("0", "4242"):
        env = {**_source_env(), "PYTHONHASHSEED": hash_seed}
        for argv in commands:
            runs[hash_seed, argv[0]] = subprocess.Popen(
                [sys.executable, "-m", "alloclab.cli", *argv],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
    printed = {}
    for key, run in runs.items():
        out, err = run.communicate()
        assert run.returncode == 0 and err == ""
        printed[key] = re.sub(r'\n *"elapsed_ms": \d+,?', "", out)
    for argv in commands:
        assert printed["0", argv[0]] == printed["4242", argv[0]]
    assert '"status": "Pass"' in printed["0", "check"]


def _grid(*argv):
    return [*argv, "--grid", "1/4,3/4", "--samples", "0", "--seed", "3"]


# One command per kind of report the CLI writes, as (argv, exit code).
EVERY_REPORT = {
    **{
        f"{axiom}-{status}": (_grid("check", "--rule", rule, "--axiom", axiom), code)
        for axiom, passing, failing in (
            ("efficiency", "utilitarian", "rsd"),
            ("strategy-proofness", "rsd", "utilitarian"),
            ("sd-strategy-proofness", "rsd", "ps"),
            ("non-bossiness", "rsd", "bossy-test"),
            ("ordinality", "rsd", "utilitarian"),
            ("continuity", "rsd", "utilitarian"),
        )
        for status, rule, code in (("pass", passing, 0), ("fail", failing, 1))
    },
    "not-ordinal": (_grid("check", "--rule", "utilitarian", "--axiom", "sd-strategy-proofness"), 1),
    "stress": (_grid("stress"), 0),
    "stress-n4": (["stress", "--seed", "2", "--n", "4", "--grid", "1/2"], 0),
    "lemma-failures": (["lemma", "--lemma", "L3", "--rule", "rsd", "--trials", "20", "--seed", "3"], 1),
    # more failures than the report keeps witnesses: it adds failures_total
    "lemma-capped": (["lemma", "--lemma", "L3", "--rule", "rsd", "--trials", "300", "--seed", "3"], 1),
    "theorem2-pass": (["theorem2", "--rule", "ps", "--seed", "4", "--count", "2", "--grid", "1/10,9/10",
                       "--samples", "1"], 0),
    "theorem2-fail": (["theorem2", "--rule", "utilitarian", "--seed", "4", "--count", "2", "--grid",
                       "1/10,9/10", "--samples", "1"], 1),
    "decompose": (["decompose", "--matrix",
                   '[["1/2","1/3","1/6"],["1/3","1/6","1/2"],["1/6","1/2","1/3"]]'], 0),
}


def _keys(value):
    """Every dict key anywhere in a report's data."""
    if isinstance(value, dict):
        yield from value
        values = value.values()
    elif isinstance(value, (list, tuple)):
        values = value
    else:
        return
    for item in values:
        yield from _keys(item)


@pytest.mark.parametrize("name", list(EVERY_REPORT))
def test_reports_encode_as_the_direct_dump(name, monkeypatch, capsys):
    """`report_json` spells out the exact values before it sorts and
    indents: its bytes are those of one `json.dumps` with `encode` as the
    hook, on every kind of report. That holds only while every key is a
    `str`, since an int key would be sorted after its conversion. Only
    `cli.report_json` is recorded, so the one report written also shows
    that the CLI's writer wrote it."""
    import alloclab.cli as cli
    from test_checkers import BOSSY

    written = []

    def recording(data):
        written.append(data)
        return report_json(data)

    monkeypatch.setattr(cli, "report_json", recording)
    monkeypatch.setitem(BASE_RULES, BOSSY.name, BOSSY)
    argv, code = EVERY_REPORT[name]
    assert main(argv) == code
    [data] = written
    printed = json.dumps(data, sort_keys=True, indent=2, default=encode)
    assert report_json(data) == printed
    assert capsys.readouterr().out == printed + "\n"
    assert all(type(key) is str for key in _keys(data))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "--rule", "rsd", "--axiom", "continuity"], 0),
        (["check", "--rule", "utilitarian", "--axiom", "continuity"], 1),
        (["check", "--rule", "nosuch", "--axiom", "continuity"], 2),
        (["--help"], 0),
        (["lemma", "--lemma", "L2", "--rule", "utilitarian", "--seed", "1"], 1),
    ],
    ids=["pass", "fail", "usage-error", "help", "lemma"],
)
def test_the_process_exit_keeps_codes_and_reports(argv, code, tmp_path, capsys):
    """`python -m alloclab.cli` exits through `cli.entry`, which skips the
    interpreter's teardown: the exit code and the report, on stdout or in a
    file, are those of `main` in-process, `elapsed_ms` aside. The children
    run with stdout block-buffered, as perfbench spawns them, so only
    `entry`'s flush gets the last of it out."""
    def timeless(text):
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)

    env = {key: value for key, value in _source_env().items() if key != "PYTHONUNBUFFERED"}
    in_process = tmp_path / "in-process.json"
    assert main(argv) == code
    printed, error = capsys.readouterr()
    assert main([*argv, "--out", str(in_process)]) == code
    command = [sys.executable, "-m", "alloclab.cli", *argv]
    piped = subprocess.run(command, env=env, capture_output=True, text=True)
    assert (piped.returncode, timeless(piped.stdout), piped.stderr) == (
        code, timeless(printed), error
    )
    assert printed.strip() or code == 2
    written = tmp_path / "process.json"
    run = subprocess.run([*command, "--out", str(written)], env=env, capture_output=True)
    assert run.returncode == code
    if code == 2 or argv == ["--help"]:  # no report to write
        assert not written.exists() and not in_process.exists()
    else:
        assert timeless(written.read_text()) == timeless(in_process.read_text())


def test_entry_flushes_then_exits_with_mains_code(monkeypatch, capsys):
    """`cli.entry` flushes what stdout and stderr still buffer, then ends the
    process with `os._exit` and `main`'s code; `main` never exits, since
    tests and perfbench's traced runs call it in-process."""
    import alloclab.cli as cli

    out, err, exits = io.BytesIO(), io.BytesIO(), []
    monkeypatch.setattr(os, "_exit", lambda status: exits.append(
        (status, out.getvalue(), err.getvalue())
    ))
    for argv, code in ((["check", "--rule", "rsd", "--axiom", "continuity"], 0),
                       (["check", "--rule", "utilitarian", "--axiom", "continuity"], 1),
                       (["check", "--rule", "nosuch", "--axiom", "continuity"], 2),
                       (["--help"], 0)):
        assert main(argv) == code
    assert exits == []

    def buffered():
        print("report")
        print("note", file=sys.stderr, end="")
        return 1

    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(out)))
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(io.BufferedWriter(err)))
    monkeypatch.setattr(cli, "main", buffered)
    cli.entry()
    assert exits == [(1, b"report\n", b"note")]


# Near-valid flag values for the robustness test below, as (good, bad)
# pairs: values the CLI takes, and values it must refuse. Every grid has one
# or two rates, so that each command runs in milliseconds.
_RATIONALS = (["1/2", "2/3", "1", "3/2"], ["0", "-1/2", "1/0", "2/-3", "0.5", "1e-3", "x", ""])
_GRIDS = (["1/2", "1/4,3/4", "1/3,2/3"], ["0", "1", "-1/2", "1/2,1/2", "1/2,0.5", ",", "x", ""])
_RULES = (["rsd", "ps", "dictatorship", "uniform", "utilitarian", "blend:rsd:utilitarian:1/2",
           "blend:rsd:ps:3/5"],
          ["blend:rsd:ps:2", "blend:rsd:ps:-1/2", "blend:rsd:ps:0.5", "blend:rsd:ps",
           "blend:rsd:nosuch:1/2", "nosuch", ""])
_AXIOMS = (["efficiency", "strategy-proofness", "strategy_proofness", "sd-strategy-proofness",
            "non-bossiness", "ordinality", "continuity"], ["fairness", ""])
_LEMMAS = (["L1", "L2", "L3", "L5", "L9", "L10"], ["L0", "L", "x", ""])
_COUNTS = (["1", "2"], ["0", "-1", "x", str(MAX_TRIALS + 1)])
_SEEDS = (["1", "7", "-3"], ["x", ""])
_SAMPLES = (["0", "1"], ["-1", "x"])
_FORMATS = (["json", "csv"], ["xml"])
_MATRICES = (['[[1,0],[0,1]]', '[["1/2","1/2"],["1/2","1/2"]]', '{"matrix": [[1]]}',
              '[["1/3","2/3"],["2/3","1/3"]]'],
             ['[[1,0],[1,0]]', '[["3/2","-1/2"],["-1/2","3/2"]]', '[[0.5,0.5],[0.5,0.5]]',
              '[[true]]', '[]', '[[]]', '[[1,"a"],[0,1]]', '["10","01"]', '{"m": [[1]]}',
              '[[1,0],[0,1]', "x", ""])
_PROFILE_FILES = {
    "good.csv": "1,2/5,0\n1,1/2,0\n1,9/10,0\n",
    "good.json": '[[["1","1/2","0"],["1","1/4","0"],["0","1/2","1"]]]',
    "tied.csv": "1,1,0\n1,1/2,0\n1,9/10,0\n",
    "short.csv": "1,2/5,0\n1,1/2\n1,9/10,0\n",
    "small.json": '[[["1","0"],["0","1"]]]',
    "ragged.json": "[[[1,0,2],[1,2,0],[0,1]]]",
    "decimal.json": "[[[1,0.5,0],[1,0.25,0],[0,0.5,1]]]",
    "broken.json": "[[[1,",
    "empty.json": "[]",
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """The robustness test's profile and matrix values as (good, bad) pairs
    of `--profiles` and `--matrix` values; the files live in one folder."""
    folder = tmp_path_factory.mktemp("inputs")
    for name, text in _PROFILE_FILES.items():
        (folder / name).write_text(text)
    (folder / "binary.json").write_bytes(b"\xff\xfe[[1,0],[0,1]]")

    def at_file(name, text):
        (folder / name).write_text(text)
        return f"@{folder / name}"

    good, bad = _MATRICES
    matrices = ([*good, *(at_file(f"good{i}.json", text) for i, text in enumerate(good))],
                [*bad, *(at_file(f"bad{i}.json", text) for i, text in enumerate(bad)),
                 f"@{folder / 'binary.json'}", f"@{folder / 'missing.json'}"])
    names = [*_PROFILE_FILES, "binary.json", "missing.csv"]
    profiles = ([str(folder / name) for name in names[:2]] + ["random:count=2"],
                [str(folder / name) for name in names[2:]]
                + ["random:count=0", "random:count=x", "random:n=3"])
    return {"--profiles": profiles, "--matrix": matrices}


def _near_valid_argv(draw, files) -> list[str]:
    """One argument vector for a command drawn at random: its required
    flags, and a random subset of the others. Each value is one the CLI
    takes four times in five, and else one it must refuse; one vector in
    ten lacks a required flag or carries one the command does not take."""
    def pick(values):
        good, bad = values
        return draw(st.sampled_from(good if draw(st.integers(0, 4)) else bad))

    def maybe(flag, values):
        return [flag, pick(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["check", "decompose", "lemma", "stress", "theorem2"]))
    if command == "check":
        required = ["--rule", pick(_RULES), "--axiom", pick(_AXIOMS), "--seed", pick(_SEEDS)]
        optional = [*maybe("--samples", _SAMPLES),
                    *maybe("--profiles", files["--profiles"]), *maybe("--format", _FORMATS),
                    *maybe("--tau", _RATIONALS), *maybe("--delta", _RATIONALS)]
    elif command == "decompose":
        required, optional = ["--matrix", pick(files["--matrix"])], []
    elif command == "lemma":
        required = ["--lemma", pick(_LEMMAS), "--seed", pick(_SEEDS)]
        optional = [*maybe("--rule", _RULES), "--trials", pick(_COUNTS),
                    *maybe("--format", _FORMATS)]
    elif command == "stress":
        required = ["--seed", pick(_SEEDS)]
        optional = ["--rules", pick((["rsd", "utilitarian,ps", "blend:rsd:utilitarian:1/2"],
                                     ["rsd,rsd", "ps,nosuch", ""])),
                    *maybe("--samples", _SAMPLES),
                    *maybe("--format", _FORMATS), *maybe("--tau", _RATIONALS),
                    *maybe("--n", (["3", "4"], ["2", "8", "x"]))]
    else:
        required = ["--rule", pick(_RULES), "--seed", pick(_SEEDS)]
        optional = ["--count", pick(_COUNTS), *maybe("--samples", _SAMPLES)]
    if command in ("check", "stress", "theorem2"):
        optional += ["--grid", pick(_GRIDS)]
    if draw(st.integers(0, 9)) == 0:
        if draw(st.booleans()):
            required = required[2:]
        else:
            optional += ["--matrix", "[[1]]"] if command != "decompose" else ["--seed", "1"]
    return [command, *required, *optional]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_near_valid_input_is_refused_in_one_line(data, input_files):
    """Whatever mix of good and bad values a command gets, it gives a
    verdict (exit 0 or 1) or refuses the input with one `error:` line (exit
    2); an internal error (exit 3) never stands in for a refusal."""
    argv = _near_valid_argv(data.draw, input_files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, message)
    assert "internal error" not in message
    if code == 2:
        assert message.startswith("error: ") and message.count("\n") == 1, (argv, message)
