"""Command-line harness: seed parsing, CSV output, and exit codes."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from accbft import harness
from accbft.committee import FaultProfile, threshold_tolerated
from accbft.harness import (
    CSV_COLUMNS,
    CSV_SCHEMA,
    EX_INVARIANT,
    EX_OK,
    EX_SCENARIO,
    EX_USAGE,
    OUTDIR_ENV,
    main,
    parse_seeds,
    pick_profile,
    record_to_row,
    write_csv,
)
from accbft.scenarios import (
    Scenario,
    canonical_record,
    clean_scenario,
    fork_scenario,
    run_scenario,
    spam_scenario,
)

EXACT_FLUX = "1087297357828858466646322531/1000000000000000000000000000000"


def run_cli(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


# -- seed specs -------------------------------------------------------------


@pytest.mark.parametrize(
    ("spec", "want"),
    [
        ("7", [7]),
        ("1..5", [1, 2, 3, 4, 5]),
        ("1,4,9..11", [1, 4, 9, 10, 11]),
        ("3, 1..2 ,2", [1, 2, 3]),
    ],
)
def test_parse_seeds(spec, want):
    assert parse_seeds(spec) == want


def test_parse_seeds_rejects_garbage():
    with pytest.raises(ValueError, match="seed range 5..1 is reversed"):
        parse_seeds("5..1")
    with pytest.raises(ValueError, match="empty seed entry"):
        parse_seeds("1,,2")
    with pytest.raises(ValueError):
        parse_seeds("forty")
    with pytest.raises(ValueError, match="more than 100000 seeds"):
        parse_seeds("1..100001")
    assert len(parse_seeds("1..100000")) == harness.MAX_SEEDS


# -- rows and files ---------------------------------------------------------


def test_row_matches_the_column_list(clean_record):
    row = record_to_row(clean_record)
    assert len(row) == len(CSV_COLUMNS) == 45
    assert all(isinstance(cell, str) for cell in row)
    assert row[CSV_COLUMNS.index("schema")] == CSV_SCHEMA == "accbft.v1"
    assert row[CSV_COLUMNS.index("disagreements")] == "0"
    assert row[CSV_COLUMNS.index("chain_digests_distinct")] == "1"


def test_write_csv_is_byte_stable(clean_record, tmp_path):
    row = record_to_row(clean_record)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert write_csv(first, [row, row]) == 2
    write_csv(second, [row, row])
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_pick_profile_is_deterministic_and_tolerated():
    for n in (4, 7, 10):
        for seed in range(1, 30):
            t, d, q = pick_profile(n, seed)
            assert pick_profile(n, seed) == (t, d, q)
            h0 = (2 * n + 2) // 3
            assert threshold_tolerated(FaultProfile(n, t, d, q), h0) == (True, True)


# -- analyze subcommand -----------------------------------------------------


@pytest.mark.parametrize(
    ("argv", "want"),
    [
        (("analyze", "blockdepth", "--a", "3"), "28"),
        (("analyze", "blockdepth", "--a", "6"), "37"),
        (("analyze", "branches", "--delta", "0.66"), "51"),
        (("analyze", "branches", "--n", "9", "--dt", "5"), "4"),
        (("analyze", "confirm", "--n", "9", "--h", "6", "--alpha", "4/9"), "8"),
        (("analyze", "confirm", "--alpha", "2/3"), "9"),
        (("analyze", "flux", "--a", "3", "--w", "28", "--exact"), EXACT_FLUX),
        # the deepest depths the cap lets through
        (("analyze", "blockdepth", "--a", "3", "--rho", "0.999"), "3042"),
        (("analyze", "flux", "--a", "3", "--w", "10000"), "0.1"),
        # a rho whose float underflows to 0 seeds from the exact ratio
        (("analyze", "blockdepth", "--a", "3", "--rho", "1/1" + "0" * 401), "0"),
    ],
)
def test_analyze_prints_single_values(capsys, argv, want):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EX_OK
    assert out.strip() == want


def test_analyze_tables_are_csv(capsys):
    code, out, _ = run_cli(capsys, "analyze", "reference")
    assert code == EX_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("branches,")
    assert len(lines) == 6

    code, out, _ = run_cli(capsys, "analyze", "frontier", "--n", "9", "--h", "6")
    assert code == EX_OK
    assert len(out.strip().splitlines()) == 4

    code, out, _ = run_cli(capsys, "analyze", "blockdepth", "--curve", "2..4")
    assert code == EX_OK
    assert len(out.strip().splitlines()) == 4


def test_analyze_rejects_bad_requests(capsys):
    code, _, err = run_cli(capsys, "analyze", "blockdepth")
    assert code == EX_SCENARIO
    assert "blockdepth needs --a or --curve" in err

    code, _, err = run_cli(capsys, "analyze", "branches", "--n", "9", "--dt", "6")
    assert code == EX_SCENARIO
    assert err.startswith("error:")


@pytest.mark.parametrize(
    ("argv", "code", "diagnostic"),
    [
        (("flux", "--a", "0"), EX_SCENARIO, "flux needs a >= 1"),
        (("flux", "--a", "3", "--b", "-1"), EX_SCENARIO, "flux needs a >= 1"),
        (("flux", "--b", "-1"), EX_SCENARIO, "flux needs --a"),
        (("blockdepth", "--a", "0"), EX_SCENARIO, "at least 2 branches"),
        (("blockdepth", "--curve", "1..3"), EX_SCENARIO, "at least 2 branches"),
        (("branches", "--n", "9", "--h", "12"), EX_SCENARIO, "threshold out of"),
        (("confirm", "--n", "9", "--h", "3"), EX_SCENARIO, "threshold out of"),
        (("blockdepth", "--curve", "5..2"), EX_USAGE, "range 5..2 is reversed"),
        # a ratio option takes no exponent: Fraction would build 10**4000000
        (("flux", "--a", "3", "--w", "28", "--b", "1e400"), EX_USAGE, "is not a ratio"),
        (("flux", "--a", "3", "--w", "28", "--b", "1e4000000"), EX_USAGE, "is not a ratio"),
        # a plain 401-digit deposit factor is a ratio, but its flux is no float
        (("flux", "--a", "3", "--w", "28", "--b", "1" + "0" * 400), EX_SCENARIO, "error:"),
        (("flux", "--a", "3", "--b", "1/0"), EX_USAGE, "divides by zero"),
        # the frontier and the curves are bounded, so no request runs for ever
        (("frontier", "--n", "1001"), EX_USAGE, "must be an integer in [1, 1000]"),
        (("branches", "--n", "0"), EX_USAGE, "must be an integer in [1, 1000]"),
        (("blockdepth", "--curve", "2..100000000"), EX_USAGE, "more than 10000 values"),
        (("blockdepth", "--curve", "2..10002"), EX_USAGE, "more than 10000 values"),
        # and so is the finalization depth: an exact power of rho that deep
        # has millions of digits
        (("blockdepth", "--a", "3", "--rho", "0.999999"), EX_USAGE, "exceeds 10000"),
        (("blockdepth", "--a", "3", "--rho", "0.9999"), EX_USAGE, "exceeds 10000"),
        (("blockdepth", "--curve", "2..3", "--rho", "0.999999"), EX_USAGE, "exceeds 10000"),
        # a rho whose float is 1.0 has no float log to seed the search with
        (("blockdepth", "--a", "3", "--rho", "0." + "9" * 30), EX_USAGE, "exceeds 10000"),
        (("flux", "--a", "3", "--w", "100000000"), EX_USAGE, "blockdepth 100000000 exceeds"),
        (("flux", "--a", "3", "--w", "10001"), EX_USAGE, "blockdepth 10001 exceeds"),
        # no depth at all pays for a fork without a deposit
        (("blockdepth", "--a", "3", "--b", "0"), EX_USAGE, "no finite blockdepth for deposit"),
        (("blockdepth", "--a", "3", "--b", "-1"), EX_SCENARIO, "deposit factor >= 0"),
        # the branch bounds take no negative fault count or ratio, and a
        # threshold ratio in (1/2, 1] as _check_h does
        (("branches", "--n", "9", "--dt", "-1"), EX_SCENARIO, "dt must be >= 0"),
        (("branches", "--delta", "-0.5"), EX_SCENARIO, "h_ratio in (1/2, 1]"),
        (("branches", "--delta", "0.5", "--h-ratio", "2"), EX_SCENARIO, "h_ratio in (1/2, 1]"),
    ],
)
def test_analyze_rejects_out_of_domain_input(capsys, argv, code, diagnostic):
    got, out, err = run_cli(capsys, "analyze", *argv)
    assert (got, out) == (code, "")
    assert diagnostic in err and "Traceback" not in err


def test_usage_errors_exit_64(capsys):
    assert run_cli(capsys)[0] == EX_USAGE
    assert run_cli(capsys, "frobnicate")[0] == EX_USAGE
    assert run_cli(capsys, "run")[0] == EX_USAGE  # --scenario is required


# -- run subcommand ---------------------------------------------------------


def write_scenario(tmp_path, scn, stem="scn"):
    path = tmp_path / (stem + ".json")
    path.write_text(json.dumps(scn.to_dict()))
    return str(path)


def test_run_writes_csv_and_jsonl(capsys, tmp_path):
    path = write_scenario(tmp_path, clean_scenario(4, heights=2))
    code, out, _ = run_cli(
        capsys, "run", "--scenario", path, "--seeds", "1..2",
        "--outdir", str(tmp_path), "--out", "mini",
    )
    assert code == EX_OK
    assert "wrote" in out
    csv_lines = (tmp_path / "mini.csv").read_text().splitlines()
    assert len(csv_lines) == 3 and csv_lines[0] == ",".join(CSV_COLUMNS)
    jsonl = (tmp_path / "mini.jsonl").read_text().splitlines()
    assert len(jsonl) == 2
    assert json.loads(jsonl[0])["seed"] == 1


@pytest.mark.parametrize(
    ("argv", "code", "diagnostic"),
    [
        # an output directory that is a file cannot be created
        (("--outdir", "taken"), EX_SCENARIO, "output error:"),
        # the stem names a file, not a path
        (("--out", "nosuchdir/x"), EX_USAGE, "--out: 'nosuchdir/x' must match"),
        (("--out", "../up"), EX_USAGE, "--out: '../up' must match"),
    ],
)
def test_run_rejects_unusable_output_paths(capsys, tmp_path, monkeypatch, argv, code, diagnostic):
    (tmp_path / "taken").write_text("")
    monkeypatch.chdir(tmp_path)
    ran = []
    monkeypatch.setattr(harness, "_run_batch", lambda tasks: ran.append(tasks) or [])
    path = write_scenario(tmp_path, clean_scenario(4))
    got, out, err = run_cli(capsys, "run", "--scenario", path, "--seeds", "1", *argv)
    assert (got, out) == (code, "")
    assert diagnostic in err and "Traceback" not in err
    # rejected before any seed runs, and nothing written
    assert ran == [] and sorted(p.name for p in tmp_path.iterdir()) == ["scn.json", "taken"]


def test_importing_the_harness_leaves_multiprocessing_unimported():
    # a single run formats its row in-process; only a worker pool needs it
    src = Path(harness.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, accbft.harness; print('multiprocessing' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


@pytest.fixture
def two_workers(monkeypatch):
    """Make the batch runner see two CPUs, so it takes the pool path."""
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})


def test_batch_runner_matches_in_process_runs(capsys, tmp_path, two_workers):
    clean = clean_scenario(4, heights=2)
    pairs = [(clean, 1), (clean, 2), (clean, 3)]
    pairs += [(spam_scenario(), 1), (fork_scenario("binary-fork"), 1)]
    batch = harness.run_records(pairs)
    in_process = [run_scenario(scn, seed).record for scn, seed in pairs]
    assert [canonical_record(r) for r in batch] == [
        canonical_record(r) for r in in_process
    ]

    path = write_scenario(tmp_path, clean)
    code, _, _ = run_cli(
        capsys, "run", "--scenario", path, "--seeds", "1..4",
        "--outdir", str(tmp_path), "--out", "batch",
    )
    assert code == EX_OK
    rows = [record_to_row(run_scenario(clean, seed).record) for seed in range(1, 5)]
    write_csv(tmp_path / "in-process.csv", rows)
    assert (tmp_path / "batch.csv").read_bytes() == (
        tmp_path / "in-process.csv"
    ).read_bytes()


def test_suite_attack_checks_match_in_process_records(two_workers):
    spam = [run_scenario(spam_scenario(), seed).record for seed in (1, 2)]
    forks = {
        kind: [run_scenario(fork_scenario(kind), seed).record for seed in (1, 2)]
        for kind in harness.FORK_KINDS
    }
    attack_runs = spam + [r for records in forks.values() for r in records]
    want = [harness.check_spam(spam), harness.check_branch_bound(attack_runs)] + [
        harness.check_accountability(kind, records) for kind, records in forks.items()
    ]
    assert harness.suite_attack(2) == want


def test_run_honours_the_outdir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    path = write_scenario(tmp_path, clean_scenario(4))
    code, _, _ = run_cli(capsys, "run", "--scenario", path, "--seeds", "1")
    assert code == EX_OK
    assert (tmp_path / "clean-n4.csv").exists()


def test_run_trace_dumps_event_logs(capsys, tmp_path):
    path = write_scenario(tmp_path, clean_scenario(4))
    code, _, _ = run_cli(
        capsys, "run", "--scenario", path, "--seeds", "1",
        "--outdir", str(tmp_path), "--trace",
    )
    assert code == EX_OK
    lines = (tmp_path / "clean-n4-seed1.trace.jsonl").read_text().splitlines()
    assert lines
    event = json.loads(lines[0])
    assert {"t", "ev"} <= set(event)


def test_run_rejects_broken_scenarios(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--scenario", str(tmp_path / "no.json"))
    assert code == EX_SCENARIO
    assert err.startswith("scenario error:")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "n": 4}))
    code, _, err = run_cli(capsys, "run", "--scenario", str(bad))
    assert code == EX_SCENARIO
    assert "required field missing" in err

    bad.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    code, _, err = run_cli(capsys, "run", "--scenario", str(bad))
    assert code == EX_SCENARIO
    assert err.startswith("scenario error:") and "json:" in err


@pytest.mark.parametrize(
    ("fields", "diagnostic"),
    [
        ({"attack": []}, "attack: must be an object"),
        ({"benign": "crash"}, "benign: must be an object"),
        ({"byzantine": 1}, "byzantine: must be an object"),
        ({"partitions": 5}, "partitions: must be a list of pid lists"),
        ({"partitions": [1, 2]}, "partitions: must be a list of pid lists"),
        ({"seeds": 5}, "seeds: must be a non-empty list of integers"),
        ({"delay": {"model": "gamma", "scale_ms": "5"}}, "delay: gamma needs"),
        ({"payload": "ledger", "deposit": {"factor": "abc"}}, "deposit.factor:"),
        (
            {"delay": {"model": "trace", "table": [[1]], "regions": ["eu"]}},
            "delay.table: rows must be",
        ),
        (
            {"delay": {"model": "trace", "table": [["eu", "us", 5]],
                       "regions": ["eu", "us"]}},
            "delay.table: no latency for region pair",
        ),
        ({"n": True}, "n: must be a positive integer"),
        (
            {"q": 1, "benign": {"kind": "crash_at", "crash_at": 5000}},
            "benign.crash_at: unknown field",
        ),
        ({"t": 1, "byzantine": {"garble": 0.5}}, "byzantine.garble: unknown field"),
        (
            {"payload": "ledger", "deposit": {"blockdepth": 3, "depth": 5}},
            "deposit.depth: unknown field",
        ),
        (
            {"delay": {"model": "uniform", "lo_ms": 1, "hi_ms": 2, "shape": 3}},
            "delay.shape: unknown field",
        ),
        (
            {"cross_delay": {"model": "gamma", "scale_ms": 5, "jitter_ms": 1}},
            "cross_delay.jitter_ms: unknown field",
        ),
        ({"delay": {"model": "gamma", "scale_ms": 1e306}}, "delay: gamma needs"),
        ({"delay": {"model": "gamma", "scale_ms": float("inf")}}, "delay: gamma needs"),
        ({"delay": {"model": "gamma", "scale_ms": 10**400}}, "delay: gamma needs"),
        (
            {"delay": {"model": "gamma", "scale_ms": 5, "shape": float("inf")}},
            "delay: gamma needs",
        ),
        (
            {"delay": {"model": "trace", "table": [["eu", "eu", float("inf")]],
                       "regions": ["eu"]}},
            "delay.table: rows must be",
        ),
        ({"delay": {"model": "gamma", "scale_ms": 1e-4}}, "delay: gamma needs"),
        ({"n": 10**400}, "n: must be a positive integer, at most 1000"),
        ({"pool": 10**400}, "pool: must be a non-negative integer, at most 1000"),
        (
            {"payload": "ledger", "deposit": {"balance": 10**400}},
            "deposit.balance: must be a non-negative integer (coin units), at most",
        ),
        (
            {"payload": "ledger", "txs_per_block": 10**9},
            "txs_per_block: must be a non-negative integer, at most 1000",
        ),
        ({"delta_ms": 10**400}, "delta_ms: must be a positive integer (milliseconds)"),
        ({"mode": "min-index"}, "mode: must be 'superblock'"),
        (
            {"payload": "ledger", "deposit": {"factor": 10**400}},
            "deposit.factor: must be a non-negative ratio, at most 1000",
        ),
        ({"name": "../escaped"}, "name: must match"),
        ({"name": "sub/dir"}, "name: must match"),
        ({"alpha": False}, "alpha: must be a non-negative ratio, at most 2/3"),
        ({"alpha": True}, "alpha: must be a non-negative ratio, at most 2/3"),
        (
            {"payload": "ledger", "deposit": {"factor": True}},
            "deposit.factor: must be a non-negative ratio, at most 1000",
        ),
        # Fraction would build 10**1000000000 for this 12-byte value
        ({"alpha": "1e1000000000"}, "alpha: must be a non-negative ratio, at most 2/3"),
        (
            {"seeds": list(range(1, harness.MAX_SEEDS + 2))},
            "seeds: must be a non-empty list of integers, at most %d" % harness.MAX_SEEDS,
        ),
    ],
)
def test_run_rejects_hostile_scenario_fields(capsys, tmp_path, fields, diagnostic):
    raw = {**clean_scenario(4).to_dict(), **fields}
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(raw))
    code, _, err = run_cli(
        capsys, "run", "--scenario", str(path), "--outdir", str(tmp_path / "out")
    )
    assert code == EX_SCENARIO
    assert err.startswith("scenario error:")
    assert diagnostic in err and "Traceback" not in err
    # nothing written, inside the output directory or next to it
    assert [p.name for p in tmp_path.iterdir()] == ["hostile.json"]


def test_run_reports_invariant_violations_with_exit_3(capsys, tmp_path):
    # Deceitful majority coalition, no standby pool: the survivors detect the
    # fraud, run out of replacements, and the run must say so loudly.
    stall = Scenario(
        name="stall-no-pool", n=9, t=0, d=5, q=0,
        h0=7, h_prime0=7, delta_ms=60, gst_ms=40, horizon_ms=120_000,
        heights=2, pool=0, partitions=((6, 7), (8, 9)),
        attack={"kind": "broadcast-fork"},
        delay={"model": "uniform", "lo_ms": 1, "hi_ms": 6},
    )
    path = write_scenario(tmp_path, stall)
    code, _, err = run_cli(
        capsys, "run", "--scenario", path, "--seeds", "1", "--outdir", str(tmp_path)
    )
    assert code == EX_INVARIANT
    assert "invariant violation" in err
    assert "pool exhausted" in err


# -- suite subcommand -------------------------------------------------------


def test_suite_zeroloss_passes(capsys):
    code, out, _ = run_cli(capsys, "suite", "zeroloss")
    assert code == EX_OK
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_suite_agreement_small_batch(capsys):
    code, out, _ = run_cli(capsys, "suite", "agreement", "--seeds", "2")
    assert code == EX_OK
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_suite_attack_small_batch(capsys):
    code, out, _ = run_cli(capsys, "suite", "attack", "--seeds", "1")
    assert code == EX_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("complexity", "--seeds", "0"),
        ("agreement", "--seeds", "0"),
        ("membership", "--seeds", "0"),
        ("attack", "--seeds", "-3"),
        ("attack", "--seeds", "many"),
        ("agreement", "--seeds", str(10**12)),
        ("complexity", "--seeds", str(harness.MAX_SEEDS + 1)),
    ],
)
def test_suite_rejects_non_positive_seed_counts(capsys, argv):
    code, out, err = run_cli(capsys, "suite", *argv)
    assert code == EX_USAGE
    assert out == ""
    assert "--seeds" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["1..1000000000000", "1..60000,70000..130000"])
def test_run_rejects_seed_lists_over_the_cap(capsys, tmp_path, spec):
    path = write_scenario(tmp_path, clean_scenario(4))
    code, out, err = run_cli(
        capsys, "run", "--scenario", path, "--seeds", spec, "--outdir", str(tmp_path)
    )
    assert code == EX_USAGE
    assert out == ""
    assert "--seeds" in err and "Traceback" not in err
    assert "more than %d seeds" % harness.MAX_SEEDS in err


def test_run_says_why_a_seed_range_is_rejected(capsys, tmp_path):
    path = write_scenario(tmp_path, clean_scenario(4))
    code, out, err = run_cli(
        capsys, "run", "--scenario", path, "--seeds", "5..1", "--outdir", str(tmp_path)
    )
    assert code == EX_USAGE
    assert out == ""
    assert "--seeds" in err and "reversed" in err and "Traceback" not in err


# -- check functions ----------------------------------------------------------
#
# Each check must be able to fail: one doctored field flips a passing batch.


@pytest.fixture(scope="module")
def spam_record():
    return run_scenario(spam_scenario(), 1).record


@pytest.fixture(scope="module")
def fork_record():
    record = run_scenario(fork_scenario("binary-fork"), 1).record
    assert record["disagreements"]
    return record


@pytest.fixture
def llb_like(clean_record):
    """A clean record reshaped to a converged long-lived run."""
    record = copy.deepcopy(clean_record)
    record.update(
        agreed_tail=100,
        changes=[{}] * 3,
        membership_changes={pid: 3 for pid in record["membership_changes"]},
        ratio_trajectory=[[0, "5/9"], [10, "1/3"], [20, "0"]],
    )
    return record


def doctored(record, **fields):
    record = copy.deepcopy(record)
    record.update(fields)
    return record


def test_checks_pass_on_healthy_records(clean_record, spam_record, fork_record, llb_like):
    assert harness.check_agreement([clean_record])[1]
    assert harness.check_spam([spam_record])[1]
    assert harness.check_accountability("binary-fork", [fork_record])[1]
    assert harness.check_branch_bound([spam_record, fork_record])[1]
    assert harness.check_llb([llb_like])[1]
    assert harness.check_complexity({4: 1.0, 10: 10.0, 20: 60.0, 40: 480.0})[1]


@pytest.mark.parametrize(
    "fields",
    [
        {"disagreements": 1},
        {"failures": {"2": "pool exhausted"}},
        {"heights_done": {"1": 1, "2": 2, "3": 2, "4": 2}},
        {"heights_done": {}},
    ],
)
def test_agreement_check_can_fail(clean_record, fields):
    assert harness.check_agreement([doctored(clean_record, **fields)])[1] is False


@pytest.mark.parametrize(
    "fields",
    [
        {"committee_excluded": {"3": [1, 2], "4": [1]}},
        {"committee_excluded": {"3": [], "4": [1]}},
        {"failures": {"3": "pool exhausted"}},
        {"phases": {"2": "done", "3": "running", "4": "done"}},
        {"heights_done": {"2": 1, "3": 1, "4": 1}},
        {"heights_target": 2},
    ],
)
def test_spam_check_can_fail(spam_record, fields):
    assert harness.check_spam([doctored(spam_record, **fields)])[1] is False


def test_accountability_check_can_fail(fork_record):
    need = fork_record["fraud_threshold"]
    short = dict(fork_record["pof_counts"], **{str(fork_record["honest"][0]): need - 1})
    unforked = doctored(fork_record, disagreements=0)
    for batch in (
        [doctored(fork_record, pof_counts=short)],
        [doctored(fork_record, fraud_threshold=need - 1)],
        [doctored(fork_record, failures={"6": "pool exhausted"})],
        [doctored(unforked, failures={"6": "pool exhausted"})],
        [fork_record, unforked, unforked],
    ):
        assert harness.check_accountability("binary-fork", batch)[1] is False
    # exactly half the seeds forking is enough
    assert harness.check_accountability("binary-fork", [fork_record, unforked])[1]


def test_branch_bound_check_can_fail(fork_record, monkeypatch):
    over = doctored(fork_record, branches_max=fork_record["branches_max"] + 3)
    assert harness.check_branch_bound([over])[1] is False
    assert harness.partition_oracle(9, 6, 5) == 4
    monkeypatch.setattr(harness, "max_branches", lambda n, h, dt: 1)
    assert harness.check_branch_bound([])[1] is False


@pytest.mark.parametrize(
    "fields",
    [
        {"failures": {"6": "pool exhausted"}},
        {"changes": [{}] * 4},
        {"membership_changes": {"1": 4, "2": 3, "3": 3, "4": 3}},
        {"agreed_tail": 99},
        {"heights_target": 3},
        {"ratio_trajectory": [[0, "1/3"], [10, "5/9"]]},
    ],
)
def test_llb_check_can_fail(llb_like, fields):
    assert harness.check_llb([doctored(llb_like, **fields)])[1] is False


@pytest.mark.parametrize(
    "means",
    [
        {4: 1.0, 10: 20.0, 20: 60.0, 40: 480.0},   # 4 -> 10 beyond cubic
        {4: 1.0, 10: 10.0, 20: 60.0, 40: 200.0},   # 40/20 below the band
        {20: 60.0, 40: 480.0},                     # n = 4 and 10 missing
    ],
)
def test_complexity_check_can_fail(means):
    assert harness.check_complexity(means)[1] is False


def test_closed_form_checks_can_fail(monkeypatch):
    assert all(ok for _, ok, _ in harness.suite_zeroloss())
    assert harness.check_frontier()[1]
    monkeypatch.setattr(harness, "conservative_branches", lambda ratio: 3)
    assert harness.check_blockdepth()[1] is False
    monkeypatch.setattr(harness, "consensus_tolerated", lambda profile: True)
    assert harness.check_frontier()[1] is False
