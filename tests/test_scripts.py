"""The example scripts run end to end on small inputs; the benchmark pair
runner is checked on fake run records."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import medsens

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("args", [
    ["scripts/run_demo.py", "--n", "800", "--step", "0.2"],
    ["scripts/coverage_study.py", "--reps", "3", "--n", "600"],
    ["scripts/coverage_study.py", "--reps", "3", "--n", "600", "--kind", "zy"],
])
def test_script_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_apart_from_comments_and_docstrings(tmp_path):
    count = load_script("code_lines").count
    (tmp_path / "a.py").write_text(
        '"""Module\ndocstring."""\n\n# comment\nX = """not a\n\ndocstring"""\n'
        'def f():\n    """Doc."""\n    return 1  # trailing\n', encoding="utf-8")
    (tmp_path / "b.py").write_text("\n\nY = 2\n", encoding="utf-8")
    # a.py: the lines of X's string are code but for its blank one
    assert count(tmp_path / "a.py") == (10, 4)
    assert count(tmp_path / "b.py") == (3, 1)


def test_code_lines_lists_every_module():
    proc = subprocess.run([sys.executable, "scripts/code_lines.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert lines[0] == ["module", "raw", "code"] and lines[-2][0] == "total"
    assert [line[0] for line in lines[1:-2]] == sorted(
        p.name for p in (ROOT / "src" / "medsens").glob("*.py"))
    assert int(lines[-2][2]) == sum(int(line[2]) for line in lines[1:-2])
    assert lines[-1] == ["__all__", str(len(medsens.__all__))]


def fake_record(wall_s, correct=True):
    """A perfbench/run.py record whose metrics all follow wall_s."""
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    values = {name: wall_s for name in units}
    values.update(ops_per_s=1000.0 / wall_s, ok_frac=1.0)
    return {"correct": correct,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
            "environment": {"nproc": 2, "machine": "x86_64", "python": "3",
                            "numpy": "2", "scipy": "1", "blas": "openblas",
                            "threads": {"OMP_NUM_THREADS": "1"}}}


PARENT_WALLS = [2.0, 2.1, 1.9, 2.05, 2.2, 1.95, 2.0, 2.15, 2.1, 1.9]
CHANGE_WALLS = [1.6, 1.7, 2.0, 1.6, 1.65, 1.55, 1.6, 1.7, 1.6, 1.5]  # pair 3 lost


@pytest.fixture
def bench_pairs(monkeypatch):
    """The script with run_once replaced by a log of fake runs."""
    module = load_script("bench_pairs")
    runs = []

    def run_once(tree, workload, seed, trace=0):
        runs.append((tree.name, workload, seed, trace))
        walls = PARENT_WALLS if tree.name == "parent" else CHANGE_WALLS
        return fake_record(walls[seed % 10])
    monkeypatch.setattr(module, "run_once", run_once)
    module.runs = runs
    return module


def test_bench_pairs_alternates_the_side_run_first(bench_pairs, tmp_path):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    bench_pairs.run_pairs(trees, "sens_cli", [10, 11, 12])
    assert [(tree, seed) for tree, _, seed, _ in bench_pairs.runs] == [
        ("parent", 10), ("change", 10), ("change", 11), ("parent", 11),
        ("parent", 12), ("change", 12)]


def test_bench_pairs_claim_report(bench_pairs, tmp_path):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    pairs = bench_pairs.run_pairs(trees, "effects_cli", range(10))
    summary = bench_pairs.summarize(pairs, range(10))
    wall = summary["metrics"]["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (2.025, 1.6)
    q1, q3 = np.percentile(PARENT_WALLS, [25, 75])
    assert wall["parent_iqr"] == pytest.approx(q3 - q1)
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (9, 1)
    ops = summary["metrics"]["ops_per_s"]  # higher is better
    assert (ops["change_better_pairs"], ops["change_worse_pairs"]) == (9, 1)
    check = bench_pairs.claim_check(summary, "wall_s")
    assert check == {"wins": 9, "pairs": 10, "median_gap": pytest.approx(0.425),
                     "parent_iqr": wall["parent_iqr"], "holds": True}
    assert bench_pairs.claim_text("effects_cli", "wall_s", summary).startswith(
        "effects_cli wall_s improves: 2.025 -> 1.6 s (-21.0%), better in 9 of 10")
    assert wall["verdict"] == ops["verdict"] == "within_bound"
    swapped = bench_pairs.summarize(
        [{"parent": p["change"], "change": p["parent"]} for p in pairs], range(10))
    assert not bench_pairs.claim_check(swapped, "wall_s")["holds"]
    # 1.6 -> 2.025 s is 27% slower, beyond the 25% bound; ops_per_s falls 21%
    assert swapped["metrics"]["wall_s"]["verdict"] == "worse"
    assert swapped["metrics"]["ops_per_s"]["verdict"] == "within_bound"


def test_bench_pairs_claim_needs_ten_pairs_of_sound_runs(bench_pairs, tmp_path):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    seeds = [0, 1, 3, 4, 5]  # pair 2 is the one the change loses
    few = bench_pairs.claim_check(bench_pairs.summarize(
        bench_pairs.run_pairs(trees, "effects_cli", seeds), seeds), "wall_s")
    assert (few["wins"], few["pairs"]) == (5, 5)
    assert few["median_gap"] > few["parent_iqr"]
    assert not few["holds"]  # five pairs are too few, however clear

    pairs = bench_pairs.run_pairs(trees, "effects_cli", range(10))
    pairs[4]["change"]["correct"] = False
    assert not bench_pairs.claim_check(
        bench_pairs.summarize(pairs, range(10)), "wall_s")["holds"]

    pairs = bench_pairs.run_pairs(trees, "effects_cli", range(10))
    for pair in pairs:  # faster, but failing one operation in ten
        pair["change"]["metrics"]["ok_frac"]["value"] = 0.9
    summary = bench_pairs.summarize(pairs, range(10))
    check = bench_pairs.claim_check(summary, "wall_s")
    assert check["wins"] == 9 and check["median_gap"] > check["parent_iqr"]
    assert not check["holds"]


def test_bench_pairs_verdicts(bench_pairs, tmp_path):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    pairs = bench_pairs.run_pairs(trees, "effects_cli", range(10))
    summary = bench_pairs.summarize(pairs, range(10))
    assert {m["verdict"] for m in summary["metrics"].values()} == {"within_bound"}

    def summary_of(parent_walls, change_walls):
        return bench_pairs.summarize(
            [{"parent": fake_record(a), "change": fake_record(b)}
             for a, b in zip(parent_walls, change_walls)], range(10))["metrics"]

    # a parent IQR of 2 s against a bound of 0.25 * 2 s: equal medians are
    # unresolved unless every change run beats every parent run
    noisy = summary_of([1.0, 3.0] * 5, [1.1, 2.9] * 5)
    assert noisy["wall_s"]["verdict"] == "unresolved"
    assert noisy["ok_frac"]["verdict"] == "within_bound"  # no spread
    # a median beyond the bound is unresolved too, not worse, in such noise
    worse_in_noise = summary_of([1.0, 3.0] * 5, [2.0, 4.0] * 5)
    assert worse_in_noise["wall_s"]["verdict"] == "unresolved"
    clear = summary_of([1.0, 3.0] * 5, [0.9] * 10)
    assert clear["wall_s"]["verdict"] == clear["ops_per_s"]["verdict"] == "within_bound"
    lines = bench_pairs.verdict_lines({"effects_cli": {"metrics": noisy}})
    assert lines and all(line.startswith("effects_cli ") for line in lines)
    assert "effects_cli wall_s: unresolved, 2 -> 2 s (+0.0%), parent IQR 2 s" in lines


def test_bench_pairs_runs_without_a_claim(bench_pairs, tmp_path, capsys):
    from test_bench_files import test_record_reports_every_end_to_end_metric
    out = tmp_path / "BENCH_fake.json"
    (tmp_path / "parent").mkdir()
    assert bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path),
        "--label", "fake", "--first-seed", "0", "--out", str(out)]) == 0
    test_record_reports_every_end_to_end_metric(out)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["claim"] == "none" and "claim_check" not in record
    printed = capsys.readouterr().out
    assert "every metric within its bound" in printed and "claim" not in printed
    with pytest.raises(SystemExit):
        bench_pairs.parse_args([
            "--parent", "a", "--change", "b", "--label", "x", "--first-seed", "0",
            "--claim", "effects_cli:speed"])


def test_bench_pairs_writes_a_valid_record(bench_pairs, tmp_path):
    from test_bench_files import test_record_reports_every_end_to_end_metric
    out = tmp_path / "BENCH_fake.json"
    (tmp_path / "parent").mkdir()
    assert bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path),
        "--label", "fake", "--claim", "effects_cli:wall_s", "--first-seed", "0",
        "--traced-pairs", "2", "--out", str(out)]) == 0
    test_record_reports_every_end_to_end_metric(out)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["claim_check"]["holds"]
    assert {name: w["seeds"] for name, w in record["workloads"].items()} == {
        name: list(range(10 * j, 10 * j + 10))
        for j, name in enumerate(w["name"] for w in BENCHMARK["workloads"])}
    # every workload is traced, not only the claimed one
    traced_runs = [run for run in bench_pairs.runs if run[3] == 1]
    assert [(tree, workload, seed) for tree, workload, seed, _ in traced_runs] == [
        (tree, name, 7) for name in bench_pairs.WORKLOADS
        for tree in ("parent", tmp_path.name, tmp_path.name, "parent")]
    for name in bench_pairs.WORKLOADS:
        traced = record[f"traced_{name}_seed7"]
        assert traced["method"].startswith(
            f"perfbench/run.py --workload {name} --seed 7 --trace 1, 2 ")
        for side, walls in (("parent", PARENT_WALLS), ("change", CHANGE_WALLS)):
            assert traced[side]["wall_s"]["runs"] == [walls[7]] * 2


def test_compare_outputs_finds_the_repo_identical_to_itself():
    proc = subprocess.run([sys.executable, "scripts/compare_outputs.py", "--parent", ".",
                           "--change", ".", "--n", "600"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "outputs within the tolerance rule"
    files = [line.split(":")[0] for line in lines[:-1]]
    assert all(line.endswith(": identical") for line in lines[:-1]), lines
    for run, names in (("simulate", ["data.csv", "truth.json"]),
                       *((run, ["coefficients.csv", "convergence.csv"])
                         for run in ("fit", "fit_crlf", "fit_no_zm")),
                       *((run, ["effects.csv"]) for run in ("effects", "effects_full")),
                       *((f"sens_{grid}", ["scan_my_nie_marginal.csv", "intervals.csv",
                                           "sign_ranges.csv", "failures.csv"])
                         for grid in ("grid21", "default"))):
        assert {f"{run}/{name}" for name in [*names, "summary.json"]} <= set(files)
        assert {f"{run}.stdout", f"{run}.stderr"} <= set(files)
    assert "data_crlf.csv" in files


def test_compare_outputs_judges_each_column_by_its_bound(tmp_path):
    compare_file = load_script("compare_outputs").compare_file
    header = "effect,estimate,std_error,p_value\n"

    def files(name, *rows):
        pair = []
        for side, row in zip(("parent", "change"), rows):
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / name).write_text(header + row + "\n", encoding="utf-8")
            pair.append(tmp_path / side / name)
        return pair
    same = files("same.csv", "nde,0.5,0.1,0.2", "nde,0.5,0.1,0.2")
    assert compare_file(*same) == (["identical"], False)
    near = files("near.csv", "nde,0.5,0.1,0.2", "nde,0.5000000005,0.1000000005,0.3")
    report, breach = compare_file(*near)
    assert not breach and report[0] == "differs"
    assert "std_error: largest rel difference 5e-09 (bound 1e-08), ok" in report
    assert "p_value: largest abs difference 0.1, not judged" in report
    far = files("far.csv", "nde,0.5,0.1,0.2", "nde,0.500000002,0.1,0.2")
    report, breach = compare_file(*far)
    assert breach and any(line.endswith("(bound 1e-09), BREACH") for line in report)
    text = files("text.csv", "nde,0.5,0.1,0.2", "nie,0.5,0.1,0.2")
    assert compare_file(*text) == (["differs", "effect: 'nde' vs 'nie'"], True)
    signs = files("sign_ranges.csv", "nde,0.5,0.1,0.2", "nde,0.5,0.1,0.2000000000001")
    assert compare_file(*signs) == (["differs; must be identical, BREACH"], True)
    keys = ("nde", "nie", "te", "nde_total", "nie_pure")

    def truths(shift, n=5):  # truth.json with every true effect shifted
        pair = []
        for side, side_shift, side_n in (("parent", 0.0, 5), ("change", shift, n)):
            pair.append(tmp_path / side / "truth.json")
            pair[-1].write_text(json.dumps({"n": side_n, "true_effects_marginal": {
                key: 0.25 + side_shift for key in keys}}), encoding="utf-8")
        return pair
    report, breach = compare_file(*truths(5e-10, n=6))
    assert not breach and "n: largest abs difference 1, not judged" in report
    for key in keys:
        assert f"{key}: largest abs difference 5e-10 (bound 1e-09), ok" in report
    report, breach = compare_file(*truths(2e-9))
    assert breach
    for key in keys:
        assert f"{key}: largest abs difference 2e-09 (bound 1e-09), BREACH" in report


def run_untested_lines(*args):
    return subprocess.run(
        [sys.executable, "scripts/untested_lines.py", "-q", "-p", "no:cacheprovider",
         *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_untested_lines_lists_what_the_tests_never_run():
    # tests/test_exports.py only imports the package: the import builds
    # numkernel's quadrature table, and no fit runs
    runs = [run_untested_lines("tests/test_exports.py") for _ in range(2)]
    listed = []
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        listed.append([line for line in proc.stdout.splitlines()
                       if re.match(r"^\w+\.py:\d+: ", line)])
    assert listed[0] == listed[1]
    statements = {line.split(": ", 1)[1] for line in listed[0]}
    assert 'raise RankError("observed information became singular") from None' \
        in statements
    assert not any("np.concatenate([1.0 - x, 1.0 + x])" in line
                   for line in listed[0])
    # pytest's own exit status: no tests collected
    assert run_untested_lines("tests/no_such_file.py").returncode == 4
