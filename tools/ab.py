#!/usr/bin/env python3
"""A/B comparison of a benchmark command between a base revision and a change.

    tools/ab.py [--base REV] [--change REV|WORKTREE] [--pairs N] [--dir DIR]
                -- COMMAND [ARG...]
    tools/ab.py --self-test

Exports the base (default HEAD~1) and the change (default HEAD; WORKTREE
copies this checkout's tracked and untracked, non-ignored files) into
DIR/base and DIR/change, then runs COMMAND in each tree N times, alternating
which tree goes first. The command builds what it measures from its own
tree, as bench/e2e/run.py does, and prints its metrics as one JSON object on
its last stdout line: its top-level numbers and the numbers under "metrics"
(bare, or as {"value": v}). Each run's numbers also go to stderr as they
come.

For each metric it prints the base and change medians, the base and change
interquartile ranges, the pairs the change won and a verdict. An end-to-end
metric whose medians differ by less than its BENCHMARK.json `bound` times
the base median reads "within bound". Otherwise the verdict is "worse" when
the medians differ against the change by more than the base IQR; "better"
when they differ for it by more than the base IQR and the change also won at
least 9 in 10 of the pairs; "unresolved" otherwise. Higher is better for
metrics that BENCHMARK.json marks so and for "attempted" (run.py's
operations in a fixed window); lower is better otherwise.

Example, one bench/e2e workload:

    tools/ab.py --pairs 10 --dir /tmp/ab -- \\
        python3 bench/e2e/run.py --workload kv-churn --seed 1 --seconds 10

--self-test checks the verdicts on synthetic samples, including the bimodal
setup_s spread bench/e2e's kv-churn shows (two clusters near 0.35 s and
0.6 s), a median gain won in too few pairs, which must read "unresolved",
and a move far inside its bound but past a tiny base IQR, which must read
"within bound".
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(q1, median, q3) of `values`; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(base, change, higher_better, bound=None):
    """Verdict row for one metric from its paired samples; `bound` is the
    end-to-end metric's relative bound, or None."""
    b1, b_median, b3 = quartiles(base)
    c1, c_median, c3 = quartiles(change)
    sign = 1 if higher_better else -1
    pairs = min(len(base), len(change))
    won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    delta = sign * (c_median - b_median)
    if bound is not None and abs(c_median - b_median) < bound * abs(b_median):
        verdict = "within bound"
    elif delta < -(b3 - b1):
        verdict = "worse"
    elif delta > b3 - b1 and 10 * won >= 9 * pairs:
        verdict = "better"
    else:
        verdict = "unresolved"
    return {"base_median": b_median, "base_iqr": b3 - b1, "change_median": c_median,
            "change_iqr": c3 - c1, "won": won, "pairs": pairs, "verdict": verdict}


def print_table(rows):
    print(f"{'metric':34} {'base':>10} {'IQR':>9} {'change':>10} {'IQR':>9} {'won':>7}  verdict")
    for name, row in rows:
        print(f"{name:34} {row['base_median']:10.4g} {row['base_iqr']:9.3g} "
              f"{row['change_median']:10.4g} {row['change_iqr']:9.3g} "
              f"{row['won']:>3}/{row['pairs']:<3}  {row['verdict']}")


def export_tree(rev, dest):
    """Exports `rev` (or the working tree, for WORKTREE) into `dest`."""
    if rev == "WORKTREE":
        files = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-co", "--exclude-standard",
                                "-z"], check=True, stdout=subprocess.PIPE).stdout
        for name in filter(None, files.decode().split("\0")):
            source = ROOT / name
            if source.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest / name)
        return
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                         check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    stamp = dest / ".ab_rev"
    if stamp.exists() and stamp.read_text() == sha:
        return  # Already exported; keep its build.
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if archive.wait() != 0:
        sys.exit(f"ab.py: git archive {rev} failed")
    stamp.write_text(sha)


def run_metrics(command, cwd):
    """The metrics of one run, or None when it fails."""
    proc = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    values = dict(result)
    values.update(result.get("metrics", {}))
    numbers = {}
    for name, value in values.items():
        if isinstance(value, dict):  # {"value": v, "unit": u}, as run.py prints.
            value = value.get("value")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers[name] = float(value)
    print(f"ab.py: {cwd.name}: {json.dumps(numbers)}", file=sys.stderr)
    return numbers


def metric_specs(tree):
    """(names where higher is better, {end-to-end name: bound}) from
    BENCHMARK.json."""
    names = {"attempted"}
    bounds = {}
    spec = tree / "BENCHMARK.json"
    if spec.exists():
        doc = json.loads(spec.read_text())
        for metric in doc.get("end_to_end", []) + doc.get("per_layer", []):
            if metric.get("better") == "higher":
                names.add(metric["name"])
        for metric in doc.get("end_to_end", []):
            if "bound" in metric:
                bounds[metric["name"]] = metric["bound"]
    return names, bounds


def self_test():
    """Verdicts on synthetic samples; exit status 0 iff each is as expected."""
    cases = [
        # kv-churn setup_s on one tree and the same tree again: two clusters
        # near 0.35 s and 0.6 s, the cluster a run lands in is noise.
        ("bimodal setup_s", [0.35, 0.34, 0.61, 0.36, 0.82, 0.35, 0.59, 0.37, 0.62, 0.34],
         [0.32, 0.60, 0.36, 0.58, 0.34, 0.68, 0.35, 0.33, 0.61, 0.36], False, "unresolved"),
        ("tight 30% drop", [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01],
         [0.70, 0.71, 0.69, 0.70, 0.72, 0.68, 0.70, 0.71, 0.69, 0.70], False, "better"),
        # A median 10% lower, well past the base IQR, but 3 of the 10 pairs
        # lost: no gain can be claimed from 7 of 10.
        ("median gain, 7/10 pairs", [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00],
         [0.90, 0.91, 0.89, 0.90, 1.05, 1.06, 0.90, 1.04, 0.91, 0.90], False, "unresolved"),
        ("tight throughput loss", [500, 505, 495, 502, 498, 500, 503, 497, 501, 499],
         [450, 452, 448, 451, 449, 450, 453, 447, 450, 451], True, "worse"),
        # kv-a dram_mib over 3 pairs: +0.008% against a 3% bound, but past
        # the base IQR of 0.0003 MiB.
        ("dram_mib inside its bound", [5.1335, 5.1338, 5.1341], [5.1341, 5.1342, 5.1343],
         False, "within bound", 0.03),
        ("dram_mib past its bound", [5.1335, 5.1338, 5.1341], [5.40, 5.41, 5.42],
         False, "worse", 0.03),
    ]
    failures = 0
    rows = []
    for name, base, change, higher, expected, *bound in cases:
        row = compare(base, change, higher, *bound)
        rows.append((name, row))
        if row["verdict"] != expected:
            print(f"ab.py self-test: {name}: {row['verdict']}, expected {expected}")
            failures += 1
    print_table(rows)
    print("ab.py self-test:", "ok" if failures == 0 else f"{failures} failed")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--dir", default="/tmp/ab")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.pairs < 1:
        parser.error("a command to run and --pairs >= 1 are required")

    trees = {"base": Path(args.dir) / "base", "change": Path(args.dir) / "change"}
    for side, rev in (("base", args.base), ("change", args.change)):
        trees[side].mkdir(parents=True, exist_ok=True)
        export_tree(rev, trees[side])

    samples = {"base": [], "change": []}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        results = {side: run_metrics(command, trees[side]) for side in order}
        if None in results.values():
            print(f"ab.py: pair {pair}: a run failed; pair dropped", file=sys.stderr)
            continue
        for side in order:
            samples[side].append(results[side])
        print(f"ab.py: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    if not samples["base"]:
        sys.exit("ab.py: no pair completed")

    higher, bounds = metric_specs(trees["change"])
    names = sorted(set(samples["base"][0]) & set(samples["change"][0]))
    rows = []
    for name in names:
        base = [run[name] for run in samples["base"]]
        change = [run[name] for run in samples["change"]]
        rows.append((name, compare(base, change, name in higher, bounds.get(name))))
    print_table(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
