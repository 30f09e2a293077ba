"""Steadiness check: two sets of benchmark runs of the same code, apart in time.

Usage, from the repository root::

    python3 bench/steadiness.py

Each set runs every workload of BENCHMARK.json once per seed (seeds
1..10, workloads interleaved so that a slow spell of the machine hits
all of them), with the run length from BENCHMARK.json.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over the median) and the drift of the second median
against the first, in the metric's worse direction, next to the metric's
bound.  The figures are also written to ``bench/out/steadiness.json``.
For a workload with a ``workers=1`` reference it also prints the scaling
efficiency at ``workers=2``.

The verdict "steady" needs, on every workload:

- every run correct, and the same share of failed operations in every run;
- every drift within the metric's bound;
- a count metric (unit ``count``) equal seed by seed in the two sets, since
  it is fixed by the seed's inputs;
- every spread within the metric's bound, except that of ``setup_s``,
  whose bound limits only the drift.  A spread is taken across seeds, so
  it holds the seeds' different inputs as well as the machine's noise:
  for ``feasible_records`` it is the dataset content alone.

A spread above a third of its bound is flagged "wide" but does not fail.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - t0
    ref = [ln for ln in proc.stderr.splitlines() if "workers=1 reference" in ln]
    if ref:
        result["workers1_ms_per_record"] = float(ref[0].split(":")[1].split()[0])
    return result


def run_set(label, workloads, seeds, seconds):
    out = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = run_once(w, seed, seconds)
            out[w].append(r)
            print(f"[{label}] {w} seed={seed} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {r['elapsed_s']:.1f}s",
                  file=sys.stderr, flush=True)
    return out


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, 11)
    sets = [run_set(f"set {k}", workloads, seeds, spec["run_seconds"]) for k in (1, 2)]

    report, ok = {}, True
    for w in workloads:
        report[w] = {}
        shares = {r["failed"] / r["attempted"] for s in sets for r in s[w]}
        if len(shares) > 1 or not all(r["correct"] for s in sets for r in s[w]):
            ok = False
            print(f"{w}: failed shares {sorted(shares)}; correct must hold in every run")
        for m in spec["end_to_end"]:
            name = m["name"]
            values = [[r["metrics"][name]["value"] for r in s[w]] for s in sets]
            per_set = [stats(v) for v in values]
            a, b = per_set[0]["median"], per_set[1]["median"]
            drift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flags = []
            if drift > m["bound"]:
                flags.append("DRIFT")
            if m["unit"] == "count" and values[0] != values[1]:
                flags.append("SEED-MISMATCH")
            if name != "setup_s" and any(s["spread"] > m["bound"] for s in per_set):
                flags.append("SPREAD")
            ok &= not flags
            if any(s["spread"] > m["bound"] / 3 for s in per_set):
                flags.append("wide")
            line = f"{w:12s} {name:24s}"
            for s in per_set:
                line += (f"  med {s['median']:10.4f} [{s['q1']:10.4f}, {s['q3']:10.4f}]"
                         f" spread {s['spread']:6.3f}")
            print(line + f"  drift {drift:+6.3f}  bound {m['bound']:.3f}  {' '.join(flags)}")
            report[w][name] = {"sets": per_set, "drift": drift, "bound": m["bound"]}
        ref = [(r["workers1_ms_per_record"], r["metrics"]["ms_per_record"]["value"])
               for s in sets for r in s[w] if "workers1_ms_per_record" in r]
        if ref:
            eff = statistics.median(t1 / (2 * t2) for t1, t2 in ref)
            print(f"{w:12s} scaling efficiency at workers=2 (round-0 workers=1 reference "
                  f"ms/record over 2 x median ms/record), median of {len(ref)} runs: {eff:.3f}")
            report[w]["scaling_efficiency"] = eff
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steadiness.json").write_text(json.dumps(
        {"seeds": list(seeds), "runs": {w: [s[w] for s in sets] for w in workloads},
         "summary": report}, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
