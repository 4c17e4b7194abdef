#!/bin/sh
# The noise study behind bench/baseline/noise.json: every workload at ten
# seeds, twice, the two sets alternating run by run so that a slow spell of
# the host falls on both. Takes about 45 minutes.
#
#   bench/noise.sh            # 10 seeds, writes bench/baseline/noise.json
#   bench/noise.sh 3 out.json # 3 seeds per set, another output file
#
# Per workload and end-to-end metric it records each set's values, median
# and quartiles (Python's statistics.quantiles(values, n=4), as the driver
# computes them), the spread (q3 - q1) / median, and how much worse the
# second set's median is than the first's, with the bound next to both.
# For the timed metrics it also records the spread the median within a run
# would have had, the estimator the quiet estimate replaced.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
seeds=${1:-10}
out=${2:-bench/baseline/noise.json}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
logs=.bench_build/noise
rm -rf "$logs"
mkdir -p "$logs"
started=$(date -u +%Y-%m-%dT%H:%MZ)
seed=1
while [ "$seed" -le "$seeds" ]; do
	for w in $workloads; do
		for set in a b; do
			s=$seed
			[ "$set" = b ] && s=$((seed + seeds))
			echo "noise: $w set $set seed $s" >&2
			sh bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >"$logs/$set-$w-$s.txt"
		done
	done
	seed=$((seed + 1))
done
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
[ -n "$(git status --porcelain 2>/dev/null)" ] && commit="$commit+uncommitted"
cpu=$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -1)
python3 - "$logs" "$out" "$started" "$commit" "$cpu" <<'PY'
import glob, json, os, statistics, sys
logs, out, started, commit, cpu = sys.argv[1:]
manifest = json.load(open("BENCHMARK.json"))
study = {"started_utc": started, "commit": commit, "cpu": cpu, "cpus": os.cpu_count(),
         "run_seconds": manifest["run_seconds"], "workloads": {}}
for w in [w["name"] for w in manifest["workloads"]]:
    runs = {}
    for s in "ab":
        runs[s] = []
        for path in sorted(glob.glob(f"{logs}/{s}-{w}-*.txt"), key=lambda p: int(p.rsplit("-", 1)[1][:-4])):
            lines = open(path).read().strip().split("\n")
            study["gomaxprocs"] = int(lines[0].split("gomaxprocs=")[1].split()[0])
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0, path
            for line in lines:  # "  <metric>  n=.. min=.. q1=.. median=.. q3=.. <tail>"
                name = line.split()[0] if line.startswith("  ") else ""
                if name in result["metrics"]:
                    result["metrics"][name]["in_run_median"] = float(line.split("median=")[1].split()[0])
            runs[s].append(result["metrics"])
    study["workloads"][w] = {}
    for m in manifest["end_to_end"]:
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for s in "ab":
            values = [r[m["name"]]["value"] for r in runs[s]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            row[s] = {"values": values, "q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}
            medians = [r[m["name"]].get("in_run_median") for r in runs[s]]
            if None not in medians:
                q1, med, q3 = statistics.quantiles(medians, n=4)
                row[s]["in_run_median_spread"] = (q3 - q1) / med
        worse = (row["b"]["median"] - row["a"]["median"]) / row["a"]["median"]
        row["shift_worse"] = -worse if m["better"] == "higher" else worse
        study["workloads"][w][m["name"]] = row
        print(f'{w:14} {m["name"]:20} spread a {row["a"]["spread"]:7.4f} b {row["b"]["spread"]:7.4f}'
              f'  shift {row["shift_worse"]:+7.4f}  bound {m["bound"]}')
os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
json.dump(study, open(out, "w"), indent=1)
open(out, "a").write("\n")
PY
