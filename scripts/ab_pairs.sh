#!/usr/bin/env bash
# Pairs two directories of `perf --out` results by workload and seed, and
# prints the whole A/B rather than one pair of it.
#
#   scripts/ab_pairs.sh <parent_dir> <pr_dir>
#
# For each workload and each end-to-end metric in BENCHMARK.json it
# prints every pair's values, each side's median and quartiles (Python's
# `statistics.quantiles` exclusive method, as `perf` computes them), the
# number of pairs the PR side wins (a tie counts for neither), and
# whether the medians differ by more than the parent's interquartile
# range. For `serve_mix` it also lists each run's `serve.late_ms` and
# whether `perf` marked the run invalid. Files are paired by the
# `workload` and `seed` inside them, not by file name; a file without a
# partner is listed and left out.
#
# It only reads files. `perf compare` stays the bound check.
#
# A stopgap until `perf compare` itself pairs runs by seed (ROADMAP item
# 8): its jq `quartiles` copies `quartiles` in
# crates/bench/src/bin/perf/src/stats.rs and must change with it.
set -euo pipefail

if [[ $# -ne 2 || ! -d $1 || ! -d $2 ]]; then
  echo "usage: $0 <parent_dir> <pr_dir>" >&2
  exit 2
fi
benchmark="$(dirname "$0")/../BENCHMARK.json"

jq -n -r \
  --slurpfile bench "$benchmark" \
  --slurpfile parent <(cat "$1"/*.json) \
  --slurpfile pr <(cat "$2"/*.json) '
# Quartile cut points as Python statistics.quantiles(values, n=4).
def quartiles:
  sort as $d | ($d | length) as $n
  | if $n < 2 then null else
      [range(1; 4) as $i
       | ([[($i * ($n + 1) / 4 | floor), 1] | max, $n - 1] | min) as $j
       | ($i * ($n + 1) - $j * 4) as $delta
       | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4]
    end;
# Four significant digits.
def sig: if . == 0 then 0 else
    (fabs | log10 | floor) as $e | pow(10; 3 - $e) as $m | (. * $m | round) / $m
  end;
def stats: quartiles as $q
  | if $q == null then "median \(.[0] | sig)"
    else "median \($q[1] | sig) (q1 \($q[0] | sig), q3 \($q[2] | sig))" end;
def median: if length < 2 then .[0] else quartiles[1] end;
def iqr: quartiles as $q | if $q == null then null else $q[2] - $q[0] end;
def key: "\(.workload)/\(.seed)";
def late: .metrics["serve.late_ms"].value // null | if . == null then "n/a" else sig end;
def validity: if (.invalid // []) | length > 0 then "INVALID" else "valid" end;

($parent | map({(key): .}) | add // {}) as $a
| ($pr | map({(key): .}) | add // {}) as $b
| (($a | keys) - ($b | keys) | .[] | "unpaired parent run: \(.)"),
  (($b | keys) - ($a | keys) | .[] | "unpaired PR run: \(.)"),
  ($bench[0].workloads[].name as $w
   | [$a[] | select(.workload == $w and $b[key] != null)] | sort_by(.seed)
   | map([., $b[key]]) as $pairs
   | if $pairs == [] then empty else
       "## \($w): \($pairs | length) pairs (seeds \($pairs | map(.[0].seed) | join(" ")))",
       ($bench[0].end_to_end[] as $m
        | ($pairs | map(map(.metrics[$m.name].value))) as $v
        | ($v | map(.[0])) as $x | ($v | map(.[1])) as $y
        | ($v | map(select(
            if $m.better == "lower" then .[1] < .[0] else .[1] > .[0] end)) | length) as $wins
        | (($y | median) - ($x | median)) as $shift
        | "\($m.name) (\($m.better) is better)",
          "  per pair parent -> PR: \($v | map("\(.[0] | sig) -> \(.[1] | sig)") | join(", "))",
          "  parent \($x | stats)",
          "  PR     \($y | stats)",
          "  PR better in \($wins)/\($v | length); median shift \($shift | sig)"
          + " (\($shift / ($x | median) * 100 | sig)%),"
          + ($x | iqr as $iqr | if $iqr == null then " parent IQR n/a"
             else " parent IQR \($iqr | sig): "
               + (if ($shift | fabs) > $iqr then "outside" else "inside" end) end)),
       (if $w == "serve_mix" then
          "serve.late_ms and validity per run (parent | PR):",
          ($pairs[] | "  seed \(.[0].seed): \(.[0] | late) \(.[0] | validity)"
                      + " | \(.[1] | late) \(.[1] | validity)"),
          "invalid runs: parent \($pairs | map(select(.[0] | validity == "INVALID")) | length),"
          + " PR \($pairs | map(select(.[1] | validity == "INVALID")) | length)"
        else empty end),
       ""
     end)
'
