#!/usr/bin/env bash
# Identity check of Tables 2-15 (README "Checks", item 4).
#
# Usage: scripts/tables_identical.sh <rev>
#
# Extracts <rev> into a temporary directory (`mktemp -d`, under $TMPDIR),
# runs `TableJobs <t>` for every table at BENCH_SCALE=0.01 on that tree and
# on the working tree, and keeps from each log the [info] lines after
# `running (fork)` (the `==`/`--` headers and the rows) and the [train]
# lines. Tables 2-12 must then be byte-identical, [train] lines in place.
# Tables 13-15 print timings, so in their [info] lines every decimal number
# (with the spaces that pad it) is masked to ` #` before an in-order diff;
# their [train] lines are diffed as sorted lists, because training logs to
# stderr and rows to stdout, which interleave in the log. Exits 0 when both
# match, 1 when they differ, 2 when a run fails. sbt settings (offline mode,
# repository config) are taken from the caller's environment.
set -euo pipefail

rev=${1:?usage: scripts/tables_identical.sh <rev>}
repo=$(git rev-parse --show-toplevel)
base=$(mktemp -d -t tables_identical.XXXXXX)
trap 'rm -rf "$base"' EXIT

mkdir "$base/rev"
git -C "$repo" archive "$rev" | tar -x -C "$base/rev"

cmds=()
for t in 2 3 4-6 7 8 9-10 11-12 13 14 15; do cmds+=("runMain repro.jobs.TableJobs $t"); done

# Runs every table in one sbt session (each job forks its own JVM), then
# writes the accuracy tables to $2, and the masked timing rows and sorted
# timing [train] lines to $2.timing and $2.train.
tables() {
  if ! (cd "$1" && BENCH_SCALE=0.01 sbt -batch -Dsbt.log.noformat=true "${cmds[@]}") > "$2.log" 2>&1; then
    tail -n 20 "$2.log" >&2
    echo "sbt failed in $1" >&2
    exit 2
  fi
  : > "$2.train.unsorted"
  awk -v acc="$2" -v timing="$2.timing" -v train="$2.train.unsorted" '
       /running \(fork\)/ { on = 1; t = $NF; timed = (t == 13 || t == 14 || t == 15) }
       /\[train\]/ { print > (timed ? train : acc); next }
       /^\[success\]/ { on = 0 }
       on && /^\[info\] / {
         if (timed) { gsub(/ *[0-9]+\.[0-9]+/, " #"); print > timing } else print > acc
       }' "$2.log"
  sort "$2.train.unsorted" > "$2.train"
}

echo "running Tables 2-15 at BENCH_SCALE=0.01 on $rev ..." >&2
tables "$base/rev" "$base/rev.tables"
echo "running Tables 2-15 at BENCH_SCALE=0.01 on the working tree ..." >&2
tables "$repo" "$base/tree.tables"

status=0
if diff "$base/rev.tables" "$base/tree.tables"; then
  echo "Tables 2-12 are byte-identical ($(wc -l < "$base/tree.tables") lines)" >&2
else
  echo "Tables 2-12 differ between $rev and the working tree" >&2
  status=1
fi
if diff "$base/rev.tables.timing" "$base/tree.tables.timing" &&
   diff "$base/rev.tables.train" "$base/tree.tables.train"; then
  echo "Tables 13-15 have identical headers, row labels and [train] lines once timings are masked" \
    "($(wc -l < "$base/tree.tables.timing") rows, $(wc -l < "$base/tree.tables.train") [train] lines)" >&2
else
  echo "Tables 13-15 differ between $rev and the working tree" >&2
  status=1
fi
exit $status
