#!/usr/bin/env bash
# Byte-identity check of Tables 2-12 (README "Checks", item 4).
#
# Usage: scripts/tables_identical.sh <rev>
#
# Extracts <rev> into a temporary directory (`mktemp -d`, under $TMPDIR),
# runs `TableJobs <t>` for every accuracy/statistics table at
# BENCH_SCALE=0.01 on that tree and on the working tree, keeps from each log
# the [info] lines after `running (fork)` (the `==`/`--` headers and the
# rows) and the [train] lines, and diffs the two. Exits 0 when they are
# byte-identical, 1 when they differ, 2 when a run fails. sbt settings
# (offline mode, repository config) are taken from the caller's environment.
set -euo pipefail

rev=${1:?usage: scripts/tables_identical.sh <rev>}
repo=$(git rev-parse --show-toplevel)
base=$(mktemp -d -t tables_identical.XXXXXX)
trap 'rm -rf "$base"' EXIT

mkdir "$base/rev"
git -C "$repo" archive "$rev" | tar -x -C "$base/rev"

cmds=()
for t in 2 3 4-6 7 8 9-10 11-12; do cmds+=("runMain repro.jobs.TableJobs $t"); done

# Runs every table in one sbt session (each job forks its own JVM), then
# keeps the table output.
tables() {
  if ! (cd "$1" && BENCH_SCALE=0.01 sbt -batch -Dsbt.log.noformat=true "${cmds[@]}") > "$2.log" 2>&1; then
    tail -n 20 "$2.log" >&2
    echo "sbt failed in $1" >&2
    exit 2
  fi
  awk '/running \(fork\)/ { on = 1 }
       /\[train\]/ { print; next }
       /^\[success\]/ { on = 0 }
       on && /^\[info\] / { print }' "$2.log" > "$2"
}

echo "running Tables 2-12 at BENCH_SCALE=0.01 on $rev ..." >&2
tables "$base/rev" "$base/rev.tables"
echo "running Tables 2-12 at BENCH_SCALE=0.01 on the working tree ..." >&2
tables "$repo" "$base/tree.tables"

if diff "$base/rev.tables" "$base/tree.tables"; then
  echo "Tables 2-12 are byte-identical ($(wc -l < "$base/tree.tables") lines)" >&2
else
  echo "Tables 2-12 differ between $rev and the working tree" >&2
  exit 1
fi
