#!/bin/sh
# Diff the artifact digests of a git revision against this checkout's.
#
#     tools/digest_diff.sh [REV [SET ...]]
#
# Exports REV (default HEAD) with `git archive` into a temporary directory,
# runs that tree's own tools/artifact_digest.py and this checkout's, each on
# the named SETs (all sets when none is named), prints `diff -u` of the two
# outputs and exits with diff's status: no output and exit 0 when every
# artifact is byte-identical. The temporary directory is removed on exit.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
rev=${1:-HEAD}
[ $# -gt 0 ] && shift

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/tree"

python3 "$tmp/tree/tools/artifact_digest.py" "$@" > "$tmp/before.txt"
python3 "$root/tools/artifact_digest.py" "$@" > "$tmp/after.txt"

status=0
diff -u --label "$rev" --label "working tree" "$tmp/before.txt" "$tmp/after.txt" || status=$?
exit "$status"
