#!/bin/sh
# The resa input boundary, driven through the built binary:
#   sh cli_boundary.sh RESA DATA_DIR BENCH_JSON
# Every bad input must exit 2 with an "error: " line on stderr (or 124 for
# an unknown name), never 125; one valid run per verb must exit 0.
set -u
resa=$1
data=$2
bench=$3
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fails=0

# expect CODE ARGS...: run resa, check the exit code and, for rejected
# inputs, that stderr starts with "error: ".
expect() {
  want=$1
  shift
  "$resa" "$@" > "$tmp/out" 2> "$tmp/err"
  got=$?
  ok=1
  [ "$got" -eq "$want" ] || ok=0
  if [ "$want" -eq 2 ] && ! grep -q '^error: ' "$tmp/err"; then ok=0; fi
  if [ "$want" -eq 124 ] && ! grep -q 'unknown' "$tmp/err"; then ok=0; fi
  if [ "$ok" -eq 0 ]; then
    echo "FAIL: resa $* -> exit $got (want $want): $(head -c 300 "$tmp/err")"
    fails=$((fails + 1))
  fi
}

# Rejected inputs: missing or unwritable files.
expect 2 simulate --swf /nonexistent.swf
expect 2 replay --swf /nonexistent.swf
expect 2 simulate -n 5 --trace /nonexistent/dir/x
expect 2 simulate -n 5 --csv /nonexistent/dir/x
expect 2 replay -n 50 --prom /nonexistent/dir/x
expect 2 replay -n 50 --heartbeat /nonexistent/dir/x
expect 2 solve /nonexistent.resa
expect 2 explain /nonexistent.jsonl
expect 2 top /nonexistent.jsonl
expect 2 benchdiff /nonexistent.json /nonexistent.json

# Rejected inputs: parameters outside the library's domain.
expect 2 solve -g --width=-3 "$data/graham_m8.resa"
expect 2 solve -a dp "$data/graham_m8.resa"
expect 2 solve -a preemptive "$data/packed_m16.resa"
expect 2 replay -n 50 --heartbeat - --heartbeat-every=-1
expect 2 replay -m 0
expect 2 replay --mean-gap=-5
expect 2 replay --overestimate 0.5
expect 2 simulate -m 0
expect 2 simulate --max-runtime 0
expect 2 simulate -n 5 --jobs 0
expect 2 trace -m 0
expect 2 generate random -m 0
expect 2 generate random --alpha 2
expect 2 generate prop2 -k 0
expect 2 generate graham -m 0
expect 2 generate packed -m 0
expect 2 generate fcfs-bad --len 0
expect 2 benchdiff --threshold 0.5 "$bench" "$bench"
expect 2 bounds --alphas 0,2

# Rejected inputs: malformed files.
printf '1 100 0 5 2 -1 -1 2 10 -1 1 1 1 1 1 1 -1 -1\n2 50 0 5 2 -1 -1 2 10 -1 1 1 1 1 1 1 -1 -1\n' \
  > "$tmp/unsorted.swf"
printf 'm 4\nres 4611686018427387000 4611686018427387000 3\n' > "$tmp/range.resa"
echo 'not json' > "$tmp/bad.jsonl"
expect 2 simulate --swf "$tmp/unsorted.swf" -m 8
expect 2 replay --swf "$tmp/unsorted.swf" -m 8
expect 2 solve "$tmp/range.resa"
expect 2 explain "$tmp/bad.jsonl"
expect 2 benchdiff "$tmp/bad.jsonl" "$tmp/bad.jsonl"

# Unknown names: usage errors.
expect 124 simulate --policy bogus
expect 124 replay --policy bogus
expect 124 solve -a bogus "$data/graham_m8.resa"
expect 124 solve -p bogus "$data/graham_m8.resa"
expect 124 solve -p random:abc "$data/graham_m8.resa"
expect 124 generate bogus

# One valid run per verb; names match case-insensitively.
expect 0 generate RANDOM
expect 0 solve -a LSRC --priority RANDOM:3 -g "$data/graham_m8.resa"
expect 0 simulate -n 20 -m 8 --policy FCFS --trace "$tmp/sim.jsonl"
expect 0 replay -n 200 --policy Easy --heartbeat "$tmp/hb.jsonl" --heartbeat-every 100
expect 0 explain "$tmp/sim.jsonl"
expect 0 top "$tmp/hb.jsonl"
expect 0 benchdiff "$bench" "$bench"
expect 0 trace -n 5
expect 0 bounds
expect 0 info "$data/figure2.resa"

if [ "$fails" -ne 0 ]; then
  echo "cli_boundary: $fails case(s) failed"
  exit 1
fi
