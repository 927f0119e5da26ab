#!/bin/sh
# Regenerate perfbench/pins/exact.txt: the `ddm threshold` and `ddm certify`
# output for every exact-opt instance, which the exact-opt workload's oracle
# compares its own results against.  Run from the repository root after
# `dune build`.  Only rerun it when a change is meant to alter that output.
set -eu
ddm=./_build/default/bin/ddm.exe
out=perfbench/pins/exact.txt
: > "$out"
pin() {
  echo "== n=$1 delta=$2" >> "$out"
  "$ddm" threshold -n "$1" --delta "$2" >> "$out"
  "$ddm" certify -n "$1" --delta "$2" >> "$out"
}
for n in 8 9 10; do
  pin "$n" "$(python3 -c "from fractions import Fraction as F; print(F($n, 3))")"
done
for n in 3 4 5 6; do
  for j in 3 4 5 6 7 8; do
    pin "$n" "$(python3 -c "from fractions import Fraction as F; print(F($n * $j, 12))")"
  done
done
