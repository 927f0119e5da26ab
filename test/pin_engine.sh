#!/bin/sh
# Regenerate test/pins/engine.txt: the printed output of the distributed
# engine's fault-free and fault-injected paths (`ddm simulate`, a `ddm chaos`
# crash sweep with its exact grid column, and a `ddm chaos` run with every
# scalar fault dimension set).  Run from the repository root after
# `dune build`; CI diffs the result against the committed file.  Only rerun
# it when a change is meant to alter that output.
set -eu
ddm=./_build/default/bin/ddm.exe
out=test/pins/engine.txt
: > "$out"
pin() {
  echo "== ddm $*" >> "$out"
  "$ddm" "$@" >> "$out"
}
pin simulate -n 3 --samples 100000 --seed 42
pin chaos -n 3 --sweep 0,0.1,0.2 --points 64 --samples 20000 --seed 7
pin chaos -n 3 --crash 0.1 --loss 0.2 --noise 0.05 --jitter 0.1 --samples 20000 --seed 7
