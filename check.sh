#!/bin/sh
# Repo health check: full build, test suite, and (when ocamlformat is
# available) the formatting gate.  Run before every push.
set -eu
cd "$(dirname "$0")"

echo "== dune build @all"
dune build @all

# includes the fbp-bench smoke rule (bench/canonical/dune), the one
# benchmark gate: every BENCHMARK.json workload on a small design, with the
# output, traces and metric table validated
echo "== dune runtest"
dune runtest

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== dune build @lint (fbp-lint must report zero findings)"
dune build @lint

echo "== lint baseline ratchet (may shrink vs HEAD, never grow)"
if git -C . rev-parse --verify HEAD >/dev/null 2>&1; then
  git -C . show HEAD:lint-baseline.txt > "$tmp/baseline.head" 2>/dev/null \
    || : > "$tmp/baseline.head"
  sed '/^#/d;/^[[:space:]]*$/d' lint-baseline.txt | sort > "$tmp/baseline.now"
  sed '/^#/d;/^[[:space:]]*$/d' "$tmp/baseline.head" | sort > "$tmp/baseline.old"
  grown="$(comm -23 "$tmp/baseline.now" "$tmp/baseline.old")"
  if [ -n "$grown" ]; then
    echo "lint-baseline.txt grew vs HEAD (fix or suppress instead):"
    echo "$grown"
    exit 1
  fi
fi

echo "== lint determinism (two runs, byte-identical, <10s each)"
lint="./_build/default/bin/fbp_lint.exe"
timeout 10 "$lint" --json lib bin bench > "$tmp/lint1.json" \
  || { echo "lint run 1 failed or exceeded 10s"; exit 1; }
timeout 10 "$lint" --json lib bin bench > "$tmp/lint2.json" \
  || { echo "lint run 2 failed or exceeded 10s"; exit 1; }
cmp -s "$tmp/lint1.json" "$tmp/lint2.json" \
  || { echo "lint output is not byte-stable across runs"; exit 1; }

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed)"
fi

echo "== observability smoke (--trace / --metrics)"
fbp="dune exec bin/fbp_place.exe --"
$fbp generate --cells 1500 --seed 7 -o "$tmp/smoke.book" >/dev/null
$fbp place "$tmp/smoke.book" --movebounds 2 \
  --trace "$tmp/trace.json" --metrics "$tmp/metrics.json" >/dev/null
$fbp trace-check "$tmp/trace.json" >/dev/null \
  || { echo "emitted trace failed validation"; exit 1; }
# fbp_place place runs one repartition sweep (Runner.run_fbp)
for span in place.level place.qp place.flow place.realization realization.wave \
            repartition.sweep; do
  grep -q "\"name\":\"$span\"" "$tmp/trace.json" \
    || { echo "trace missing span: $span"; exit 1; }
done
for metric in cg.iterations mcf.dijkstra_rounds mcf.priced_arcs transport.pivots \
              qp.escaped_cells realization.shipped_cells realization.wave_width \
              realization.seq_s realization.scratches netmodel.triplets \
              legalize.scanned_intervals repartition.blocks \
              gc.major_collections gc.heap_words; do
  grep -q "\"$metric\"" "$tmp/metrics.json" \
    || { echo "metrics missing: $metric"; exit 1; }
done
$fbp metrics-check "$tmp/metrics.json" >/dev/null \
  || { echo "emitted metrics failed validation"; exit 1; }
# the x and y systems share one matrix: every global assembly freezes or
# refreezes one cached structure, so hits + misses = qp.global spans
counter() {
  grep -o "\"netmodel\\.refreeze_$1\":[0-9]*" "$tmp/metrics.json" | sed 's/.*://'
}
hits="$(counter hits)"
misses="$(counter misses)"
refreezes=$(( ${hits:-0} + ${misses:-0} ))
globals="$(grep -o '"name":"qp\.global","cat":"[^"]*","ph":"B"' "$tmp/trace.json" \
  | wc -l | tr -d ' ')"
[ "$refreezes" -eq "$globals" ] \
  || { echo "netmodel refreezes ($refreezes) != qp.global spans ($globals)"; exit 1; }

echo "== sanitizer smoke (--sanitize clean run + exit code 8 on corruption)"
$fbp place "$tmp/smoke.book" --movebounds 2 --sanitize >/dev/null \
  || { echo "--sanitize placement failed"; exit 1; }

echo "== flight recorder loop (--record / report / diff-record)"
$fbp place "$tmp/smoke.book" --movebounds 2 --record "$tmp/run.json" >/dev/null
for key in schema version provenance levels legalization density totals metrics; do
  grep -q "\"$key\"" "$tmp/run.json" \
    || { echo "run.json missing key: $key"; exit 1; }
done
# the metrics section is the Obs metrics object itself, never null
grep -q '"metrics":{"counters":{' "$tmp/run.json" \
  || { echo "run.json metrics section is not the metrics object"; exit 1; }
$fbp report "$tmp/run.json" -o "$tmp/report.html" >/dev/null
for marker in convergence phase-times density-heatmap level-row; do
  grep -q "$marker" "$tmp/report.html" \
    || { echo "report.html missing marker: $marker"; exit 1; }
done
# self-diff must be clean ...
$fbp diff-record "$tmp/run.json" "$tmp/run.json" >/dev/null \
  || { echo "diff-record regressed against itself"; exit 1; }
# ... and a deliberately worse run (larger design = higher HPWL) must gate
$fbp generate --cells 1800 --seed 8 -o "$tmp/worse.book" >/dev/null
$fbp place "$tmp/worse.book" --movebounds 2 --record "$tmp/worse.json" >/dev/null
if $fbp diff-record "$tmp/run.json" "$tmp/worse.json" >/dev/null 2>&1; then
  echo "diff-record failed to flag a regressed run"; exit 1
fi
# a comparator's record carries totals too, so the same gate holds for it:
# clean against itself, exit 1 against the worse design's RQL record
$fbp place "$tmp/smoke.book" --movebounds 2 --tool rql --record "$tmp/rql.json" >/dev/null
grep -q '"totals"' "$tmp/rql.json" \
  || { echo "rql record has no totals"; exit 1; }
$fbp diff-record "$tmp/rql.json" "$tmp/rql.json" >/dev/null \
  || { echo "rql record does not self-diff clean"; exit 1; }
$fbp place "$tmp/worse.book" --movebounds 2 --tool rql --record "$tmp/rql-worse.json" >/dev/null
code=0
$fbp diff-record "$tmp/rql.json" "$tmp/rql-worse.json" >/dev/null 2>&1 || code=$?
[ "$code" -eq 1 ] \
  || { echo "diff-record of the worse rql run must exit 1, got $code"; exit 1; }
# a failing run writes its record too: a strict run out of time exits 4,
# and its record (no levels completed) renders and self-diffs clean
code=0
$fbp place "$tmp/smoke.book" --movebounds 2 --strict --deadline 0 \
  --record "$tmp/fail.json" >/dev/null 2>&1 || code=$?
[ "$code" -eq 4 ] \
  || { echo "strict --deadline 0 must exit 4, got $code"; exit 1; }
$fbp report "$tmp/fail.json" -o "$tmp/fail.html" >/dev/null \
  || { echo "failed run's record does not render"; exit 1; }
$fbp diff-record "$tmp/fail.json" "$tmp/fail.json" >/dev/null \
  || { echo "failed run's record does not self-diff clean"; exit 1; }

echo "== profile smoke (fbp_place profile + FBP_PROFILE record)"
# the profile subcommand must emit a valid trace, a schema-tagged JSON
# summary, and never fail the run even when runtime events are unavailable
$fbp profile "$tmp/smoke.book" --movebounds 2 --domains 4 \
  --json "$tmp/profile.json" --trace "$tmp/ptrace.json" >/dev/null \
  || { echo "fbp_place profile failed"; exit 1; }
$fbp trace-check "$tmp/ptrace.json" >/dev/null \
  || { echo "profile trace failed validation"; exit 1; }
for key in schema available wall_us stw_count minor_us major_us domains \
           phases top_pauses; do
  grep -q "\"$key\"" "$tmp/profile.json" \
    || { echo "profile.json missing key: $key"; exit 1; }
done
grep -q '"schema":"fbp-profile"' "$tmp/profile.json" \
  || { echo "profile.json has wrong schema tag"; exit 1; }
# domain budget: at --domains 1 a placement runs on the calling domain
# alone.  A design above Qp.qp_seq_vars (4096) variables reaches the
# global QP's x/y fork, so a worker domain in the summary means some
# region ignored Config.domains (wid -1 is the caller)
$fbp generate --cells 5000 --seed 11 -o "$tmp/budget.book" >/dev/null
$fbp profile "$tmp/budget.book" --domains 1 --json "$tmp/budget.json" >/dev/null \
  || { echo "fbp_place profile --domains 1 failed"; exit 1; }
extra="$(grep -o '"wid":-\{0,1\}[0-9]*' "$tmp/budget.json" | grep -v '^"wid":-1$' || true)"
[ -z "$extra" ] \
  || { echo "profile at --domains 1 lists domains besides the caller: $extra"; exit 1; }
# at --domains 2 the regions run on the caller and at most one helper
# (wid 0): any other domain means a region ran wider than its budget
$fbp profile "$tmp/budget.book" --domains 2 --json "$tmp/budget2.json" >/dev/null \
  || { echo "fbp_place profile --domains 2 failed"; exit 1; }
extra="$(grep -o '"wid":-\{0,1\}[0-9]*' "$tmp/budget2.json" \
  | grep -v -e '^"wid":-1$' -e '^"wid":0$' || true)"
[ -z "$extra" ] \
  || { echo "profile at --domains 2 lists domains besides the caller and helper 0: $extra"; exit 1; }
# realization keeps one local-QP scratch per domain that drains a wave,
# not one per wave chunk: at --domains 2 no realize call makes more than 2
$fbp place "$tmp/budget.book" --domains 2 --metrics "$tmp/budget2.metrics.json" \
  >/dev/null || { echo "fbp_place place --domains 2 failed"; exit 1; }
scratches="$(grep -o '"realization\.scratches":{[^}]*}' "$tmp/budget2.metrics.json" \
  | grep -o '"max":[0-9.e+-]*' | sed 's/"max"://')"
[ -n "$scratches" ] && awk -v m="$scratches" 'BEGIN { exit !(m <= 2) }' \
  || { echo "realization.scratches max at --domains 2 is '$scratches', want <= 2"; exit 1; }
# the sanitizer at two domains: the parallel waves check every per-domain
# view (a local system's matrix, a transport assignment) with CSR
# validation and the transport audit
$fbp place "$tmp/budget.book" --domains 2 --sanitize >/dev/null \
  || { echo "sanitized placement at --domains 2 failed"; exit 1; }
# the degraded path (no runtime events) must still produce a summary
FBP_PROFILE_FORCE_UNAVAILABLE=1 $fbp profile "$tmp/smoke.book" --movebounds 2 \
  --json "$tmp/profile-na.json" >/dev/null \
  || { echo "profile with runtime events unavailable failed"; exit 1; }
grep -q '"available":false' "$tmp/profile-na.json" \
  || { echo "forced-unavailable profile claims availability"; exit 1; }
# FBP_PROFILE=1 folds the summary into the run record; the report renders
# the domain lane and GC pause sections from it
FBP_PROFILE=1 $fbp place "$tmp/smoke.book" --movebounds 2 \
  --record "$tmp/prun.json" >/dev/null
grep -q '"profile"' "$tmp/prun.json" \
  || { echo "FBP_PROFILE=1 record has no profile section"; exit 1; }
grep -q '"host"' "$tmp/prun.json" \
  || { echo "record provenance has no host section"; exit 1; }
$fbp report "$tmp/prun.json" -o "$tmp/preport.html" >/dev/null
for marker in domain-timeline gc-pauses; do
  grep -q "$marker" "$tmp/preport.html" \
    || { echo "profiled report missing marker: $marker"; exit 1; }
done
# a profiled record must self-diff clean under the GC gate too
$fbp diff-record "$tmp/prun.json" "$tmp/prun.json" --max-gc-regress 0.5 >/dev/null \
  || { echo "diff-record with GC gate regressed against itself"; exit 1; }

echo "== fuzz smoke (seed-pinned campaign, twice: zero failures + same digest; then the full corpus)"
# 50 scenarios under a hard wall-clock cap; the matrix crosses each
# scenario with every fault cell.  Two runs must be byte-identical (the
# digest line folds every outcome), and a failure exits 1: any escaped
# exception, invariant violation, or escaped corruption fails the push gate
# with a shrunk repro in the log.
$fbp fuzz --seed 42 --count 50 --matrix --time-cap 120 \
  > "$tmp/fuzz1.txt" || { echo "fuzz smoke found failures:"; cat "$tmp/fuzz1.txt"; exit 1; }
$fbp fuzz --seed 42 --count 50 --matrix --time-cap 120 \
  > "$tmp/fuzz2.txt" || { echo "fuzz smoke found failures on rerun"; exit 1; }
cmp -s "$tmp/fuzz1.txt" "$tmp/fuzz2.txt" \
  || { echo "fuzz campaign is not reproducible:"; diff "$tmp/fuzz1.txt" "$tmp/fuzz2.txt" || true; exit 1; }
grep -q "failures: none" "$tmp/fuzz1.txt" \
  || { echo "fuzz smoke reported failures"; exit 1; }
# the full seed-42 corpus (1000 scenarios, ~6 s) runs every flow solve the
# fuzzer can generate through the MinCostFlow solver once per push
$fbp fuzz --seed 42 --count 1000 > "$tmp/fuzz-full.txt" \
  || { echo "fuzz campaign found failures:"; tail -n 40 "$tmp/fuzz-full.txt"; exit 1; }
grep -q "failures: none" "$tmp/fuzz-full.txt" \
  || { echo "fuzz campaign reported failures"; exit 1; }
# The digest folds every scenario's outcome (pass, or its error class), so
# a change that keeps placements bit-identical keeps it.  A change that
# moves placements on purpose re-pins it here and gives the reason in
# CHANGES.md.
grep -q "digest: 0b7cfa32" "$tmp/fuzz-full.txt" \
  || { echo "fuzz digest moved (want 0b7cfa32):"; tail -n 1 "$tmp/fuzz-full.txt"; exit 1; }
# a repro artifact written by the campaign must replay to the same outcome
$fbp fuzz --seed 42 --count 6 --matrix --out "$tmp/fuzz-repros" > /dev/null || true
repro="$(ls "$tmp"/fuzz-repros/repro-*.json 2>/dev/null | head -n 1 || true)"
if [ -n "$repro" ]; then
  replay_code=0
  $fbp fuzz --replay "$repro" > "$tmp/replay.txt" 2>&1 || replay_code=$?
  [ "$replay_code" -eq 8 ] \
    || { echo "control repro must replay to the sanitizer exit (8), got $replay_code"; exit 1; }
fi

echo "== quality smoke (fbp_place quality: byte-identical reruns, self-compare at ratio 1)"
# no timing enters the document, so two runs of the quick set at one seed
# must be byte-identical, and a document compared with itself pairs every
# run at HPWL ratio 1 with no regression
$fbp quality --quick --seeds 0 --json "$tmp/quality1.json" >/dev/null \
  || { echo "fbp_place quality failed"; exit 1; }
$fbp quality --quick --seeds 0 --json "$tmp/quality2.json" >/dev/null \
  || { echo "fbp_place quality failed on rerun"; exit 1; }
cmp -s "$tmp/quality1.json" "$tmp/quality2.json" \
  || { echo "quality documents differ between two runs"; exit 1; }
$fbp quality --compare "$tmp/quality1.json" "$tmp/quality2.json" > "$tmp/quality-self.txt" \
  || { echo "quality self-compare reported a regression:"; cat "$tmp/quality-self.txt"; exit 1; }
grep -q "median 1.000, worst 1.000" "$tmp/quality-self.txt" \
  || { echo "quality self-compare is not at ratio 1:"; cat "$tmp/quality-self.txt"; exit 1; }

echo "== example figures (regenerates out/fig*.svg)"
dune exec examples/figures.exe >/dev/null \
  || { echo "examples/figures.exe failed"; exit 1; }
for fig in fig1_movebounds fig1_regions fig2 fig3 fig4_step1_flow fig4_step2_realized; do
  [ -s "out/$fig.svg" ] || { echo "missing figure: out/$fig.svg"; exit 1; }
done

echo "OK"
