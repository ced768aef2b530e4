#!/usr/bin/env bash
# Smoke test for `srm sbc`: checks that invalid requests are refused
# with exit 1, runs the reduced CI calibration grid
# (2 curves x 2 priors) with --check, lints the emitted trace against
# the event schema, runs the default full battery (all 5 curves x 2
# priors) with --check, and proves same-seed reruns are byte-identical.
#
# Requires: a release build of the `srm` binary.
set -euo pipefail

SRM=${SRM:-target/release/srm}
WORK=$(mktemp -d)

cleanup() {
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "sbc-smoke: FAIL: $*" >&2
    exit 1
}

[ -x "$SRM" ] || fail "srm binary not found at $SRM (cargo build --release first)"

# Reduced grid: one homogeneous and one heterogeneous curve under
# both priors, 4 rank bins so 32 reps give 8 expected per bin.
cat > "$WORK/grid.json" <<'EOF'
{
  "models": ["model0", "model3"],
  "priors": ["poisson", "negbinom"],
  "days": 30,
  "lambda_max": 80,
  "alpha_max": 8,
  "bins": 4,
  "alpha": 0.001
}
EOF

REPS=32 CHAINS=2 SAMPLES=400 BURN_IN=200 SEED=20240

# The door check: unchecked, the first three each ask for a
# multi-gigabyte allocation and abort the process, and the fourth (a
# `theta_max` inside the sampler's OPEN_EPS margin) panics every
# model1 chain; each must exit 1 with one `srm:` line.
echo '{"days": 1e12}' > "$WORK/huge_grid.json"
echo '{"theta_max": 1e-300, "models": ["model1"], "priors": ["poisson"], "bins": 4}' \
    > "$WORK/tiny_theta_grid.json"
echo "sbc-smoke: invalid requests are refused at the door"
for args in "--samples 4294967295" "--reps 4294967295" "--grid $WORK/huge_grid.json" \
    "--grid $WORK/tiny_theta_grid.json --reps 4 --samples 100 --burn-in 50"; do
    status=0
    # shellcheck disable=SC2086 # split the flag from its value
    "$SRM" sbc $args >"$WORK/door.out" 2>"$WORK/door.err" || status=$?
    [ "$status" -eq 1 ] || fail "sbc $args exited $status, not 1"
    [ "$(grep -c '^srm: ' "$WORK/door.err")" -eq 1 ] \
        || fail "sbc $args did not print exactly one srm: line"
done

echo "sbc-smoke: running the reduced battery with --check"
"$SRM" sbc --grid "$WORK/grid.json" --reps "$REPS" \
    --chains "$CHAINS" --samples "$SAMPLES" --burn-in "$BURN_IN" \
    --seed "$SEED" --out "$WORK/sbc.json" \
    --trace-out "$WORK/sbc.jsonl" --check \
    | tee "$WORK/summary.txt" \
    || fail "calibration gate rejected the reduced grid"

grep -q "overall: pass" "$WORK/summary.txt" \
    || fail "summary does not report an overall pass"
grep -q '"all_passed": true' "$WORK/sbc.json" \
    || fail "report does not record all_passed"

echo "sbc-smoke: running the default full battery with --check"
"$SRM" sbc --out "$WORK/sbc_full.json" --check \
    | tee "$WORK/summary_full.txt" \
    || fail "calibration gate rejected the default battery"
grep -q "overall: pass" "$WORK/summary_full.txt" \
    || fail "default battery does not report an overall pass"

echo "sbc-smoke: linting the trace (strict)"
"$SRM" trace lint --file "$WORK/sbc.jsonl" --strict \
    || fail "trace lint rejected the sbc event stream"
for kind in sbc-cell-start sbc-rep-done sbc-cell-done; do
    grep -q "\"$kind\"" "$WORK/sbc.jsonl" || fail "trace is missing $kind events"
done

echo "sbc-smoke: rerun must be byte-identical"
"$SRM" sbc --grid "$WORK/grid.json" --reps "$REPS" \
    --chains "$CHAINS" --samples "$SAMPLES" --burn-in "$BURN_IN" \
    --seed "$SEED" --out "$WORK/sbc2.json" --check >/dev/null \
    || fail "rerun failed"
cmp "$WORK/sbc.json" "$WORK/sbc2.json" \
    || fail "same-seed reruns differ byte-for-byte"

echo "sbc-smoke: a biased sampler must exit non-zero"
if "$SRM" sbc --grid "$WORK/grid.json" --reps "$REPS" \
    --chains "$CHAINS" --samples "$SAMPLES" --burn-in "$BURN_IN" \
    --seed "$SEED" --inject-bias 1e6 --check >/dev/null 2>&1; then
    fail "--check accepted an injected bias"
fi

echo "sbc-smoke: PASS"
