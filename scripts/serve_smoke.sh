#!/usr/bin/env bash
# Smoke test for `srm serve`: boots the server on an ephemeral port,
# checks that bodies past the request limits get 400, that a predict
# with a vanishing lambda_max succeeds and that failing jobs leave their
# workers alive, then submits a fit job over
# HTTP and checks the result against the same fit run through the
# `srm fit` CLI. Also exercises the fit cache
# (second submission must be a 201 cache hit with an identical body)
# and graceful SIGTERM drain.
#
# Requires: a release build of the `srm` binary, curl, jq.
set -euo pipefail

SRM=${SRM:-target/release/srm}
WORK=$(mktemp -d)
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$WORK/server.log" >&2 || true
    exit 1
}

[ -x "$SRM" ] || fail "srm binary not found at $SRM (cargo build --release first)"

# A small but non-trivial MCMC shape so the smoke stays fast.
MODEL=model1 PRIOR=poisson CHAINS=2 SAMPLES=400 BURN_IN=150 SEED=11

echo "serve-smoke: starting server"
"$SRM" serve --addr 127.0.0.1:0 --port-file "$WORK/srm.port" \
    --trace-dir "$WORK/runs" >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
    [ -s "$WORK/srm.port" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
done
[ -s "$WORK/srm.port" ] || fail "port file never appeared"
BASE="http://127.0.0.1:$(cat "$WORK/srm.port")"
echo "serve-smoke: listening on $BASE"

curl -sf "$BASE/healthz" | jq -e '.status == "ok" and (.build.crate_version | length > 0)' \
    >/dev/null || fail "/healthz not healthy"

BODY=$(printf '{"kind":"fit","dataset":"musa_cc96","model":"%s","prior":"%s","chains":%d,"samples":%d,"burn_in":%d,"seed":%d}' \
    "$MODEL" "$PRIOR" "$CHAINS" "$SAMPLES" "$BURN_IN" "$SEED")

# Bodies that once aborted the server (a 34 GB horizon vector, a
# 4-billion-draw chain), held a worker for days (a 4-billion-sweep
# burn-in), failed only after taking a worker (every NB chain
# panicked on an alpha_max inside the sampler's OPEN_EPS margins) or
# returned garbage (an alpha_max whose residual draws saturated a
# u64): each must get a 400 before it is queued.
for BAD in \
    '{"kind":"predict","dataset":"musa_cc96","horizon":4294967295}' \
    '{"kind":"fit","dataset":"musa_cc96","samples":4294967295}' \
    '{"kind":"fit","dataset":"musa_cc96","lambda_max":-1}' \
    '{"kind":"fit","dataset":"musa_cc96","burn_in":4294967295,"samples":1,"chains":1,"timeout_ms":1000}' \
    '{"kind":"fit","dataset":"musa_cc96","prior":"negbinom","alpha_max":1e-300}' \
    '{"kind":"fit","dataset":"musa_cc96","prior":"negbinom","alpha_max":1e100}'; do
    CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/jobs" -d "$BAD")
    [ "$CODE" = "400" ] || fail "got $CODE, expected 400, for $BAD"
done
echo "serve-smoke: door check rejected 6 bodies with 400"

# Waits for job $1 to leave queued/running and prints its status.
final_status() {
    local status=""
    for _ in $(seq 1 300); do
        status=$(curl -sf "$BASE/v1/jobs/$1" | jq -r .status)
        case "$status" in
            queued | running) sleep 0.2 ;;
            *) break ;;
        esac
    done
    echo "$status"
}

# A predict whose lambda0 draws sit where the truncated gamma's kept
# mass underflows (they once all came out 0, failing the predict) must
# end `done`. Two selects that read their 1 ms deadline between models
# must end `failed` without taking their workers down, so the fit
# below still finds both default workers alive.
PBODY='{"kind":"predict","dataset":"musa_cc96","lambda_max":1e-300,"chains":2,"samples":100,"burn_in":10,"seed":1}'
PJOB=$(curl -sf -X POST "$BASE/v1/jobs" -d "$PBODY" | jq -r .id)
SELECTS=""
for SSEED in 1 2; do
    SBODY=$(printf '{"kind":"select","dataset":"musa_cc96","chains":2,"samples":2000,"burn_in":100,"timeout_ms":1,"seed":%d}' "$SSEED")
    SELECTS="$SELECTS $(curl -sf -X POST "$BASE/v1/jobs" -d "$SBODY" | jq -r .id)"
done
STATUS=$(final_status "$PJOB")
[ "$STATUS" = "done" ] || fail "predict $PJOB ended $STATUS, expected done"
echo "serve-smoke: the vanishing-lambda_max predict finished"
for SJOB in $SELECTS; do
    STATUS=$(final_status "$SJOB")
    [ "$STATUS" = "failed" ] || fail "select $SJOB ended $STATUS, expected failed"
done
echo "serve-smoke: both timed-out selects failed cleanly"

echo "serve-smoke: submitting fit job"
SUBMIT=$(curl -sf -X POST "$BASE/v1/jobs" -d "$BODY")
JOB=$(echo "$SUBMIT" | jq -r .id)
[ "$(echo "$SUBMIT" | jq -r .cached)" = "false" ] || fail "first submission claimed a cache hit"

for _ in $(seq 1 600); do
    STATUS=$(curl -sf "$BASE/v1/jobs/$JOB" | jq -r .status)
    case "$STATUS" in
        done) break ;;
        failed | cancelled) fail "job $JOB ended $STATUS" ;;
    esac
    sleep 0.2
done
[ "$STATUS" = "done" ] || fail "job $JOB still $STATUS after timeout"

curl -sf "$BASE/v1/results/$JOB" >"$WORK/http_result.json"

echo "serve-smoke: running the same fit through the CLI"
"$SRM" fit --dataset musa_cc96 --model "$MODEL" --prior "$PRIOR" \
    --chains "$CHAINS" --samples "$SAMPLES" --burn-in "$BURN_IN" --seed "$SEED" \
    >"$WORK/cli_fit.txt"

# The CLI prints summaries at 3 decimals; round the HTTP doubles the
# same way and diff. The underlying doubles are bit-identical (the
# integration tests assert that); this guards the two front-ends.
for FIELD in mean median sd; do
    CLI=$(awk -v f="$FIELD" '$1 == f && $2 == ":" { print $3 }' "$WORK/cli_fit.txt")
    HTTP=$(jq -r ".residual.$FIELD" "$WORK/http_result.json" | xargs printf '%.3f')
    [ -n "$CLI" ] || fail "CLI output missing residual $FIELD"
    [ "$CLI" = "$HTTP" ] || fail "residual $FIELD differs: CLI=$CLI HTTP=$HTTP"
    echo "serve-smoke: residual $FIELD matches ($CLI)"
done

echo "serve-smoke: re-submitting (must be a cache hit)"
RESUBMIT=$(curl -s -o "$WORK/resubmit.json" -w '%{http_code}' -X POST "$BASE/v1/jobs" -d "$BODY")
[ "$RESUBMIT" = "201" ] || fail "cache hit returned $RESUBMIT, expected 201"
[ "$(jq -r .cached "$WORK/resubmit.json")" = "true" ] || fail "resubmission not served from cache"
JOB2=$(jq -r .id "$WORK/resubmit.json")
curl -sf "$BASE/v1/results/$JOB2" >"$WORK/http_result2.json"
cmp -s "$WORK/http_result.json" "$WORK/http_result2.json" \
    || fail "cached result is not byte-identical to the original"

# Fetch to a file first: `curl | grep -q` under pipefail flakes when
# grep matches early, closes the pipe, and curl dies with EPIPE.
curl -sf "$BASE/metrics" >"$WORK/metrics.txt" || fail "/metrics fetch failed"
grep -q '^srm_serve_cache_hits_total 1$' "$WORK/metrics.txt" \
    || fail "/metrics does not report the cache hit"
grep -q '^srm_build_info{' "$WORK/metrics.txt" \
    || fail "/metrics missing srm_build_info"
grep -q '^srm_serve_phase_seconds_total{phase="fit"}' "$WORK/metrics.txt" \
    || fail "/metrics missing the fit phase series"

curl -sf "$BASE/healthz" >"$WORK/healthz.json" || fail "/healthz fetch failed"
jq -e '.jobs.running == 0' "$WORK/healthz.json" >/dev/null \
    || fail "/healthz reports running jobs: $(cat "$WORK/healthz.json")"

echo "serve-smoke: SIGTERM drain"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
SERVER_PID=""
grep -q "drained and stopped" "$WORK/server.log" || fail "no drain summary in server log"

echo "serve-smoke: PASS"
