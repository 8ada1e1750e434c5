#!/bin/sh
# fleetsmoke.sh — end-to-end smoke test of the fleet optimization path
# through cmd/serve. Boots one serve instance, submits two jobs over
# HTTP for the same problem (paper Topology 1, identical budget and
# seed): the single-sensor multi-restart search, and the K=3 joint
# fleet optimization. Asserts:
#
#   1. both jobs complete and serve their plan envelopes;
#   2. the fleet envelope round-trips its fleet block (K matrices);
#   3. the joint plan beats the single plan replicated K times on
#      simulated union ΔC (cmd/fleetdemo judges this — joint
#      optimization must pay off in the measurable, not just in its
#      own objective);
#   4. both plans deploy through POST /deployments on the same
#      instance and advance 200 lockstep steps, the fleet deployment
#      reporting its 3 sensors and 3 positions;
#   5. the fleet metrics are exposed and the process drains cleanly
#      on SIGTERM.
#
# Environment:
#   FLEETSMOKE_TIMEOUT  per-wait budget in seconds (default 120).
#
# No jq: IDs and states are extracted with sed/grep from the JSON,
# which the serve API emits with stable key order.
set -eu

cd "$(dirname "$0")/.."

TIMEOUT="${FLEETSMOKE_TIMEOUT:-120}"
WORK="$(mktemp -d -t fleetsmoke.XXXXXX)"

PIDS=""
cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
	for pid in $PIDS; do
		wait "$pid" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
	echo "fleetsmoke: FAIL: $*" >&2
	exit 1
}

go build -o "$WORK/serve" ./cmd/serve
go build -o "$WORK/fleetdemo" ./cmd/fleetdemo

"$WORK/serve" -addr 127.0.0.1:0 -workers 1 -log-format text \
	-checkpoint-dir "$WORK/store" >"$WORK/serve.log" 2>&1 &
PIDS="$!"
t=0
while :; do
	addr=$(sed -n 's/.*msg=listening addr=\([0-9.]*:[0-9]*\).*/\1/p' "$WORK/serve.log" | head -n 1)
	if [ -n "$addr" ] && curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
		break
	fi
	kill -0 $PIDS 2>/dev/null || fail "serve exited during boot: $(cat "$WORK/serve.log")"
	t=$((t + 1))
	[ "$t" -le $((TIMEOUT * 10)) ] || fail "serve never became healthy"
	sleep 0.1
done
BASE="http://$addr"
echo "fleetsmoke: serve up: $BASE"

# submit_and_wait <kind> <outfile>: submit the fleetdemo-emitted spec,
# wait for completion, download the plan envelope.
submit_and_wait() {
	sw_kind=$1 sw_out=$2
	sw_id=$("$WORK/fleetdemo" -emit-spec "$sw_kind" |
		curl -fsS -X POST "$BASE/jobs" -d @- |
		sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
	[ -n "$sw_id" ] || fail "$sw_kind submit returned no job id"
	echo "fleetsmoke: submitted $sw_kind job $sw_id"
	sw_t=0
	while :; do
		sw_state=$(curl -fsS "$BASE/jobs/$sw_id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
		[ "$sw_state" = "done" ] && break
		case "$sw_state" in failed | cancelled) fail "$sw_kind job ended $sw_state" ;; esac
		sw_t=$((sw_t + 1))
		[ "$sw_t" -le $((TIMEOUT * 2)) ] || fail "$sw_kind job not done after ${TIMEOUT}s (state: ${sw_state:-unknown})"
		sleep 0.5
	done
	curl -fsS "$BASE/jobs/$sw_id/plan" >"$sw_out" || fail "cannot fetch $sw_kind plan"
}

submit_and_wait single "$WORK/single_plan.json"
submit_and_wait fleet "$WORK/fleet_plan.json"

grep -q '"transitionMatrices"' "$WORK/fleet_plan.json" ||
	fail "fleet plan envelope has no transitionMatrices stack"

# The judge: replicate the single plan K times, simulate both fleets,
# require the joint plan to win on union ΔC.
"$WORK/fleetdemo" -single "$WORK/single_plan.json" -fleet "$WORK/fleet_plan.json" ||
	fail "joint fleet plan did not beat the replicated single-sensor baseline"

# deploy_and_advance <kind> <plan envelope> <outfile>: deploy the plan
# on its scenario, advance it 200 steps, keep the final view. The body
# is the emitted job spec joined with the plan envelope; /deployments
# reads "scenario", "objectives" and "plan" and ignores the rest.
deploy_and_advance() {
	da_kind=$1 da_plan=$2 da_out=$3
	{
		"$WORK/fleetdemo" -emit-spec "$da_kind" | sed 's/}[[:space:]]*$/,/'
		sed '1s/^[[:space:]]*{//' "$da_plan"
	} >"$WORK/${da_kind}_deployment.json"
	da_id=$(curl -fsS -X POST "$BASE/deployments" --data-binary @"$WORK/${da_kind}_deployment.json" |
		sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
	[ -n "$da_id" ] || fail "$da_kind deployment create returned no id"
	curl -fsS -X POST "$BASE/deployments/$da_id/advance" -d '{"steps": 200}' >"$da_out" ||
		fail "cannot advance $da_kind deployment $da_id"
	grep -q '"step": 201,' "$da_out" || fail "$da_kind deployment $da_id is not at step 201"
	echo "fleetsmoke: $da_kind deployment $da_id advanced to step 201"
}

deploy_and_advance single "$WORK/single_plan.json" "$WORK/single_view.json"
deploy_and_advance fleet "$WORK/fleet_plan.json" "$WORK/fleet_view.json"
grep -q '"sensors": 3,' "$WORK/fleet_view.json" ||
	fail "fleet deployment view does not report 3 sensors"
positions=$(sed -n '/"positions": \[/,/\]/p' "$WORK/fleet_view.json" | grep -c '^ *[0-9][0-9]*,\{0,1\}$' || true)
[ "$positions" -eq 3 ] || fail "fleet deployment view has $positions positions, want 3"

curl -fsS "$BASE/metrics" >"$WORK/metrics.txt"
grep -q '^fleet_jobs_total 1$' "$WORK/metrics.txt" ||
	fail "fleet_jobs_total != 1 in /metrics"
grep -q '^fleet_deployments_total 1$' "$WORK/metrics.txt" ||
	fail "fleet_deployments_total != 1 in /metrics"

kill $PIDS 2>/dev/null || true
rc=0
for pid in $PIDS; do
	wait "$pid" || rc=$?
done
PIDS=""
[ "$rc" -eq 0 ] || fail "serve exited nonzero ($rc) on SIGTERM"
echo "fleetsmoke: PASS"
