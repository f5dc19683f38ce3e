package dist

// The failure policy of the simulated cluster: retry, then abort. Every
// allreduce step walks the same path, each transition logged via
// obs.Logger and counted in the comms ledger:
//
//	healthy ──attempt failed──▶ deadline (timeout charged, ledger Deadlines)
//	deadline ──attempts left──▶ retry (exponential backoff, bytes RETRANSMITTED)
//	deadline ──retries exhausted──▶ abort (bytes LOST, BuildTree errors)
//
// An abort ends training: boost.Train dumps the flight recorder and the
// last checkpoint is the resume point. Membership never changes, so every
// run that completes is bit-identical to the no-failure run.

import (
	"fmt"

	"harpgbdt/internal/fault"
	"harpgbdt/internal/obs"
)

// The retry budget of one allreduce step, in simulated time.
const (
	// maxRetries bounds the retries after a failed attempt; the attempt
	// after the last retry that fails aborts the step.
	maxRetries = 2
	// stepTimeoutMicros is the deadline charged per failed attempt.
	stepTimeoutMicros = 5000
	// retryBackoffMicros is the base of the exponential backoff between
	// retries.
	retryBackoffMicros = 100
)

var (
	mAllreduceRetries = obs.DefaultRegistry().Counter("dist_allreduce_retries_total",
		"Simulated allreduce steps retried after an injected failure")
	mDeadlines = obs.DefaultRegistry().Counter("dist_step_deadlines_total",
		"Simulated allreduce attempts that exceeded the per-step deadline")
)

// pointAllreduce is the collective step's injection point.
var pointAllreduce = fault.RegisterPoint("dist.allreduce",
	"fires once per simulated allreduce attempt")

// RetryNanos reports the simulated time lost to allreduce timeouts and
// retry backoff.
func (t *Trainer) RetryNanos() int64 { return t.retryNanos }

// allreduceWithRetry performs one simulated allreduce of `bytes` under the
// failure policy: every attempt consults the "dist.allreduce" injection
// point; a failure is a deadline expiry costing the step timeout; retries
// back off exponentially up to maxRetries; exhausting them books the last
// attempt's bytes LOST and returns an error. Every attempt is accounted in
// the comms ledger (categorized by its outcome) and the step is drawn on
// the per-node trace lanes. Returns the simulated nanoseconds the step
// took.
func (t *Trainer) allreduceWithRetry(bytes int64) (int64, error) {
	var spent int64
	const timeout = int64(stepTimeoutMicros * 1e3)
	const backoff = int64(retryBackoffMicros * 1e3)
	base := t.barrierClock()
	for attempt := 0; ; attempt++ {
		err := fault.Point(pointAllreduce)
		if err == nil {
			lat := t.allreduceNanos(bytes)
			t.ledger.recordAttempt(bytes, attempt, attemptDelivered)
			t.ledger.recordStep(spent + lat)
			t.traceAllreduce(base, spent, lat, bytes, attempt+1)
			t.alignClocks(base, spent+lat)
			return spent + lat, nil
		}
		// Deadline: the attempt did not complete within the per-step
		// deadline; the timeout is charged to the virtual clock.
		spent += timeout
		t.ledger.deadlines++
		mDeadlines.Inc()
		obs.L().Warn("dist: step deadline exceeded",
			obs.KeyComponent, "dist", obs.KeyRound, t.ledger.round, "attempt", attempt)
		if attempt >= maxRetries {
			// Abort: no retry recovers the failed attempt's payload.
			t.ledger.recordAttempt(bytes, attempt, attemptLost)
			t.traceStall(base, spent)
			t.alignClocks(base, spent)
			obs.L().Error("dist: allreduce retries exhausted",
				obs.KeyComponent, "dist", obs.KeyRound, t.ledger.round, "attempts", attempt+1)
			return 0, fmt.Errorf("dist: allreduce failed after %d attempts: %w", attempt+1, err)
		}
		// Retry: the failed attempt's payload will be sent again —
		// retransmitted — after exponential backoff.
		t.ledger.recordAttempt(bytes, attempt, attemptRetransmitted)
		mAllreduceRetries.Inc()
		d := backoff << attempt
		spent += d
		t.retryNanos += timeout + d
		obs.L().Info("dist: retrying step",
			obs.KeyComponent, "dist", obs.KeyRound, t.ledger.round,
			"attempt", attempt, "backoff_nanos", d)
	}
}
