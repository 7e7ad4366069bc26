package main

import (
	"strings"

	"diode/internal/dispatch"
)

// outcome classifies one attempted job of a sweep.
type outcome string

// Job outcomes. exposed/unsat/prevented are decided verdicts; unknown is a
// completed job that decided nothing (a solver budget-out); unreachable is
// an arith probe whose node the seed input never reaches; timeout is a job
// the benchmark stopped at its own wall limit, undecided within that limit
// like unknown is within the solver's. The rest are failures: lost (the
// worker died without a result), failed (the job reported an error) and
// wrong (a correctness gate rejected the result). Timeouts and failures
// both count against the completed share.
const (
	outExposed     outcome = "exposed"
	outUnsat       outcome = "unsatisfiable"
	outPrevented   outcome = "sanity-prevented"
	outDone        outcome = "done" // a finished experiment job (same-path, success-rate)
	outUnknown     outcome = "unknown"
	outUnreachable outcome = "unreachable"
	outTimeout     outcome = "timeout"
	outLost        outcome = "lost"
	outFailed      outcome = "failed"
	outWrong       outcome = "wrong"
)

// failed reports whether the job failed: it has no usable result.
func (o outcome) failed() bool {
	switch o {
	case outLost, outFailed, outWrong:
		return true
	}
	return false
}

// decided reports whether the outcome is a decided hunt verdict.
func (o outcome) decided() bool {
	return o == outExposed || o == outUnsat || o == outPrevented
}

// unreachableMark is the error the dispatch executor reports when the
// analyzed program has no target for the job's site: for an arith probe,
// the seed input never executes the probed node.
const unreachableMark = "has no target site"

// classify maps a job's result to its outcome. res is nil when no result
// arrived; timedOut reports the job was killed at the wall limit; wrong
// reports a correctness gate rejected the result.
func classify(res *dispatch.Result, timedOut, wrong bool) outcome {
	switch {
	case timedOut:
		return outTimeout
	case res == nil:
		return outLost
	case res.Err != "" && strings.Contains(res.Err, unreachableMark):
		return outUnreachable
	case res.Err != "":
		return outFailed
	case wrong:
		return outWrong
	case res.Kind != dispatch.KindHunt:
		return outDone
	}
	switch res.Verdict {
	case "exposed":
		return outExposed
	case "unsatisfiable":
		return outUnsat
	case "sanity-prevented":
		return outPrevented
	}
	return outUnknown
}
