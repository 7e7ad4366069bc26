package solver

import "sync/atomic"

// Stats is a point-in-time snapshot of solver work counters. It is a plain
// value: read it with Solver.Snapshot (or Collector.Snapshot) and combine
// snapshots with Add.
type Stats struct {
	ConcreteHits int // solves settled by concrete search
	SATSolves    int // solves that reached the CDCL solver
	UnsatResults int
	UnknownOut   int

	// Incremental-session counters.
	AssumptionSolves int // CDCL calls made under ≥1 assumption (sampling blocks)
	ModelCacheHits   int // session solves settled by re-checking an earlier model
	ClausesReused    int // learned clauses carried into later CDCL calls of a session, each counted once

	// Sampling-strategy counters.
	RestartSamples    int // models drawn by randomized-restart re-solves
	BlockingFallbacks int // restart sampling runs that fell back to blocking enumeration
	DuplicateModels   int // sampled models already in the set: routine for restarts (drives the fallback), a strategy bug for blocking
	PortfolioRaces    int // CDCL solves that escalated past the probe into a configuration race
	LearntsShared     int // learnt clauses imported across portfolio engines (length-capped)

	// GenFailures counts solver models the input-reconstruction layer failed
	// to turn into an input file (Generate errors, reported by the core via
	// Solver.NoteGenFailure). A nonzero count in a success-rate experiment
	// means the measured total undercounts the sampled models — a broken
	// format fix-up, not a low success rate.
	GenFailures int
}

// Add accumulates another snapshot into s.
func (s *Stats) Add(o Stats) {
	s.ConcreteHits += o.ConcreteHits
	s.SATSolves += o.SATSolves
	s.UnsatResults += o.UnsatResults
	s.UnknownOut += o.UnknownOut
	s.AssumptionSolves += o.AssumptionSolves
	s.ModelCacheHits += o.ModelCacheHits
	s.ClausesReused += o.ClausesReused
	s.RestartSamples += o.RestartSamples
	s.BlockingFallbacks += o.BlockingFallbacks
	s.DuplicateModels += o.DuplicateModels
	s.PortfolioRaces += o.PortfolioRaces
	s.LearntsShared += o.LearntsShared
	s.GenFailures += o.GenFailures
}

// Collector accumulates solver work counters atomically. It is safe for
// concurrent use: each Solver counts into its own Collector, and an
// aggregator folds hunter-local snapshots into a shared one.
type Collector struct {
	concreteHits      atomic.Int64
	satSolves         atomic.Int64
	unsatResults      atomic.Int64
	unknownOut        atomic.Int64
	assumptionSolves  atomic.Int64
	modelCacheHits    atomic.Int64
	clausesReused     atomic.Int64
	restartSamples    atomic.Int64
	blockingFallbacks atomic.Int64
	duplicateModels   atomic.Int64
	portfolioRaces    atomic.Int64
	learntsShared     atomic.Int64
	genFailures       atomic.Int64
}

// Add folds a snapshot into the collector.
func (c *Collector) Add(s Stats) {
	c.concreteHits.Add(int64(s.ConcreteHits))
	c.satSolves.Add(int64(s.SATSolves))
	c.unsatResults.Add(int64(s.UnsatResults))
	c.unknownOut.Add(int64(s.UnknownOut))
	c.assumptionSolves.Add(int64(s.AssumptionSolves))
	c.modelCacheHits.Add(int64(s.ModelCacheHits))
	c.clausesReused.Add(int64(s.ClausesReused))
	c.restartSamples.Add(int64(s.RestartSamples))
	c.blockingFallbacks.Add(int64(s.BlockingFallbacks))
	c.duplicateModels.Add(int64(s.DuplicateModels))
	c.portfolioRaces.Add(int64(s.PortfolioRaces))
	c.learntsShared.Add(int64(s.LearntsShared))
	c.genFailures.Add(int64(s.GenFailures))
}

// Snapshot returns the current counter values.
func (c *Collector) Snapshot() Stats {
	return Stats{
		ConcreteHits:     int(c.concreteHits.Load()),
		SATSolves:        int(c.satSolves.Load()),
		UnsatResults:     int(c.unsatResults.Load()),
		UnknownOut:       int(c.unknownOut.Load()),
		AssumptionSolves: int(c.assumptionSolves.Load()),
		ModelCacheHits:   int(c.modelCacheHits.Load()),
		ClausesReused:    int(c.clausesReused.Load()),

		RestartSamples:    int(c.restartSamples.Load()),
		BlockingFallbacks: int(c.blockingFallbacks.Load()),
		DuplicateModels:   int(c.duplicateModels.Load()),
		PortfolioRaces:    int(c.portfolioRaces.Load()),
		LearntsShared:     int(c.learntsShared.Load()),

		GenFailures: int(c.genFailures.Load()),
	}
}
