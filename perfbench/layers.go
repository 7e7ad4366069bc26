package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"diode/internal/apps"
	"diode/internal/bitblast"
	"diode/internal/bv"
	"diode/internal/cache"
	"diode/internal/core"
	"diode/internal/discover"
	"diode/internal/dispatch"
	"diode/internal/interp"
	"diode/internal/sat"
	"diode/internal/solver"
)

// Engine defaults core.Options applies to zero fields; the replay mirrors
// the hunt under the same budgets.
const (
	coreInitialAttempts = 6
	coreMaxEnforce      = 40
)

// counters are the per-layer counts a traced run gathers next to its spans.
type counters struct {
	Solver       solver.Stats `json:"solver"`
	Models       int          `json:"models"`
	Solves       int          `json:"solves"`
	BlastClauses int          `json:"blastClauses"`
	BlastVars    int          `json:"blastVars"`
	Steps        int64        `json:"steps"`
	GenCalls     int          `json:"genCalls"`
	GenFailures  int          `json:"genFailures"`
	Hits         int          `json:"hits"`
	Misses       int          `json:"misses"`
	Stores       int          `json:"stores"`
	Corrupt      int          `json:"corrupt"`
	HuntRuns     int          `json:"huntRuns"`
	HuntEnforced int          `json:"huntEnforced"`
	Unattributed int64        `json:"unattributedNS"`
	Targets      int          `json:"targets"`
	Sites        int          `json:"sites"`
	ArithSites   int          `json:"arithSites"`
	SafeArith    int          `json:"safeArith"`
}

func (c *counters) add(o counters) {
	c.Solver.Add(o.Solver)
	c.Models += o.Models
	c.Solves += o.Solves
	c.BlastClauses += o.BlastClauses
	c.BlastVars += o.BlastVars
	c.Steps += o.Steps
	c.GenCalls += o.GenCalls
	c.GenFailures += o.GenFailures
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Stores += o.Stores
	c.Corrupt += o.Corrupt
	c.HuntRuns += o.HuntRuns
	c.HuntEnforced += o.HuntEnforced
	c.Unattributed += o.Unattributed
	c.Targets += o.Targets
	c.Sites += o.Sites
	c.ArithSites += o.ArithSites
	c.SafeArith += o.SafeArith
}

// layers drives jobs through the program's layer calls one at a time,
// recording a span around each call.
type layers struct {
	tr    *tracer
	c     counters
	jc    *dispatch.JobCache
	store *cache.Store  // the on-disk result store; nil = none
	limit time.Duration // a hunt longer than this is a timeout (no replay); 0 = none
	jobs  int
	first time.Time
	// mismatched describes each hunt whose replay diverged from it: its
	// layer numbers would then not be the hunt's.
	mismatched []string
}

// setup runs and times the set-up layers of one application: compile,
// discovery, triage and analysis (with its guest runs replayed so the
// interpreter's share shows).
func (l *layers) setup(ctx context.Context, app *apps.App, analyze bool) error {
	l.tr.do("apps.compile", func() { app.Compiled() })
	var sites []discover.Site
	var err error
	l.tr.do("discover.sites", func() { sites, err = app.Discovered() })
	if err != nil {
		return err
	}
	l.tr.do("absint.triage", func() { sites, err = app.Triaged() })
	if err != nil {
		return err
	}
	l.c.Sites += len(sites)
	for _, s := range sites {
		if s.Kind == discover.KindArith {
			l.c.ArithSites++
			if s.Triage == discover.TriageSafe {
				l.c.SafeArith++
			}
		}
	}
	if !analyze {
		return nil
	}
	_, err = l.analyze(ctx, app)
	return err
}

// analyze runs the Analyzer through the job cache under a core.analyze
// span, then replays its seed runs (one taint run, one symbolic run per
// target) under interp.traced spans.
func (l *layers) analyze(ctx context.Context, app *apps.App) ([]*core.Target, error) {
	var targets []*core.Target
	var err error
	l.tr.do("core.analyze", func() { targets, err = l.jc.Targets(ctx, app, dispatch.Options{}) })
	if err != nil {
		return nil, err
	}
	l.c.Targets += len(targets)
	m := interp.NewMachine(app.Compiled())
	l.run(m, app.Format.Seed, interp.Options{TrackTaint: true, Fuel: coreFuel}, "interp.traced")
	for _, t := range targets {
		l.run(m, app.Format.Seed, symbolicOpts(t), "interp.traced")
	}
	return targets, nil
}

func symbolicOpts(t *core.Target) interp.Options {
	rel := make(map[int]bool, len(t.RelevantBytes))
	for _, b := range t.RelevantBytes {
		rel[b] = true
	}
	return interp.Options{TrackSymbolic: true, Fuel: coreFuel, SymbolicBytes: func(i int) bool { return rel[i] }}
}

// run executes the guest once on a reused machine under a span.
func (l *layers) run(m *interp.Machine, input []byte, opts interp.Options, name string) *interp.Outcome {
	var out *interp.Outcome
	l.tr.do(name, func() {
		m.Reset(input, opts)
		out = m.Run()
	})
	l.c.Steps += out.Steps
	return out
}

// Run implements dispatch.Backend: the wave's jobs run sequentially.
func (l *layers) Run(ctx context.Context, jobs []dispatch.Job) (<-chan dispatch.Result, error) {
	if l.first.IsZero() {
		l.first = time.Now()
	}
	out := make(chan dispatch.Result)
	go func() {
		defer close(out)
		for _, j := range jobs {
			r := l.execute(ctx, j)
			select {
			case out <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// execute runs one job the way dispatch.Execute does — key, cache lookup,
// analysis, the job itself, cache store — with each step a span.
func (l *layers) execute(ctx context.Context, job dispatch.Job) dispatch.Result {
	l.tr.job = l.jobs
	l.jobs++
	defer func() { l.tr.job = -1 }()
	js := l.tr.begin("dispatch.job")
	defer l.tr.end(js)
	res := dispatch.Result{JobID: job.ID, Kind: job.Kind, App: job.App, Site: job.Site}
	app, err := l.jc.App(job.App)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	var key string
	l.tr.do("dispatch.jobkey", func() { key = dispatch.JobKey(app.Fingerprint(), job) })
	if l.store != nil {
		var cached *dispatch.Result
		l.tr.do("cache.get", func() {
			payload, st := l.store.Get(key)
			switch st {
			case cache.DiskHit:
				var r dispatch.Result
				if json.Unmarshal(payload, &r) == nil && r.Err == "" {
					cached = &r
				} else {
					l.c.Corrupt++
				}
			case cache.DiskCorrupt:
				l.c.Corrupt++
			}
		})
		if cached != nil {
			l.c.Hits++
			cached.JobID, cached.App, cached.Site, cached.Cached = job.ID, job.App, job.Site, true
			return *cached
		}
		l.c.Misses++
	}
	res = l.run1(ctx, job, app)
	if l.store != nil && res.Err == "" {
		l.tr.do("cache.put", func() {
			if payload, err := json.Marshal(res); err == nil && l.store.Put(key, payload) {
				l.c.Stores++
			}
		})
	}
	return res
}

// run1 resolves the job's target and runs the job through its layers.
func (l *layers) run1(ctx context.Context, job dispatch.Job, app *apps.App) dispatch.Result {
	res := dispatch.Result{JobID: job.ID, Kind: job.Kind, App: job.App, Site: job.Site}
	execApp := app
	var targets []*core.Target
	var err error
	if job.SiteKind == string(discover.KindArith) {
		if execApp, err = app.Probe(job.Site); err == nil {
			l.tr.do("apps.compile", func() { execApp.Compiled() })
			targets, err = l.analyze(ctx, execApp)
		}
	} else {
		targets, err = l.jc.Targets(ctx, app, job.Opts)
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	var t *core.Target
	for _, cand := range targets {
		if cand.Site == job.Site {
			t = cand
		}
	}
	if t == nil {
		res.Err = fmt.Sprintf("perfbench: application %q has no target site %q", job.App, job.Site)
		return res
	}
	if execApp != app {
		sites, err := app.Triaged()
		if err != nil {
			res.Err = err.Error()
			return res
		}
		for _, s := range sites {
			if s.Name == job.Site {
				t = t.WithInfo(s)
			}
		}
	}
	opts := job.Opts.Core(job.Seed)
	sol := solver.New(solverOptions(opts))
	switch job.Kind {
	case dispatch.KindHunt:
		return l.hunt(ctx, res, execApp, t, opts)
	case dispatch.KindSamePath:
		var v solver.Verdict
		l.tr.do("solver.solve", func() { _, v = sol.NewSession(core.SamePathConstraint(t)).Solve() })
		l.c.Solves++
		res.SamePathSat = v.String()
	case dispatch.KindSuccessRate:
		var models []bv.Assignment
		l.tr.do("solver.sample", func() {
			models = sol.NewSession(core.EnforcedConstraintFor(t, job.Enforced)).SampleModels(job.SampleN)
		})
		l.c.Models += len(models)
		gen := execApp.Format.Generator()
		m := interp.NewMachine(execApp.Compiled())
		for _, model := range models {
			input, err := l.generate(gen.Generate, execApp.Format.Seed, model)
			if err != nil {
				sol.NoteGenFailure()
				continue
			}
			res.Total++
			if triggered(t, l.run(m, input, interp.Options{Fuel: coreFuel}, "interp.plain")) {
				res.Hits++
			}
		}
		res.GenFailures = sol.Snapshot().GenFailures
	}
	res.Stats = sol.Snapshot()
	l.c.Solver.Add(res.Stats)
	return res
}

// hunt times Hunter.HuntContext as one span, then decomposes it by
// replaying the same solver, generator and guest-run sequence through the
// layers' own calls. Whatever the replay does not cover is counted as
// unattributed hunt time rather than dropped.
func (l *layers) hunt(ctx context.Context, res dispatch.Result, app *apps.App, t *core.Target, opts core.Options) dispatch.Result {
	h := core.NewHunter(app, opts)
	var sr *core.SiteResult
	hs := l.tr.begin("core.hunt")
	sr = h.HuntContext(ctx, t)
	l.tr.end(hs)
	huntDur := l.tr.spans[hs].dur()
	res.Verdict, res.ErrorType, res.Enforced = sr.Verdict.String(), sr.ErrorType, sr.Enforced
	res.Runs, res.DynamicBranches, res.Input = sr.Runs, t.DynamicBranches, sr.Input
	res.DiscoveryMS = sr.Discovery.Milliseconds()
	res.Stats = h.SolverStats()
	l.c.Solver.Add(res.Stats)
	l.c.HuntRuns += sr.Runs
	l.c.HuntEnforced += len(sr.Enforced)
	if l.limit > 0 && huntDur > l.limit {
		res.Err = "perfbench: hunt exceeded the wall limit"
		return res
	}
	rs := l.tr.begin("core.replay")
	got := l.replayHunt(app, t, opts)
	l.tr.end(rs)
	if want := (replayed{sr.Verdict, sr.Runs, len(sr.Enforced)}); got != want {
		l.mismatched = append(l.mismatched, fmt.Sprintf("%s: hunt replay ended on %+v, the hunt on %+v", t.Site, got, want))
	}
	var kids []int
	for i := rs + 1; i < len(l.tr.spans); i++ {
		if l.tr.spans[i].Parent == rs {
			kids = append(kids, i)
		}
	}
	l.c.Unattributed += int64(huntDur - coverage(l.tr.spans[rs], l.tr.spans, kids))

	l.tr.do("bitblast", func() {
		s := sat.New(sat.Options{})
		bitblast.New(s).Assert(t.Beta)
		l.c.BlastClauses += s.NumClauses()
		l.c.BlastVars += s.NumVars()
	})
	return res
}

// generate wraps one input reconstruction in a span.
func (l *layers) generate(gen func([]byte, bv.Assignment) ([]byte, error), seed []byte, m bv.Assignment) ([]byte, error) {
	var input []byte
	var err error
	l.tr.do("inputgen.generate", func() { input, err = gen(seed, m) })
	l.c.GenCalls++
	if err != nil {
		l.c.GenFailures++
	}
	return input, err
}

// solverOptions mirrors the solver configuration core.NewHunter derives
// from engine options.
func solverOptions(o core.Options) solver.Options {
	s := solver.Options{Seed: o.Seed, Mode: o.SolverMode, OneShot: o.OneShotSolver, Portfolio: o.Portfolio}
	if o.OneShotSampling {
		s.Sampling = solver.SamplingBlocking
	}
	return s
}

// replayed is what a hunt replay ended on: the fields a replay must
// reproduce for its layer calls to stand for the hunt's.
type replayed struct {
	Verdict  core.Verdict
	Runs     int
	Enforced int
}

// replayHunt repeats the Figure 7 loop of core.Hunter.HuntContext call for
// call — same solver seed, so the same models — and returns its verdict,
// guest-run count and enforced-label count.
func (l *layers) replayHunt(app *apps.App, t *core.Target, opts core.Options) (r replayed) {
	attempts, maxEnforce := opts.InitialAttempts, opts.MaxEnforce
	if attempts == 0 {
		attempts = coreInitialAttempts
	}
	if maxEnforce == 0 {
		maxEnforce = coreMaxEnforce
	}
	m := interp.NewMachine(app.Compiled())
	gen := app.Format.Generator()
	seed := app.Format.Seed
	plain := func(in []byte) bool {
		r.Runs++
		return triggered(t, l.run(m, in, interp.Options{Fuel: coreFuel}, "interp.plain"))
	}
	end := func(v core.Verdict) replayed {
		r.Verdict = v
		return r
	}
	if !opts.NoTriage {
		switch {
		case t.Info.Triage == discover.TriageMustOverflow:
			if plain(append([]byte(nil), seed...)) {
				return end(core.VerdictExposed)
			}
		case t.Info.Triage == discover.TriageSafe && t.Info.Kind == discover.KindArith:
			return end(core.VerdictUnsat)
		}
	}
	sol := solver.New(solverOptions(opts))
	var sess *solver.Session
	var initial []bv.Assignment
	l.tr.do("solver.sample", func() {
		sess = sol.NewSession(t.Beta)
		initial = sess.SampleModels(attempts)
	})
	l.c.Models += len(initial)
	if len(initial) == 0 {
		return end(core.VerdictUnsat)
	}
	var current []byte
	for _, model := range initial {
		input, err := l.generate(gen.Generate, seed, model)
		if err != nil {
			continue
		}
		if plain(input) {
			return end(core.VerdictExposed)
		}
		current = input
	}
	if current == nil {
		return end(core.VerdictUnknown)
	}
	enforced := map[string]bool{}
	sym := symbolicOpts(t)
	for iter := 0; iter < maxEnforce; iter++ {
		r.Runs++
		out := l.run(m, current, sym, "interp.traced")
		label, flipped, followed := firstFlipped(t, out, enforced)
		followed = followed && reachedSite(t, out)
		var pending *bv.Bool
		switch {
		case flipped:
			entry, ok := t.PathEntry(label)
			if !ok {
				return end(core.VerdictPrevented)
			}
			pending = entry.Cond
			enforced[label] = true
			r.Enforced++
		case followed:
			return end(core.VerdictPrevented)
		}
		var model bv.Assignment
		var v solver.Verdict
		l.tr.do("solver.solve", func() {
			if pending != nil {
				sess.Assert(pending)
			}
			model, v = sess.Solve()
		})
		l.c.Solves++
		switch v {
		case solver.Unsat:
			return end(core.VerdictPrevented)
		case solver.Unknown:
			return end(core.VerdictUnknown)
		}
		input, err := l.generate(gen.Generate, seed, model)
		if err != nil {
			return end(core.VerdictUnknown)
		}
		if plain(input) {
			return end(core.VerdictExposed)
		}
		current = input
	}
	return end(core.VerdictUnknown)
}

// triggered reports whether the run wrapped the size computation at the
// target's site.
func triggered(t *core.Target, out *interp.Outcome) bool {
	for _, ev := range out.Allocs {
		if ev.Site == t.Site && ev.Wrapped {
			return true
		}
	}
	return false
}

// reachedSite reports whether the run executed the target's site.
func reachedSite(t *core.Target, out *interp.Outcome) bool {
	for _, ev := range out.Allocs {
		if ev.Site == t.Site {
			return true
		}
	}
	return false
}

// dirs is the set of directions a run took at one static branch.
type dirs struct{ t, f bool }

func branchDirs(recs []interp.BranchRecord) ([]string, map[string]dirs) {
	var order []string
	out := map[string]dirs{}
	for _, br := range recs {
		d, ok := out[br.Label]
		if !ok {
			order = append(order, br.Label)
		}
		if br.Taken {
			d.t = true
		} else {
			d.f = true
		}
		out[br.Label] = d
	}
	return order, out
}

// firstFlipped is the hunt's trace comparison: the first relevant branch,
// in seed order, whose direction set differs in the generated run, or
// followed when the run matches the seed at every relevant branch.
func firstFlipped(t *core.Target, out *interp.Outcome, enforced map[string]bool) (label string, flipped, followed bool) {
	order, seedDirs := branchDirs(t.RawSeedBranches)
	_, genDirs := branchDirs(out.Branches)
	followed = true
	for _, label := range order {
		gd, executed := genDirs[label]
		if gd != seedDirs[label] {
			followed = false
		}
		if enforced[label] {
			continue
		}
		if executed && gd != seedDirs[label] {
			return label, true, false
		}
	}
	return "", false, followed
}
