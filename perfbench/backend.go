package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"diode/internal/dispatch"
)

// jobRecord is what the benchmark observes about one dispatched job.
type jobRecord struct {
	Job      dispatch.Job
	Wait     time.Duration // from the wave's dispatch to the job's start
	Wall     time.Duration // from the job's pick-up to its result being final
	Exec     time.Duration // started→finished events; 0 when the job did not execute
	Res      *dispatch.Result
	TimedOut bool
}

// took is the job's time to a result: its execution between the backend's
// started and finished events when it executed (the cache lookup and store
// around it excluded), else its whole dispatch — a cache hit, or an arith
// job, timed by its worker process's wall.
func (r jobRecord) took() time.Duration {
	if r.Exec > 0 {
		return r.Exec
	}
	return r.Wall
}

// dispatchLog is what a backend wrapper records about a sweep: the first
// dispatch (the end of set-up), each wave's length and every job.
type dispatchLog struct {
	slots int // the pool size

	mu      sync.Mutex
	first   time.Time
	waves   []time.Duration
	records []jobRecord
}

// beginWave stamps a wave's dispatch and returns its index.
func (d *dispatchLog) beginWave(t time.Time) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.first.IsZero() {
		d.first = t
	}
	d.waves = append(d.waves, 0)
	return len(d.waves) - 1
}

func (d *dispatchLog) endWave(i int, start time.Time) {
	d.mu.Lock()
	d.waves[i] = time.Since(start)
	d.mu.Unlock()
}

func (d *dispatchLog) add(recs ...jobRecord) {
	d.mu.Lock()
	d.records = append(d.records, recs...)
	d.mu.Unlock()
}

// firstDispatch returns when the first wave was dispatched (zero if none).
func (d *dispatchLog) firstDispatch() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.first
}

// pool forwards each wave whole to the program's own dispatch.Local pool
// and records it from the outside: the wave's dispatch and length, and each
// job's events through the pool's Sink. The pool's scheduling is the
// program's; the wrapper only observes it.
type pool struct {
	dispatchLog
	inner *dispatch.Local // its Sink must be the pool's sink
	// stop, when set, is called at the first dispatch and no job runs: the
	// set-up-only mode that samples set-up time without a sweep.
	stop func()

	evMu   sync.Mutex
	events map[string]jobEvents // by jobKey
}

// jobEvents are the Sink stamps of one job.
type jobEvents struct {
	started, finished, hit time.Time
}

// end is when the job's result was final: finished, or served from the
// cache; zero when neither event arrived.
func (e jobEvents) end() time.Time {
	if !e.hit.IsZero() {
		return e.hit
	}
	return e.finished
}

// newPool returns a pool of slots workers over the job cache.
func newPool(slots int, jc *dispatch.JobCache) *pool {
	p := &pool{dispatchLog: dispatchLog{slots: slots}, events: map[string]jobEvents{}}
	p.inner = &dispatch.Local{Workers: slots, Cache: jc, Sink: p.sink}
	return p
}

func (p *pool) sink(ev dispatch.Event) {
	now := time.Now()
	k := jobKey(ev.Job)
	p.evMu.Lock()
	defer p.evMu.Unlock()
	e := p.events[k]
	switch ev.Type {
	case dispatch.EventStarted:
		e.started = now
	case dispatch.EventFinished:
		e.finished = now
	case dispatch.EventCacheHit:
		e.hit = now
	default:
		return
	}
	p.events[k] = e
}

// Run implements dispatch.Backend.
func (p *pool) Run(ctx context.Context, jobs []dispatch.Job) (<-chan dispatch.Result, error) {
	waveStart := time.Now()
	wave := p.beginWave(waveStart)
	out := make(chan dispatch.Result)
	if p.stop != nil {
		p.stop()
		close(out)
		return out, nil
	}
	ch, err := p.inner.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(out)
		got := map[int]dispatch.Result{}
		for r := range ch {
			got[r.JobID] = r
			select {
			case out <- r:
			case <-ctx.Done():
			}
		}
		p.endWave(wave, waveStart)
		p.evMu.Lock()
		defer p.evMu.Unlock()
		var done []time.Time
		for _, j := range jobs {
			if e := p.events[jobKey(j)]; !e.end().IsZero() {
				done = append(done, e.end())
			}
		}
		sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
		pick := pickups(waveStart, min(p.slots, len(jobs)), len(jobs), done)
		for i, j := range jobs {
			r, ok := got[j.ID]
			if !ok {
				continue
			}
			e := p.events[jobKey(j)]
			rec := jobRecord{Job: j, Res: &r, Wall: e.end().Sub(pick[i]), Wait: pick[i].Sub(waveStart)}
			if !e.started.IsZero() && !e.finished.IsZero() {
				rec.Exec = e.finished.Sub(e.started)
				rec.Wait = e.started.Sub(waveStart)
			}
			p.add(rec)
		}
	}()
	return out, nil
}

// pickups infers when each of a wave's n jobs was picked up by a pool of w
// workers that take jobs in plan order and finish one job before taking
// the next, as dispatch.Local's do: the first w jobs start at the wave's
// dispatch, and job w+k starts when the k-th job to finish (done is sorted)
// frees its worker. A job served from the cache has no started event, so
// this is where its time to a result begins.
func pickups(waveStart time.Time, w, n int, done []time.Time) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		switch k := i - w; {
		case k < 0:
			out[i] = waveStart
		case k < len(done):
			out[i] = done[k]
		default:
			out[i] = waveStart // no result freed a worker for it (cancelled)
		}
	}
	return out
}

// perJob is the arith workload's backend: it hands every job to a
// dispatch.Exec as a batch of one — one diode-worker process per job — with
// at most slots jobs in flight in plan order, and kills a job at the wall
// limit. dispatch.Exec has no per-job limit of its own, and a CDCL solve
// inside a worker cannot be cancelled any other way.
type perJob struct {
	dispatchLog
	inner dispatch.Backend
	limit time.Duration // per-job wall limit
}

// Run implements dispatch.Backend.
func (p *perJob) Run(ctx context.Context, jobs []dispatch.Job) (<-chan dispatch.Result, error) {
	waveStart := time.Now()
	wave := p.beginWave(waveStart)
	out := make(chan dispatch.Result)
	go func() {
		defer close(out)
		sem := make(chan struct{}, p.slots)
		var wg sync.WaitGroup
		for _, j := range jobs {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
			wg.Add(1)
			go func(j dispatch.Job, wait time.Duration) {
				defer wg.Done()
				defer func() { <-sem }()
				rec := p.runOne(ctx, j)
				rec.Wait = wait
				p.add(rec)
				if rec.Res == nil {
					return
				}
				select {
				case out <- *rec.Res:
				case <-ctx.Done():
				}
			}(j, time.Since(waveStart))
		}
		wg.Wait()
		p.endWave(wave, waveStart)
	}()
	return out, nil
}

// runOne runs one job on the inner backend under the wall limit. A job
// killed at the limit comes back with TimedOut set and an error Result, so
// the planner folds it as a failed job rather than losing it.
func (p *perJob) runOne(ctx context.Context, j dispatch.Job) jobRecord {
	jctx, cancel := context.WithTimeout(ctx, p.limit)
	defer cancel()
	rec := jobRecord{Job: j}
	start := time.Now()
	ch, err := p.inner.Run(jctx, []dispatch.Job{j})
	if err == nil {
		for r := range ch {
			rec.Res = &r
		}
	} else {
		rec.Res = &dispatch.Result{JobID: j.ID, Kind: j.Kind, App: j.App, Site: j.Site, Err: err.Error()}
	}
	rec.Wall = time.Since(start)
	if rec.Res == nil && jctx.Err() != nil && ctx.Err() == nil {
		rec.TimedOut = true
		rec.Res = &dispatch.Result{JobID: j.ID, Kind: j.Kind, App: j.App, Site: j.Site, Err: "perfbench: killed at the wall limit"}
	}
	return rec
}
