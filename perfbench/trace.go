package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"diode/internal/apps"
	"diode/internal/cache"
	"diode/internal/dispatch"
	"diode/internal/harness"
)

// traceOut is what a traced sweep reports to the orchestrator.
type traceOut struct {
	Layers map[string]metric `json:"layers"`
	SweepS float64           `json:"sweepS"`
	Jobs   int               `json:"jobs"`
	Failed int               `json:"failed"`
	Gates  []string          `json:"gates,omitempty"`
}

// jobTrace is what a traced arith job child reports.
type jobTrace struct {
	Result   dispatch.Result `json:"result"`
	Spans    []span          `json:"spans"`
	Counters counters        `json:"counters"`
	Gates    []string        `json:"gates,omitempty"`
}

// traced runs the workload's per-layer measurement: one untraced sweep for
// the dispatch and Go runtime numbers and the untraced sweep time, then a
// traced sweep of the same seed whose spans give the layer numbers.
func (o *orchestrator) traced() (result, error) {
	var coldDir, coldFile string
	if o.workload == "warm" {
		var err error
		if coldDir, coldFile, err = o.fillCache(); err != nil {
			return result{}, err
		}
	}
	s, err := o.sweep(0, false, coldDir, coldFile)
	if err != nil {
		return result{}, err
	}
	dir := coldDir
	if o.workload == "tables" {
		if dir, err = o.freshDir(); err != nil {
			return result{}, err
		}
	}
	traceDir := filepath.Join(filepath.Dir(o.runDir), "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	traceFile := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	var t traceOut
	args := []string{"-child", "trace-" + o.workload, "-dir", dir, "-save", traceFile}
	if o.workload != "warm" { // the seed the untraced sweep ran
		args = append(args, "-seed", strconv.FormatInt(subSeed(o.seed, 0), 10))
	}
	if err := o.spawn(&t, args...); err != nil {
		return result{}, err
	}
	m := tracedMetrics(t.Layers, s, t)
	res := result{Correct: true, Attempted: s.Jobs + t.Jobs, Failed: s.Failed + t.Failed, Metrics: m}
	for _, g := range append(s.Gates, t.Gates...) {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", g)
		res.Correct = false
	}
	fmt.Printf("spans written to %s\n", traceFile)
	return res, nil
}

// tracedMetrics completes the traced sweep's layer metrics with the ones
// the untraced sweep s measured: dispatch, memory and Go runtime numbers,
// and the tracing overhead.
func tracedMetrics(m map[string]metric, s repSample, t traceOut) map[string]metric {
	for i := 0; i < 3; i++ {
		var w float64
		if i < len(s.WaveMS) {
			w = s.WaveMS[i]
		}
		m["dispatch.wave"+strconv.Itoa(i+1)+"_ms"] = metric{w, "ms"}
	}
	m["dispatch.queue_wait_ms"] = metric{s.QueueWaitMS, "ms"}
	m["dispatch.busy_share"] = metric{s.BusyShare, "share"}
	m["dispatch.exec_overhead_ms"] = metric{s.ExecOverheadMS, "ms"}
	m["runtime.alloc_mb"] = metric{s.AllocMB, "MB"}
	m["runtime.gc_cpu_share"] = metric{s.GCCPUShare, "share"}
	m["runtime.peak_rss_mb"] = metric{s.PeakRSSMB, "MB"}
	m["runtime.retained_heap_mb"] = metric{s.RetainedMB, "MB"}
	m["trace.overhead_share"] = metric{t.SweepS/s.SweepS - 1, "share"}
	return m
}

// traceSweep runs one traced sweep in this process and writes its spans to
// traceFile. dir is the result cache directory (empty for tables, filled
// for warm, unused for arith).
func traceSweep(workload string, seed int64, dir, traceFile string) (traceOut, error) {
	ctx := context.Background()
	l := &layers{tr: newTracer(), jc: dispatch.NewJobCache(dispatch.CacheConfig{NoResults: true})}
	if workload != "arith" {
		l.store = cache.NewStore(dir)
	}
	list := apps.All()
	for _, app := range list {
		if err := l.setup(ctx, app, workload != "arith"); err != nil {
			return traceOut{}, err
		}
	}
	var out traceOut
	var spans []span
	var err error
	if workload == "arith" {
		spans, err = traceArith(l, seed, &out)
		if err != nil {
			return out, err
		}
	} else {
		cfg := tablesConfig(seed, l.jc, l)
		outcomes := harness.EvaluateContext(ctx, cfg, list)
		out.SweepS = time.Since(l.first).Seconds()
		_, out.Gates, _, _ = tablesGates(outcomes)
		out.Jobs = l.jobs
		out.Gates = append(out.Gates, l.mismatched...)
		out.Failed += len(l.mismatched)
		if workload == "warm" && (l.c.Misses != 0 || l.c.Corrupt != 0) {
			out.Gates = append(out.Gates, fmt.Sprintf("warm trace: misses=%d corrupt=%d", l.c.Misses, l.c.Corrupt))
		}
		spans = l.tr.spans
	}
	out.Layers = layerMetrics(spans, l.c)
	f, err := os.Create(traceFile)
	if err != nil {
		return out, err
	}
	tr := tracer{spans: spans}
	if err := tr.write(f); err != nil {
		f.Close()
		return out, err
	}
	return out, f.Close()
}

// traceArith runs every planned arith job traced in its own child process
// (an in-process CDCL solve cannot be cancelled), one per CPU at a time. A
// child's hunt is held to the workload's wall limit; the child is killed
// when the hunt and its replay together outlast twice that plus 2 s.
func traceArith(l *layers, seed int64, out *traceOut) ([]span, error) {
	drawn, jobs, _, err := planArith(seed)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bySite := map[string]arithSite{}
	for _, a := range drawn {
		bySite[a.site.Name] = a
	}
	spans := l.tr.spans
	var mu sync.Mutex
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	start := time.Now()
	for _, j := range jobs {
		sem <- struct{}{}
		wg.Add(1)
		go func(j dispatch.Job) {
			defer wg.Done()
			defer func() { <-sem }()
			offset := time.Since(l.tr.t0)
			jt, killed := runTraceJob(self, j)
			mu.Lock()
			defer mu.Unlock()
			out.Jobs++
			timedOut := killed || strings.Contains(jt.Result.Err, "exceeded the wall limit")
			out.Gates = append(out.Gates, jt.Gates...)
			wrong := len(jt.Gates) > 0
			if !killed && jt.Result.Verdict == "exposed" {
				a := bySite[j.Site]
				probe, err := a.app.Probe(j.Site)
				if err != nil || !wrapsOnTree(probe.Program, j.Site, jt.Result.Input) {
					out.Gates = append(out.Gates, j.Site+": exposed probe input does not wrap on the reference interpreter")
					wrong = true
				}
			}
			var res *dispatch.Result
			if !killed {
				res = &jt.Result
			}
			if classify(res, timedOut, wrong).failed() {
				out.Failed++
			}
			base := len(spans)
			for _, s := range jt.Spans {
				s.Start += offset
				s.End += offset
				s.Job = j.ID
				if s.Parent >= 0 {
					s.Parent += base
				}
				spans = append(spans, s)
			}
			l.c.add(jt.Counters)
		}(j)
	}
	wg.Wait()
	out.SweepS = time.Since(start).Seconds()
	return spans, nil
}

// runTraceJob runs one traced job child and reports whether it was killed.
func runTraceJob(self string, j dispatch.Job) (jobTrace, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*arithLimit+2*time.Second)
	defer cancel()
	in, _ := json.Marshal(j)
	cmd := exec.CommandContext(ctx, self, "-child", "trace-job")
	cmd.Stdin = bytes.NewReader(in)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	var jt jobTrace
	if err := cmd.Run(); err != nil || decodeLast(stdout.Bytes(), &jt) != nil {
		return jt, true
	}
	return jt, false
}

// traceJobChild runs one arith job traced, the job record on stdin.
func traceJobChild(r io.Reader) (jobTrace, error) {
	var j dispatch.Job
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return jobTrace{}, err
	}
	l := &layers{tr: newTracer(), limit: arithLimit,
		jc: dispatch.NewJobCache(dispatch.CacheConfig{NoResults: true})}
	res := l.execute(context.Background(), j)
	return jobTrace{Result: res, Spans: l.tr.spans, Counters: l.c, Gates: l.mismatched}, nil
}

// layerMetrics folds spans and counters into the per-layer metrics the
// traced run reports (the dispatch and runtime ones come from the untraced
// sweep). A layer that does not run on a workload reads 0.
func layerMetrics(spans []span, c counters) map[string]metric {
	type sum struct {
		d     time.Duration
		n     int
		alloc uint64
	}
	sums := map[string]*sum{}
	for _, s := range spans {
		x := sums[s.Name]
		if x == nil {
			x = &sum{}
			sums[s.Name] = x
		}
		x.d += s.dur()
		x.n++
		x.alloc += s.AllocB
	}
	get := func(name string) sum {
		if x := sums[name]; x != nil {
			return *x
		}
		return sum{}
	}
	msOf := func(name string) float64 { return ms(get(name).d) }
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	usPer := func(name string) float64 {
		x := get(name)
		return per(float64(x.d)/float64(time.Microsecond), x.n)
	}
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	plain, traced := get("interp.plain"), get("interp.traced")
	return map[string]metric{
		"apps.compile_ms":           {msOf("apps.compile"), "ms"},
		"discover.sites_ms":         {msOf("discover.sites"), "ms"},
		"discover.sites":            {float64(c.Sites), "count"},
		"absint.triage_ms":          {msOf("absint.triage"), "ms"},
		"absint.pruned_share":       {per(float64(c.SafeArith), c.ArithSites), "share"},
		"core.analyze_ms":           {msOf("core.analyze"), "ms"},
		"core.analyze_alloc_mb":     {mb(get("core.analyze").alloc), "MB"},
		"core.targets":              {float64(c.Targets), "count"},
		"core.hunt_ms":              {msOf("core.hunt"), "ms"},
		"core.hunt_alloc_mb":        {mb(get("core.hunt").alloc), "MB"},
		"core.hunt_runs":            {float64(c.HuntRuns), "count"},
		"core.hunt_enforced":        {float64(c.HuntEnforced), "count"},
		"core.hunt_unattributed_ms": {ms(time.Duration(c.Unattributed)), "ms"},
		"solver.sample_ms":          {msOf("solver.sample"), "ms"},
		"solver.models":             {float64(c.Models), "count"},
		"solver.solve_ms":           {msOf("solver.solve"), "ms"},
		"solver.solves":             {float64(c.Solves), "count"},
		"solver.sat_solves":         {float64(c.Solver.SATSolves), "count"},
		"solver.concrete_hits":      {float64(c.Solver.ConcreteHits), "count"},
		"solver.unknown":            {float64(c.Solver.UnknownOut), "count"},
		"solver.model_cache_hits":   {float64(c.Solver.ModelCacheHits), "count"},
		"solver.clauses_reused":     {float64(c.Solver.ClausesReused), "count"},
		"solver.duplicate_models":   {float64(c.Solver.DuplicateModels), "count"},
		"bitblast.ms":               {msOf("bitblast"), "ms"},
		"bitblast.clauses":          {float64(c.BlastClauses), "count"},
		"bitblast.vars":             {float64(c.BlastVars), "count"},
		"interp.plain_runs":         {float64(plain.n), "count"},
		"interp.plain_us_per_run":   {usPer("interp.plain"), "us"},
		"interp.traced_runs":        {float64(traced.n), "count"},
		"interp.traced_us_per_run":  {usPer("interp.traced"), "us"},
		"interp.steps":              {float64(c.Steps), "count"},
		"interp.alloc_b_per_run":    {per(float64(plain.alloc+traced.alloc), plain.n+traced.n), "B"},
		"inputgen.generate_us":      {usPer("inputgen.generate"), "us"},
		"inputgen.failure_share":    {per(float64(c.GenFailures), c.GenCalls), "share"},
		"dispatch.jobkey_us":        {usPer("dispatch.jobkey"), "us"},
		"cache.get_us":              {usPer("cache.get"), "us"},
		"cache.put_us":              {usPer("cache.put"), "us"},
		"cache.hits":                {float64(c.Hits), "count"},
		"cache.misses":              {float64(c.Misses), "count"},
		"cache.stores":              {float64(c.Stores), "count"},
		"cache.corrupt":             {float64(c.Corrupt), "count"},
	}
}
