package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/discover"
	"diode/internal/dispatch"
	"diode/internal/harness"
)

// sampleN is the success-rate budget of the tables sweep (the paper's 200).
const sampleN = 200

// repSample is what one fresh child process reports about one sweep.
type repSample struct {
	SetupS     float64         `json:"setupS"`
	SweepS     float64         `json:"sweepS"`
	JobMS      []float64       `json:"jobMS"`
	Outcomes   map[outcome]int `json:"outcomes"`
	Jobs       int             `json:"jobs"`
	Failed     int             `json:"failed"`
	Timeouts   int             `json:"timeouts"`
	Sites      int             `json:"sites"`
	Decided    int             `json:"decided"`
	Exposed    int             `json:"exposed"`
	PeakRSSMB  float64         `json:"peakRSSMB"`
	RetainedMB float64         `json:"retainedMB"`
	Gates      []string        `json:"gates,omitempty"`
	Notes      []string        `json:"notes,omitempty"`

	// Dispatch and Go runtime layer numbers, reported by traced runs.
	WaveMS         []float64 `json:"waveMS"`
	QueueWaitMS    float64   `json:"queueWaitMS"`
	BusyShare      float64   `json:"busyShare"`
	ExecOverheadMS float64   `json:"execOverheadMS"`
	AllocMB        float64   `json:"allocMB"`
	GCCPUShare     float64   `json:"gcCPUShare"`
}

// meter brackets a workload in its process: live heap, allocation and GC
// CPU at the start, so the sample can report what the workload retained
// and spent.
type meter struct {
	t0     time.Time
	heap0  uint64
	sample []metrics.Sample
	base   []metrics.Sample
}

func newMeter() *meter {
	m := &meter{sample: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	m.heap0 = liveHeap()
	metrics.Read(m.sample)
	m.base = append([]metrics.Sample(nil), m.sample...)
	m.t0 = time.Now()
	return m
}

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// finish fills the sample's memory and runtime fields. Call it after the
// sweep has returned, while its results are still referenced.
func (m *meter) finish(s *repSample, who int) {
	metrics.Read(m.sample)
	s.AllocMB = float64(m.sample[0].Value.Uint64()-m.base[0].Value.Uint64()) / (1 << 20)
	if cpu := m.sample[2].Value.Float64() - m.base[2].Value.Float64(); cpu > 0 {
		s.GCCPUShare = (m.sample[1].Value.Float64() - m.base[1].Value.Float64()) / cpu
	}
	s.RetainedMB = (float64(liveHeap()) - float64(m.heap0)) / (1 << 20)
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err == nil {
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// fold turns the per-job records into the sample's counts and timings.
// wrong marks jobs (by jobKey) a correctness gate rejected.
func (s *repSample) fold(p *dispatchLog, wrong map[string]bool) {
	s.Outcomes = map[outcome]int{}
	var busy, wait time.Duration
	var overhead time.Duration
	var hunts int
	for _, r := range p.records {
		o := classify(r.Res, r.TimedOut, wrong[jobKey(r.Job)])
		s.Outcomes[o]++
		s.Jobs++
		if o.failed() {
			s.Failed++
		}
		if o == outTimeout {
			s.Timeouts++
		}
		if !r.TimedOut { // a killed job's time is the wall limit, not the program's
			s.JobMS = append(s.JobMS, ms(r.took()))
		}
		busy += r.Wall
		wait += r.Wait
		if r.Job.Kind == dispatch.KindHunt && r.Res != nil && r.Res.Err == "" && !r.Res.Cached {
			overhead += r.Wall - time.Duration(r.Res.DiscoveryMS)*time.Millisecond
			hunts++
		}
	}
	var waveSum time.Duration
	for _, w := range p.waves {
		s.WaveMS = append(s.WaveMS, ms(w))
		waveSum += w
	}
	if s.Jobs > 0 {
		s.QueueWaitMS = ms(wait) / float64(s.Jobs)
	}
	if waveSum > 0 {
		s.BusyShare = float64(busy) / (float64(p.slots) * float64(waveSum))
	}
	if hunts > 0 {
		s.ExecOverheadMS = ms(overhead) / float64(hunts)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stamps sets the set-up and sweep times from the workload start, the first
// dispatch and the end of the sweep.
func (s *repSample) stamps(m *meter, first, end time.Time) {
	if first.IsZero() {
		first = end
	}
	s.SetupS = first.Sub(m.t0).Seconds()
	s.SweepS = end.Sub(first).Seconds()
}

// tablesConfig is the evaluation diode-tables -table all runs: every
// application, the same-path experiment and both success-rate waves.
func tablesConfig(seed int64, jc *dispatch.JobCache, b dispatch.Backend) harness.Config {
	return harness.Config{Seed: seed, SampleN: sampleN, SamePath: true, Cache: jc, Backend: b}
}

// runTables runs one tables (cache dir empty) or warm (cache dir filled by a
// cold sweep of the same seed) sweep in this process. save, when set,
// receives the results for a later warm parity check; cold, when set, holds
// the cold results the warm ones must equal.
func runTables(seed int64, dir, save, cold string, setupOnly bool) (repSample, error) {
	m := newMeter()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jc := dispatch.NewJobCache(dispatch.CacheConfig{Dir: dir})
	p := newPool(runtime.NumCPU(), jc)
	if setupOnly {
		p.stop = cancel
	}
	outcomes := harness.EvaluateContext(ctx, tablesConfig(seed, jc, p), apps.All())
	end := time.Now()
	var s repSample
	s.stamps(m, p.firstDispatch(), end)
	if setupOnly {
		return s, nil
	}
	m.finish(&s, syscall.RUSAGE_SELF)
	wrong, msgs, _, _ := tablesGates(outcomes)
	s.Gates = msgs
	if cold != "" {
		s.Gates = append(s.Gates, warmGates(&p.dispatchLog, jc, cold, wrong)...)
	}
	s.fold(&p.dispatchLog, wrong)
	for _, o := range outcomes {
		if o.Result == nil {
			continue
		}
		for _, sr := range o.Result.Sites {
			s.Sites++
			if sr.Verdict != core.VerdictUnknown {
				s.Decided++
			}
			if sr.Verdict == core.VerdictExposed {
				s.Exposed++
			}
		}
	}
	if save != "" {
		if err := saveResults(save, &p.dispatchLog); err != nil {
			return s, err
		}
	}
	runtime.KeepAlive(outcomes)
	return s, nil
}

// normalized returns the job results keyed by jobKey with the Cached flag
// cleared, as JSON.
func normalized(p *dispatchLog) map[string]string {
	out := map[string]string{}
	for _, r := range p.records {
		if r.Res == nil {
			continue
		}
		res := *r.Res
		res.Cached = false
		b, _ := json.Marshal(res)
		out[jobKey(r.Job)] = string(b)
	}
	return out
}

func saveResults(path string, p *dispatchLog) error {
	b, err := json.Marshal(normalized(p))
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// warmGates checks a warm replay: every result is byte-identical to the
// cold result of the same job (ignoring Cached), and the cache served every
// job without a miss or a corrupt entry.
func warmGates(p *dispatchLog, jc *dispatch.JobCache, coldPath string, wrong map[string]bool) []string {
	var msgs []string
	b, err := os.ReadFile(coldPath)
	if err != nil {
		return []string{fmt.Sprintf("reading cold results: %v", err)}
	}
	var cold map[string]string
	if err := json.Unmarshal(b, &cold); err != nil {
		return []string{fmt.Sprintf("decoding cold results: %v", err)}
	}
	warm := normalized(p)
	if len(warm) != len(cold) {
		msgs = append(msgs, fmt.Sprintf("warm sweep ran %d jobs, cold sweep %d", len(warm), len(cold)))
	}
	keys := make([]string, 0, len(warm))
	for k := range warm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if warm[k] != cold[k] {
			msgs = append(msgs, fmt.Sprintf("%s: warm result differs from cold", k))
			wrong[k] = true
		}
	}
	for _, r := range p.records {
		if r.Res != nil && !r.Res.Cached {
			wrong[jobKey(r.Job)] = true
		}
	}
	st := jc.Stats()
	if st.Misses != 0 || st.CorruptEntries != 0 || st.Hits != int64(len(p.records)) {
		msgs = append(msgs, fmt.Sprintf("warm cache: hits=%d misses=%d corrupt=%d for %d jobs",
			st.Hits, st.Misses, st.CorruptEntries, len(p.records)))
	}
	return msgs
}

// arithSite is one discovered arith site of one application.
type arithSite struct {
	app  *apps.App
	site discover.Site
}

// arithPopulation lists every discovered arith site of the applications in
// registry and discovery order, triaged.
func arithPopulation(list []*apps.App) ([]arithSite, error) {
	var pop []arithSite
	for _, app := range list {
		sites, err := app.Triaged()
		if err != nil {
			return nil, err
		}
		for _, s := range sites {
			if s.Kind == discover.KindArith {
				pop = append(pop, arithSite{app: app, site: s})
			}
		}
	}
	return pop, nil
}

// arithJob is the probe hunt the harness plans for an arith site.
func arithJob(id int, seed int64, a arithSite) dispatch.Job {
	return dispatch.Job{
		ID: id, Kind: dispatch.KindHunt, App: a.app.Short,
		Site: a.site.Name, SiteKind: string(a.site.Kind), SitePath: a.site.Path,
		Seed: core.SiteSeed(core.SiteSeed(seed, a.app.Short), a.site.Name),
	}
}

// planArith draws the arith workload's sites and plans their jobs: sites
// triage proves safe fold to unsatisfiable without a job, as in the
// harness; every other drawn site becomes a probe hunt. The draw covers the
// whole population, so the few expensive sites enter every run at their
// natural rate rather than at a seed-dependent one; the seed orders the
// sites and derives the hunts' seeds.
func planArith(seed int64) (drawn []arithSite, jobs []dispatch.Job, pruned int, err error) {
	pop, err := arithPopulation(apps.All())
	if err != nil {
		return nil, nil, 0, err
	}
	for _, i := range drawOrder(seed, len(pop)) {
		a := pop[i]
		drawn = append(drawn, a)
		if a.site.Triage == discover.TriageSafe {
			pruned++
			continue
		}
		jobs = append(jobs, arithJob(len(jobs), seed, a))
	}
	return drawn, jobs, pruned, nil
}

// runArith runs one arith sweep: each probe hunt in its own diode-worker
// process, at most one per CPU at a time, killed at the wall limit.
func runArith(seed int64, worker string, limit time.Duration, setupOnly bool) (repSample, error) {
	m := newMeter()
	drawn, jobs, pruned, err := planArith(seed)
	if err != nil {
		return repSample{}, err
	}
	p := &perJob{
		dispatchLog: dispatchLog{slots: runtime.NumCPU()},
		inner:       &dispatch.Exec{Binary: worker, Workers: 1},
		limit:       limit,
	}
	var s repSample
	if setupOnly {
		s.stamps(m, time.Now(), time.Now())
		return s, nil
	}
	if _, err := dispatch.Collect(context.Background(), p, jobs); err != nil {
		return s, err
	}
	end := time.Now()
	s.stamps(m, p.firstDispatch(), end)
	m.finish(&s, syscall.RUSAGE_CHILDREN)

	wrong := map[string]bool{}
	bySite := map[string]arithSite{}
	for _, a := range drawn {
		bySite[a.site.Name] = a
	}
	for _, r := range p.records {
		if r.Res == nil || r.Res.Verdict != "exposed" {
			continue
		}
		a := bySite[r.Job.Site]
		probe, err := a.app.Probe(a.site.Name)
		if err != nil || !wrapsOnTree(probe.Program, a.site.Name, r.Res.Input) {
			s.Gates = append(s.Gates, fmt.Sprintf("%s: exposed probe input does not wrap on the reference interpreter", a.site.Name))
			wrong[jobKey(r.Job)] = true
		}
	}
	s.fold(&p.dispatchLog, wrong)
	s.Sites = len(drawn)
	s.Decided = pruned
	for o, n := range s.Outcomes {
		if o.decided() {
			s.Decided += n
		}
	}
	s.Exposed = s.Outcomes[outExposed]
	for _, r := range p.records {
		if r.TimedOut {
			s.Notes = append(s.Notes, "timeout "+r.Job.Site)
		}
	}
	if total, ok := memTotalMB(); ok && s.PeakRSSMB*float64(p.slots) > total {
		s.Notes = append(s.Notes, fmt.Sprintf("warning: %d workers of the largest worker's %.0f MB exceed the machine's %.0f MB; lower the wall limit",
			p.slots, s.PeakRSSMB, total))
	}
	return s, nil
}

// memTotalMB reads the machine's memory size from /proc/meminfo.
func memTotalMB() (float64, bool) {
	b, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "MemTotal: %g kB", &kb); err == nil {
			return kb / 1024, true
		}
	}
	return 0, false
}
