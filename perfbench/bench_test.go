package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/dispatch"
)

// TestArithDraw pins the arith draw: a seeded permutation of the whole
// population, so the same seed plans the same jobs, another seed only
// reorders them, and every site — cheap or hard — is in every run.
func TestArithDraw(t *testing.T) {
	if !reflect.DeepEqual(drawOrder(7, 50), drawOrder(7, 50)) {
		t.Fatal("the same seed drew two orders")
	}
	if reflect.DeepEqual(drawOrder(7, 50), drawOrder(8, 50)) {
		t.Fatal("seeds 7 and 8 drew the same order")
	}
	pop, err := arithPopulation(apps.All())
	if err != nil {
		t.Fatal(err)
	}
	drawn1, jobs1, pruned1, err := planArith(1)
	if err != nil {
		t.Fatal(err)
	}
	drawn2, jobs2, pruned2, err := planArith(2)
	if err != nil {
		t.Fatal(err)
	}
	_, again, _, _ := planArith(1)
	if !reflect.DeepEqual(jobs1, again) {
		t.Fatal("seed 1 planned two different job lists")
	}
	names := func(d []arithSite) []string {
		var out []string
		for _, a := range d {
			out = append(out, a.site.Name)
		}
		return out
	}
	if reflect.DeepEqual(names(drawn1), names(drawn2)) {
		t.Error("seeds 1 and 2 drew the sites in the same order")
	}
	want := names(pop)
	sort.Strings(want)
	for seed, d := range map[int64][]arithSite{1: drawn1, 2: drawn2} {
		got := names(d)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d drew %d sites, want the whole population of %d", seed, len(got), len(want))
		}
	}
	if len(jobs1) != len(jobs2) || pruned1 != pruned2 || len(jobs1)+pruned1 != len(pop) {
		t.Errorf("jobs/pruned %d/%d and %d/%d, want the same split of %d sites", len(jobs1), pruned1, len(jobs2), pruned2, len(pop))
	}
}

func TestTailRule(t *testing.T) {
	vals := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the sort matters
		}
		return xs
	}
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{124, 90, 12},  // p99 would leave 1 beyond
		{100, 90, 10},  // exactly 10 beyond p90
		{99, 50, 49},   // p90 would leave 9
		{1000, 99, 10}, // exactly 10 beyond p99
		{12, 50, 6},    // too few for any rung: the median, with its support
		{20000, 99.9, 20},
	}
	for _, c := range cases {
		got := tailOf(vals(c.n))
		if got.P != c.p || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got p%g with %d beyond of %d, want p%g with %d beyond", c.n, got.P, got.Beyond, got.N, c.p, c.beyond)
		}
		if want := float64(c.n - c.beyond); got.Value != want {
			t.Errorf("n=%d: value %g, want %g", c.n, got.Value, want)
		}
		if got.P != tailLadder[0] && got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, got.P, got.Beyond)
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 2, 3, 4}, 2.5},                 // under five values: plain mean
		{[]float64{100, 1, 2, 3, 4}, 3},              // drops one from each end
		{[]float64{9, 1, 5, 5, 5, 5, 5, 5, 5, 0}, 5}, // drops two from each end
	}
	for _, c := range cases {
		if got := trimmedMean(c.xs); got != c.want {
			t.Errorf("trimmedMean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if got := mean([]float64{9, 1, 5, 5, 5, 5, 5, 5, 5, 0}); got != 4.5 {
		t.Errorf("mean keeps every value: got %g, want 4.5", got)
	}
}

func TestClassify(t *testing.T) {
	hunt := func(verdict string) *dispatch.Result {
		return &dispatch.Result{Kind: dispatch.KindHunt, Verdict: verdict}
	}
	cases := []struct {
		name     string
		res      *dispatch.Result
		timedOut bool
		wrong    bool
		want     outcome
		failed   bool
	}{
		{"timeout", nil, true, false, outTimeout, false},
		{"timeout wins over an error result", &dispatch.Result{Err: "killed"}, true, false, outTimeout, false},
		{"lost worker", nil, false, false, outLost, true},
		{"unreachable probe", &dispatch.Result{Err: `dispatch: application "dillo" has no target site "dillo:f#s1.e@add"`}, false, false, outUnreachable, false},
		{"job error", &dispatch.Result{Err: "dispatch: worker exited: signal: killed"}, false, false, outFailed, true},
		{"wrong verdict", hunt("exposed"), false, true, outWrong, true},
		{"solver unknown", hunt("unknown"), false, false, outUnknown, false},
		{"exposed", hunt("exposed"), false, false, outExposed, false},
		{"unsat", hunt("unsatisfiable"), false, false, outUnsat, false},
		{"prevented", hunt("sanity-prevented"), false, false, outPrevented, false},
		{"experiment", &dispatch.Result{Kind: dispatch.KindSuccessRate, Hits: 3, Total: 200}, false, false, outDone, false},
	}
	for _, c := range cases {
		got := classify(c.res, c.timedOut, c.wrong)
		if got != c.want || got.failed() != c.failed {
			t.Errorf("%s: got %s (failed=%v), want %s (failed=%v)", c.name, got, got.failed(), c.want, c.failed)
		}
	}
	if !outExposed.decided() || !outUnsat.decided() || !outPrevented.decided() || outUnknown.decided() || outUnreachable.decided() {
		t.Error("only exposed, unsatisfiable and sanity-prevented are decided")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "job", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 20 * ms, End: 50 * ms, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0}, // clipped to the parent
		{Name: "a1", Start: 12 * ms, End: 18 * ms, Parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{100*ms - 40*ms - 10*ms, 20*ms - 6*ms, 30 * ms, 30 * ms, 6 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	for i, s := range spans {
		var kids []int
		for j, k := range spans {
			if k.Parent == i {
				kids = append(kids, j)
			}
		}
		if self[i] != s.dur()-coverage(s, spans, kids) {
			t.Errorf("span %s: self time is not duration minus child coverage", s.Name)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.job = 3
	outer := tr.begin("outer")
	tr.do("inner", func() { _ = make([]byte, 1<<20) })
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 {
		t.Fatalf("spans %+v: want inner nested in outer", tr.spans)
	}
	if tr.spans[1].Job != 3 || tr.spans[1].AllocB < 1<<20 {
		t.Fatalf("inner span %+v: want job 3 and at least 1 MiB allocated", tr.spans[1])
	}
	if self := selfTimes(tr.spans); self[0] > tr.spans[0].dur() || self[0] < 0 {
		t.Fatalf("outer self time %v out of range", self[0])
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the metric names and units the
// benchmark prints to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		var names []string
		for _, w := range want {
			names = append(names, w.Name)
			m, ok := got[w.Name]
			if !ok {
				t.Errorf("%s metric %s declared but not printed", kind, w.Name)
			} else if m.Unit != w.Unit {
				t.Errorf("%s metric %s printed in %s, declared %s", kind, w.Name, m.Unit, w.Unit)
			}
		}
		sort.Strings(names)
		for name := range got {
			if i := sort.SearchStrings(names, name); i == len(names) || names[i] != name {
				t.Errorf("%s metric %s printed but not declared", kind, name)
			}
		}
	}
	e2e := aggregate([]repSample{{JobMS: []float64{1}, Jobs: 1, Sites: 1}}, []float64{1}, mean)
	check("end-to-end", e2e.Metrics, decl.EndToEnd)
	check("per-layer", tracedMetrics(layerMetrics(nil, counters{}), repSample{SweepS: 1}, traceOut{SweepS: 1}), decl.PerLayer)
}

// TestJobTime pins what a job's time to a result is — its started→finished
// interval when it executed, else its whole dispatch — and that a job
// killed at the wall limit is a timeout, not a failure, and stays out of
// the job-time distribution, whose tail would otherwise read the limit; it
// still counts against the completed share.
func TestJobTime(t *testing.T) {
	if got := (jobRecord{Wall: time.Second, Exec: time.Millisecond}).took(); got != time.Millisecond {
		t.Errorf("executed job took %v, want its execution 1ms", got)
	}
	if got := (jobRecord{Wall: time.Second}).took(); got != time.Second {
		t.Errorf("job timed by its dispatch took %v, want its wall 1s", got)
	}
	ok := &dispatch.Result{Kind: dispatch.KindHunt, Verdict: "exposed"}
	log := &dispatchLog{slots: 2, waves: []time.Duration{time.Second}, records: []jobRecord{
		{Res: ok, Wall: 30 * time.Millisecond},
		{Res: &dispatch.Result{Err: "killed"}, Wall: 2 * time.Second, TimedOut: true},
	}}
	var s repSample
	s.fold(log, map[string]bool{})
	if s.Jobs != 2 || s.Failed != 0 || s.Timeouts != 1 || !reflect.DeepEqual(s.JobMS, []float64{30}) {
		t.Errorf("jobs=%d failed=%d timeouts=%d times=%v, want 2 jobs, 0 failed, 1 timeout, times [30]", s.Jobs, s.Failed, s.Timeouts, s.JobMS)
	}
	s.Sites = 2
	res := aggregate([]repSample{s}, []float64{1}, mean)
	if res.Failed != 0 || res.Metrics["completed_share"].Value != 0.5 {
		t.Errorf("failed=%d completed_share=%v, want 0 failed and 0.5 completed", res.Failed, res.Metrics["completed_share"].Value)
	}
}

func TestPickups(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	done := []time.Time{at(5), at(7), at(9), at(12), at(20)}
	got := pickups(t0, 2, 5, done)
	want := []time.Time{t0, t0, at(5), at(7), at(9)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pickups %v, want %v", got, want)
	}
}

// TestPoolObservesLocal runs a real wave on the pool wrapper: the jobs run
// on dispatch.Local's own workers, and the records carry the Sink's
// execution times.
func TestPoolObservesLocal(t *testing.T) {
	jc := dispatch.NewJobCache(dispatch.CacheConfig{NoResults: true})
	p := newPool(2, jc)
	var jobs []dispatch.Job
	for i, site := range []string{"tifthumb:tif.c@139", "tifthumb:tif.c@167", "tifthumb:tif.c@188"} {
		jobs = append(jobs, dispatch.Job{ID: i, Kind: dispatch.KindHunt, App: "tifthumb", Site: site, Seed: 1})
	}
	res, err := dispatch.Collect(context.Background(), p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || len(p.records) != 3 || len(p.waves) != 1 || p.firstDispatch().IsZero() {
		t.Fatalf("%d results, %d records, %d waves: want 3, 3, 1 and a first dispatch", len(res), len(p.records), len(p.waves))
	}
	for _, r := range p.records {
		if r.Res.Err != "" || r.Exec <= 0 || r.Exec > r.Wall || r.Wait < 0 || r.Wait > p.waves[0] {
			t.Errorf("%s: err %q exec %v wall %v wait %v in a %v wave", r.Job.Site, r.Res.Err, r.Exec, r.Wall, r.Wait, p.waves[0])
		}
	}
}

// TestReplayMatchesHunt replays a curated hunt that needs branch
// enforcement and checks that the replay ends where core's hunt does: same
// verdict, guest runs and enforced labels. The replay copies core's
// default budgets; a change to them, or to the loop, fails here.
func TestReplayMatchesHunt(t *testing.T) {
	ctx := context.Background()
	l := &layers{tr: newTracer(), jc: dispatch.NewJobCache(dispatch.CacheConfig{NoResults: true})}
	app, err := l.jc.App("gifview")
	if err != nil {
		t.Fatal(err)
	}
	targets, err := l.jc.Targets(ctx, app, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		if tg.Site != "gifview:gif.c@155" {
			continue
		}
		opts := dispatch.Options{}.Core(core.SiteSeed(core.SiteSeed(1, app.Short), tg.Site))
		sr := core.NewHunter(app, opts).HuntContext(ctx, tg)
		got := l.replayHunt(app, tg, opts)
		want := replayed{sr.Verdict, sr.Runs, len(sr.Enforced)}
		if got != want {
			t.Fatalf("replay ended on %+v, the hunt on %+v", got, want)
		}
		if want.Enforced == 0 {
			t.Fatalf("hunt %+v enforced no branch; pick a site that exercises the loop", want)
		}
		return
	}
	t.Fatal("gifview:gif.c@155 not among the analyzed targets")
}
