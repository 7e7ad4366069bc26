package main

import (
	"fmt"
	"os"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// aggregate folds the sweeps of one run into the end-to-end metrics: each
// timing is center over the run's sweeps (set-up is the median of every
// set-up sample), shares are pooled over all attempted sites or jobs.
func aggregate(reps []repSample, setups []float64, center func([]float64) float64) result {
	var sweeps, p50s, tails, exposed []float64
	var sites, decided, timeouts int
	res := result{Correct: true}
	var t tail
	for _, s := range reps {
		sweeps = append(sweeps, s.SweepS)
		p50s = append(p50s, median(s.JobMS))
		t = tailOf(s.JobMS)
		tails = append(tails, t.Value)
		exposed = append(exposed, float64(s.Exposed))
		sites += s.Sites
		decided += s.Decided
		res.Attempted += s.Jobs
		res.Failed += s.Failed
		timeouts += s.Timeouts
		for _, g := range s.Gates {
			fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", g)
			res.Correct = false
		}
		for _, n := range s.Notes {
			fmt.Fprintln(os.Stderr, "perfbench:", n)
		}
	}
	fmt.Printf("job_tail_ms is p%g of %d jobs per sweep (%d beyond it), averaged over %d sweeps; outcomes of the last sweep: %v\n",
		t.P, t.N, t.Beyond, len(reps), reps[len(reps)-1].Outcomes)
	completed := 1.0
	if res.Attempted > 0 {
		completed -= float64(res.Failed+timeouts) / float64(res.Attempted)
	}
	res.Metrics = map[string]metric{
		"sweep_s":         {center(sweeps), "s"},
		"setup_s":         {median(setups), "s"},
		"job_p50_ms":      {center(p50s), "ms"},
		"job_tail_ms":     {center(tails), "ms"},
		"decided_share":   {float64(decided) / float64(max(sites, 1)), "share"},
		"exposed":         {median(exposed), "count"},
		"completed_share": {completed, "share"},
	}
	return res
}
