// Wavhunt runs DIODE against all four VLC 0.8.6h WAV-path target sites,
// including CVE-2008-2430 (wav.c@147), whose target expression fmt_size+2
// has exactly two overflowing solutions — the §5.5 "2/2" row.
//
// Run with: go run ./examples/wavhunt
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"diode"
)

func main() {
	app, err := diode.Application("vlc")
	if err != nil {
		log.Fatal(err)
	}
	opts := diode.Options{Seed: 7}
	jobs, err := diode.HuntJobs(app, opts)
	if err != nil {
		log.Fatal(err)
	}
	results, err := diode.RunJobs(context.Background(),
		&diode.LocalBackend{Workers: runtime.GOMAXPROCS(0)}, jobs)
	if err != nil {
		log.Fatal(err)
	}
	// Results stream in completion order; job i is the i-th analyzed site.
	sites := make([]diode.JobResult, len(jobs))
	for _, r := range results {
		if r.Err != "" {
			log.Fatal(r.Err)
		}
		sites[r.JobID] = r
	}

	fmt.Printf("%s: hunting %d WAV-path allocation sites\n\n", app.Name, len(sites))
	for _, r := range sites {
		paper, _ := app.PaperFor(r.Site)
		fmt.Printf("%-24s %-12s (paper: %s)\n", r.Site, r.Verdict, paper.CVE)
		if r.Verdict != diode.VerdictExposed.String() {
			continue
		}
		fmt.Printf("  error: %s, enforced %d branch(es)\n", r.ErrorType, len(r.Enforced))
		for _, spec := range app.Format.Fields.Specs() {
			oldV, newV := spec.Read(app.Format.Seed), spec.Read(r.Input)
			if oldV != newV {
				fmt.Printf("  %-16s %d -> %d\n", spec.Name, oldV, newV)
			}
		}
	}

	// The CVE-2008-2430 story: count the distinct solutions of the target
	// constraint. x+2 over a 32-bit field overflows for exactly two values.
	var wav *diode.Target
	targets, _ := diode.NewAnalyzer(app, opts).Analyze()
	for _, t := range targets {
		if t.Site == "vlc:wav.c@147" {
			wav = t
		}
	}
	hits, total := diode.NewHunter(app, opts.ForSite(wav.Site)).SuccessRate(wav, wav.Beta, 200)
	fmt.Printf("\nwav.c@147 target-constraint sampling: %d/%d inputs trigger "+
		"(the constraint has only two solutions; paper reports 2/2)\n", hits, total)
}
