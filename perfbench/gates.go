package main

import (
	"fmt"

	"diode/internal/apps"
	"diode/internal/core"
	"diode/internal/dispatch"
	"diode/internal/harness"
	"diode/internal/interp"
	"diode/internal/lang"
)

// extendedWant is the hand-written classification of the extended suite
// (the paper suite's lives in apps.PaperSite.Class): 4 exposed, 3
// unsatisfiable, 3 sanity-prevented.
var extendedWant = map[string]apps.Class{
	"gifview:gif.c@155":   apps.ClassExposed,
	"gifview:gif.c@183":   apps.ClassUnsat,
	"gifview:lzw.c@88":    apps.ClassPrevented,
	"gifview:gif.c@466":   apps.ClassExposed,
	"gifview:gif.c@512":   apps.ClassPrevented,
	"tifthumb:tif.c@139":  apps.ClassUnsat,
	"tifthumb:tif.c@167":  apps.ClassPrevented,
	"tifthumb:tif.c@188":  apps.ClassExposed,
	"tifthumb:tif.c@231":  apps.ClassExposed,
	"tifthumb:thumb.c@58": apps.ClassUnsat,
}

// coreFuel is the guest step budget core.Options uses by default; reference
// re-runs and layer replays execute under the same budget.
const coreFuel = 50_000_000

// jobKey names a job within one sweep independently of its batch-local ID:
// a sweep plans at most one job per kind, site and enforced-label count.
func jobKey(j dispatch.Job) string {
	return fmt.Sprintf("%s/%s/%d", j.Kind, j.Site, len(j.Enforced))
}

// wrapsOnTree re-runs an exposed input on the tree-walking reference
// interpreter — not the compiled Machine under test — and reports whether
// the size computation at the site wraps.
func wrapsOnTree(prog *lang.Program, site string, input []byte) bool {
	out := interp.RunTree(prog, input, interp.Options{Fuel: coreFuel})
	for _, ev := range out.Allocs {
		if ev.Site == site && ev.Wrapped {
			return true
		}
	}
	return false
}

// tablesGates checks a tables sweep: every curated site's class matches its
// hand-written class, the same-path sat sites are exactly the curated
// SamePathSat ones, and every exposed input wraps at its site on the
// reference interpreter. It returns the wrong jobs (by jobKey), the gate
// failures, and the
// classification counts of the paper and extended suites.
func tablesGates(outcomes []harness.AppOutcome) (wrong map[string]bool, msgs []string, paper, extended [3]int) {
	wrong = map[string]bool{}
	for _, o := range outcomes {
		if o.Err != nil {
			msgs = append(msgs, o.Err.Error())
			continue
		}
		for _, sr := range o.Result.Sites {
			site := sr.Target.Site
			hunt := jobKey(dispatch.Job{Kind: dispatch.KindHunt, Site: site})
			want, curated := extendedWant[site]
			ps, inPaper := o.App.PaperFor(site)
			if inPaper {
				want, curated = ps.Class, true
			}
			got := sr.Verdict.Class()
			switch {
			case !curated:
				msgs = append(msgs, fmt.Sprintf("%s: site has no curated class", site))
				wrong[hunt] = true
			case got != want:
				msgs = append(msgs, fmt.Sprintf("%s: class %v, curated %v", site, got, want))
				wrong[hunt] = true
			case inPaper:
				paper[got]++
			default:
				extended[got]++
			}
			if sr.Verdict == core.VerdictExposed && !wrapsOnTree(o.App.Program, site, sr.Input) {
				msgs = append(msgs, fmt.Sprintf("%s: exposed input does not wrap on the reference interpreter", site))
				wrong[hunt] = true
			}
			if inPaper && ps.Class == apps.ClassExposed {
				sat := o.Record.SiteFor(site).SamePathSat == "sat"
				if sat != ps.SamePathSat {
					msgs = append(msgs, fmt.Sprintf("%s: same-path sat=%v, curated %v", site, sat, ps.SamePathSat))
					wrong[jobKey(dispatch.Job{Kind: dispatch.KindSamePath, Site: site})] = true
				}
			}
		}
	}
	if paper != [3]int{14, 17, 9} {
		msgs = append(msgs, fmt.Sprintf("paper suite classified %d/%d/%d, want 14/17/9", paper[0], paper[1], paper[2]))
	}
	if extended != [3]int{4, 3, 3} {
		msgs = append(msgs, fmt.Sprintf("extended suite classified %d/%d/%d, want 4/3/3", extended[0], extended[1], extended[2]))
	}
	return wrong, msgs, paper, extended
}
