// Command perfbench is the repository benchmark: whole DIODE sweeps timed
// from the outside through the program's public packages, with every
// verdict checked. See README.md for the workloads, the metrics and which
// layer metric is expected to move which end-to-end metric.
//
// Usage (from the repository root, after building with run.py):
//
//	perfbench --workload tables|arith|warm --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every sweep runs in a fresh child
// process, because the program's term intern tables are process-global and
// never shrink: a shared process would carry one sweep's terms into the next.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"diode/internal/core"
)

// Benchmark constants.
const (
	arithLimit = 500 * time.Millisecond // per-job wall limit of an arith probe hunt
	minSetups  = 21                     // set-up samples per run; set-up-only children fill up
)

// minReps is the least number of sweeps one run measures, per workload.
var minReps = map[string]int{"tables": 3, "warm": 5, "arith": 3}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: tables, arith or warm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measuring time of one run")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	child := flag.String("child", "", "internal: run one sweep in this process (tables, warm, arith, trace-tables, trace-warm, trace-arith, trace-job)")
	dir := flag.String("dir", "", "internal: cache directory of a child sweep")
	save := flag.String("save", "", "internal: file receiving a cold sweep's results")
	cold := flag.String("cold", "", "internal: cold results a warm sweep must match")
	setupOnly := flag.Bool("setup-only", false, "internal: stop at the first dispatched job")
	flag.Parse()
	if *child != "" {
		return runChild(*child, *seed, *dir, *save, *cold, *setupOnly)
	}
	switch *workload {
	case "tables", "arith", "warm":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (tables, arith, warm)\n", *workload)
		return 2
	}
	o, err := newOrchestrator(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.runDir)
	var res result
	if *traced == 1 {
		res, err = o.traced()
	} else {
		res, err = o.measure(time.Duration(*seconds * float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runChild runs one sweep in this fresh process and prints its sample as
// the last line of standard output.
func runChild(mode string, seed int64, dir, save, cold string, setupOnly bool) int {
	var v any
	var err error
	switch mode {
	case "tables", "warm":
		v, err = runTables(seed, dir, save, cold, setupOnly)
	case "arith":
		var worker string
		if worker, err = siblingBinary("diode-worker"); err == nil {
			v, err = runArith(seed, worker, arithLimit, setupOnly)
		}
	case "trace-tables", "trace-warm", "trace-arith":
		v, err = traceSweep(mode[len("trace-"):], seed, dir, save)
	case "trace-job":
		v, err = traceJobChild(os.Stdin)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// siblingBinary resolves a binary built next to this one.
func siblingBinary(name string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	p := filepath.Join(filepath.Dir(self), name)
	if _, err := os.Stat(p); err != nil {
		return "", fmt.Errorf("%s not built next to %s: %w", name, self, err)
	}
	return p, nil
}

// orchestrator runs one (workload, seed) measurement as a series of fresh
// child processes.
type orchestrator struct {
	workload string
	seed     int64
	self     string
	runDir   string
	nth      int
}

func newOrchestrator(workload string, seed int64) (*orchestrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if _, err := siblingBinary("diode-worker"); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Dir(filepath.Dir(self)), "run-")
	if err != nil {
		return nil, err
	}
	return &orchestrator{workload: workload, seed: seed, self: self, runDir: runDir}, nil
}

// freshDir returns a new empty directory under the run directory.
func (o *orchestrator) freshDir() (string, error) {
	o.nth++
	d := filepath.Join(o.runDir, "d"+strconv.Itoa(o.nth))
	return d, os.MkdirAll(d, 0o755)
}

// spawn runs a child process and decodes the last line of its output into
// v. The child's standard error passes through.
func (o *orchestrator) spawn(v any, args ...string) error {
	args = append([]string{"-seed", strconv.FormatInt(o.seed, 10)}, args...) // a later -seed wins
	cmd := exec.Command(o.self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	return decodeLast(out.Bytes(), v)
}

// decodeLast decodes the last non-empty line of out as JSON.
func decodeLast(out []byte, v any) error {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if last == nil {
		return errors.New("child printed no result")
	}
	return json.Unmarshal(last, v)
}

// subSeed derives the seed of a run's i-th tables sweep. A tables sweep's
// cost depends on its seed — one §5.6 sampling job can take a quarter to
// three quarters of the sweep — so a run sweeps several derived seeds and
// reports the median, instead of timing one seed's inputs over and over.
func subSeed(seed int64, i int) int64 {
	return core.SiteSeed(seed, "perfbench-sweep-"+strconv.Itoa(i))
}

// sweep runs the i-th measured sweep of the workload in a fresh child.
func (o *orchestrator) sweep(i int, setupOnly bool, coldDir, coldFile string) (repSample, error) {
	var s repSample
	args := []string{"-child", o.workload}
	switch o.workload {
	case "tables":
		args = append(args, "-seed", strconv.FormatInt(subSeed(o.seed, i), 10))
		d, err := o.freshDir()
		if err != nil {
			return s, err
		}
		args = append(args, "-dir", d)
	case "arith":
		args = append(args, "-seed", strconv.FormatInt(subSeed(o.seed, i), 10))
	case "warm":
		args = append(args, "-dir", coldDir, "-cold", coldFile)
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	return s, o.spawn(&s, args...)
}

// fillCache runs the untimed cold tables sweep whose cache directory the
// warm workload replays against, and saves its results for the parity gate.
func (o *orchestrator) fillCache() (dir, file string, err error) {
	if dir, err = o.freshDir(); err != nil {
		return "", "", err
	}
	file = filepath.Join(o.runDir, "cold.json")
	var s repSample
	if err := o.spawn(&s, "-child", "tables", "-dir", dir, "-save", file); err != nil {
		return "", "", err
	}
	if len(s.Gates) > 0 {
		return "", "", fmt.Errorf("cold fill failed its gates: %v", s.Gates)
	}
	return dir, file, nil
}

// measure runs sweeps in fresh children until the measuring time is spent
// (at least minReps of them), then tops the set-up samples up to minSetups
// with set-up-only children. Time for the top-up is kept back from the
// sweeps, so the run stays within its measuring time.
func (o *orchestrator) measure(budget time.Duration) (result, error) {
	var coldDir, coldFile string
	if o.workload == "warm" {
		var err error
		if coldDir, coldFile, err = o.fillCache(); err != nil {
			return result{}, err
		}
	}
	var reps []repSample
	var setups []float64
	setupOnly := func() error {
		s, err := o.sweep(len(setups), true, coldDir, coldFile)
		setups = append(setups, s.SetupS)
		return err
	}
	start := time.Now()
	var last, perSetup time.Duration
	for {
		reserve := time.Duration(max(minSetups-len(setups)-1, 0)) * perSetup
		if len(reps) >= minReps[o.workload] && time.Since(start)+last+reserve > budget {
			break
		}
		t := time.Now()
		s, err := o.sweep(len(reps), false, coldDir, coldFile)
		if err != nil {
			return result{}, err
		}
		last = time.Since(t)
		reps = append(reps, s)
		setups = append(setups, s.SetupS)
		if perSetup == 0 && len(setups) < minSetups {
			t := time.Now()
			if err := setupOnly(); err != nil {
				return result{}, err
			}
			perSetup = time.Since(t)
		}
	}
	for len(setups) < minSetups {
		if err := setupOnly(); err != nil {
			return result{}, err
		}
	}
	// tables and arith sweep a different derived seed each time, and their
	// costs spread evenly over a wide range (a tables sweep takes 1.3–5 s),
	// so the plain mean is the steadiest summary; trimming would throw away
	// real inputs. warm replays one seed, so only the host's noise differs
	// between its sweeps, and the trimmed mean drops the sweeps it slowed.
	center := mean
	if o.workload == "warm" {
		center = trimmedMean
	}
	return aggregate(reps, setups, center), nil
}
