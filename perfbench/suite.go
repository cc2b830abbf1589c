package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// suiteRun is one child run of the suite.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runResult
}

// suiteResult is what the suite writes to out/result.json and what
// baseline/seed.json holds.
type suiteResult struct {
	Machine struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Commit     string `json:"commit"`
	} `json:"machine"`
	Seconds float64    `json:"seconds"`
	Seeds   []int64    `json:"seeds"`
	Runs    []suiteRun `json:"runs"`
	// Claim names the end-to-end metric and workload a change claims to
	// improve. The benchmark itself claims nothing.
	Claim *string `json:"claim"`
}

// child runs one workload in a process of its own, so that peak memory
// and leaked goroutines are the workload's alone.
func child(workload string, seed int64, seconds float64, trace int) (suiteRun, error) {
	run := suiteRun{Workload: workload, Seed: seed, Trace: trace}
	self, err := os.Executable()
	if err != nil {
		return run, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &run.runResult); jerr != nil {
		return run, fmt.Errorf("%s seed %d trace %d: no result (%v): %w", workload, seed, trace, err, jerr)
	}
	if err != nil {
		return run, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	return run, nil
}

// suite runs every workload reps times untraced, each on its own seed,
// and once traced, prints every metric by name with its unit and writes
// the result to path.
func suite(seed int64, seconds float64, reps int, path string) (*suiteResult, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	res := &suiteResult{Seconds: seconds}
	res.Machine.NumCPU, res.Machine.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	res.Machine.GoVersion, res.Machine.Commit = runtime.Version(), "unknown"
	if out, err := exec.Command("git", "-C", benchDir(), "rev-parse", "HEAD").Output(); err == nil {
		res.Machine.Commit = strings.TrimSpace(string(out))
	}
	for i := 0; i < reps; i++ {
		res.Seeds = append(res.Seeds, seed+int64(i))
	}
	var firstErr error
	for _, w := range spec.Workloads {
		for _, s := range res.Seeds {
			run, err := child(w.Name, s, seconds, 0)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			res.Runs = append(res.Runs, run)
		}
		run, err := child(w.Name, seed, seconds, 1)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		res.Runs = append(res.Runs, run)

		for _, m := range spec.EndToEnd {
			vals := res.values(w.Name, m.Name, 0)
			fmt.Printf("%-20s %-32s %14.4f %-6s (median of %d, spread %.3f)\n",
				w.Name, m.Name, median(vals), m.Unit, len(vals), spread(vals))
		}
		for _, m := range spec.PerLayer {
			fmt.Printf("%-20s %-32s %14.4f %s\n", w.Name, m.Name, median(res.values(w.Name, m.Name, 1)), m.Unit)
		}
	}
	buf, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("{\"result\": %q, \"claim\": null}\n", path)
	return res, firstErr
}

// values are one metric's values over the runs of a workload.
func (r *suiteResult) values(workload, metric string, trace int) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if v, ok := run.Metrics[metric]; ok && run.Workload == workload && run.Trace == trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a
// share of the median, the quartiles as Python's statistics.quantiles
// gives them (exclusive method); 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(quartile(3)-quartile(1), median(s))
}

func loadResult(path string) (*suiteResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(oldPath, newPath string) error {
	old, err := loadResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadResult(newPath)
	if err != nil {
		return err
	}
	regressed, _, err := compareResults(old, cur)
	if err == nil && regressed > 0 {
		err = fmt.Errorf("%d metrics regressed", regressed)
	}
	return err
}

// compareResults prints one row per workload and end-to-end metric:
// both medians, the ratio new/old, and a verdict under the metric's
// bound. A pairing whose runs spread wider than the bound on either
// side is unresolved, not unchanged.
func compareResults(old, cur *suiteResult) (regressed, improved int, err error) {
	spec, err := loadSpec()
	if err != nil {
		return 0, 0, err
	}
	fmt.Printf("%-20s %-14s %14s %14s %18s  %s\n", "workload", "metric", "old median", "new median", "new/old", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := old.values(w.Name, m.Name, 0), cur.values(w.Name, m.Name, 0)
			if len(a) == 0 || len(b) == 0 {
				return 0, 0, fmt.Errorf("%s %s: missing from one side", w.Name, m.Name)
			}
			ma, mb := median(a), median(b)
			worse := mb/ma - 1 // share by which the new median is worse
			if m.Better == "higher" {
				worse = 1 - mb/ma
			}
			verdict := "unchanged"
			switch {
			case max(spread(a), spread(b)) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f > bound %.2f)", max(spread(a), spread(b)), m.Bound)
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			case worse < -m.Bound:
				verdict = "improved"
				improved++
			}
			fmt.Printf("%-20s %-14s %14.4f %14.4f %9.3f of %-8.4g  %s\n", w.Name, m.Name, ma, mb, mb/ma, ma, verdict)
		}
	}
	return regressed, improved, nil
}

// selfCheck runs the suite twice on the same build and fails if an
// end-to-end metric disagrees with itself beyond its bound.
func selfCheck(seed int64, seconds float64, reps int) error {
	out := filepath.Join(benchDir(), "out")
	first, err := suite(seed, seconds, reps, filepath.Join(out, "selfcheck1.json"))
	if err != nil {
		return err
	}
	second, err := suite(seed, seconds, reps, filepath.Join(out, "selfcheck2.json"))
	if err != nil {
		return err
	}
	regressed, improved, err := compareResults(first, second)
	if err == nil && regressed+improved > 0 {
		err = fmt.Errorf("the same build disagrees with itself on %d metrics", regressed+improved)
	}
	return err
}
