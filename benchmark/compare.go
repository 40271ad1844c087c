package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// record is one run as -record stores it: one JSON object per line.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	StealPct float64 `json:"steal_pct"`
	result
}

func appendRecord(path string, c config, res *result) error {
	line, err := json.Marshal(record{c.workload, c.seed, c.trace, res.stealPct, *res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples maps workload, then metric, to the values its runs recorded;
// under stealKey it keeps each run's steal.
type samples map[string]map[string][]float64

const stealKey = "(steal_pct)"

func (s samples) add(r record) {
	if s[r.Workload] == nil {
		s[r.Workload] = make(map[string][]float64)
	}
	s[r.Workload][stealKey] = append(s[r.Workload][stealKey], r.StealPct)
	for name, m := range r.Metrics {
		s[r.Workload][name] = append(s[r.Workload][name], m.Value)
	}
}

func loadRecords(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(samples)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Failed > 0 || !r.Correct {
			return nil, fmt.Errorf("%s: %s seed %d recorded %d failed ops; a run with failures is not a measurement", path, r.Workload, r.Seed, r.Failed)
		}
		out.add(r)
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the driver's rule). With
// fewer than four values it falls back to (max-min)/median, and to 0
// for a single value.
func quartileSpread(xs []float64) float64 {
	med := quantile(xs, 0.5)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// throttled reports whether the runs behind a side of a comparison were
// made, by their median steal, on a throttled box.
func (s samples) throttled(workload string) bool {
	return quantile(s[workload][stealKey], 0.5) > stealLimit
}

// verdict is the noise-aware comparison of one (metric, workload) row:
// unresolved when either side's recorded spread exceeds the bound, or
// when the metric is a timing and a side was measured on a throttled
// box; worse when the median moved the wrong way by more than the
// bound, better when it moved the right way by more than bound and
// spread. A per-layer metric without a bound has its spread alone as
// the threshold.
func verdict(d metricDef, base, cur []float64, throttled bool) (ratio, spread float64, v string) {
	b, n := quantile(base, 0.5), quantile(cur, 0.5)
	spread = math.Max(quartileSpread(base), quartileSpread(cur))
	if b == 0 {
		if n == 0 {
			return 1, spread, "same"
		}
		return math.Inf(1), spread, "unresolved"
	}
	ratio = n / b
	worsening := ratio - 1
	if d.Better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case d.Bound > 0 && spread > d.Bound, throttled && d.timed():
		v = "unresolved"
	case worsening > math.Max(d.Bound, spread):
		v = "worse"
	case -worsening > math.Max(d.Bound, spread):
		v = "better"
	default:
		v = "same"
	}
	return ratio, spread, v
}

// compare prints one row per (metric, workload) present in both files.
func compare(basePath, newPath string) error {
	base, err := loadRecords(basePath)
	if err != nil {
		return err
	}
	cur, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-30s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	worse := 0
	for _, w := range workloadDefs {
		throttled := base.throttled(w.Name) || cur.throttled(w.Name)
		if throttled {
			fmt.Printf("%-14s median steal %.0f %% (base), %.0f %% (new) against a limit of %d %%: timings are not resolved\n", w.Name,
				quantile(base[w.Name][stealKey], 0.5), quantile(cur[w.Name][stealKey], 0.5), stealLimit)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			bv, cv := base[w.Name][d.Name], cur[w.Name][d.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			ratio, spread, v := verdict(d, bv, cv, throttled)
			bound := "-"
			if d.Bound > 0 {
				bound = strconv.FormatFloat(d.Bound, 'g', 3, 64)
			}
			if v == "worse" && d.Bound > 0 {
				worse++
			}
			fmt.Printf("%-14s %-30s %14.6g %14.6g %9.4f %8.4f %7s  %s\n",
				w.Name, d.Name, quantile(bv, 0.5), quantile(cv, 0.5), ratio, spread, bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d bounded rows are worse than their bound", worse)
	}
	return nil
}

// calibrate runs every workload once per seed (by default 1, 2, 1: two
// seeds, and the first repeated), each run in its own process as the
// driver runs them, and prints per bounded metric the values, max/min
// and the quartile spread beside the bound, flagging a spread beyond
// the bound, and per workload the runs' steal beside stealLimit. The
// bounded per-layer metrics come from traced runs, which a workload
// gets for every seed only if its first one reads any of them non-zero.
// The runs are kept in recordPath for -compare.
func calibrate(c config, seedList, recordPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var seeds []int64
	for _, f := range strings.Split(seedList, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, seed)
	}
	if recordPath == "" {
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			return err
		}
		recordPath = filepath.Join(c.outDir, fmt.Sprintf("calibrate-%d.jsonl", os.Getpid()))
	}
	runOne := func(workload string, seed int64, trace int) error {
		cmd := exec.Command(exe,
			"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-trace", strconv.Itoa(trace),
			"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-out", c.outDir, "-record", recordPath)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
		}
		return nil
	}
	var bounded, boundedLayer []metricDef
	for _, d := range perLayer {
		if d.Bound > 0 {
			boundedLayer = append(boundedLayer, d)
		}
	}
	bounded = append(append(bounded, endToEnd...), boundedLayer...)

	fmt.Printf("| workload | metric | unit | runs (seeds %s) | max/min | spread | bound | holds |\n", seedList)
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, w := range workloadDefs {
		traced := len(boundedLayer) > 0
		for i, seed := range seeds {
			if err := runOne(w.Name, seed, 0); err != nil {
				return err
			}
			if !traced {
				continue
			}
			if err := runOne(w.Name, seed, 1); err != nil {
				return err
			}
			if i == 0 {
				got, err := loadRecords(recordPath)
				if err != nil {
					return err
				}
				traced = false
				for _, d := range boundedLayer {
					traced = traced || quantile(got[w.Name][d.Name], 0.5) != 0
				}
			}
		}
		got, err := loadRecords(recordPath) // fails on a run with failed ops
		if err != nil {
			return err
		}
		for _, d := range bounded {
			xs := got[w.Name][d.Name]
			if len(xs) < len(seeds) {
				continue // a per-layer metric this workload does not have
			}
			spread := quartileSpread(xs)
			holds := "yes"
			if spread > d.Bound {
				holds = "NO"
			}
			fmt.Printf("| %s | %s | %s | %s | %.3f | %.3f | %g | %s |\n",
				w.Name, d.Name, d.Unit, cells(xs), maxOverMin(xs), spread, d.Bound, holds)
		}
		steal := got[w.Name][stealKey]
		holds := "yes"
		if got.throttled(w.Name) {
			holds = "THROTTLED"
		}
		fmt.Printf("| %s | %s | %% | %s | | | %d | %s |\n", w.Name, stealKey, cells(steal), stealLimit, holds)
	}
	fmt.Println("\nruns recorded in", recordPath)
	return nil
}

func cells(xs []float64) string {
	var out []string
	for _, x := range xs {
		out = append(out, strconv.FormatFloat(x, 'g', 5, 64))
	}
	return strings.Join(out, " ")
}

func maxOverMin(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return hi / lo
}
