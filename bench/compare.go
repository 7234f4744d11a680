package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// controlDrift is how far host.control_ns may move between two result
// sets before the comparison is called a machine change.
const controlDrift = 0.10

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadResults reads a result set, or a single run's record.
func loadResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) > 0 {
		return set.Runs, nil
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" {
		return nil, fmt.Errorf("%s: neither a result set nor a run record", path)
	}
	return []*result{&r}, nil
}

// compareFiles prints, per workload and metric, each file's median and
// quartiles over its runs, and flags every later file whose median is
// worse than the first file's by more than the metric's bound, whose
// error rate rose, or whose host control kernel drifted (the machine
// changed). It returns 1 when anything was flagged.
func compareFiles(specPath string, paths []string, stdout, stderr io.Writer) int {
	if len(paths) < 2 {
		fmt.Fprintln(stderr, "bench: -compare needs at least two result files")
		return 2
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", specPath, err)
		return 2
	}
	bound := make(map[string]float64)
	better := make(map[string]string)
	var order []string
	for _, m := range spec.EndToEnd {
		bound[m.Name], better[m.Name] = m.Bound, m.Better
		order = append(order, m.Name)
	}
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
		order = append(order, m.Name)
	}

	sets := make([]map[string][]*result, len(paths))
	var workloadNames []string
	seen := make(map[string]bool)
	for i, p := range paths {
		runs, err := loadResults(p)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		sets[i] = make(map[string][]*result)
		for _, r := range runs {
			sets[i][r.Workload] = append(sets[i][r.Workload], r)
			if !seen[r.Workload] {
				seen[r.Workload] = true
				workloadNames = append(workloadNames, r.Workload)
			}
		}
	}
	sort.Strings(workloadNames)

	flagged := 0
	flag := func(format string, args ...any) {
		flagged++
		fmt.Fprintf(stdout, "  FLAG "+format+"\n", args...)
	}
	for _, wl := range workloadNames {
		fmt.Fprintf(stdout, "== %s\n", wl)
		base := sets[0][wl]
		for i, set := range sets {
			rate := errorRate(set[wl])
			fmt.Fprintf(stdout, "  %-36s [%d] %d runs, error_rate %.6f\n", "runs", i, len(set[wl]), rate)
			if i > 0 && rate > errorRate(base) {
				flag("%s error_rate rose from %.6f to %.6f in %s", wl, errorRate(base), rate, paths[i])
			}
		}
		for _, name := range order {
			vals := make([][]float64, len(sets))
			present := false
			for i, set := range sets {
				for _, r := range set[wl] {
					if m, ok := r.Metrics[name]; ok {
						vals[i] = append(vals[i], m.Value)
						present = true
					}
				}
			}
			if !present {
				continue
			}
			fmt.Fprintf(stdout, "  %-36s", name)
			for _, vs := range vals {
				q1, q3 := quartiles(vs)
				fmt.Fprintf(stdout, " | %.4g [%.4g, %.4g] n=%d", median(vs), q1, q3, len(vs))
			}
			fmt.Fprintf(stdout, " %s\n", unitOf(name))
			if len(vals[0]) == 0 {
				continue
			}
			med0 := median(vals[0])
			for i := 1; i < len(vals); i++ {
				if len(vals[i]) == 0 {
					continue
				}
				med := median(vals[i])
				if name == "host.control_ns" && med0 > 0 && math.Abs(med/med0-1) > controlDrift {
					flag("%s host.control_ns moved %+.1f%% in %s: the machine changed", wl, 100*(med/med0-1), paths[i])
					continue
				}
				b, ok := bound[name]
				if !ok || med0 == 0 {
					continue
				}
				worse := (med - med0) / med0
				if better[name] == "higher" {
					worse = -worse
				}
				if worse > b {
					flag("%s %s worse by %.1f%% (bound %.0f%%) in %s", wl, name, 100*worse, 100*b, paths[i])
				}
			}
		}
	}
	if flagged > 0 {
		fmt.Fprintf(stdout, "%d flag(s)\n", flagged)
		return 1
	}
	fmt.Fprintln(stdout, "all medians within bounds")
	return 0
}

func errorRate(runs []*result) float64 {
	var attempted, failed int64
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(failed, attempted)
}
