package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readResult parses the last line of a benchmark run's output.
func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s: last line: %w", path, err)
	}
	return &r, nil
}

// compareResults checks the second result of args against the first: each
// end-to-end metric may differ from the first's value by at most its
// bound, as a share of the first. It is the second-seed check: the first
// file is a run on the default seed, the second one on another seed.
func compareResults(benchPath string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "dvperf: -compare BENCHMARK.json wants two result files")
		return 2
	}
	bf, err := readBenchmarkFile(benchPath)
	if err == nil {
		var base, other *result
		if base, err = readResult(args[0]); err == nil {
			if other, err = readResult(args[1]); err == nil {
				return compareMetrics(bf, base, other, stdout)
			}
		}
	}
	fmt.Fprintln(stderr, "dvperf:", err)
	return 1
}

func compareMetrics(bf *benchmarkFile, base, other *result, stdout io.Writer) int {
	code := 0
	if !base.Correct || !other.Correct {
		fmt.Fprintln(stdout, "FAIL a run reported incorrect output")
		code = 1
	}
	for _, m := range bf.EndToEnd {
		a, okA := base.Metrics[m.Name]
		b, okB := other.Metrics[m.Name]
		if !okA || !okB || a.Value == 0 {
			fmt.Fprintf(stdout, "FAIL %-14s missing or zero\n", m.Name)
			code = 1
			continue
		}
		share := math.Abs(b.Value-a.Value) / math.Abs(a.Value)
		verdict := "ok  "
		if share > m.Bound {
			verdict, code = "FAIL", 1
		}
		fmt.Fprintf(stdout, "%s %-14s %12.6g -> %12.6g %-4s  %+6.1f%% (bound %.0f%%)\n",
			verdict, m.Name, a.Value, b.Value, m.Unit, 100*(b.Value-a.Value)/a.Value, 100*m.Bound)
	}
	return code
}
