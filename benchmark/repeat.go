package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runRepeat is the repeatability tool: n full sets of untraced runs, each
// run a fresh process of this binary as the acceptance driver runs it, set
// i on seed+i (or all on one seed with -same-seed). Per workload and
// end-to-end metric it prints the median, the quartiles, their distance as
// a share of the median (the spread the driver computes) and the largest
// relative deviation of any set from the median, and fails when a spread
// exceeds the bound BENCHMARK.json declares for the metric.
func runRepeat(ctx context.Context, root string, n int, seed int64, seconds float64, sameSeed bool) int {
	m, err := loadManifest(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Printf("repeat: %d sets, seconds=%g, seeds %s\n\n", n, seconds,
		map[bool]string{true: fmt.Sprintf("all %d", seed), false: fmt.Sprintf("%d..%d", seed, seed+int64(n)-1)}[sameSeed])
	fmt.Println("| workload | metric | unit | median | q1 | q3 | spread (q3-q1)/median | max dev from median | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	exit := 0
	for _, w := range m.Workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed
			if !sameSeed {
				s += int64(i)
			}
			res, err := runChild(ctx, root, self, w.Name, s, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, s, err)
				return 1
			}
			for name, mv := range res.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		for _, em := range m.EndToEnd {
			v := values[em.Name]
			med := median(v)
			q1, q3 := quartiles(v)
			spread := (q3 - q1) / med
			dev := 0.0
			for _, x := range v {
				dev = math.Max(dev, math.Abs(x-med)/med)
			}
			verdict := "ok"
			if em.Bound == nil || spread > *em.Bound {
				verdict, exit = "SPREAD EXCEEDS BOUND", 1
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %.2f | %s |\n",
				w.Name, em.Name, em.Unit, med, q1, q3, spread, dev, *em.Bound, verdict)
		}
	}
	return exit
}

// runChild runs one untraced pass in a child process and parses the result
// line, the last line of its standard output.
func runChild(ctx context.Context, root, self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, out)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run was not correct:\n%s", out)
	}
	return &res, nil
}
