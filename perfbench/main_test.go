package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// lastLine decodes the result line the command prints last.
func lastLine(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return rep
}

// A wrong output from one op must be counted as failed, make the run
// incorrect and make the command exit non-zero.
func TestCorruptedResultIsCountedAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a whole workload")
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "resolve-mid", "--seed", "5", "--seconds", "0", "--trace", "0"}
	code := run(args, &stdout, &stderr, 3)
	if code == 0 {
		t.Fatalf("exit code 0 with a corrupted result\n%s", stderr.String())
	}
	rep := lastLine(t, stdout.String())
	if rep.Correct || rep.Failed != 1 || rep.Attempted < minRounds {
		t.Fatalf("correct=%v failed=%d attempted=%d; want correct=false, failed=1, attempted >= %d",
			rep.Correct, rep.Failed, rep.Attempted, minRounds)
	}
}

// The metrics the command prints are the ones BENCHMARK.json declares,
// with the same units and directions.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: the command has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.name != w.Name || g.unit != w.Unit || g.better != w.Better {
				t.Errorf("%s[%d]: command %+v, BENCHMARK.json %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

// The tail is the 11th-largest sample: ten samples lie above it.
func TestLatencyTail(t *testing.T) {
	var ops []opRecord
	for i := 1; i <= 40; i++ {
		ops = append(ops, opRecord{key: fmt.Sprint(i), lat: time.Duration(41-i) * time.Millisecond})
	}
	ls := latencies(ops)
	if ls.tail != 30 || ls.above != 10 || ls.p50 != 20.5 || ls.tailInput != "11" {
		t.Fatalf("tail=%v above=%d p50=%v input=%s; want 30, 10, 20.5, 11", ls.tail, ls.above, ls.p50, ls.tailInput)
	}
}
