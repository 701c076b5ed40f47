package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hybridtree/internal/dist"
)

// Each workload runs end to end at a tiny size, traced and untraced,
// including its correctness check (and, for rw-fourier16, the crash
// reopen through wal.Open).
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and serves three indexes")
	}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: s.name, seed: 3, dataSeed: 3, seconds: 0.5, trace: traced,
				rate: 40, points: 3000, setups: 2, conns: min(2, runtime.NumCPU()), dir: t.TempDir(),
			}
			res, err := run(s, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %+v", s.name, traced, res)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", s.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", s.name, traced, name, m, unit)
				}
			}
		}
	}
}

func TestCompareRejectsWrongAnswers(t *testing.T) {
	s, _ := specByName("boxrange-colhist64")
	in, err := makeInputs(s, 2000, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := newScan(s.dim, in.pts, in.rids)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range readKinds {
		slot := 0
		var a answer
		switch k {
		case opKNN:
			ns, _ := sc.SearchKNN(in.knn[slot], knnK, dist.L2())
			for _, n := range ns {
				a.Neighbors = append(a.Neighbors, struct {
					RID  uint64  `json:"rid"`
					Dist float64 `json:"dist"`
				}{n.RID, n.Dist})
			}
		case opBox:
			es, _ := sc.SearchBox(in.boxes[slot])
			for _, e := range es {
				a.RIDs = append(a.RIDs, e.RID)
			}
		case opRange:
			q := in.ranges[slot]
			ns, _ := sc.SearchRange(q.Center, q.Radius, dist.L2())
			for _, n := range ns {
				a.Neighbors = append(a.Neighbors, struct {
					RID  uint64  `json:"rid"`
					Dist float64 `json:"dist"`
				}{n.RID, n.Dist})
			}
		}
		if err := compare(k, in, slot, a, sc); err != nil {
			t.Fatalf("%s: the scan's own answer was rejected: %v", k, err)
		}
		switch {
		case len(a.RIDs) > 0:
			a.RIDs = a.RIDs[1:]
		case k == opKNN:
			a.Neighbors[len(a.Neighbors)-1].Dist *= 1.001
		case len(a.Neighbors) > 0:
			a.Neighbors = a.Neighbors[1:]
		default:
			t.Fatalf("%s: empty answer, pick another query", k)
		}
		if err := compare(k, in, slot, a, sc); err == nil {
			t.Errorf("%s: a wrong answer passed", k)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// reports, and its command gives every workload its open-loop rate.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var declared, programs []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
		if !strings.Contains(strings.Join(b.Command, " "), "--rate "+w.Name+"=") {
			t.Errorf("command sets no --rate for %s", w.Name)
		}
	}
	for _, s := range specs {
		programs = append(programs, s.name)
	}
	sort.Strings(declared)
	sort.Strings(programs)
	if strings.Join(declared, ",") != strings.Join(programs, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", declared, programs)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if want[m.Name] != m.Unit {
				t.Errorf("%s: %s in %q, program reports unit %q", kind, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
