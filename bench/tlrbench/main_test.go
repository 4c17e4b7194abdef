package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tlrchol/internal/obs"
)

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// small returns the four workloads at a size a test can afford, in the
// order of the workloads table: every shape kept, every count cut.
func small() []workload {
	sp := gaussian(256, 32, 2, 42)
	lib := libraryWorkload{spec: sp, warm1: 4, warm16: 2}
	sparse := libraryWorkload{spec: gaussian(384, 32, 2, 42), warm1: 4, warm16: 2}
	hot := hotWorkload{resident: sp, clients: 2, hits: 3, coldShare: 0.25}
	churn := newChurnWorkload()
	for i := range churn.specs {
		churn.specs[i].N, churn.specs[i].Tile = 256, 32
	}
	// A cache that holds one factor: a repeated spec hits, any other misses.
	churn.cacheBudget = 1
	churn.sequence = churn.sequence[:12]
	return []workload{
		{workloads[0].name, lib.spec, lib.run},
		{workloads[1].name, sparse.spec, sparse.run},
		{workloads[2].name, hot.resident, hot.run},
		{workloads[3].name, churn.specs[0], churn.run},
	}
}

// result runs one workload as main does and decodes the last line.
func result(t *testing.T, w workload, trace bool, dir string) map[string]metric {
	t.Helper()
	var out bytes.Buffer
	r := newReport(&out)
	if err := execute(&w, runConfig{seed: 1, seconds: 0.1, trace: trace, outDir: dir}, r); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if err := r.emit(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", w.name, err, out.String())
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
		t.Fatalf("%s: result lacks a key: %s", w.name, lines[len(lines)-1])
	}
	if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.name, *res.Correct, *res.Attempted, *res.Failed, out.String())
	}
	return res.Metrics
}

// sameNames checks the emitted metrics against a list of the manifest.
func sameNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var listed []string
	for _, m := range want {
		if !valid.MatchString(m.Name) {
			t.Errorf("%s: manifest name %q is not a valid metric name", what, m.Name)
		}
		if got[m.Name].Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, the manifest says %q", what, m.Name, got[m.Name].Unit, m.Unit)
		}
		listed = append(listed, m.Name)
	}
	sort.Strings(listed)
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("%s: emitted metrics differ from the manifest\nemitted: %v\nlisted:  %v", what, names, listed)
	}
}

func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for i, w := range small() {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, m.Workloads[i].Name, w.name)
		}
		untraced := result(t, w, false, dir)
		sameNames(t, w.name+" end to end", untraced, m.EndToEnd)
		for name, v := range untraced {
			if v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
			}
		}
		// The traced run is the slow one: one library and one service
		// workload cover both sources of the serve metrics.
		if i%2 == 1 {
			continue
		}
		sameNames(t, w.name+" per layer", result(t, w, true, dir), m.PerLayer)
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ValidateChromeTrace(data); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestInputsRepeat pins the contract's "same seed, same inputs": the
// right-hand sides, the requests and the churn sequence of one seed are
// byte for byte the same twice, and another seed moves them.
func TestInputsRepeat(t *testing.T) {
	inputs := func(seed int64) []byte {
		w := newChurnWorkload()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for n, i := range w.sequence {
			if err := enc.Encode(churnShape.request(w.specs[i], seed, n)); err != nil {
				t.Fatal(err)
			}
		}
		for i, cols := range libraryWidths {
			if err := enc.Encode(randomRHS(rhsSeed(seed, i), 64, cols).Data); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(inputs(7), inputs(7)) {
		t.Error("one seed gave two different sets of inputs")
	}
	if bytes.Equal(inputs(7), inputs(8)) {
		t.Error("two seeds gave the same inputs")
	}
}
