package store

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/drag"
	"dragprof/internal/profile"
)

// TestSiteSummariesMatchSerialFold: compaction, which streams each run
// through drag.FoldLog on one worker, serves the summaries a serial fold of
// the same logs gives: ReadLog, an Add loop per run, and Merge in sorted-id
// order. The runs are exact javac runs on three SEED values, the runs
// dragbench's serve-fleet pushes, and each spans several record blocks.
func TestSiteSummariesMatchSerialFold(t *testing.T) {
	javac, err := bench.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenSharded(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	logs := map[string][]byte{}
	for _, seed := range []int{0, 1000003, 2000011} {
		b := *javac
		b.OrigParams = bench.Params{}
		for k, v := range javac.OrigParams {
			b.OrigParams[k] = v
		}
		if seed != 0 {
			b.OrigParams["SEED"] = seed
		}
		r, err := bench.Run(&b, bench.Original, bench.OriginalInput, bench.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		log := encodeLog(t, r.Profile)
		res, err := st.Ingest(bytes.NewReader(log), 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Meta == nil || res.Duplicate {
			t.Fatalf("seed %d: not stored as a new run: %+v", seed, res)
		}
		if res.Meta.Blocks < 2 {
			t.Fatalf("seed %d: run spans %d record block(s), want at least 2", seed, res.Meta.Blocks)
		}
		logs[res.Meta.ID] = log
	}
	if len(logs) != 3 {
		t.Fatalf("%d distinct runs, want 3", len(logs))
	}

	got, err := st.SiteSummaries(2)
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 0, len(logs))
	for id := range logs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var acc *drag.Accumulator
	for _, id := range ids {
		p, err := profile.ReadLog(bytes.NewReader(logs[id]))
		if err != nil {
			t.Fatal(err)
		}
		next := drag.NewAccumulator(p, drag.Options{})
		for _, r := range p.Records {
			next.Add(r)
		}
		if acc == nil {
			acc = next
			continue
		}
		acc.Merge(next)
	}
	rep := acc.Report()
	want := SummarizeSites(rep.Name, len(ids), rep)

	gj, _ := json.MarshalIndent(got, "", " ")
	wj, _ := json.MarshalIndent(want, "", " ")
	if len(want) == 0 || !bytes.Equal(gj, wj) {
		t.Fatalf("compacted summaries differ from the serial fold:\ngot:\n%s\nwant:\n%s", gj, wj)
	}
}
