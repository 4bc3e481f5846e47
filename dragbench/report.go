package main

import (
	"fmt"
	"time"
)

// endToEnd holds what a run measured for the end-to-end metrics. Every
// sample grid is indexed [round][position]; a position is one program of
// a profile pass, or the one run a serve-fleet round pushes.
type endToEnd struct {
	setup   time.Duration
	mb      [][]float64 // MB the program allocated
	profEnc [][]float64 // seconds of ProfileRun + WriteBinaryLog
	decAn   [][]float64 // seconds of ReadLog + Analyze
	logKB   [][]float64 // log size, KB
	rounds  []roundTimes
	storeKB []float64 // bytes under the store root per stored run, KB
	cpu     time.Duration
	peakMB  float64
}

// addPipe records one pipeline run of a round, in position order.
func (e *endToEnd) addPipe(round int, out *piped) {
	for len(e.mb) <= round {
		e.mb, e.profEnc = append(e.mb, nil), append(e.profEnc, nil)
		e.decAn, e.logKB = append(e.decAn, nil), append(e.logKB, nil)
	}
	e.mb[round] = append(e.mb[round], float64(out.alloc)/1e6)
	e.profEnc[round] = append(e.profEnc[round], (out.prof + out.enc).Seconds())
	e.decAn[round] = append(e.decAn[round], (out.dec + out.an).Seconds())
	e.logKB[round] = append(e.logKB[round], float64(len(out.log))/1024)
}

// sumOfMedians adds up, over positions, each position's median over the
// rounds: the cost of a typical round, robust to a stall in any one.
func sumOfMedians(grid [][]float64) float64 {
	if len(grid) == 0 {
		return 0
	}
	var sum float64
	for pos := range grid[0] {
		col := make([]float64, len(grid))
		for r, row := range grid {
			col[r] = row[pos]
		}
		sum += median(col)
	}
	return sum
}

// layerRounds collects each per-layer metric's value per round; the
// reported value is the median over the rounds.
type layerRounds map[string][]float64

// addRound folds a round's pipeline sums and publish timings in.
func (l layerRounds) addRound(pipe map[string]float64, rt roundTimes) {
	for name, v := range pipe {
		l[name] = append(l[name], v)
	}
	var push time.Duration
	for _, d := range rt.push {
		push += d
	}
	n := float64(len(rt.push))
	l["store.ingest_ms"] = append(l["store.ingest_ms"], ms(rt.ingest))
	l["store.syncs_per_run"] = append(l["store.syncs_per_run"], float64(rt.fs.syncs)/n)
	l["store.sync_ms"] = append(l["store.sync_ms"], ms(rt.fs.sync)/n)
	l["store.bytes_written_per_run"] = append(l["store.bytes_written_per_run"], float64(rt.fs.written)/n)
	l["store.compact_ms"] = append(l["store.compact_ms"], ms(rt.compact))
	l["store.report_ms"] = append(l["store.report_ms"], ms(rt.report))
	l["store.open_ms"] = append(l["store.open_ms"], ms(rt.open))
	l["server.push_overhead_ms"] = append(l["server.push_overhead_ms"], ms(push-rt.ingest))
	l["server.sites_overhead_ms"] = append(l["server.sites_overhead_ms"], ms(rt.sitesIdle))
}

// perLayer lists the per-layer metrics with their units, in report order.
var perLayer = []struct{ name, unit string }{
	{"mj.compile_s", "s"},
	{"vm.run_s", "s"},
	{"vm.instructions", "count"},
	{"gc.collections", "count"},
	{"gc.deep_gc_s", "s"},
	{"profile.trailer_s", "s"},
	{"profile.encode_s", "s"},
	{"profile.log_bytes", "bytes"},
	{"profile.decode_s", "s"},
	{"profile.records", "count"},
	{"drag.analyze_s", "s"},
	{"drag.analyze_parallel_s", "s"},
	{"drag.groups", "count"},
	{"store.ingest_ms", "ms"},
	{"store.syncs_per_run", "count"},
	{"store.sync_ms", "ms"},
	{"store.bytes_written_per_run", "bytes"},
	{"store.compact_ms", "ms"},
	{"store.report_ms", "ms"},
	{"store.open_ms", "ms"},
	{"server.push_overhead_ms", "ms"},
	{"server.sites_overhead_ms", "ms"},
	{"server.background_compactions_per_push", "count"},
}

// report sets the metrics the run prints: the end-to-end ones when
// untraced, the per-layer ones when traced. A traced run also logs its
// end-to-end figures, which against an untraced run's give the tracing
// overhead.
func (b *harness) report(e endToEnd, layers layerRounds, compile time.Duration) {
	var push [][]float64
	var sites, diff []float64
	for _, r := range e.rounds {
		row := make([]float64, len(r.push))
		for i, d := range r.push {
			row[i] = ms(d)
		}
		push = append(push, row)
		sites = append(sites, ms(r.sites))
		diff = append(diff, ms(r.diff))
	}
	mb := sumOfMedians(e.mb)
	e2e := []struct {
		name, unit string
		v          float64
	}{
		{"setup_s", "s", e.setup.Seconds()},
		{"profile_mb_per_s", "MB/s", mb / sumOfMedians(e.profEnc)},
		{"analyze_mb_per_s", "MB/s", mb / sumOfMedians(e.decAn)},
		{"log_kb_per_mb", "KB/MB", sumOfMedians(e.logKB) / mb},
		{"push_p50_ms", "ms", sumOfMedians(push)},
		{"sites_p50_ms", "ms", median(sites)},
		{"diff_p50_ms", "ms", median(diff)},
		{"store_kb_per_run", "KB", median(e.storeKB)},
		{"cpu_s", "s", e.cpu.Seconds()},
		{"peak_rss_mb", "MB", e.peakMB},
	}
	if b.tr == nil {
		for _, m := range e2e {
			b.set(m.name, m.unit, m.v)
		}
		return
	}
	for _, m := range e2e {
		fmt.Fprintf(b.log, "dragbench: traced %s = %.6g %s\n", m.name, m.v, m.unit)
	}
	var compactions, pushes int64
	for _, r := range e.rounds {
		compactions += r.compactions
		pushes += int64(len(r.push))
	}
	for _, m := range perLayer {
		switch m.name {
		case "mj.compile_s":
			b.set(m.name, m.unit, compile.Seconds())
		case "server.background_compactions_per_push":
			b.set(m.name, m.unit, float64(compactions)/float64(pushes))
		default:
			b.set(m.name, m.unit, median(layers[m.name]))
		}
	}
}
