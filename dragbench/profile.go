package main

import (
	"fmt"
	"time"

	"dragprof/internal/bench"
)

// sampleRate is the profile-sampled workload's byte-sampling rate.
const sampleRate = 1e-3

// exactRoundS and sampledRoundS are the nominal lengths of a round of
// each profile workload on a 2-vCPU machine, in seconds; --seconds divided
// by one fixes the number of rounds.
const (
	exactRoundS   = 5.0
	sampledRoundS = 6.5
)

// sampledPublishes is how many times profile-sampled publishes each
// round's logs, each time to a fresh dragserved. A sampled log is small,
// so one push takes a few milliseconds; publishing three times gives each
// program's push, and the round's /sites and /diff, three times the
// samples at a small share of the round.
const sampledPublishes = 3

// Both profile workloads ask /diff once per round only, so they repeat it
// (three and five times) and count the median. A sampled log holds about a
// fourteenth of the exact log's records, so one read-back takes a few
// milliseconds; profile-sampled repeats it five times too.
const (
	exactDiffRepeats = 3
	sampledRepeats   = 5
)

// noBackgroundCompaction defers dragserved's background compactor past
// the end of a publish round. A pass pushes its logs back to back, and a
// merge started 100 ms after one push would otherwise run beside the
// next pushes and the /sites query by chance, and be charged to whichever
// it overlaps.
const noBackgroundCompaction = time.Hour

// programsFor returns the workload's programs: all nine when sampled, all
// but euler when exact (its 6 s of interpretation for 1.6 MB allocated
// would be most of an exact pass). The workload seed fixes their order.
func programsFor(seed uint64, sampled bool) []*bench.Benchmark {
	var bs []*bench.Benchmark
	for _, b := range bench.All() {
		if sampled || b.Name != "euler" {
			bs = append(bs, b)
		}
	}
	for i := len(bs) - 1; i > 0; i-- {
		j := int(derive(seed, "order", i) % uint64(i+1))
		bs[i], bs[j] = bs[j], bs[i]
	}
	return bs
}

// profileRun is the state of a profile-exact or profile-sampled run.
type profileRun struct {
	progs []*program
	want  map[string]string // unprofiled output per program
	rate  float64
	est   estimateTally
	// publishes is how many fresh dragserveds each round's logs go to.
	publishes int
}

// estimateTally counts sampled drag estimates and how many lie more than
// two 95% half-widths from the exact drag.
type estimateTally struct{ n, misses int }

// runProfile drives profile-exact and profile-sampled. A round is one pass
// over the programs — profile, encode, decode, analyze, check — followed
// by publishing the pass's logs to a fresh dragserved: push each, query
// /sites?top=20, diff the javac run.
func runProfile(b *harness, sampled bool) error {
	bs := programsFor(b.seed, sampled)
	pr := &profileRun{want: map[string]string{}}
	b.diffRepeats = exactDiffRepeats
	rounds := b.rounds(exactRoundS)
	pr.publishes = 1
	if sampled {
		pr.rate = sampleRate
		b.readRepeats, b.diffRepeats = sampledRepeats, sampledRepeats
		rounds = b.rounds(sampledRoundS)
		pr.publishes = sampledPublishes
	}
	if b.tr != nil {
		// A traced round adds the per-layer calls, which about double it;
		// its layers are taken from the first publish alone.
		rounds = max(2, (rounds+1)/2)
		pr.publishes = 1
	}

	start := readUsage()
	progs, compileTime, err := compileAll(bs, make([]int, len(bs)))
	if err != nil {
		return err
	}
	pr.progs = progs
	for _, p := range progs {
		out, _, err := plainRun(p)
		if err != nil {
			return err
		}
		pr.want[p.name] = out
	}
	e := endToEnd{setup: readUsage().cpu - start.cpu}

	settle()
	u0 := readUsage()
	layers := layerRounds{}
	for r := 0; r < rounds; r++ {
		pipe, first, err := b.profileRound(pr, r, &e, r+1)
		if err != nil {
			return err
		}
		layers.addRound(pipe, first)
	}
	u1 := readUsage()
	e.cpu, e.peakMB = u1.cpu-u0.cpu, u1.peakMB
	if sampled {
		b.op("estimate coverage", checkCoverage(pr.est.misses, pr.est.n))
		fmt.Fprintf(b.log, "dragbench: %d of %d drag estimates within two 95%% half-widths\n",
			pr.est.n-pr.est.misses, pr.est.n)
	}
	b.report(e, layers, compileTime)
	return nil
}

// profileRound runs one round — every program through the pipeline, then
// the pass's logs published to fresh dragserveds — records it in e at
// index round and returns the round's per-layer sums and the timings of
// its first publish.
func (b *harness) profileRound(pr *profileRun, round int, e *endToEnd, op int) (map[string]float64, roundTimes, error) {
	pipe := map[string]float64{}
	parent := b.begin("round.profile", timing{}, op)
	var ups []upload
	javac := -1
	for _, p := range pr.progs {
		w := pr.want[p.name]
		o := pipeOpts{rate: pr.rate, want: &w, exact: pr.rate == 0, layers: b.tr != nil, op: op}
		if pr.rate > 0 {
			o.sampleSeed = derive(b.seed, "sample/"+p.name, op)
		}
		out, err := b.pipeline(p, o, parent)
		if err == nil && pr.rate > 0 {
			var within bool
			within, err = checkEstimate(out.rep, exactDrag[p.name])
			pr.est.n++
			if !within && err == nil {
				pr.est.misses++
			}
		}
		b.op("pipeline "+p.name, err)
		if err != nil {
			parent.end()
			return nil, roundTimes{}, err
		}
		e.addPipe(round, out)
		addLayers(pipe, out)
		if p.name == "javac" {
			javac = len(ups)
		}
		ups = append(ups, upload{name: p.name, log: out.log, own: out.own})
	}
	parent.end()

	var first roundTimes
	for k := 0; k < pr.publishes; k++ {
		rt, err := b.publish(ups, javac, fmt.Sprintf("publish-%d-%d", op, k), e, op)
		if err != nil {
			return nil, rt, err
		}
		if k == 0 {
			first = rt
		}
	}
	return pipe, first, nil
}

// publish sends a pass's logs to a fresh dragserved and records the
// timings and the store's size per run in e.
func (b *harness) publish(ups []upload, javac int, name string, e *endToEnd, op int) (roundTimes, error) {
	pub, err := b.openPublisher(name, noBackgroundCompaction)
	if err != nil {
		return roundTimes{}, err
	}
	rt, err := b.publishRound(pub, ups, "", totals{}, javac, op)
	if err == nil {
		var n int64
		if n, err = dirBytes(pub.st.Root()); err == nil {
			e.storeKB = append(e.storeKB, float64(n)/1024/float64(pub.st.NumRuns()))
		}
	}
	if cerr := pub.close(); err == nil {
		err = cerr
	}
	e.rounds = append(e.rounds, rt)
	return rt, err
}

// addLayers folds one pipeline run into a round's per-layer sums.
func addLayers(l map[string]float64, out *piped) {
	l["vm.run_s"] += out.run.Seconds()
	l["vm.instructions"] += float64(out.instructions)
	l["gc.collections"] += float64(out.collections)
	l["gc.deep_gc_s"] += (out.prof - out.noDeepGC).Seconds()
	l["profile.trailer_s"] += (out.noDeepGC - out.run).Seconds()
	l["profile.encode_s"] += out.enc.Seconds()
	l["profile.log_bytes"] += float64(len(out.log))
	l["profile.decode_s"] += out.dec.Seconds()
	l["profile.records"] += float64(out.records)
	l["drag.analyze_s"] += out.an.Seconds()
	l["drag.analyze_parallel_s"] += out.anPar.Seconds()
	l["drag.groups"] += float64(len(out.rep.ByNestedSite))
}
