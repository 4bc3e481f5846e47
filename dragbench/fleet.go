package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"dragprof/internal/bench"
	"dragprof/internal/store"
)

const (
	// fleetRoundS is the nominal length of one push round, in seconds.
	fleetRoundS = 1.7
	// poolReadRepeats is how many times each pushed run's log is read
	// back and analyzed in set-up.
	poolReadRepeats = 3
	// fillSeed is the first of the fixed SEED values tried for the javac
	// runs that fill the seeded store's shards.
	fillSeed = 1000
)

// javacSeeds derives n distinct values of javac's SEED parameter from the
// workload seed, none equal to the original input's 7 and none among the
// fixed values the shard fill tries.
func javacSeeds(seed uint64, n int) []int {
	seen := map[int]bool{7: true}
	var out []int
	for i := 0; len(out) < n; i++ {
		v := int(derive(seed, "javac", i)%1000000) + 2*fillSeed
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// runFleet drives serve-fleet: dragserved on a four-shard store seeded
// with one exact run of each of the nine programs and javac runs enough
// to give every shard exactly one, then one client pushing new exact javac
// runs, each push followed at once by /sites?top=20 and by /diff against
// the original-input javac run.
//
// Every round starts from a copy of the seeded store, so each push lands
// on a shard holding one javac run and each /sites merges the same runs:
// the rounds are alike, and their median is the cost of one of them. A
// store that grew from round to round made every round's work different,
// and the median the middle round's one figure.
func runFleet(b *harness) error {
	pushes := b.rounds(fleetRoundS)
	javac, err := bench.ByName("javac")
	if err != nil {
		return err
	}
	nine := bench.All()
	bs := append([]*bench.Benchmark(nil), nine...)
	params := make([]int, len(nine))
	for _, s := range javacSeeds(b.seed, pushes) {
		bs = append(bs, javac)
		params = append(params, s)
	}

	start := readUsage()
	progs, compileTime, err := compileAll(bs, params)
	if err != nil {
		return err
	}
	// The logs the client pushes are profiled before the timed phase, so
	// the VM does no work in it, and first, so nothing runs beside them.
	// Each is read back and analyzed three times, the median counting.
	pool := make([]*piped, 0, pushes)
	parent := b.begin("pool", timing{}, 0)
	b.readRepeats = poolReadRepeats
	for i, p := range progs[len(nine):] {
		out, err := b.pipeline(p, pipeOpts{layers: b.tr != nil, op: i + 1}, parent)
		b.op("pipeline javac", err)
		if err != nil {
			parent.end()
			return err
		}
		pool = append(pool, out)
	}
	parent.end()
	b.readRepeats = 1

	seedUps, err := b.seedLogs(progs[:len(nine)], func(ups []upload) ([]upload, error) {
		return b.fillShards(javac, ups)
	})
	if err != nil {
		return err
	}

	seeded, err := b.openPublisher("fleet-seed", 0)
	if err != nil {
		return err
	}
	var baseID string
	var base totals
	var baseLog []byte
	for _, u := range seedUps {
		id, err := seeded.upload(u.name, u.log, u.own)
		b.op("seed "+u.name, err)
		if err != nil {
			seeded.close()
			return err
		}
		if baseID == "" && u.name == "javac" {
			baseID, base, baseLog = id, u.own, u.log
		}
	}
	b.op("repeat seed", seeded.repeat(baseLog))
	if b.tr != nil {
		for _, u := range seedUps {
			if err := seeded.sideIngest(u.log); err != nil {
				seeded.close()
				return err
			}
		}
		if err := seeded.side.Compact(runtime.GOMAXPROCS(0)); err != nil {
			seeded.close()
			return err
		}
	}
	_, err = seeded.d.sites(0)
	b.op("seed sites", err)
	// Stopping the service waits for its background merge; the store
	// stays on disk for the rounds to copy.
	if cerr := seeded.d.close(); err == nil {
		err = cerr
	}
	defer os.RemoveAll(seeded.dir)
	if err != nil {
		return err
	}
	setup := readUsage().cpu - start.cpu

	settle()
	u0 := readUsage()
	rounds := make([]roundTimes, 0, pushes)
	var storeKB []float64
	for i, out := range pool {
		rt, kb, err := b.fleetRound(seeded, out, baseID, base, i+1)
		if err != nil {
			return err
		}
		rounds = append(rounds, rt)
		storeKB = append(storeKB, kb)
	}
	u1 := readUsage()

	e := endToEnd{
		setup:   setup,
		rounds:  rounds,
		storeKB: storeKB,
		cpu:     u1.cpu - u0.cpu,
		peakMB:  u1.peakMB,
	}
	layers := layerRounds{}
	for i, out := range pool {
		e.addPipe(i, out)
		pipe := map[string]float64{}
		addLayers(pipe, out)
		layers.addRound(pipe, rounds[i])
	}
	b.report(e, layers, compileTime)
	return nil
}

// fleetRound serves a copy of the seeded store, pushes one run to it,
// queries /sites?top=20 and /diff, checks the whole /sites answer and a
// repeat push, and returns the round's timings and the store's size per
// stored run, in KB.
func (b *harness) fleetRound(seeded *publisher, out *piped, baseID string, base totals, op int) (roundTimes, float64, error) {
	pub, err := b.clone(seeded, fmt.Sprintf("fleet-%d", op), 0)
	if err != nil {
		return roundTimes{}, 0, err
	}
	defer pub.close()
	rt, err := b.publishRound(pub, []upload{{name: out.name, log: out.log, own: out.own}}, baseID, base, 0, op)
	if err != nil {
		return rt, 0, err
	}
	b.op("repeat push", pub.repeat(out.log))
	sums, err := pub.d.sites(0)
	if err == nil {
		err = checkSiteTotals(sums, pub.drag)
	}
	b.op("sites totals", err)
	if err != nil {
		return rt, 0, err
	}
	n, err := dirBytes(pub.st.Root())
	return rt, float64(n) / 1024 / float64(pub.st.NumRuns()), err
}

// fillShards profiles javac on fixed SEED values until, beside the seed
// runs, every shard holds exactly one javac run, and returns the runs that
// fill the shards. It finds a run's shard by storing it in a scratch
// store, so it follows whatever routing the store uses.
func (b *harness) fillShards(javac *bench.Benchmark, seedUps []upload) ([]upload, error) {
	dir := filepath.Join(b.work, "shard-probe")
	defer os.RemoveAll(dir)
	probe, err := store.OpenSharded(dir, shards)
	if err != nil {
		return nil, err
	}
	taken := map[int]bool{}
	place := func(log []byte) (int, error) {
		res, err := probe.Ingest(bytes.NewReader(log), runtime.GOMAXPROCS(0))
		if err != nil {
			return 0, err
		}
		if !res.Clean() || res.Meta == nil {
			return 0, fmt.Errorf("shard probe rejected a clean log")
		}
		for i := 0; i < probe.NumShards(); i++ {
			if _, ok := probe.Shard(i).Get(res.Meta.ID); ok {
				return i, nil
			}
		}
		return 0, fmt.Errorf("shard probe: run %s is on no shard", res.Meta.ID)
	}
	for _, u := range seedUps {
		if u.name == "javac" {
			i, err := place(u.log)
			if err != nil {
				return nil, err
			}
			taken[i] = true
		}
	}
	var fill []upload
	for seed := fillSeed; len(taken) < shards; seed++ {
		if seed == fillSeed+100 {
			return nil, fmt.Errorf("shard fill: 100 javac runs left a shard empty")
		}
		bc, err := compile(javac, seed)
		if err != nil {
			return nil, err
		}
		log, own, err := profileOnly(&program{name: javac.Name, bc: bc})
		b.op("profile javac", err)
		if err != nil {
			return nil, err
		}
		i, err := place(log)
		if err != nil {
			return nil, err
		}
		if !taken[i] {
			taken[i] = true
			fill = append(fill, upload{javac.Name, log, own})
		}
	}
	return fill, nil
}

// seedLogs profiles the programs whose runs seed the store, and returns
// their logs followed by those more returns. euler's exact run, most of
// the cost, runs on the second CPU beside the other programs and more,
// which is given the other programs' logs.
func (b *harness) seedLogs(progs []*program, more func([]upload) ([]upload, error)) ([]upload, error) {
	type done struct {
		up  upload
		err error
	}
	ups := make([]upload, len(progs))
	euler := -1
	ch := make(chan done, 1)
	for i, p := range progs {
		if p.name == "euler" {
			euler = i
			go func(p *program) {
				log, own, err := profileOnly(p)
				ch <- done{upload{p.name, log, own}, err}
			}(p)
		}
	}
	var firstErr error
	var others []upload
	for i, p := range progs {
		if i == euler {
			continue
		}
		log, own, err := profileOnly(p)
		b.op("profile "+p.name, err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		ups[i] = upload{p.name, log, own}
		others = append(others, ups[i])
	}
	var extra []upload
	if firstErr == nil {
		extra, firstErr = more(others)
	}
	if euler >= 0 {
		d := <-ch
		b.op("profile euler", d.err)
		if d.err != nil && firstErr == nil {
			firstErr = d.err
		}
		ups[euler] = d.up
	}
	if firstErr != nil {
		return nil, fmt.Errorf("seed runs: %w", firstErr)
	}
	return append(ups, extra...), nil
}
