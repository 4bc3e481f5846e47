package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"dragprof/internal/bench"
	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/mj"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

// program is one benchmark program compiled on one input.
type program struct {
	name string
	bc   *bytecode.Program
}

// compile builds a program on its original input, with the SEED
// parameter replaced when seedParam is non-zero. It makes the calls
// dragprof.Compile makes.
func compile(b *bench.Benchmark, seedParam int) (*bytecode.Program, error) {
	names, texts, err := b.Sources(bench.Original, bench.OriginalInput)
	if err != nil {
		return nil, err
	}
	params := bench.Params{}
	for k, v := range b.OrigParams {
		params[k] = v
	}
	if seedParam != 0 {
		params["SEED"] = seedParam
	}
	texts["<params>"] = renderParams(params)
	bc, _, err := mj.CompileWithStdlib(names, texts)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", b.Name, err)
	}
	return bc, nil
}

// renderParams writes the Params class a benchmark program reads its
// input from.
func renderParams(p bench.Params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("class Params {\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "    static int %s = %d;\n", k, p[k])
	}
	sb.WriteString("}\n")
	return sb.String()
}

// compileAll compiles every (benchmark, SEED) pair three times and returns
// the programs with the median CPU time of one full compile.
func compileAll(bs []*bench.Benchmark, seeds []int) ([]*program, time.Duration, error) {
	var progs []*program
	var times []float64
	for rep := 0; rep < 3; rep++ {
		progs = progs[:0]
		start := readUsage().cpu
		for i, b := range bs {
			bc, err := compile(b, seeds[i])
			if err != nil {
				return nil, 0, err
			}
			progs = append(progs, &program{name: b.Name, bc: bc})
		}
		times = append(times, float64(readUsage().cpu-start))
	}
	return progs, time.Duration(median(times)), nil
}

// plainRun executes a program without instrumentation.
func plainRun(p *program) (string, vm.Cost, error) {
	m, err := vm.New(p.bc, vm.Config{})
	if err != nil {
		return "", vm.Cost{}, err
	}
	if err := m.Run(); err != nil {
		return "", vm.Cost{}, fmt.Errorf("run %s: %w", p.name, err)
	}
	return m.Output(), m.CostReport(), nil
}

// piped is one program taken through dragprof and draganalyze: profiled,
// encoded as a gzip binary log, read back and analyzed.
type piped struct {
	name  string
	alloc int64
	log   []byte
	own   totals
	rep   *drag.Report

	prof, enc, dec, an time.Duration // CPU time of each step
	collections        int64
	records            int
	// Filled when pipeOpts.layers is set.
	run, noDeepGC, anPar time.Duration
	instructions         int64
}

// pipeOpts select the sampling of one pipeline run and the checks that
// apply to it.
type pipeOpts struct {
	rate       float64
	sampleSeed uint64
	// want is the unprofiled run's output, when known.
	want *string
	// exact holds the total drag against exactDrag (original inputs only).
	exact bool
	// layers adds the calls that split the time per layer (traced runs).
	layers bool
	op     int
}

// pipeline takes one program through the profile, encode, decode and
// analyze steps, timing each and checking every output. Traced runs add
// the unprofiled run, a profiled run without deep GCs and the parallel
// analyzer, which give the per-layer split.
func (b *harness) pipeline(p *program, o pipeOpts, parent timing) (*piped, error) {
	out := &piped{name: p.name}
	cfg := vm.Config{SampleRate: o.rate, SampleSeed: o.sampleSeed}
	want := o.want
	if o.layers {
		settle()
		t := b.begin("vm.run", parent, o.op)
		output, cost, err := plainRun(p)
		out.run = t.end()
		if err != nil {
			return nil, err
		}
		out.instructions = cost.Instructions
		if want == nil {
			want = &output
		}
		settle()
		noGC := cfg
		noGC.GCInterval = 1 << 62
		t = b.begin("profile.run_no_deep_gc", parent, o.op)
		_, _, err = profile.Run(p.bc, p.name, noGC)
		out.noDeepGC = t.end()
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.name, err)
		}
	}

	settle()
	t := b.begin("profile.run", parent, o.op)
	prof, m, err := profile.Run(p.bc, p.name, cfg)
	out.prof = t.end()
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", p.name, err)
	}
	cost := m.CostReport()
	out.alloc = cost.AllocBytes
	out.collections = cost.GC.Collections

	var buf bytes.Buffer
	t = b.begin("profile.encode", parent, o.op)
	err = profile.WriteBinaryLog(&buf, prof, profile.BinaryOptions{Compress: true})
	out.enc = t.end()
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", p.name, err)
	}
	out.log = buf.Bytes()

	var dec *profile.Profile
	var decs, ans []float64
	for i := 0; i < b.readRepeats; i++ {
		settle()
		t = b.begin("profile.decode", parent, o.op)
		dec, err = profile.ReadLog(bytes.NewReader(out.log))
		decs = append(decs, float64(t.end()))
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", p.name, err)
		}
		settle()
		t = b.begin("drag.analyze", parent, o.op)
		out.rep = drag.Analyze(dec, drag.Options{})
		ans = append(ans, float64(t.end()))
	}
	out.dec, out.an = time.Duration(median(decs)), time.Duration(median(ans))
	out.records = len(dec.Records)
	if o.layers {
		settle()
		t = b.begin("drag.analyze_parallel", parent, o.op)
		drag.AnalyzeParallel(dec, drag.Options{}, 2)
		out.anPar = t.end()
	}

	out.own = ownTotals(dec)
	if want != nil {
		if err := checkOutput(m.Output(), *want); err != nil {
			return out, err
		}
	}
	if err := checkClock(prof.FinalClock, out.alloc); err != nil {
		return out, err
	}
	if err := checkRoundTrip(prof, dec); err != nil {
		return out, err
	}
	if err := checkTotals(out.rep, out.own); err != nil {
		return out, err
	}
	if o.exact {
		if err := checkExactDrag(p.name, out.rep.TotalDrag); err != nil {
			return out, err
		}
	}
	return out, nil
}

// profileOnly profiles and encodes a program with no timing or tracing,
// for logs that only seed a store.
func profileOnly(p *program) ([]byte, totals, error) {
	prof, m, err := profile.Run(p.bc, p.name, vm.Config{})
	if err != nil {
		return nil, totals{}, fmt.Errorf("profile %s: %w", p.name, err)
	}
	if err := checkClock(prof.FinalClock, m.CostReport().AllocBytes); err != nil {
		return nil, totals{}, err
	}
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, prof, profile.BinaryOptions{Compress: true}); err != nil {
		return nil, totals{}, fmt.Errorf("encode %s: %w", p.name, err)
	}
	return buf.Bytes(), ownTotals(prof), nil
}
