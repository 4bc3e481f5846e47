package bench

import (
	"testing"

	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

// BenchmarkInterpreter profiles euler, the dispatch-bound program, sampled
// at 1e-3, so the interpreter loop rather than the profiler's event path does
// the work. It reports the time per executed bytecode instruction.
func BenchmarkInterpreter(b *testing.B) {
	bm, err := ByName("euler")
	if err != nil {
		b.Fatal(err)
	}
	cp, err := bm.Compile(Original, OriginalInput)
	if err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m, err := profile.Run(cp.Program, "euler", vm.Config{
			GCInterval: DefaultGCInterval,
			SampleRate: 1e-3,
			SampleSeed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		instrs += m.CostReport().Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkProfilePath profiles the eight programs of an exact dragbench
// pass (all but euler) exactly, at profile.Run's default 100 KB deep-GC
// interval, so use events and the deep GC do the work. It reports the time
// per executed instruction, the use events recorded and the collections
// run, per pass.
func BenchmarkProfilePath(b *testing.B) {
	type prog struct {
		name string
		cp   *CompiledProgram
	}
	var progs []prog
	for _, bm := range All() {
		if bm.Name == "euler" {
			continue
		}
		cp, err := bm.Compile(Original, OriginalInput)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog{bm.Name, cp})
	}
	var instrs, uses, collections int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			prof, m, err := profile.Run(p.cp.Program, p.name, vm.Config{})
			if err != nil {
				b.Fatal(err)
			}
			cost := m.CostReport()
			instrs += cost.Instructions
			collections += cost.GC.Collections
			for _, r := range prof.Records {
				uses += r.Uses
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	b.ReportMetric(float64(uses)/float64(b.N), "uses/op")
	b.ReportMetric(float64(collections)/float64(b.N), "collections/op")
}
