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
