package profile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dragprof/internal/mj"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

// finalizerSrc keeps the collector's finalizers busy: each finalizer
// allocates, some throw (caught inside the finalizer, or escaping it, where
// the VM swallows the exception), and some resurrect their object. Every
// finalizer runs in a nested interpreter started from a safepoint or an
// allocation, so the profile pins that path: the use event of each
// finalize() call, the chains of the finalizers' allocations and the
// instruction count spent inside them.
const finalizerSrc = `
class Res {
    int id;
    int[] buf;
    Res(int i) { id = i; buf = new int[4 + i % 24]; }
    void finalize() {
        Main.finalized = Main.finalized + 1;
        int[] scratch = new int[16];
        scratch[0] = id;
        Main.sum = Main.sum + scratch[0] + buf.length;
        if (id % 11 == 0) { Main.saved = this; }
        if (id % 7 == 0) {
            try {
                throw new RuntimeException("caught in finalize");
            } catch (RuntimeException e) {
                Main.caught = Main.caught + 1;
            }
        }
        if (id % 5 == 0) { throw new RuntimeException("escapes finalize"); }
        if (id % 13 == 0) {
            Res missing = null;
            Main.sum = Main.sum + missing.id;
        }
    }
}
class Main {
    static int finalized;
    static int caught;
    static int sum;
    static Res saved;
    static void main() {
        Res[] window = new Res[8];
        for (int i = 0; i < 4000; i = i + 1) {
            Res r = new Res(i);
            window[i % 8] = r;
            if (i % 97 == 0) { saved = null; }
        }
        println("finalized:");
        printInt(finalized);
        println("caught:");
        printInt(caught);
        println("sum:");
        printInt(sum);
    }
}`

// safepointGolden pins one profiled run, as the binary-log goldens of
// internal/bench do: the SHA-256 of the uncompressed binary log, the
// executed instructions, the runtime units and the SHA-256 of the output.
type safepointGolden struct {
	log          string
	instructions int64
	runtimeUnits int64
	output       string
}

var goldenFinalizerRuns = map[vm.CollectorKind]safepointGolden{
	vm.MarkSweep:    {"fe811b7a35bbddd7cb5b287eef00d883d9ee5b13a77a67e501e93736b7a60c0a", 366626, 623928, "c99b1d8d4c942e5bb86af34bb5a38e442e1b5b45e6afb89c6b4ec6ebf88e3e80"},
	vm.MarkCompact:  {"fe811b7a35bbddd7cb5b287eef00d883d9ee5b13a77a67e501e93736b7a60c0a", 366626, 623928, "c99b1d8d4c942e5bb86af34bb5a38e442e1b5b45e6afb89c6b4ec6ebf88e3e80"},
	vm.Generational: {"d70e5a55edeca551867b89735a3111fe0e297da4fca85a5e8b03cac22a47b3e1", 366626, 650320, "5d247d31869e9698842a025ec84ef75682e49b8f24e436edd1cd5e776262f82b"},
}

// TestFinalizerSafepointGoldens profiles finalizerSrc under each collector
// with a small deep-GC interval (and, for the generational collector, a
// small nursery, so minor collections run at safepoints too) and compares
// the run with its golden.
func TestFinalizerSafepointGoldens(t *testing.T) {
	prog, _, err := mj.CompileWithStdlib([]string{"fin.mj"}, map[string]string{"fin.mj": finalizerSrc})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []vm.CollectorKind{vm.MarkSweep, vm.MarkCompact, vm.Generational} {
		t.Run(string(col), func(t *testing.T) {
			p, m, err := profile.Run(prog, "fin", vm.Config{
				Collector:   col,
				GCInterval:  32 << 10,
				NurserySize: 8 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{}); err != nil {
				t.Fatal(err)
			}
			c := m.CostReport()
			got := safepointGolden{
				log:          sha256Hex(buf.Bytes()),
				instructions: c.Instructions,
				runtimeUnits: c.RuntimeUnits(),
				output:       sha256Hex([]byte(m.Output())),
			}
			if want := goldenFinalizerRuns[col]; got != want {
				t.Errorf("got %#v, golden %#v\noutput:\n%s", got, want, m.Output())
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
