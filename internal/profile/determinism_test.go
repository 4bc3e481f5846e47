package profile_test

import (
	"strings"
	"testing"

	"dragprof/internal/mj"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

const detSrc = `
class Node {
    Node next;
    int[] pad;
    Node(Node n) { next = n; pad = new int[40]; }
}
class Main {
    static void main() {
        seedRandom(99);
        Node head = null;
        int acc = 0;
        for (int i = 0; i < 3000; i = i + 1) {
            head = new Node(head);
            head.pad[0] = random(100);
            acc = acc + head.pad[0];
            if (i % 7 == 0) { head = null; }
        }
        println("sum:");
        printInt(acc);
    }
}`

// TestProfileDeterminism: two profiled runs must produce byte-identical
// logs — the property that makes the paper's measurements repeatable.
func TestProfileDeterminism(t *testing.T) {
	runOnce := func() string {
		prog, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": detSrc})
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := profile.Run(prog, "det", vm.Config{GCInterval: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{Compress: true}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatal("profiled runs are not deterministic")
	}
}

// TestInternedStringsExcluded: constant-pool strings (and their char
// arrays) appear in the raw trailer log but are excluded from analysis, as
// the paper excludes constant-pool strings.
func TestInternedStringsExcluded(t *testing.T) {
	prog, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": `
class Main {
    static void main() {
        println("literal-one");
        println("literal-two");
        int[] real = new int[100];
        real[0] = 1;
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := profile.Run(prog, "t", vm.Config{GCInterval: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	interned := 0
	for _, r := range p.Records {
		if r.Interned {
			interned++
		}
	}
	// Two literals: each is one String object + one char[] + the
	// preallocated OutOfMemoryError.
	if interned < 5 {
		t.Errorf("interned records = %d, want >= 5", interned)
	}
	for _, r := range p.Reported() {
		if r.Interned {
			t.Fatal("Reported() leaked an interned record")
		}
	}
}

// TestGCIntervalBoundsCollectTime: with a deep GC every I bytes, an
// object's recorded collection time can exceed its true unreachability
// point by at most ~I plus the allocation that triggered the next cycle.
func TestGCIntervalBoundsCollectTime(t *testing.T) {
	prog, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": `
class Main {
    static void main() {
        for (int i = 0; i < 500; i = i + 1) {
            int[] t = new int[16];  // dies immediately
            t[0] = i;
        }
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	const interval = 4 << 10
	p, _, err := profile.Run(prog, "t", vm.Config{GCInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Reported() {
		if r.AtExit || r.Array == false {
			continue
		}
		// The array dies right after its last use; collection happens
		// at the next deep GC.
		slack := r.Collect - r.LastTouch()
		if slack > 2*interval {
			t.Fatalf("record %d collected %d bytes after its death (interval %d)",
				r.AllocID, slack, interval)
		}
	}
}
