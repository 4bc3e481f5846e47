package profile_test

import (
	"bytes"
	"reflect"
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/profile"
)

// textLog is a log in the line-oriented text format (v2) that earlier
// builds wrote. Both round-trip fuzzers seed it as an input ReadLog must
// reject.
const textLog = "dragprof-log 2\nname \"t\"\nfinalclock 100\ngcinterval 102400\n" +
	"classes 0\nmethods 0\nfiles 0\nsites 0\nchains 0\nrecords 0\n"

// FuzzLogRoundTrip feeds arbitrary bytes to the reader and, whenever they
// parse as a drag log, writes the profile again and asserts field-level
// equality on the read-back. Input without the binary magic must never
// parse. The seed corpus is the nine embedded workloads plus the format
// edge cases (empty profile, raw, gzip, small blocks with checkpoints, a
// text log), so the fuzzer starts from every real encoding path rather
// than random noise.
func FuzzLogRoundTrip(f *testing.F) {
	f.Add([]byte(textLog))
	seed := func(p *profile.Profile) {
		for _, opts := range []profile.BinaryOptions{{}, {Compress: true}, {BlockRecords: 64}} {
			var bin bytes.Buffer
			if err := profile.WriteBinaryLog(&bin, p, opts); err != nil {
				f.Fatal(err)
			}
			f.Add(bin.Bytes())
		}
	}
	seed(&profile.Profile{Name: "empty"})
	for _, name := range bench.Names() {
		b, err := bench.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		r, err := bench.Run(b, bench.Original, bench.OriginalInput, bench.RunConfig{})
		if err != nil {
			f.Fatal(err)
		}
		seed(r.Profile)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := profile.ReadLog(bytes.NewReader(data))
		if err != nil {
			return // malformed input is allowed, crashing on it is not
		}
		if !bytes.HasPrefix(data, []byte("dplg")) {
			t.Fatal("reader accepted input without the binary magic")
		}

		// Compressed for half the inputs, to cover both body paths
		// without nondeterminism.
		var bin bytes.Buffer
		opts := profile.BinaryOptions{Compress: len(data)%2 == 0}
		if err := profile.WriteBinaryLog(&bin, p, opts); err != nil {
			t.Fatalf("binary write of parsed profile: %v", err)
		}
		p2, err := profile.ReadLog(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("binary reread: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatal("binary round trip changed the profile")
		}
	})
}
