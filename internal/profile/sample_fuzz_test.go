package profile_test

import (
	"bytes"
	"reflect"
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/profile"
)

// FuzzSampledLogRoundTrip is FuzzLogRoundTrip's sampled twin: the seed
// corpus is every workload downsampled at two rates, raw and gzipped, so
// the fuzzer starts from logs whose headers carry the sample-rate field
// and mutates from there — the header extension must round-trip exactly
// and reject out-of-range rates without ever crashing the readers.
func FuzzSampledLogRoundTrip(f *testing.F) {
	f.Add([]byte(textLog))
	seed := func(p *profile.Profile) {
		for _, opts := range []profile.BinaryOptions{{}, {Compress: true}} {
			var bin bytes.Buffer
			if err := profile.WriteBinaryLog(&bin, p, opts); err != nil {
				f.Fatal(err)
			}
			f.Add(bin.Bytes())
		}
	}
	seed(&profile.Profile{Name: "empty-sampled", SampleRate: 0.25})
	for _, name := range bench.Names() {
		b, err := bench.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		r, err := bench.Run(b, bench.Original, bench.OriginalInput, bench.RunConfig{})
		if err != nil {
			f.Fatal(err)
		}
		for _, rate := range []float64{1e-1, 1e-3} {
			ds, err := profile.Downsample(r.Profile, rate, 1)
			if err != nil {
				f.Fatal(err)
			}
			seed(ds)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := profile.ReadLog(bytes.NewReader(data))
		if err != nil {
			return // malformed input is allowed, crashing on it is not
		}
		if !bytes.HasPrefix(data, []byte("dplg")) {
			t.Fatal("reader accepted input without the binary magic")
		}
		// Whatever parsed must carry a usable rate: the readers reject
		// anything outside (0, 1).
		if r := p.EffectiveSampleRate(); !(r > 0 && r <= 1) {
			t.Fatalf("reader accepted unusable sample rate %v", p.SampleRate)
		}

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
