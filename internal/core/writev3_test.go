package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"psd/internal/geom"
)

// writeV3ViaRelease is the reference v3 write path: arena → Release (one
// heap *float64 per published count) → Validate → slab copy → encoder.
// The sealed-slab write must match it byte for byte.
func writeV3ViaRelease(p *PSD, w io.Writer) (int64, error) {
	s, err := p.Release().Slab()
	if err != nil {
		return 0, err
	}
	return s.WriteBinaryV3(w)
}

// TestWriteV3MatchesRelease pins the sealed-slab write to the old
// Release→Validate→slab path, byte for byte, for every kind — raw noisy
// and post-processed counts, pruned and adaptive trees — plus degenerate
// inputs (no points, one repeated point, −0 coordinates).
func TestWriteV3MatchesRelease(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	type input struct {
		name string
		pts  []geom.Point
	}
	negZero := math.Copysign(0, -1)
	inputs := []input{
		{"random", randomPoints(4096, dom, 91)},
		{"empty", nil},
		{"repeated", func() []geom.Point {
			pts := make([]geom.Point, 500)
			for i := range pts {
				pts[i] = geom.Point{X: 3.5, Y: 60}
			}
			return pts
		}()},
		{"negzero", []geom.Point{{X: negZero, Y: negZero}, {X: negZero, Y: 1}, {X: 1, Y: negZero}}},
	}
	for _, in := range inputs {
		for _, cfg := range slabTestConfigs() {
			label := fmt.Sprintf("%s/%v/h%d/pp=%v/prune=%v", in.name, cfg.Kind, cfg.Height, cfg.PostProcess, cfg.PruneThreshold)
			p, err := Build(in.pts, dom, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var want, got bytes.Buffer
			if _, err := writeV3ViaRelease(p, &want); err != nil {
				t.Fatalf("%s: release path: %v", label, err)
			}
			n, err := p.Sealed().WriteBinaryV3(&got)
			if err != nil {
				t.Fatalf("%s: sealed path: %v", label, err)
			}
			if n != int64(got.Len()) {
				t.Fatalf("%s: reported %d bytes, wrote %d", label, n, got.Len())
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: sealed write differs from the release path (%d vs %d bytes)", label, got.Len(), want.Len())
			}
		}
	}
}

// TestWriteV3RefusesInvalid: the encoder never emits what its decoder
// rejects. A non-finite published count or rect stops the write before
// the footer (so the partial bytes do not decode either); a bad header
// field stops it before any byte; a non-finite count in an unpublished
// slot is not released, so it is zeroed and the write succeeds.
func TestWriteV3RefusesInvalid(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	// PrivTree publishes its leaves and leaves its interior unpublished.
	p, err := Build(randomPoints(1024, dom, 93), dom, Config{Kind: PrivTree, Height: 4, Epsilon: 0.5, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	leaf, interior := -1, -1
	for i := 0; i < p.Sealed().Len(); i++ {
		if p.Sealed().usable.get(i) {
			leaf = i
		} else if interior < 0 {
			interior = i
		}
	}
	if leaf < 0 || interior < 0 {
		t.Fatal("fixture: want both published and unpublished nodes")
	}
	cases := map[string]func(s *Slab){
		"NaN count":     func(s *Slab) { s.nodes[leaf][4] = math.NaN() },
		"+Inf count":    func(s *Slab) { s.nodes[leaf][4] = math.Inf(1) },
		"-Inf count":    func(s *Slab) { s.nodes[leaf][4] = math.Inf(-1) },
		"NaN rect":      func(s *Slab) { s.nodes[leaf][2] = math.NaN() },
		"inverted rect": func(s *Slab) { s.nodes[leaf][0] = s.nodes[leaf][2] + 1 },
		"bad epsilon":   func(s *Slab) { s.epsilon = math.Inf(1) },
		"negative eps":  func(s *Slab) { s.epsilon = -1 },
		"empty domain":  func(s *Slab) { s.domain.Hi = s.domain.Lo },
		"NaN domain":    func(s *Slab) { s.domain.Lo.X = math.NaN() },
		"unsupported h": func(s *Slab) { s.height = maxReleaseHeight + 1 },
	}
	for name, corrupt := range cases {
		s := p.Seal()
		corrupt(s)
		var buf bytes.Buffer
		n, err := s.WriteBinaryV3(&buf)
		if err == nil {
			t.Errorf("%s: encoder accepted an invalid slab", name)
			continue
		}
		if n != int64(buf.Len()) {
			t.Errorf("%s: reported %d bytes, destination got %d", name, n, buf.Len())
		}
		if buf.Len() > 0 {
			if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
				t.Errorf("%s: the partial output decodes", name)
			}
		}
	}

	s := p.Seal()
	s.nodes[interior][4] = math.NaN() // unpublished: never released
	var buf bytes.Buffer
	if _, err := s.WriteBinaryV3(&buf); err != nil {
		t.Fatalf("NaN in an unpublished slot: %v", err)
	}
	var clean bytes.Buffer
	if _, err := p.Sealed().WriteBinaryV3(&clean); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), clean.Bytes()) {
		t.Error("an unpublished slot's value leaked into the artifact")
	}
}

// BenchmarkWriteV3 times the v3 write of a freshly built kd-h8 tree over
// 200k points: "seal" is the write path (seal the serving slab, encode
// it), "release" the reference path (Release, Validate, slab copy,
// encode). allocs/op and B/op are the figures of merit.
func BenchmarkWriteV3(b *testing.B) {
	dom := geom.NewRect(0, 0, 1000, 1000)
	p, err := Build(randomPoints(200_000, dom, 95), dom, Config{Kind: KD, Height: 8, Epsilon: 0.5, Seed: 96, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		write func(io.Writer) (int64, error)
	}{
		{"seal", func(w io.Writer) (int64, error) { return p.Seal().WriteBinaryV3(w) }},
		{"release", func(w io.Writer) (int64, error) { return writeV3ViaRelease(p, w) }},
	} {
		b.Run("kd-h8/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
