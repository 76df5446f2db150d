package sidecar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"atgis/internal/geom"
)

// buildTestIndex records a deterministic tape of n features and
// freezes it.
func buildTestIndex(t testing.TB, format uint8, n int) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder(format)
	for i := 0; i < n; i++ {
		if i%37 == 36 {
			// Features with no geometry record the empty box.
			b.Add(int64(100+i*50), int64(i), geom.EmptyBox())
			continue
		}
		cx := rng.Float64()*340 - 170
		cy := rng.Float64()*160 - 80
		w, h := rng.Float64()*8, rng.Float64()*8
		b.Add(int64(100+i*50), int64(i), geom.Box{MinX: cx - w, MinY: cy - h, MaxX: cx + w, MaxY: cy + h})
	}
	srcLen := int64(100 + n*50 + 7)
	ix, err := b.Build(srcLen, 123456789, 0xfeedface)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, format := range []uint8{FormatGeoJSON, FormatWKT, FormatOSMXML} {
		for _, n := range []int{1, 40, 300, 2500} {
			ix := buildTestIndex(t, format, n)
			got, err := Decode(ix.Encode())
			if err != nil {
				t.Fatalf("format %d n %d: decode of own encoding: %v", format, n, err)
			}
			if !reflect.DeepEqual(ix, got) {
				t.Fatalf("format %d n %d: round trip changed the index", format, n)
			}
		}
	}
}

func TestBuildRejectsBadTape(t *testing.T) {
	box := geom.Box{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	cases := []struct {
		name string
		prep func() *Builder
	}{
		{"offset past source", func() *Builder {
			b := NewBuilder(FormatWKT)
			b.Add(5000, 1, box)
			return b
		}},
		{"negative offset", func() *Builder {
			b := NewBuilder(FormatWKT)
			b.Add(-1, 1, box)
			return b
		}},
		{"non-increasing offsets", func() *Builder {
			b := NewBuilder(FormatGeoJSON)
			b.Add(40, 1, box)
			b.Add(40, 2, box)
			return b
		}},
		{"unknown format", func() *Builder {
			b := NewBuilder(9)
			b.Add(40, 1, box)
			return b
		}},
	}
	for _, tc := range cases {
		if _, err := tc.prep().Build(1000, 1, 2); err == nil {
			t.Errorf("%s: Build accepted a broken tape", tc.name)
		}
	}
	// OSM XML tapes interleave ways and relations: offsets need not be
	// monotone.
	b := NewBuilder(FormatOSMXML)
	b.Add(500, 1, box)
	b.Add(100, 2, box)
	if _, err := b.Build(1000, 1, 2); err != nil {
		t.Fatalf("OSM tape with non-monotone offsets rejected: %v", err)
	}
}

func TestValidate(t *testing.T) {
	ix := buildTestIndex(t, FormatGeoJSON, 40)
	hash := func() uint64 { return ix.SrcHash }
	if err := ix.Validate(ix.SrcLen, ix.SrcMtime, hash); err != nil {
		t.Fatalf("matching source rejected: %v", err)
	}
	if err := ix.Validate(ix.SrcLen+1, ix.SrcMtime, hash); !errors.Is(err, ErrStale) {
		t.Fatalf("size mismatch: %v, want ErrStale", err)
	}
	if err := ix.Validate(ix.SrcLen, ix.SrcMtime+1, hash); !errors.Is(err, ErrStale) {
		t.Fatalf("mtime mismatch: %v, want ErrStale", err)
	}
	if err := ix.Validate(ix.SrcLen, ix.SrcMtime, func() uint64 { return ix.SrcHash + 1 }); !errors.Is(err, ErrStale) {
		t.Fatalf("hash mismatch: %v, want ErrStale", err)
	}
}

// TestDecodeRejectsEveryBitFlip: the trailing self-checksum must turn
// any single corrupted byte — header, payload, or the checksum itself —
// into a typed ErrCorrupt, never a decoded index or a panic.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	enc := buildTestIndex(t, FormatWKT, 60).Encode()
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x20
		if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// withVersion rewrites an encoding's version field and re-seals its
// checksum, so the version is the only thing wrong with it.
func withVersion(enc []byte, v uint16) []byte {
	out := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint16(out[4:6], v)
	binary.LittleEndian.PutUint64(out[len(out)-8:], Hash(out[:len(out)-8]))
	return out
}

// TestDecodeRejectsOtherVersions: a well-formed file of any other
// format version — the old one that also carried a cell index included
// — is ErrCorrupt naming its version, so a readwrite engine re-records
// it instead of misreading it.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	enc := buildTestIndex(t, FormatGeoJSON, 30).Encode()
	if len(enc) != headerSize+entrySize*30+8 {
		t.Fatalf("encoding of 30 features is %d bytes, want %d", len(enc), headerSize+entrySize*30+8)
	}
	for _, v := range []uint16{0, 1, 3} {
		_, err := Decode(withVersion(enc, v))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Fatalf("version %d: err = %v, want ErrCorrupt naming the version", v, err)
		}
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	enc := buildTestIndex(t, FormatGeoJSON, 25).Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "data.wkt")
	ix := buildTestIndex(t, FormatWKT, 120)

	// Loading before any write reports plain not-exist, not corruption.
	if _, err := Load(src); !os.IsNotExist(err) {
		t.Fatalf("missing sidecar: err = %v, want not-exist", err)
	}

	if err := Write(src, ix); err != nil {
		t.Fatal(err)
	}
	got, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ix, got) {
		t.Fatal("write/load round trip changed the index")
	}

	// No temp litter after a successful write.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// FuzzSidecarDecode: decoding arbitrary bytes must be total — either a
// usable index upholding the warm-pass invariants, or a typed
// ErrCorrupt. Never a panic, never an out-of-range offset.
func FuzzSidecarDecode(f *testing.F) {
	for _, format := range []uint8{FormatGeoJSON, FormatWKT, FormatOSMXML} {
		enc := buildTestIndex(f, format, 30).Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:headerSize])
		mut := append([]byte(nil), enc...)
		mut[headerSize+3] ^= 0x80
		f.Add(mut)
	}
	f.Add(buildTestIndex(f, FormatWKT, 1).Encode())
	f.Add(withVersion(buildTestIndex(f, FormatGeoJSON, 30).Encode(), 1))
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted: the invariants warm passes depend on must hold, and
		// the index must re-encode to exactly the accepted bytes.
		for i, off := range ix.Offs {
			if off < 0 || off >= ix.SrcLen {
				t.Fatalf("accepted offset %d outside source [0,%d)", off, ix.SrcLen)
			}
			if i > 0 && ix.Format != FormatOSMXML && off <= ix.Offs[i-1] {
				t.Fatalf("accepted non-increasing offsets at %d", i)
			}
		}
		if reenc := ix.Encode(); !reflect.DeepEqual(reenc, data) {
			t.Fatal("accepted bytes do not re-encode identically")
		}
	})
}
