package snapshot

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"
)

// buildSample writes a two-section snapshot exercising every primitive.
func buildSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 0xDEADBEEFCAFE)
	s := w.Begin(TagMeta)
	s.Str("venue-1")
	s.U64(42)
	s.I64(-7)
	s.F64(math.Pi)
	s.Bool(true)
	s.Bool(false)
	s.Bytes([]byte{1, 2, 3})
	s = w.Begin(TagSpace)
	s.F64s([]float64{1.5, math.Inf(1), math.Copysign(0, -1), math.NaN()})
	s.F32s([]float32{2.5, -1})
	s.I32s([]int32{-1, 0, 7})
	s.I16s([]int16{3, -4, 5})
	s.U64s([]uint64{9, math.MaxUint64})
	s.F64s(nil)
	s.I32s([]int32{11})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildSample(t)
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Fingerprint() != 0xDEADBEEFCAFE {
		t.Fatalf("fingerprint = %#x", r.Fingerprint())
	}
	if r.FormatVersion() != Version {
		t.Fatalf("version = %d", r.FormatVersion())
	}
	if !r.Has(TagMeta) || !r.Has(TagSpace) || r.Has(TagIDIndex) {
		t.Fatalf("Has wrong: tags=%v", r.Tags())
	}
	if got := r.Tags(); len(got) != 2 || got[0] != TagMeta || got[1] != TagSpace {
		t.Fatalf("Tags = %v", got)
	}

	s, err := r.Section(TagMeta)
	if err != nil {
		t.Fatalf("Section(meta): %v", err)
	}
	if v := s.Str(); v != "venue-1" {
		t.Fatalf("Str = %q", v)
	}
	if v := s.U64(); v != 42 {
		t.Fatalf("U64 = %d", v)
	}
	if v := s.I64(); v != -7 {
		t.Fatalf("I64 = %d", v)
	}
	if v := s.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if !s.Bool() || s.Bool() {
		t.Fatal("Bool mismatch")
	}
	if v := s.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", v)
	}
	if s.Err() != nil {
		t.Fatalf("meta Err: %v", s.Err())
	}

	s, err = r.Section(TagSpace)
	if err != nil {
		t.Fatalf("Section(space): %v", err)
	}
	f64 := s.F64s()
	if len(f64) != 4 || f64[0] != 1.5 || !math.IsInf(f64[1], 1) ||
		math.Float64bits(f64[2]) != math.Float64bits(math.Copysign(0, -1)) || !math.IsNaN(f64[3]) {
		t.Fatalf("F64s = %v", f64)
	}
	if f32 := s.F32s(); len(f32) != 2 || f32[0] != 2.5 || f32[1] != -1 {
		t.Fatalf("F32s = %v", f32)
	}
	if i32 := s.I32s(); len(i32) != 3 || i32[0] != -1 || i32[2] != 7 {
		t.Fatalf("I32s = %v", i32)
	}
	if i16 := s.I16s(); len(i16) != 3 || i16[1] != -4 {
		t.Fatalf("I16s = %v", i16)
	}
	if u64 := s.U64s(); len(u64) != 2 || u64[1] != math.MaxUint64 {
		t.Fatalf("U64s = %v", u64)
	}
	if v := s.F64s(); v != nil {
		t.Fatalf("empty F64s = %v", v)
	}
	if i32 := s.I32s(); len(i32) != 1 || i32[0] != 11 {
		t.Fatalf("trailing I32s = %v", i32)
	}
	if s.Err() != nil {
		t.Fatalf("space Err: %v", s.Err())
	}
}

func TestRejectBadMagic(t *testing.T) {
	data := buildSample(t)
	data[0] ^= 0xFF
	if _, err := NewReader(data); err == nil {
		t.Fatal("bad header magic accepted")
	}
	data = buildSample(t)
	data[len(data)-1] ^= 0xFF
	if _, err := NewReader(data); err == nil {
		t.Fatal("bad trailer magic accepted")
	}
}

func TestRejectBadVersion(t *testing.T) {
	data := buildSample(t)
	data[8] = 99
	if _, err := NewReader(data); err == nil {
		t.Fatal("future format version accepted")
	}
}

func TestRejectTruncated(t *testing.T) {
	data := buildSample(t)
	for _, n := range []int{0, 1, headerSize, len(data) / 2, len(data) - 1} {
		if _, err := NewReader(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestRejectBitFlips(t *testing.T) {
	orig := buildSample(t)
	// Flip every byte in turn; a reader must never succeed AND serve a
	// corrupted section payload silently.
	for i := range orig {
		data := append([]byte(nil), orig...)
		data[i] ^= 0x40
		r, err := NewReader(data)
		if err != nil {
			continue // rejected at parse: fine
		}
		for _, tag := range r.Tags() {
			s, err := r.Section(tag)
			if err != nil {
				continue // rejected at section CRC: fine
			}
			// Section opened: its payload must be byte-identical to the
			// original (the flip landed in padding or dead bytes).
			ro, _ := NewReader(orig)
			so, err := ro.Section(tag)
			if err != nil {
				t.Fatalf("original section %d unreadable: %v", tag, err)
			}
			if !bytes.Equal(s.b, so.b) {
				t.Fatalf("flip at byte %d: section %d served corrupt payload", i, tag)
			}
		}
	}
}

func TestRejectTruncatedSectionReads(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	s := w.Begin(TagMeta)
	s.U64(5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := r.Section(TagMeta)
	if err != nil {
		t.Fatal(err)
	}
	if v := sr.U64(); v != 5 {
		t.Fatalf("U64 = %d", v)
	}
	// Reading past the end must poison the reader, not panic.
	_ = sr.U64()
	_ = sr.F64s()
	if sr.Err() == nil {
		t.Fatal("over-read not reported")
	}
}

func TestRejectOversizedArrayHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	s := w.Begin(TagMeta)
	s.U64(math.MaxUint64) // bogus count with no payload behind it
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sr, _ := r.Section(TagMeta)
	if v := sr.F64s(); v != nil || sr.Err() == nil {
		t.Fatal("oversized array header not rejected")
	}
	sr, _ = r.Section(TagMeta)
	if v := sr.Bytes(); v != nil || sr.Err() == nil {
		t.Fatal("oversized byte header not rejected")
	}
}

func TestMissingSection(t *testing.T) {
	r, err := NewReader(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section(TagIPTree); err == nil {
		t.Fatal("absent section opened")
	}
	if got := r.SectionSize(TagMeta); got == 0 {
		t.Fatal("SectionSize(meta) = 0")
	}
}

func TestAlignment(t *testing.T) {
	// Interleave odd-length arrays and confirm every numeric view decodes —
	// the pad-to-8 discipline must hold regardless of element widths.
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	s := w.Begin(TagMeta)
	s.I16s([]int16{1})
	s.F64s([]float64{2})
	s.Bytes([]byte{3, 4, 5, 6, 7})
	s.U64s([]uint64{8})
	s.F32s([]float32{9, 10, 11})
	s.F64s([]float64{12})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := r.Section(TagMeta)
	if err != nil {
		t.Fatal(err)
	}
	if v := sr.I16s(); v[0] != 1 {
		t.Fatalf("i16 %v", v)
	}
	if v := sr.F64s(); v[0] != 2 {
		t.Fatalf("f64 %v", v)
	}
	if v := sr.Bytes(); len(v) != 5 || v[4] != 7 {
		t.Fatalf("bytes %v", v)
	}
	if v := sr.U64s(); v[0] != 8 {
		t.Fatalf("u64 %v", v)
	}
	if v := sr.F32s(); len(v) != 3 || v[2] != 11 {
		t.Fatalf("f32 %v", v)
	}
	if v := sr.F64s(); v[0] != 12 {
		t.Fatalf("f64b %v", v)
	}
	if sr.Err() != nil {
		t.Fatal(sr.Err())
	}
}

// TestOpenRefusesNonRegular asserts Open refuses a character device instead
// of reading it: /dev/zero never ends, so a plain read would grow the heap
// until the process dies.
func TestOpenRefusesNonRegular(t *testing.T) {
	if _, err := os.Stat("/dev/zero"); err != nil {
		t.Skip("no /dev/zero on this system")
	}
	done := make(chan error, 1)
	go func() {
		_, err := Open("/dev/zero")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Open(/dev/zero) succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("Open(/dev/zero) still reading after 1s")
	}
}
