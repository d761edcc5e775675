// Package snapshot implements the versioned binary container every built
// index structure serializes into: a fixed header, a sequence of 8-aligned
// sections holding flat little-endian scalar/array payloads, and a CRC-backed
// section directory in a trailer at the end of the file (so writers stream —
// even multi-gigabyte matrices are never buffered twice).
//
// The format is deliberately reflection-free: each owning package appends its
// arrays through the typed Section methods and reads them back in the same
// order through SectionReader. Every array's payload bytes start 8-aligned,
// which lets the reader hand back zero-copy views into the snapshot buffer on
// little-endian hosts — loading a snapshot is one file read plus pointer
// wiring, the "near-mmap" load the ROADMAP asks for. Returned views alias the
// snapshot buffer and MUST be treated as read-only; structures that mutate
// (e.g. distance-cache cells) copy instead.
//
// File layout (all integers little-endian):
//
//	header   (24 B)  magic "ISQSNAP1" | format version u32 | reserved u32 |
//	                 space fingerprint u64
//	sections (8-aligned, back to back)  raw payload bytes, zero-padded
//	directory (32 B/entry)  tag u32 | reserved u32 | offset u64 | length u64 |
//	                 payload CRC32-C u32 | reserved u32
//	trailer  (32 B)  directory offset u64 | entry count u64 |
//	                 directory CRC32-C u32 | format version u32 | magic
//
// Integrity: the trailer magic/version and directory CRC gate the directory;
// each section's CRC is verified when the section is opened. A truncated,
// bit-flipped, or foreign file fails loudly instead of loading garbage.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// Magic identifies a snapshot file; the trailing '1' is a container-layout
// generation, bumped only if the header/trailer framing itself changes.
const Magic = "ISQSNAP1"

// Version is the current format version. Readers reject other versions:
// sections are schema-less flat arrays, so cross-version compatibility is
// handled by explicit migration tooling, not by in-process guessing.
const Version uint32 = 1

// Section tags. Tags identify who owns a section's schema; a reader skips
// tags it does not know, so adding a tag is a backward-compatible change.
const (
	TagMeta       uint32 = 1  // bundle metadata (venue name, engine set)
	TagSpace      uint32 = 2  // indoor.Space raw model + derived geometry
	TagDoorGraph  uint32 = 3  // doorgraph CSR arrays, both directions
	TagIDIndex    uint32 = 4  // IDINDEX matrices (wide or narrow)
	TagCIndex     uint32 = 5  // CINDEX R-tree + topological links
	TagIPTree     uint32 = 6  // IP-TREE nodes, matrices, routing tables
	TagVIPTree    uint32 = 7  // VIP-TREE (same schema as TagIPTree)
	TagReachSpace uint32 = 8  // reach summary over the topological edge set
	TagReachGraph uint32 = 9  // reach summary over the built door graph
	TagDistCache  uint32 = 10 // warm door-pair distance-cache pages
)

const (
	headerSize  = 24
	trailerSize = 32
	dirEntSize  = 32
)

// castagnoli is the CRC polynomial used throughout (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLE reports whether the host is little-endian, enabling the zero-copy
// array views. Big-endian hosts fall back to element-wise decoding.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

var pad8 [8]byte

// dirEnt is one directory entry accumulated by the writer.
type dirEnt struct {
	tag    uint32
	off    uint64
	length uint64
	crc    uint32
}

// Writer streams a snapshot file: header first, then sections in call order,
// then the directory and trailer on Close. Section payloads go straight to
// the underlying writer (wrap files in a bufio.Writer), so nothing is
// buffered proportional to payload size.
type Writer struct {
	w   io.Writer
	off uint64
	err error
	dir []dirEnt
	cur *Section
}

// NewWriter starts a snapshot with the given space fingerprint in the header
// (see indoor.Fingerprint). The header is written immediately.
func NewWriter(w io.Writer, fingerprint uint64) *Writer {
	sw := &Writer{w: w}
	var hdr [headerSize]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[16:24], fingerprint)
	sw.write(hdr[:])
	return sw
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	w.off += uint64(n)
	if err != nil {
		w.err = err
	}
}

// Begin opens a new section with the given tag, closing any open one. All
// subsequent Put calls append to this section until the next Begin or Close.
func (w *Writer) Begin(tag uint32) *Section {
	w.endSection()
	w.cur = &Section{w: w, tag: tag, start: w.off, crc: 0}
	return w.cur
}

// endSection pads the open section to an 8-byte boundary and records its
// directory entry.
func (w *Writer) endSection() {
	if w.cur == nil {
		return
	}
	s := w.cur
	w.cur = nil
	length := w.off - s.start
	if rem := w.off & 7; rem != 0 {
		w.write(pad8[:8-rem])
	}
	w.dir = append(w.dir, dirEnt{tag: s.tag, off: s.start, length: length, crc: s.crc})
}

// Close finishes the snapshot: it closes the open section and writes the
// directory and trailer. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	w.endSection()
	dirOff := w.off
	var ent [dirEntSize]byte
	dirCRC := uint32(0)
	for _, e := range w.dir {
		binary.LittleEndian.PutUint32(ent[0:4], e.tag)
		binary.LittleEndian.PutUint32(ent[4:8], 0)
		binary.LittleEndian.PutUint64(ent[8:16], e.off)
		binary.LittleEndian.PutUint64(ent[16:24], e.length)
		binary.LittleEndian.PutUint32(ent[24:28], e.crc)
		binary.LittleEndian.PutUint32(ent[28:32], 0)
		dirCRC = crc32.Update(dirCRC, castagnoli, ent[:])
		w.write(ent[:])
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], dirOff)
	binary.LittleEndian.PutUint64(tr[8:16], uint64(len(w.dir)))
	binary.LittleEndian.PutUint32(tr[16:20], dirCRC)
	binary.LittleEndian.PutUint32(tr[20:24], Version)
	copy(tr[24:32], Magic)
	w.write(tr[:])
	return w.err
}

// Err returns the first underlying write error.
func (w *Writer) Err() error { return w.err }

// Section appends typed values to one open section. Every value keeps the
// stream 8-aligned: scalars occupy 8 bytes, arrays are a u64 count followed
// by raw little-endian elements zero-padded to the next 8-byte boundary.
type Section struct {
	w     *Writer
	tag   uint32
	start uint64
	crc   uint32
	buf   [8]byte
}

func (s *Section) raw(b []byte) {
	s.crc = crc32.Update(s.crc, castagnoli, b)
	s.w.write(b)
}

func (s *Section) pad() {
	if rem := (s.w.off - s.start) & 7; rem != 0 {
		s.raw(pad8[:8-rem])
	}
}

// U64 appends one unsigned 64-bit value.
func (s *Section) U64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.raw(s.buf[:])
}

// I64 appends one signed 64-bit value.
func (s *Section) I64(v int64) { s.U64(uint64(v)) }

// F64 appends one float64.
func (s *Section) F64(v float64) { s.U64(math.Float64bits(v)) }

// Bool appends one boolean (as a full 8-byte word, keeping alignment).
func (s *Section) Bool(v bool) {
	if v {
		s.U64(1)
	} else {
		s.U64(0)
	}
}

// Bytes appends a length-prefixed byte array.
func (s *Section) Bytes(b []byte) {
	s.U64(uint64(len(b)))
	s.raw(b)
	s.pad()
}

// Str appends a length-prefixed string.
func (s *Section) Str(v string) { s.Bytes([]byte(v)) }

// sliceBytes returns the raw little-endian bytes of a numeric slice: an
// unsafe reinterpretation on little-endian hosts, an element-wise encode
// otherwise.
func sliceBytes[T any](v []T, put func(dst []byte, e T)) []byte {
	var zero T
	esz := int(unsafe.Sizeof(zero))
	if len(v) == 0 {
		return nil
	}
	if hostLE {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*esz)
	}
	out := make([]byte, len(v)*esz)
	for i, e := range v {
		put(out[i*esz:], e)
	}
	return out
}

// F64s appends a length-prefixed []float64.
func (s *Section) F64s(v []float64) {
	s.U64(uint64(len(v)))
	s.raw(sliceBytes(v, func(dst []byte, e float64) {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(e))
	}))
	s.pad()
}

// F32s appends a length-prefixed []float32.
func (s *Section) F32s(v []float32) {
	s.U64(uint64(len(v)))
	s.raw(sliceBytes(v, func(dst []byte, e float32) {
		binary.LittleEndian.PutUint32(dst, math.Float32bits(e))
	}))
	s.pad()
}

// I32s appends a length-prefixed []int32.
func (s *Section) I32s(v []int32) {
	s.U64(uint64(len(v)))
	s.raw(sliceBytes(v, func(dst []byte, e int32) {
		binary.LittleEndian.PutUint32(dst, uint32(e))
	}))
	s.pad()
}

// I16s appends a length-prefixed []int16.
func (s *Section) I16s(v []int16) {
	s.U64(uint64(len(v)))
	s.raw(sliceBytes(v, func(dst []byte, e int16) {
		binary.LittleEndian.PutUint16(dst, uint16(e))
	}))
	s.pad()
}

// U64s appends a length-prefixed []uint64.
func (s *Section) U64s(v []uint64) {
	s.U64(uint64(len(v)))
	s.raw(sliceBytes(v, func(dst []byte, e uint64) {
		binary.LittleEndian.PutUint64(dst, e)
	}))
	s.pad()
}

// span locates one section inside the snapshot buffer.
type span struct {
	off    uint64
	length uint64
	crc    uint32
}

// Reader parses a snapshot held fully in memory. Sections are located
// through the trailer directory; their CRC is verified when opened.
type Reader struct {
	buf         []byte
	fingerprint uint64
	version     uint32
	sections    map[uint32]span
	order       []uint32
}

// Open reads and parses the snapshot file at path. Only a regular file is
// read, and exactly its stat size: a device or FIFO (say /dev/zero) would
// otherwise stream without end into memory.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("snapshot: %s is not a regular file", path)
	}
	buf := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	return NewReader(buf)
}

// NewReader parses a snapshot from buf, which the returned Reader (and every
// zero-copy view handed out by its sections) aliases until dropped.
func NewReader(buf []byte) (*Reader, error) {
	if len(buf) < headerSize+trailerSize {
		return nil, fmt.Errorf("snapshot: truncated: %d bytes", len(buf))
	}
	if string(buf[:8]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	tr := buf[len(buf)-trailerSize:]
	if string(tr[24:32]) != Magic {
		return nil, fmt.Errorf("snapshot: bad trailer magic (truncated or corrupt file)")
	}
	r := &Reader{buf: buf, sections: make(map[uint32]span)}
	r.version = binary.LittleEndian.Uint32(buf[8:12])
	if r.version != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads %d", r.version, Version)
	}
	if v := binary.LittleEndian.Uint32(tr[20:24]); v != r.version {
		return nil, fmt.Errorf("snapshot: header/trailer version mismatch (%d vs %d)", r.version, v)
	}
	r.fingerprint = binary.LittleEndian.Uint64(buf[16:24])

	dirOff := binary.LittleEndian.Uint64(tr[0:8])
	count := binary.LittleEndian.Uint64(tr[8:16])
	dirCRC := binary.LittleEndian.Uint32(tr[16:20])
	dirEnd := dirOff + count*dirEntSize
	if dirOff < headerSize || dirEnd > uint64(len(buf)-trailerSize) || dirEnd < dirOff {
		return nil, fmt.Errorf("snapshot: directory out of bounds")
	}
	dir := buf[dirOff:dirEnd]
	if crc32.Checksum(dir, castagnoli) != dirCRC {
		return nil, fmt.Errorf("snapshot: directory checksum mismatch")
	}
	for i := uint64(0); i < count; i++ {
		ent := dir[i*dirEntSize:]
		sp := span{
			off:    binary.LittleEndian.Uint64(ent[8:16]),
			length: binary.LittleEndian.Uint64(ent[16:24]),
			crc:    binary.LittleEndian.Uint32(ent[24:28]),
		}
		tag := binary.LittleEndian.Uint32(ent[0:4])
		if sp.off < headerSize || sp.off+sp.length > dirOff || sp.off+sp.length < sp.off {
			return nil, fmt.Errorf("snapshot: section %d out of bounds", tag)
		}
		if _, dup := r.sections[tag]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %d", tag)
		}
		r.sections[tag] = sp
		r.order = append(r.order, tag)
	}
	return r, nil
}

// Fingerprint returns the space fingerprint stamped into the header.
func (r *Reader) Fingerprint() uint64 { return r.fingerprint }

// FormatVersion returns the file's format version.
func (r *Reader) FormatVersion() uint32 { return r.version }

// Has reports whether the snapshot contains a section with the given tag.
func (r *Reader) Has(tag uint32) bool {
	_, ok := r.sections[tag]
	return ok
}

// Tags returns the section tags in file order.
func (r *Reader) Tags() []uint32 { return append([]uint32(nil), r.order...) }

// SectionSize returns the payload length of a section (0 when absent).
func (r *Reader) SectionSize(tag uint32) uint64 { return r.sections[tag].length }

// Section opens one section, verifying its payload CRC first.
func (r *Reader) Section(tag uint32) (*SectionReader, error) {
	sp, ok := r.sections[tag]
	if !ok {
		return nil, fmt.Errorf("snapshot: section %d not present", tag)
	}
	payload := r.buf[sp.off : sp.off+sp.length]
	if crc32.Checksum(payload, castagnoli) != sp.crc {
		return nil, fmt.Errorf("snapshot: section %d checksum mismatch (corrupt payload)", tag)
	}
	return &SectionReader{tag: tag, b: payload}, nil
}

// SectionReader consumes one section's payload in the exact order it was
// written. Errors are sticky: the first bad read poisons the reader and every
// later call returns zero values; callers check Err once at the end.
type SectionReader struct {
	tag uint32
	b   []byte
	pos int
	err error
}

// Err returns the first decoding error (typically a truncated section).
func (s *SectionReader) Err() error { return s.err }

func (s *SectionReader) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("snapshot: section %d: %s", s.tag, fmt.Sprintf(format, args...))
	}
}

func (s *SectionReader) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if n < 0 || s.pos+n > len(s.b) {
		s.fail("truncated payload (want %d bytes at %d of %d)", n, s.pos, len(s.b))
		return nil
	}
	b := s.b[s.pos : s.pos+n]
	s.pos += n
	return b
}

func (s *SectionReader) skipPad() {
	if rem := s.pos & 7; rem != 0 {
		s.take(8 - rem)
	}
}

// U64 reads one unsigned 64-bit value.
func (s *SectionReader) U64() uint64 {
	b := s.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads one signed 64-bit value.
func (s *SectionReader) I64() int64 { return int64(s.U64()) }

// Int reads one signed 64-bit value as an int.
func (s *SectionReader) Int() int { return int(s.I64()) }

// F64 reads one float64.
func (s *SectionReader) F64() float64 { return math.Float64frombits(s.U64()) }

// Bool reads one boolean.
func (s *SectionReader) Bool() bool { return s.U64() != 0 }

// Bytes reads a length-prefixed byte array (a view into the buffer).
func (s *SectionReader) Bytes() []byte {
	n := s.U64()
	if s.err != nil {
		return nil
	}
	if n > uint64(len(s.b)-s.pos) {
		s.fail("byte array length %d exceeds section", n)
		return nil
	}
	b := s.take(int(n))
	s.skipPad()
	return b
}

// Str reads a length-prefixed string.
func (s *SectionReader) Str() string { return string(s.Bytes()) }

// view reads a length-prefixed numeric array. On little-endian hosts with the
// expected alignment it returns a zero-copy view into the snapshot buffer
// (read-only!); otherwise it decodes into a fresh slice.
func view[T any](s *SectionReader, get func([]byte) T) []T {
	var zero T
	esz := int(unsafe.Sizeof(zero))
	n := s.U64()
	if s.err != nil {
		return nil
	}
	if n > uint64((len(s.b)-s.pos)/esz) {
		s.fail("array length %d exceeds section", n)
		return nil
	}
	b := s.take(int(n) * esz)
	s.skipPad()
	if n == 0 {
		return nil
	}
	if hostLE && uintptr(unsafe.Pointer(&b[0]))%uintptr(esz) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), int(n))
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get(b[i*esz:])
	}
	return out
}

// F64s reads a length-prefixed []float64 (zero-copy view when possible).
func (s *SectionReader) F64s() []float64 {
	return view(s, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
}

// F32s reads a length-prefixed []float32.
func (s *SectionReader) F32s() []float32 {
	return view(s, func(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) })
}

// I32s reads a length-prefixed []int32.
func (s *SectionReader) I32s() []int32 {
	return view(s, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) })
}

// I16s reads a length-prefixed []int16.
func (s *SectionReader) I16s() []int16 {
	return view(s, func(b []byte) int16 { return int16(binary.LittleEndian.Uint16(b)) })
}

// U64s reads a length-prefixed []uint64.
func (s *SectionReader) U64s() []uint64 {
	return view(s, func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) })
}
