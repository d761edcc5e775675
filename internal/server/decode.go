package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Request bodies are read whole, at most maxBodyBytes, and must hold
// exactly one JSON value: a longer body is 413 wherever its value ends, and
// anything but whitespace after the value is 400. encoding/json's
// semantics are the contract of every body. The update batch, the body of
// the ingest hot path, is decoded by a scanner for its canonical form
// instead of by reflection; any body outside that form goes through
// json.Unmarshal on the same bytes, the only path that runs on such input.
// FuzzUpdatesBody holds the scanner to json.Unmarshal.

// readBody appends the whole request body to b, failing with errTooLarge
// once it exceeds maxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request, b []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		var tooLarge *http.MaxBytesError
		switch {
		case err == io.EOF:
			return b, nil
		case errors.As(err, &tooLarge):
			return b, fmt.Errorf("%w: body over %d bytes", errTooLarge, maxBodyBytes)
		case err != nil:
			return b, fmt.Errorf("%w: body: %w", errBadRequest, err)
		}
	}
}

// decodeBody decodes a JSON request body of at most maxBodyBytes into v. A
// longer body is errTooLarge; any other failure, an empty body (io.EOF)
// and trailing data included, is errBadRequest.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	bp := bodyBufs.Get().(*[]byte)
	b, err := readBody(w, r, (*bp)[:0])
	if err == nil {
		err = unmarshalBody(b, v)
	}
	putBodyBuf(bp, b)
	return err
}

// unmarshalBody is json.Unmarshal of a whole body, with a body holding
// only whitespace reported as io.EOF.
func unmarshalBody(b []byte, v any) error {
	if len(bytes.Trim(b, " \t\r\n")) == 0 {
		return fmt.Errorf("%w: body: %w", errBadRequest, io.EOF)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%w: body: %w", errBadRequest, err)
	}
	return nil
}

// decodeUpdateBody decodes a POST .../updates body: scanUpdates on the
// canonical form, json.Unmarshal on anything else.
func decodeUpdateBody(b []byte, req *updateRequest) error {
	if scanUpdates(b, req) {
		return nil
	}
	*req = updateRequest{}
	return unmarshalBody(b, req)
}

// scanUpdates decodes the canonical form of an updates body,
//
//	{"updates":[{"id":..,"x":..,"y":..,"floor":..,"t":..,"part":..|null},...]}
//
// where "updates" is the only top-level key, each report uses only those
// exact lowercase keys (any subset, any order, a repeated key's last value
// wins), JSON whitespace may sit between tokens, and every number follows
// JSON's grammar and parses into its field: id and part as int32, floor as
// int16, the rest as float64. These are the values json.Unmarshal gives
// the same bytes. It reports false, leaving req partly filled, for any
// other body — other key casing, unknown keys, escapes, a fractional or
// overflowing integer, a null number or list, trailing data — which the
// caller then hands to json.Unmarshal.
func scanUpdates(b []byte, req *updateRequest) bool {
	s := updateScanner{b: b}
	if !s.lit('{') || !s.key("updates") || !s.lit('[') {
		return false
	}
	// Every report opens one brace, so this bounds the batch of a
	// canonical body (a longer batch is refused after decoding).
	us := make([]updateJSON, 0, min(bytes.Count(b, []byte{'{'})-1, maxUpdateBatch+1))
	if !s.lit(']') {
		for {
			var u updateJSON
			if !s.report(&u) {
				return false
			}
			us = append(us, u)
			if s.lit(']') {
				break
			}
			if !s.lit(',') {
				return false
			}
		}
	}
	if !s.lit('}') {
		return false
	}
	s.ws()
	req.Updates = us
	return s.i == len(b)
}

// updateScanner is scanUpdates' cursor over the body.
type updateScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *updateScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// lit consumes optional whitespace and the byte c, reporting whether c was
// next.
func (s *updateScanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes "want" and its colon.
func (s *updateScanner) key(want string) bool {
	name, ok := s.name()
	return ok && string(name) == want
}

// name consumes a quoted key and its colon, returning the bytes between the
// quotes. A key of a known field never holds a backslash or a quote, so
// the first quote ends it; any other key is rejected by the caller's
// comparison.
func (s *updateScanner) name() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		return nil, false
	}
	name := s.b[s.i : s.i+end]
	s.i += end + 1
	return name, s.lit(':')
}

// report consumes one {...} update report into u.
func (s *updateScanner) report(u *updateJSON) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	for {
		name, ok := s.name()
		if !ok {
			return false
		}
		s.ws()
		var v int64
		switch string(name) {
		case "id":
			v, ok = s.integer(32)
			u.ID = int32(v)
		case "x":
			ok = s.float(&u.X)
		case "y":
			ok = s.float(&u.Y)
		case "floor":
			v, ok = s.integer(16)
			u.Floor = int16(v)
		case "t":
			ok = s.float(&u.T)
		case "part":
			if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
				s.i += len("null")
				u.Part = nil
				break
			}
			v, ok = s.integer(32)
			p := int32(v)
			u.Part = &p
		default:
			return false
		}
		if !ok {
			return false
		}
		if s.lit('}') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// number consumes a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, returning its text.
func (s *updateScanner) number() ([]byte, bool) {
	b, i := s.b, s.i
	digits := func() int {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false
		}
	}
	num := b[s.i:i]
	s.i = i
	return num, true
}

// integer consumes an integer number that fits in bits.
func (s *updateScanner) integer(bits int) (int64, bool) {
	num, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(num), 10, bits)
	return v, err == nil
}

// float consumes a number that parses as a finite float64.
func (s *updateScanner) float(dst *float64) bool {
	num, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	*dst = v
	return err == nil
}
