package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sync"
)

// bodyBufs recycles the buffers request bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer releaseBody pools: one that grew
// past it (a batch body) is dropped, so it stays pinned by no pool.
const maxPooledBody = 1 << 20

// readBody reads a request body once, under maxBodyBytes, into a pooled
// buffer; the caller hands it back with releaseBody once it is done with
// the bytes. Both POST endpoints read their bodies through it. The
// buffer doubles as bytes arrive (as a json.Decoder's does; io.ReadAll's
// gentler growth allocates ~1.3× more on an 18 KiB body) and is never
// pre-sized from Content-Length, so a client that claims 16 MiB and then
// stalls pins nothing. A body past the bound is a 400 even when a
// complete value precedes the excess.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	body := bodyBufs.Get().(*bytes.Buffer)
	body.Reset()
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		releaseBody(body)
		return nil, badRequest(err)
	}
	return body, nil
}

// releaseBody returns a buffer from readBody to the pool.
func releaseBody(body *bytes.Buffer) {
	if body.Cap() <= maxPooledBody {
		bodyBufs.Put(body)
	}
}

// decodeRankRequest decodes a /v1/rank body. scanRankRequest takes the
// common shape; whatever it declines goes to encoding/json on the same
// bytes, so every error a client can see is encoding/json's. The
// fallback is a Decoder, not Unmarshal: /v1/rank ignores data after the
// first value, and Unmarshal would reject it.
func decodeRankRequest(body []byte) (rankRequest, error) {
	if req, ok := scanRankRequest(body); ok {
		return req, nil
	}
	var req rankRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return req, badRequest(err)
	}
	return req, nil
}

// scanRankRequest decodes body without reflection when it has the common
// shape: one object whose keys are "nodes", "subgraphs", "timeout_ms",
// "epsilon", "tolerance" or "max_iterations", spelled exactly and each at
// most once; id arrays of plain decimal uint32s (no sign, leading zero,
// fraction or exponent); knobs whose raw number token json.Unmarshal
// accepts into the field; JSON whitespace anywhere; nothing after the
// object but whitespace. On anything else — escapes, null, unknown,
// case-variant or duplicate keys, a knob error, trailing data — it
// declines (ok=false) rather than guess what encoding/json would do.
func scanRankRequest(body []byte) (req rankRequest, ok bool) {
	s := rankScanner{b: body}
	if !s.consume('{') {
		return req, false
	}
	if !s.consume('}') {
		var seen uint8
		for {
			if !s.consume('"') {
				return req, false
			}
			n := bytes.IndexByte(s.b[s.i:], '"')
			if n < 0 {
				return req, false
			}
			key := s.b[s.i : s.i+n]
			s.i += n + 1
			if !s.consume(':') {
				return req, false
			}
			var bit uint8
			switch string(key) {
			case "nodes":
				bit = 1
				req.Nodes, ok = s.ids()
			case "subgraphs":
				bit = 2
				req.Subgraphs, ok = s.subgraphs()
			case "timeout_ms":
				bit = 4
				ok = s.knob(&req.TimeoutMS)
			case "epsilon":
				bit = 8
				ok = s.knob(&req.Epsilon)
			case "tolerance":
				bit = 16
				ok = s.knob(&req.Tolerance)
			case "max_iterations":
				bit = 32
				ok = s.knob(&req.MaxIterations)
			default:
				return req, false
			}
			if !ok || seen&bit != 0 {
				return req, false
			}
			seen |= bit
			if s.consume('}') {
				break
			}
			if !s.consume(',') {
				return req, false
			}
		}
	}
	s.ws()
	return req, s.i == len(s.b)
}

// rankScanner is scanRankRequest's cursor over the body.
type rankScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *rankScanner) ws() {
	for s.i < len(s.b) && isSpace(s.b[s.i]) {
		s.i++
	}
}

// consume skips whitespace, then c if it comes next, and reports whether
// it did.
func (s *rankScanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// ids scans an array of ids into a non-nil slice (empty for []). The
// capacity comes from the commas before the first ']', capped at one id
// per two bytes — the densest a valid array packs — so junk between the
// brackets cannot inflate it.
func (s *rankScanner) ids() ([]uint32, bool) {
	if !s.consume('[') {
		return nil, false
	}
	span := bytes.IndexByte(s.b[s.i:], ']')
	if span < 0 {
		return nil, false
	}
	ids := make([]uint32, 0, min(bytes.Count(s.b[s.i:s.i+span], []byte{','}), span/2)+1)
	if s.consume(']') {
		return ids, true
	}
	// The loop keeps the cursor in a local: it is the hot path of a rank
	// request, and s.i would round-trip through memory on every byte.
	b, i := s.b, s.i
	for {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		// A plain decimal uint32: one to ten digits, no leading zero, at
		// most 4294967295. A sign, fraction or exponent stops the digits,
		// and the byte after them then declines.
		start := i
		var v uint64
		for i < len(b) && i-start < 10 && b[i]-'0' <= 9 {
			v = v*10 + uint64(b[i]-'0')
			i++
		}
		if i == start || i-start > 1 && b[start] == '0' || v > math.MaxUint32 {
			return nil, false
		}
		ids = append(ids, uint32(v))
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i == len(b) || b[i] != ',' && b[i] != ']' {
			return nil, false
		}
		i++
		if b[i-1] == ']' {
			s.i = i
			return ids, true
		}
	}
}

// subgraphs scans an array of id arrays into a non-nil slice.
func (s *rankScanner) subgraphs() ([][]uint32, bool) {
	if !s.consume('[') {
		return nil, false
	}
	out := [][]uint32{}
	if s.consume(']') {
		return out, true
	}
	for {
		ids, ok := s.ids()
		if !ok {
			return nil, false
		}
		out = append(out, ids)
		if s.consume(']') {
			return out, true
		}
		if !s.consume(',') {
			return nil, false
		}
	}
}

// knob scans a number token — the run of bytes a JSON number can hold,
// which must start with '-' or a digit — and hands it to json.Unmarshal,
// so the number's grammar and the field's range stay encoding/json's.
func (s *rankScanner) knob(dst any) bool {
	s.ws()
	start := s.i
	for s.i < len(s.b) && isNumberByte(s.b[s.i]) {
		s.i++
	}
	if s.i == start || s.b[start] != '-' && s.b[start]-'0' > 9 {
		return false
	}
	return json.Unmarshal(s.b[start:s.i], dst) == nil
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool {
	return c == ' ' || c == '\n' || c == '\r' || c == '\t'
}

// isNumberByte reports whether c can appear in a JSON number.
func isNumberByte(c byte) bool {
	return c-'0' <= 9 || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}
