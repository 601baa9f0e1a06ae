package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"psd"
)

// The /batch codec. A batch body in the canonical shape
// {"rects":[[a,b,c,d],...]} is parsed by a strict scanner and the reply is
// appended into a reused buffer, so a batch costs no allocation per
// rectangle. Anything the scanner does not accept goes to encoding/json
// unchanged, which stays the only path (and the reference) for every other
// body; the reply is byte-identical to json.Encoder output of the map the
// handler used to encode. The /count reply is appended the same way.

// batchRequest is the body of POST /v1/releases/{name}/batch, as
// encoding/json decodes it.
type batchRequest struct {
	Rects [][4]float64 `json:"rects"`
}

// batchScratch is the reusable state of one /batch request: the raw body,
// the decoded rectangles, the queries, their answers and the encoded reply.
type batchScratch struct {
	body  []byte
	rects [][4]float64
	qs    []psd.Rect
	vals  []float64
	out   []byte
}

// maxPooledBatchBytes bounds the scratch kept for reuse: a rare huge batch
// must not pin its buffers in the pool for the life of the process.
const maxPooledBatchBytes = 1 << 20

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func putBatchScratch(s *batchScratch) {
	n := cap(s.body) + cap(s.out) + 32*cap(s.rects) + 32*cap(s.qs) + 8*cap(s.vals)
	if n <= maxPooledBatchBytes {
		batchScratchPool.Put(s)
	}
}

// decode reads the whole body and returns its rectangles. A fully read body
// in the canonical shape is parsed by parseBatchBody; any other body, and
// any body whose read failed, goes to encoding/json, which sees the same
// bytes followed by the same read error and so answers exactly as if it had
// read the body itself.
func (s *batchScratch) decode(body io.Reader) ([][4]float64, error) {
	var readErr error
	s.body, readErr = readAll(s.body[:0], body)
	if readErr == nil {
		if rects, ok := parseBatchBody(s.rects[:0], s.body); ok {
			s.rects = rects
			return rects, nil
		}
	}
	src := io.Reader(bytes.NewReader(s.body))
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req batchRequest
	err := json.NewDecoder(src).Decode(&req)
	return req.Rects, err
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// readAll is io.ReadAll appending into b, so a pooled buffer is reused.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// parseBatchBody appends the rectangles of a canonical batch body to dst:
// exactly the object {"rects":[...]} whose elements are arrays of exactly
// four JSON numbers, with JSON whitespace between tokens and nothing but
// whitespace after the object. It returns false, declining rather than
// rejecting, for any other input, including numbers strconv.ParseFloat
// cannot represent. When it accepts, the rectangles are bit for bit what
// encoding/json decodes from the same bytes.
func parseBatchBody(dst [][4]float64, b []byte) ([][4]float64, bool) {
	p := batchScanner{b: b}
	if !p.token('{') || !p.literal(`"rects"`) || !p.token(':') || !p.token('[') {
		return dst, false
	}
	if !p.token(']') {
		for {
			var v [4]float64
			if !p.token('[') {
				return dst, false
			}
			for j := range v {
				if j > 0 && !p.token(',') {
					return dst, false
				}
				f, ok := p.number()
				if !ok {
					return dst, false
				}
				v[j] = f
			}
			if !p.token(']') {
				return dst, false
			}
			dst = append(dst, v)
			if p.token(']') {
				break
			}
			if !p.token(',') {
				return dst, false
			}
		}
	}
	if !p.token('}') {
		return dst, false
	}
	p.skipSpace()
	return dst, p.i == len(p.b)
}

// batchScanner walks a batch body; i is the next unread byte.
type batchScanner struct {
	b []byte
	i int
}

func (p *batchScanner) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// token skips whitespace and consumes c if it comes next.
func (p *batchScanner) token(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal skips whitespace and consumes s if it comes next.
func (p *batchScanner) literal(s string) bool {
	p.skipSpace()
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (p *batchScanner) digits() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// number skips whitespace and consumes one number in the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, converting it with
// strconv.ParseFloat as encoding/json does. It fails on a grammar
// violation or a value out of float64 range.
func (p *batchScanner) number() (float64, bool) {
	p.skipSpace()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.b) && p.b[p.i] == '0':
		p.i++
	case p.i < len(p.b) && '1' <= p.b[p.i] && p.b[p.i] <= '9':
		p.digits()
	default:
		return 0, false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digits() {
			return 0, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return f, err == nil
}

// appendBatchReply appends the /batch reply, byte for byte what
// json.Encoder writes for
//
//	map[string]any{"release": name, "counts": vals, "cache_hits": hits, "stats": st}
//
// keys sorted, newline-terminated. It returns false if a count is not
// finite, which encoding/json refuses to encode.
func appendBatchReply(b []byte, name string, vals []float64, hits int, st psd.QueryStats) ([]byte, bool) {
	b = append(b, `{"cache_hits":`...)
	b = strconv.AppendInt(b, int64(hits), 10)
	b = append(b, `,"counts":[`...)
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, v)
	}
	b = append(b, `],"release":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"stats":{"nodes_added":`...)
	b = strconv.AppendInt(b, int64(st.NodesAdded), 10)
	b = append(b, `,"nodes_visited":`...)
	b = strconv.AppendInt(b, int64(st.NodesVisited), 10)
	b = append(b, `,"partial_leaves":`...)
	b = strconv.AppendInt(b, int64(st.PartialLeaves), 10)
	return append(b, "}}\n"...), true
}

// appendCountReply appends the /count reply, byte for byte what
// json.Encoder writes for
//
//	map[string]any{"release": name, "rect": [4]float64{...}, "count": val, "cached": cached}
//
// keys sorted, newline-terminated. It returns false if val is not finite;
// q's bounds always are.
func appendCountReply(b []byte, name string, q psd.Rect, val float64, cached bool) ([]byte, bool) {
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return b, false
	}
	b = append(b, `{"cached":`...)
	b = strconv.AppendBool(b, cached)
	b = append(b, `,"count":`...)
	b = appendJSONFloat(b, val)
	b = append(b, `,"rect":[`...)
	for i, f := range [4]float64{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y} {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, f)
	}
	b = append(b, `],"release":`...)
	b = appendJSONString(b, name)
	return append(b, "}\n"...), true
}

// appendJSONFloat formats a finite float64 as encoding/json does: like
// strconv 'f' with the shortest exact digits, switching to 'e' below 1e-6
// and from 1e21 on, with a one-digit negative exponent unpadded (e-7, not
// e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a JSON string the way json.Encoder does.
// Names of printable ASCII with nothing to escape are copied; anything else
// goes through json.Marshal, which applies the encoder's escaping (HTML
// characters, control characters, U+2028/U+2029, invalid UTF-8).
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
