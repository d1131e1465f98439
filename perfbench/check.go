package main

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// answer is one ranked subgraph as the server returned it. Its slices
// are reused from answer to answer.
type answer struct {
	nodes      []uint32
	scores     []float64
	lambda     float64
	iterations int
	converged  bool
	cached     bool
	err        string // a batch item's error
}

func (a *answer) reset() {
	*a = answer{nodes: a.nodes[:0], scores: a.scores[:0]}
}

// massTolerance bounds |Σscores + λ − 1|: the extended chain is
// stochastic, so the iterate keeps unit mass up to rounding.
const massTolerance = 1e-9

// checkAnswer verifies one answer against the subgraph that was asked
// for: no error, converged, scores aligned with the canonical node list,
// non-negative, and summing with λ to 1.
func checkAnswer(it *item, a *answer) error {
	if a.err != "" {
		return fmt.Errorf("item error: %s", a.err)
	}
	if !a.converged {
		return errors.New("not converged")
	}
	if len(a.nodes) != it.n() || len(a.scores) != it.n() {
		return fmt.Errorf("%d nodes and %d scores for a %d-page subgraph", len(a.nodes), len(a.scores), it.n())
	}
	sum := 0.0
	for k, v := range a.nodes {
		if v != it.node(k) {
			return fmt.Errorf("node %d is %d, want %d", k, v, it.node(k))
		}
		s := a.scores[k]
		if !(s >= 0) || math.IsInf(s, 0) {
			return fmt.Errorf("score %d is %v", k, s)
		}
		sum += s
	}
	if !(a.lambda >= 0) || math.Abs(sum+a.lambda-1) > massTolerance {
		return fmt.Errorf("scores sum to %v with lambda %v", sum, a.lambda)
	}
	return nil
}

// sameScores reports whether two answers carry bit-identical scores,
// lambda and iteration counts.
func sameScores(a, b *answer) bool {
	if len(a.scores) != len(b.scores) || a.iterations != b.iterations ||
		math.Float64bits(a.lambda) != math.Float64bits(b.lambda) {
		return false
	}
	for k := range a.scores {
		if math.Float64bits(a.scores[k]) != math.Float64bits(b.scores[k]) {
			return false
		}
	}
	return true
}

// The checker parses every answer of a run. encoding/json's reflective
// decoder costs the client 1.6 ms for a 2,500-page answer that the
// server encodes in 0.6 ms, CPU taken from the server's two cores; this
// reader takes the known response shapes directly and skips any field it
// does not know.

// parseRank parses a single-subgraph /v1/rank response into a.
func parseRank(body []byte, a *answer) error {
	r := reader{b: body}
	a.reset()
	if err := r.rankResult(a); err != nil {
		return err
	}
	return r.end()
}

// parseBatch parses a batch /v1/rank response into out, which must have
// one answer per requested subgraph.
func parseBatch(body []byte, out []answer) error {
	r := reader{b: body}
	n := 0
	err := r.object(func(key []byte) error {
		if string(key) != "results" {
			return r.skip()
		}
		return r.array(func() error {
			if n == len(out) {
				return fmt.Errorf("more than %d batch results", len(out))
			}
			a := &out[n]
			a.reset()
			n++
			return r.object(func(key []byte) error {
				switch string(key) {
				case "result":
					return r.rankResult(a)
				case "error":
					s, err := r.str()
					a.err = string(s)
					if a.err == "" {
						a.err = "empty error"
					}
					return err
				}
				return r.skip()
			})
		})
	})
	if err != nil {
		return err
	}
	if n != len(out) {
		return fmt.Errorf("%d batch results for %d subgraphs", n, len(out))
	}
	return r.end()
}

// reader is a minimal JSON reader over one response body.
type reader struct {
	b []byte
	i int
}

func (r *reader) fail(what string) error {
	return fmt.Errorf("json: %s at offset %d", what, r.i)
}

func (r *reader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

func (r *reader) end() error {
	r.ws()
	if r.i != len(r.b) {
		return r.fail("trailing data")
	}
	return nil
}

func (r *reader) peek() byte {
	r.ws()
	if r.i < len(r.b) {
		return r.b[r.i]
	}
	return 0
}

func (r *reader) consume(c byte) bool {
	if r.peek() == c {
		r.i++
		return true
	}
	return false
}

// object reads an object, calling field for each key with the reader
// positioned at the value; field must consume the value.
func (r *reader) object(field func(key []byte) error) error {
	if !r.consume('{') {
		return r.fail("want object")
	}
	if r.consume('}') {
		return nil
	}
	for {
		key, err := r.str()
		if err != nil {
			return err
		}
		if !r.consume(':') {
			return r.fail("want ':'")
		}
		if err := field(key); err != nil {
			return err
		}
		if r.consume(',') {
			continue
		}
		if r.consume('}') {
			return nil
		}
		return r.fail("want ',' or '}'")
	}
}

// array reads an array, calling elem once per element; elem must consume
// it. null reads as an empty array.
func (r *reader) array(elem func() error) error {
	if r.literal("null") {
		return nil
	}
	if !r.consume('[') {
		return r.fail("want array")
	}
	if r.consume(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if r.consume(',') {
			continue
		}
		if r.consume(']') {
			return nil
		}
		return r.fail("want ',' or ']'")
	}
}

// str reads a string and returns its raw (still escaped) contents.
func (r *reader) str() ([]byte, error) {
	if !r.consume('"') {
		return nil, r.fail("want string")
	}
	start := r.i
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case '\\':
			r.i += 2
		case '"':
			s := r.b[start:r.i]
			r.i++
			return s, nil
		default:
			r.i++
		}
	}
	return nil, r.fail("unterminated string")
}

func (r *reader) literal(lit string) bool {
	r.ws()
	if len(r.b)-r.i >= len(lit) && string(r.b[r.i:r.i+len(lit)]) == lit {
		r.i += len(lit)
		return true
	}
	return false
}

// number returns the text of one JSON number.
func (r *reader) number() (string, error) {
	r.ws()
	start := r.i
	for r.i < len(r.b) {
		c := r.b[r.i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			r.i++
			continue
		}
		break
	}
	if r.i == start {
		return "", r.fail("want number")
	}
	// The string aliases the body, which outlives every use below.
	return unsafe.String(&r.b[start], r.i-start), nil
}

func (r *reader) float() (float64, error) {
	s, err := r.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, r.fail(err.Error())
	}
	return v, nil
}

func (r *reader) uint32() (uint32, error) {
	s, err := r.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, r.fail(err.Error())
	}
	return uint32(v), nil
}

func (r *reader) boolean() (bool, error) {
	switch {
	case r.literal("true"):
		return true, nil
	case r.literal("false"):
		return false, nil
	}
	return false, r.fail("want boolean")
}

// skip consumes one value of any type.
func (r *reader) skip() error {
	switch c := r.peek(); {
	case c == '{':
		return r.object(func([]byte) error { return r.skip() })
	case c == '[':
		return r.array(r.skip)
	case c == '"':
		_, err := r.str()
		return err
	case r.literal("true"), r.literal("false"), r.literal("null"):
		return nil
	default:
		_, err := r.number()
		return err
	}
}

// rankResult reads one rank result object into a.
func (r *reader) rankResult(a *answer) error {
	return r.object(func(key []byte) error {
		var err error
		switch string(key) {
		case "nodes":
			return r.array(func() error {
				v, err := r.uint32()
				a.nodes = append(a.nodes, v)
				return err
			})
		case "scores":
			return r.array(func() error {
				v, err := r.float()
				a.scores = append(a.scores, v)
				return err
			})
		case "lambda":
			a.lambda, err = r.float()
		case "iterations":
			var f float64
			f, err = r.float()
			a.iterations = int(f)
		case "converged":
			a.converged, err = r.boolean()
		case "cached":
			a.cached, err = r.boolean()
		default:
			err = r.skip()
		}
		return err
	})
}
