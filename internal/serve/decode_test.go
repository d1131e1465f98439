package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/gen"
)

// postRaw sends body to /v1/rank through the handler and returns the
// status and the exact response body.
func postRaw(s *Server, body string) (int, string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rank", strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestRankRequestParity pins what /v1/rank answers for bodies on either
// side of the scanner's contract. Every error body below is the one the
// encoding/json-only decoder answered; each 200 must match, byte for
// byte, the answer to the canonical body in same. The one intended
// difference is the padded over-limit body, which used to get a 200.
func TestRankRequestParity(t *testing.T) {
	ds, _ := testWeb(t, 400, 30)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	// Warm the cache so every 200 below, the batch item's included, is a
	// result hit.
	for _, warm := range []string{`{"nodes":[1,2]}`, `{"nodes":[1]}`} {
		if code, body := postRaw(s, warm); code != http.StatusOK {
			t.Fatalf("warm-up: %d %s", code, body)
		}
	}
	const tooLarge = `{"error":"bad request: http: request body too large"}` + "\n"
	cases := []struct {
		name   string
		body   string
		status int
		want   string // exact response body of an error
		same   string // for a 200: the body whose response must match
	}{
		{"exponent id", `{"nodes":[1e3]}`, 400, `{"error":"bad request: json: cannot unmarshal number 1e3 into Go struct field rankRequest.nodes of type uint32"}` + "\n", ""},
		{"negative id", `{"nodes":[-1]}`, 400, `{"error":"bad request: json: cannot unmarshal number -1 into Go struct field rankRequest.nodes of type uint32"}` + "\n", ""},
		{"id past uint32", `{"nodes":[4294967296]}`, 400, `{"error":"bad request: json: cannot unmarshal number 4294967296 into Go struct field rankRequest.nodes of type uint32"}` + "\n", ""},
		{"leading zero", `{"nodes":[01]}`, 400, `{"error":"bad request: invalid character '1' after array element"}` + "\n", ""},
		{"case-variant key", `{"Nodes":[1,2]}`, 200, "", `{"nodes":[1,2]}`},
		{"canonical", `{"nodes":[1,2]}`, 200, "", `{"nodes":[1,2]}`},
		{"whitespace everywhere", " \t\r\n{ \"nodes\" :\n[ 2 ,\t1 , 2 ] , \"timeout_ms\" : 10000 }\n ", 200, "", `{"nodes":[1,2]}`},
		{"duplicate key, last wins", `{"nodes":[5,6],"nodes":[1,2]}`, 200, "", `{"nodes":[1,2]}`},
		{"null nodes, batch", `{"nodes":null,"subgraphs":[[1]]}`, 200, "", `{"subgraphs":[[1]]}`},
		{"trailing data", `{"nodes":[1,2]} xyz`, 200, "", `{"nodes":[1,2]}`},
		{"empty body", ``, 400, `{"error":"bad request: EOF"}` + "\n", ""},
		{"knob as a string", `{"nodes":[1,2],"timeout_ms":"5"}`, 400, `{"error":"bad request: json: cannot unmarshal string into Go struct field rankRequest.timeout_ms of type int64"}` + "\n", ""},
		{"knob out of range", `{"nodes":[1,2],"epsilon":1e400}`, 400, `{"error":"bad request: json: cannot unmarshal number 1e400 into Go struct field rankRequest.epsilon of type float64"}` + "\n", ""},
		{"empty nodes", `{"nodes":[]}`, 400, `{"error":"bad request: exactly one of \"nodes\" or \"subgraphs\" must be set"}` + "\n", ""},
		{"id outside graph", `{"nodes":[400]}`, 400, `{"error":"bad request: serve: node 400 outside global graph (N=400)"}` + "\n", ""},
		{"unterminated", `{"nodes":[1,2]`, 400, `{"error":"bad request: unexpected EOF"}` + "\n", ""},
		{"value crosses the limit", `{"nodes":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`, 400, tooLarge, ""},
		{"padded past the limit", `{"nodes":[1,2]}` + strings.Repeat(" ", maxBodyBytes), 400, tooLarge, ""},
	}
	for _, tc := range cases {
		code, body := postRaw(s, tc.body)
		want := tc.want
		if tc.same != "" {
			_, want = postRaw(s, tc.same)
		}
		if code != tc.status || body != want {
			t.Errorf("%s: got %d %q, want %d %q", tc.name, code, body, tc.status, want)
		}
	}
}

// TestSearchBodyTooLarge: /v1/search reads its body as /v1/rank does, so
// a body past the limit is a 400 even when a complete query precedes
// the excess; the query alone is answered.
func TestSearchBodyTooLarge(t *testing.T) {
	ds, terms := testWeb(t, 400, 32)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph), Terms: terms})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	search := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	query := `{"nodes":[1,2,3],"terms":[0]}`
	if code, got := search(query); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, got)
	}
	want := `{"error":"bad request: http: request body too large"}` + "\n"
	if code, got := search(query + strings.Repeat(" ", maxBodyBytes)); code != http.StatusBadRequest || got != want {
		t.Errorf("padded past the limit: %d %q, want 400 %q", code, got, want)
	}
}

// TestRequestTimeoutCap: timeout_ms values whose nanosecond count
// overflows a Duration get the cap, not a wrapped budget or an error.
func TestRequestTimeoutCap(t *testing.T) {
	ds, _ := testWeb(t, 300, 31)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	for _, ms := range []int64{18446744073710, 9300000000000, math.MaxInt64} {
		cfg, err := s.requestConfig(0, 0, 0, ms)
		if err != nil || cfg.Deadline != s.maxTimeout {
			t.Errorf("timeout_ms %d: deadline %v, err %v; want %v, nil", ms, cfg.Deadline, err, s.maxTimeout)
		}
	}
	if cfg, err := s.requestConfig(0, 0, 0, 1500); err != nil || cfg.Deadline != 1500*time.Millisecond {
		t.Errorf("timeout_ms 1500: deadline %v, err %v", cfg.Deadline, err)
	}
}

// FuzzRankRequest: for any body the scanner either declines or returns
// exactly what encoding/json's Decoder decodes, and it never accepts a
// body that is not one whole JSON value.
func FuzzRankRequest(f *testing.F) {
	for _, seed := range []string{
		`{"nodes":[1,2,3]}`,
		`{"nodes":[3,1,3,0,4294967295]}`,
		`{"nodes":[]}`,
		`{"subgraphs":[[1,2],[],[7]]}`,
		`{"subgraphs":[]}`,
		`{"nodes":[1e3]}`,
		`{"nodes":[-1]}`,
		`{"nodes":[4294967296]}`,
		`{"nodes":[01]}`,
		`{"nodes":[1.0]}`,
		` { "nodes" : [ 1 , 2 ] , "timeout_ms" : 5 } `,
		"\t{\n\"nodes\"\r:[1]}\n",
		`{"nodes":[1],"timeout_ms":250,"epsilon":0.85,"tolerance":1e-9,"max_iterations":100}`,
		`{"nodes":[1],"timeout_ms":"5"}`,
		`{"nodes":[1],"max_iterations":1.5}`,
		`{"nodes":[1],"epsilon":1e400}`,
		`{"nodes":[1],"tolerance":-0}`,
		`{"nodes":[1],"timeout_ms":null}`,
		`{"nodes":null}`,
		`{"Nodes":[1]}`,
		`{"nodes":[1],"nodes":[2]}`,
		`{"nodes":[1]}`,
		`{"nodes":[1],"bogus":true}`,
		`{"nodes":[1]} xyz`,
		`{"nodes":[1]}}`,
		`{"nodes":[1],}`,
		`{}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanRankRequest(body)
		if !ok {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("scanner accepted %q, which is not one JSON value", body)
		}
		var want rankRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("scanner accepted %q; encoding/json: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: scanner %+v, encoding/json %+v", body, got, want)
		}
	})
}

// benchCrawl returns a fixed-seed 20k-page web and a deterministic
// 2.5k-page BFS crawl of it, in crawl order: the shape of a hot-repeat
// or crawl-cold request.
func benchCrawl(tb testing.TB) (*gen.Dataset, []uint32) {
	tb.Helper()
	ds, err := gen.Generate(gen.Config{Pages: 20000, Domains: 4, Topics: 4, Seed: 7})
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	pages, err := crawler.BFS(ds.Graph, 0, 2500)
	if err != nil || len(pages) != 2500 {
		tb.Fatalf("BFS: %d pages, %v", len(pages), err)
	}
	return ds, pages
}

// BenchmarkDecodeRankRequest decodes a crawl-order rank body with the
// scanner and, for comparison, with the encoding/json fallback alone.
func BenchmarkDecodeRankRequest(b *testing.B) {
	_, crawl := benchCrawl(b)
	body := []byte(`{"nodes":[`)
	for i, id := range crawl {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendUint(body, uint64(id), 10)
	}
	body = append(body, "]}"...)
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, ok := scanRankRequest(body); !ok {
				b.Fatal("scanner declined the body")
			}
		}
	})
	b.Run("fallback", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req rankRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
