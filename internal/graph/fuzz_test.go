package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Native fuzz targets for the graph parsers. Under plain `go test` these
// run their seed corpus; under `go test -fuzz` they explore. Either way
// the invariant is the same: arbitrary input must produce a clean error
// or a graph whose structural invariants validate — never a panic.

// FuzzReadBinaryV2 drives both v2 parsers — the streaming reader and
// the mapped-image reader — over the same input: each must reject with
// a clean error or accept a graph whose invariants validate, and they
// must agree on acceptance.
func FuzzReadBinaryV2(f *testing.F) {
	g := MustFromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {0, 0}})
	var full, noIn bytes.Buffer
	if err := writeBinaryV2(&full, g, true); err != nil {
		f.Fatal(err)
	}
	if err := writeBinaryV2(&noIn, g, false); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add(noIn.Bytes())
	wb := NewBuilder(4)
	wb.AddWeightedEdge(0, 1, 2.5)
	wb.AddWeightedEdge(0, 2, 0.5)
	wb.AddWeightedEdge(2, 3, 1)
	wg, err := wb.Build()
	if err != nil {
		f.Fatal(err)
	}
	var weighted bytes.Buffer
	if err := writeBinaryV2(&weighted, wg, true); err != nil {
		f.Fatal(err)
	}
	f.Add(weighted.Bytes())
	f.Add([]byte(magicV2))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		streamed, errStream := ReadBinaryV2(bytes.NewReader(data))
		mapped, errMapped := graphFromMapped(data)
		if (errStream == nil) != (errMapped == nil) {
			t.Fatalf("parsers disagree: stream=%v mapped=%v", errStream, errMapped)
		}
		if errStream != nil {
			return
		}
		if verr := streamed.validate(); verr != nil {
			t.Fatalf("accepted stream graph violates invariants: %v", verr)
		}
		if verr := mapped.validate(); verr != nil {
			t.Fatalf("accepted mapped graph violates invariants: %v", verr)
		}
	})
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# nodes: 5\n0 1 2.5\n")
	f.Add("0 1 NaN\n1 2 1\n")
	f.Add("0 1 +Inf\n")
	f.Add("")
	f.Add("a b c\n")
	f.Add("3333333330 0\n")
	f.Add("1999999999 0\n")
	f.Add("# nodes: 2147483648\n0 1\n")
	f.Fuzz(func(t *testing.T, data string) {
		back, err := ReadEdgeList(strings.NewReader(data))
		if err != nil {
			return
		}
		if verr := back.validate(); verr != nil {
			t.Fatalf("accepted graph violates invariants: %v", verr)
		}
	})
}
