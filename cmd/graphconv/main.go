// Command graphconv converts graph files between the supported on-disk
// formats — text edge list and the zero-copy v2 binary — detecting the
// input format by magic bytes, never by name.
//
// Usage:
//
//	graphconv -in old.txt -out new.v2 [-format auto|v2|text]
//
// The default -format auto chooses by the output extension the same way
// SaveFile does (.txt/.edges → text, else v2). Conversion is
// single-copy: the input is decoded into one in-memory CSR and the
// output streamed from those same arrays (the v2 writer in particular
// writes the slice memory verbatim), so converting an N-byte graph
// needs one graph's worth of memory, not two.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/graph"
)

// writers maps each explicit -format to its encoder; auto defers to
// graph.SaveFile's extension rule.
var writers = map[string]func(io.Writer, *graph.Graph) error{
	"v2":   graph.WriteBinaryV2,
	"text": graph.WriteEdgeList,
}

func main() {
	in := flag.String("in", "", "input graph file (required; format sniffed from magic bytes)")
	out := flag.String("out", "", "output graph file (required)")
	format := flag.String("format", "auto", "output format: auto, v2, or text")
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "graphconv: -in and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	if _, ok := writers[*format]; !ok && *format != "auto" {
		fmt.Fprintf(os.Stderr, "graphconv: unknown format %q (want auto, v2, or text)\n", *format)
		os.Exit(2)
	}

	inFmt, err := graph.SniffFile(*in)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	g, err := graph.LoadFile(*in)
	if err != nil {
		fatal(err)
	}
	loadDur := time.Since(start)

	start = time.Now()
	if err := save(*out, *format, g); err != nil {
		fatal(err)
	}
	writeDur := time.Since(start)

	fmt.Printf("converted %s (%s) -> %s: %d nodes, %d edges, load %v, write %v\n",
		*in, inFmt, *out, g.NumNodes(), g.NumEdges(), loadDur.Round(time.Millisecond), writeDur.Round(time.Millisecond))
}

func save(path, format string, g *graph.Graph) error {
	write, ok := writers[format]
	if !ok {
		return graph.SaveFile(path, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f, g); err != nil {
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphconv:", err)
	os.Exit(1)
}
