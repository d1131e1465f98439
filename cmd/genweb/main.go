// Command genweb generates a synthetic web graph and writes it to disk,
// optionally alongside its domain and topic labels.
//
// Usage:
//
//	genweb -out web.bin [-pages N] [-domains D] [-topics T] [-intra F]
//	       [-mean-outdeg M] [-dangling F] [-seed S] [-labels labels.txt]
//
// The output format is chosen by extension: .txt/.edges for the text edge
// list, anything else for the zero-copy v2 binary. Generation streams
// rows straight into the CSR (RowBuilder) and v2 writes stream the CSR
// arrays verbatim, so the peak memory of generating a crawl-scale graph
// is roughly the graph itself.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	out := flag.String("out", "", "output graph file (required)")
	labels := flag.String("labels", "", "optional output file for per-page 'domain topic' labels")
	pages := flag.Int("pages", 100000, "number of pages")
	domains := flag.Int("domains", 38, "number of domains")
	topics := flag.Int("topics", 12, "number of topics")
	intra := flag.Float64("intra", 0.85, "intra-domain link fraction")
	meanOut := flag.Float64("mean-outdeg", 5.5, "mean out-degree")
	dangling := flag.Float64("dangling", 0.04, "dangling page fraction")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "genweb: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	ds, err := gen.Generate(gen.Config{
		Pages:            *pages,
		Domains:          *domains,
		Topics:           *topics,
		IntraFraction:    *intra,
		MeanOutDegree:    *meanOut,
		DanglingFraction: *dangling,
		Seed:             *seed,
	})
	if err != nil {
		fatal(err)
	}
	if err := graph.SaveFile(*out, ds.Graph); err != nil {
		fatal(err)
	}
	if *labels != "" {
		f, err := os.Create(*labels)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		fmt.Fprintln(w, "# page domain topic")
		for p := 0; p < ds.Graph.NumNodes(); p++ {
			fmt.Fprintf(w, "%d %d %d\n", p, ds.Domain[p], ds.Topic[p])
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	st := graph.ComputeStats(ds.Graph)
	fmt.Printf("wrote %s: %d pages, %d links, avg outdeg %.2f, %d dangling, %d domains\n",
		*out, st.Nodes, st.Edges, st.AvgOutDegree, st.Dangling, ds.NumDomains())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genweb:", err)
	os.Exit(1)
}
