package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pagerank"
)

// webConfig is the global graph every workload runs on: gen.Generate's
// defaults at the CI crawl-smoke scale (1.9M pages, ~10M links, 38
// domains of ~13k–363k pages). The web is fixed; --seed picks the
// requests. A per-seed web would add graph-to-graph variance to every
// figure and cost ~7 s of generation plus ~110 MB of disk per seed.
var webConfig = gen.Config{Pages: 1_900_000, Seed: 1}

// inputs describes the generated web on disk. The JSON file is written
// last, so its presence means the web and the reference are complete.
type inputs struct {
	Pages        int   `json:"pages"`
	Edges        int   `json:"edges"`
	DomainStarts []int `json:"domain_starts"` // len domains+1

	dir string
}

func (in *inputs) webPath() string    { return filepath.Join(in.dir, "web.v2") }
func (in *inputs) globalPath() string { return filepath.Join(in.dir, "global.f64") }

// ensureInputs returns the generated web under dir/data, generating it
// first in a child process when it is missing. Generation and the global
// PageRank reference peak at ~1 GB of heap; in a child, none of that
// reaches the measured process's peak RSS.
func ensureInputs(dir string) (*inputs, error) {
	dataDir := filepath.Join(dir, "data")
	in, err := readInputs(dataDir)
	if err == nil {
		return in, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if err := runChild("gen", "-dir", dir); err != nil {
		return nil, err
	}
	return readInputs(dataDir)
}

func readInputs(dataDir string) (*inputs, error) {
	raw, err := os.ReadFile(filepath.Join(dataDir, "inputs.json"))
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dataDir}
	if err := json.Unmarshal(raw, in); err != nil {
		return nil, fmt.Errorf("inputs.json: %w", err)
	}
	if in.Pages != webConfig.Pages || len(in.DomainStarts) < 2 {
		return nil, fmt.Errorf("inputs.json describes a different web (%d pages)", in.Pages)
	}
	return in, nil
}

// generateInputs is the "gen" child: generate the web, write it as v2,
// and compute the global PageRank reference at the paper's settings
// (pagerank.Options zero value: ε = 0.85, L1 tolerance 1e-5), once per
// generated web.
func generateInputs(dir string) error {
	dataDir := filepath.Join(dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	ds, err := gen.Generate(webConfig)
	if err != nil {
		return err
	}
	in := &inputs{Pages: ds.Graph.NumNodes(), Edges: ds.Graph.NumEdges(), dir: dataDir}
	start := 0
	for d := 0; d < ds.NumDomains(); d++ {
		pages := ds.DomainPages(d)
		if len(pages) == 0 || int(pages[0]) != start {
			return fmt.Errorf("domain %d is not the contiguous range after %d", d, start)
		}
		in.DomainStarts = append(in.DomainStarts, start)
		start += len(pages)
	}
	in.DomainStarts = append(in.DomainStarts, start)

	if err := writeAtomic(in.webPath(), func(path string) error { return graph.SaveFile(path, ds.Graph) }); err != nil {
		return err
	}
	pr, err := pagerank.Compute(ds.Graph, pagerank.Options{})
	if err != nil {
		return err
	}
	buf := make([]byte, 8*len(pr.Scores))
	for i, s := range pr.Scores {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(s))
	}
	if err := writeAtomic(in.globalPath(), func(path string) error { return os.WriteFile(path, buf, 0o644) }); err != nil {
		return err
	}
	meta, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(dataDir, "inputs.json"), func(path string) error { return os.WriteFile(path, meta, 0o644) })
}

// loadGlobal reads the global PageRank reference. Callers load it only
// after the peak RSS has been read.
func (in *inputs) loadGlobal() ([]float64, error) {
	raw, err := os.ReadFile(in.globalPath())
	if err != nil {
		return nil, err
	}
	if len(raw) != 8*in.Pages {
		return nil, fmt.Errorf("%s: %d bytes for %d pages", in.globalPath(), len(raw), in.Pages)
	}
	scores := make([]float64, in.Pages)
	for i := range scores {
		scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return scores, nil
}

// writeAtomic writes path through a temporary sibling and a rename, so
// an interrupted run never leaves a truncated input behind.
func writeAtomic(path string, write func(tmp string) error) error {
	tmp := path + ".tmp"
	if err := write(tmp); err != nil {
		_ = os.Remove(tmp) // the write error is the one to report
		return fmt.Errorf("write %s: %w", path, err)
	}
	return os.Rename(tmp, path)
}

// runChild runs this binary again in a child mode and waits for it.
func runChild(mode string, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, append([]string{"-child", mode}, args...)...)
	cmd.Stdout = os.Stderr // keep the parent's stdout for its own report
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %w", mode, err)
	}
	return nil
}
