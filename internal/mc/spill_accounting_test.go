package mc_test

import (
	"path/filepath"
	"sync"
	"testing"

	"verc3/internal/faultfs"
	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/obs"
	"verc3/internal/visited"
)

// countingFS is a byte-counting faultfs.FS: it tracks the bytes written to
// every file still on disk, and when a spill store removes its directory
// on close it adds what is left there — the store's final footprint — to
// closedBytes/closedFiles.
type countingFS struct {
	faultfs.FS
	mu          sync.Mutex
	live        map[string]int64 // path → bytes written
	closedBytes int64
	closedFiles int
}

type countingFile struct {
	faultfs.File
	fs   *countingFS
	path string
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.live[f.path] += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (c *countingFS) Create(name string) (faultfs.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.live[name] = 0
	c.mu.Unlock()
	return &countingFile{File: f, fs: c, path: name}, nil
}

func (c *countingFS) Remove(name string) error {
	c.mu.Lock()
	delete(c.live, name)
	c.mu.Unlock()
	return c.FS.Remove(name)
}

func (c *countingFS) RemoveAll(dir string) error {
	c.mu.Lock()
	for path, n := range c.live {
		if filepath.Dir(path) == dir {
			c.closedBytes += n
			c.closedFiles++
			delete(c.live, path)
		}
	}
	c.mu.Unlock()
	return c.FS.RemoveAll(dir)
}

// TestSpillAccountingIncludesColourStores: with liveness on the spill
// backend, Space.SpilledBytes/SpillRuns and the matching gauges count the
// nested DFS's blue and red colour stores as well as the safety pass's
// store, byte for byte what the filesystem saw each store leave on disk.
func TestSpillAccountingIncludesColourStores(t *testing.T) {
	run := func(liveness bool) (*mc.Result, *countingFS, obs.Snapshot) {
		fs := &countingFS{FS: faultfs.OS, live: map[string]int64{}}
		col := obs.New()
		res, err := mc.Check(msi.New(msi.Config{Caches: 3, Variant: msi.Complete, Fair: true}), mc.Options{
			Liveness: liveness,
			Visited:  visited.Spill,
			SpillMem: 64 << 10,
			SpillDir: t.TempDir(),
			FS:       fs,
			Obs:      col,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Success {
			t.Fatalf("liveness=%v: verdict %v", liveness, res.Verdict)
		}
		return res, fs, col.Snapshot()
	}
	safety, _, _ := run(false)
	res, fs, snap := run(true)
	if res.Space.SpilledBytes != fs.closedBytes || res.Space.SpillRuns != fs.closedFiles {
		t.Errorf("Space reports %d B in %d runs; the stores left %d B in %d files",
			res.Space.SpilledBytes, res.Space.SpillRuns, fs.closedBytes, fs.closedFiles)
	}
	if g := snap.Gauges; g[obs.GSpilledBytes] != uint64(fs.closedBytes) || g[obs.GSpillRuns] != uint64(fs.closedFiles) {
		t.Errorf("gauges report %d B in %d runs; the stores left %d B in %d files",
			g[obs.GSpilledBytes], g[obs.GSpillRuns], fs.closedBytes, fs.closedFiles)
	}
	if res.Space.SpilledBytes <= safety.Space.SpilledBytes {
		t.Errorf("liveness run spilled %d B, no more than the safety pass alone (%d B)",
			res.Space.SpilledBytes, safety.Space.SpilledBytes)
	}
	t.Logf("safety pass %d B/%d runs; with colour stores %d B/%d runs",
		safety.Space.SpilledBytes, safety.Space.SpillRuns, res.Space.SpilledBytes, res.Space.SpillRuns)
}
