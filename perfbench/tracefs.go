package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"verc3/internal/faultfs"
)

// ioClass accumulates the disk I/O under one directory.
type ioClass struct {
	dir        string
	ns         atomic.Int64 // time inside every call
	writeBytes atomic.Int64
	readBytes  atomic.Int64
	reads      atomic.Int64
	renames    atomic.Int64
}

func (c *ioClass) since(t0 time.Time) { c.ns.Add(int64(time.Since(t0))) }

func (c *ioClass) seconds() float64 { return float64(c.ns.Load()) / 1e9 }

// timingFS is the disk seam handed to the checker in mc.Options.FS. It
// passes every call through to the real filesystem and attributes its time
// and bytes to the directory the path lies under.
type timingFS struct {
	under   faultfs.FS
	classes []*ioClass
	other   ioClass
}

// newTimingFS attributes I/O under each of dirs to its own class; I/O
// elsewhere goes to the other class.
func newTimingFS(dirs ...string) *timingFS {
	t := &timingFS{under: faultfs.OS}
	for _, d := range dirs {
		t.classes = append(t.classes, &ioClass{dir: filepath.Clean(d)})
	}
	return t
}

// class returns the accumulator for path.
func (t *timingFS) class(path string) *ioClass {
	p := filepath.Clean(path)
	for _, c := range t.classes {
		if c.dir != "." && (p == c.dir || strings.HasPrefix(p, c.dir+string(filepath.Separator))) {
			return c
		}
	}
	return &t.other
}

func (t *timingFS) Create(name string) (faultfs.File, error) {
	c := t.class(name)
	t0 := time.Now()
	f, err := t.under.Create(name)
	c.since(t0)
	if err != nil {
		return nil, err
	}
	return &timedFile{f: f, c: c}, nil
}

func (t *timingFS) Open(name string) (faultfs.File, error) {
	c := t.class(name)
	t0 := time.Now()
	f, err := t.under.Open(name)
	c.since(t0)
	if err != nil {
		return nil, err
	}
	return &timedFile{f: f, c: c}, nil
}

func (t *timingFS) MkdirTemp(dir, pattern string) (string, error) {
	c := t.class(dir)
	defer c.since(time.Now())
	return t.under.MkdirTemp(dir, pattern)
}

func (t *timingFS) MkdirAll(path string, perm fs.FileMode) error {
	c := t.class(path)
	defer c.since(time.Now())
	return t.under.MkdirAll(path, perm)
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	c := t.class(newpath)
	defer c.since(time.Now())
	c.renames.Add(1)
	return t.under.Rename(oldpath, newpath)
}

func (t *timingFS) Remove(name string) error {
	c := t.class(name)
	defer c.since(time.Now())
	return t.under.Remove(name)
}

func (t *timingFS) RemoveAll(path string) error {
	c := t.class(path)
	defer c.since(time.Now())
	return t.under.RemoveAll(path)
}

func (t *timingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	c := t.class(name)
	defer c.since(time.Now())
	return t.under.ReadDir(name)
}

// timedFile times and counts the I/O on one open file.
type timedFile struct {
	f faultfs.File
	c *ioClass
}

func (tf *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := tf.f.Write(p)
	tf.c.since(t0)
	tf.c.writeBytes.Add(int64(n))
	return n, err
}

func (tf *timedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := tf.f.ReadAt(p, off)
	tf.c.since(t0)
	tf.c.reads.Add(1)
	tf.c.readBytes.Add(int64(n))
	return n, err
}

func (tf *timedFile) Close() error {
	defer tf.c.since(time.Now())
	return tf.f.Close()
}

func (tf *timedFile) Sync() error {
	defer tf.c.since(time.Now())
	return tf.f.Sync()
}

func (tf *timedFile) Name() string { return tf.f.Name() }
