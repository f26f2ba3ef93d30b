package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is recorded in every result. Two result sets are comparable
// only when everything but the commit agrees.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GOGC       string `json:"gogc"`
	CPU        string `json:"cpu"`
}

func currentEnv() environment {
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOGC:       os.Getenv("GOGC"),
		CPU:        cpuModel(),
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && e.Commit != "unknown" {
			e.Commit += "+modified"
		}
	}
	return e
}

// comparable reports whether two environments differ in nothing but the
// commit.
func (e environment) comparable(o environment) bool {
	e.Commit, o.Commit = "", ""
	return e == o
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
