package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host describes where and on what code a result was measured, so that
// results stay comparable across machines and commits. GOMAXPROCS is
// recorded, never set: the figure digest depends on it.
type host struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Go          string `json:"go"`
	CPU         string `json:"cpu"`
	Commit      string `json:"commit"`
	Source      string `json:"source_sha256"`
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
}

func describeHost(workload string, seed uint64) host {
	return host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Go:          runtime.Version(),
		CPU:         cpuModel(),
		Commit:      commit(),
		Source:      sourceDigest("."),
		Workload:    workload,
		Seed:        seed,
		HeldOutSeed: heldOutSeed,
	}
}

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

// commit is the checked-out git commit, or "none" outside a git
// checkout; source_sha256 identifies the code either way.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return string(bytes.TrimSpace(out))
}

// sourceDigest hashes the path and content of every Go source and
// module file under root, skipping hidden and build directories.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
