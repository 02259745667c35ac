// Command perfbench is the repository benchmark. It drives one workload
// through a real jecho Publisher→Subscriber channel and prints either the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced run (--trace 1), each by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Build and run it through run.sh; README.md maps every metric to the
// layer it measures and the workloads it should move on.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heapBallast is a pointer-free allocation held for the whole run. The
// channel's own live heap is a few MiB, so without it the collector paces
// on the benchmark's growing records: it ran several hundred cycles a
// second early in a run and a quarter of that late, and the CPU cost per
// event followed. With it, collection runs at a steady pace, as in an
// application that holds some tens of MiB.
const heapBallast = 32 << 20

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the event pool is generated from")
	seconds := flag.Int("seconds", 10, "measured seconds of the run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := environment(w, *seed, *seconds, *traced == 1)
	envJSON, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("env %s\n", envJSON)

	ballast := make([]byte, heapBallast)
	defer runtime.KeepAlive(ballast)
	length := time.Duration(*seconds) * time.Second
	var res *result
	if *traced == 1 {
		res, err = tracedRun(w, length, env)
	} else {
		res, err = endToEnd(w, length)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range res.lines {
		fmt.Printf("metric %-40s %14.6g %s\n", l.name, l.value, l.unit)
	}
	reasons, err := json.Marshal(res.failures)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("failures %s\n", reasons)
	final, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(final))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is one printed metric. Lines marked reported also go into the
// final JSON object; the others are printed for the reader only.
type line struct {
	name     string
	value    float64
	unit     string
	reported bool
}

// result is what one run prints.
type result struct {
	lines    []line
	out      outcome
	failures report
}

func (r *result) add(name string, value float64, unit string) {
	r.lines = append(r.lines, line{name: name, value: value, unit: unit, reported: true})
}

func (r *result) note(name string, value float64, unit string) {
	r.lines = append(r.lines, line{name: name, value: value, unit: unit})
}

func (r *result) summary() any {
	metrics := map[string]metric{}
	for _, l := range r.lines {
		if l.reported {
			metrics[l.name] = metric{Value: l.value, Unit: l.unit}
		}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.out.wrong == 0, r.out.attempted, r.out.failed(), metrics}
}

// runEnv is the environment every result records.
type runEnv struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Transport    string  `json:"transport"`
	Subscribers  int     `json:"subscribers"`
	RateEPS      float64 `json:"open_loop_rate_eps"`
	Seconds      int     `json:"seconds"`
	Traced       bool    `json:"traced"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	// HostSHA256US is the CPU time of hashing 64 KiB with SHA-256 at the
	// start of the run: the speed of the host as the run found it, which
	// on shared machines changes over minutes.
	HostSHA256US float64 `json:"host_sha256_64k_us"`
}

func environment(w *workload, seed int64, seconds int, traced bool) runEnv {
	return runEnv{
		Workload:     w.name,
		Seed:         seed,
		Transport:    w.transportName(),
		Subscribers:  w.subs,
		RateEPS:      w.rate,
		Seconds:      seconds,
		Traced:       traced,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		Commit:       commit(),
		SourceSHA256: sourceDigest(),
		HostSHA256US: hostSpeed(),
	}
}

// hostSpeed returns the median CPU time, in µs, of hashing 64 KiB with
// SHA-256.
func hostSpeed() float64 {
	buf := make([]byte, 64<<10)
	times := make([]float64, 21)
	for i := range times {
		t0 := cpuTime()
		for k := 0; k < 8; k++ {
			sha256.Sum256(buf)
		}
		times[i] = float64((cpuTime() - t0).Nanoseconds()) / 8e3
	}
	return median(times)
}

// commit names the checked-out commit, when the benchmark runs from a git
// work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git work tree)"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (git rev-parse failed)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files of the tree, which
// identifies the measured code where no commit is available.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
