package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// segments is how many parts a run's measuring is split into. One
// fresh set-up process runs before each part, and every request metric
// is a median over the parts. The host is shared and its speed drifts
// over seconds to minutes, so a slow stretch shorter than half the run
// moves neither setup_s nor a median over the parts, as it would a
// total over the whole run.
const segments = 7

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one timed study request.
type sample struct {
	wall, first time.Duration
	routerSlots float64
}

// segment is one part of the measuring: the requests it completed and
// its wall time.
type segment struct {
	samples []sample
	wall    time.Duration
}

// measured is what a measuring loop returns: its parts and the
// allocations made inside them.
type measured struct {
	segs          []segment
	allocs, bytes uint64
}

// measure is the untraced run: a reference pass, then studies for the
// given number of seconds in segments, each after one set-up in a
// fresh process.
func measure(w *workload, seed int64, seconds float64) *result {
	chk := newChecker(len(w.specs))
	res := &result{Metrics: map[string]metric{}}
	exe, err := os.Executable()
	var rss *rssSampler
	if err == nil {
		rss, err = startRSS()
	}
	if err != nil {
		chk.fail(1, err.Error())
		res.Attempted, res.Failed = chk.attempted, chk.failed
		return res
	}
	var setup []float64
	setUp := func(k int) {
		s, err := setupOnce(exe, w, seed)
		if err != nil {
			chk.fail(1, fmt.Sprintf("setup run %d: %v", k, err))
			return
		}
		setup = append(setup, s)
	}
	m := measureLibrary(w, seed, seconds/segments, chk, setUp)
	rssMiB := rss.finish()
	res.Attempted, res.Failed = chk.attempted, chk.failed
	for _, n := range chk.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	if chk.failed > 0 || len(m.segs) < segments || len(setup) < segments {
		return res
	}
	var rate, studies, reqP50, reqP90, firstP50 []float64
	var slots, wall float64
	n := 0
	for _, sg := range m.segs {
		var req, first []float64
		var segSlots, busy float64
		for _, s := range sg.samples {
			req = append(req, ms(s.wall))
			first = append(first, ms(s.first))
			segSlots += s.routerSlots
			busy += s.wall.Seconds()
		}
		rate = append(rate, segSlots/busy)
		studies = append(studies, float64(len(sg.samples))/sg.wall.Seconds())
		reqP50 = append(reqP50, median(req))
		reqP90 = append(reqP90, percentile(req, 0.9))
		firstP50 = append(firstP50, median(first))
		slots += segSlots
		wall += sg.wall.Seconds()
		n += len(sg.samples)
	}
	mt := res.Metrics
	mt["setup_s"] = metric{median(setup), "s"}
	mt["router_slots_per_s"] = metric{median(rate), "router-slot/s"}
	mt["allocs_per_router_slot"] = metric{float64(m.allocs) / slots, "allocs/slot"}
	mt["bytes_per_router_slot"] = metric{float64(m.bytes) / slots, "B/slot"}
	mt["studies_per_s"] = metric{median(studies), "1/s"}
	mt["request_ms_p50"] = metric{median(reqP50), "ms"}
	mt["request_ms_p90"] = metric{median(reqP90), "ms"}
	mt["first_record_ms_p50"] = metric{median(firstP50), "ms"}
	mt["rss_mb_p95"] = metric{percentile(rssMiB, 0.95), "MiB"}
	res.Correct = true
	fmt.Printf("%s seed %d: %d studies in %d parts, %.2f s (part request ms p50 min %.1f max %.1f), %d points checked, failed_frac %g, setup runs %d, peak RSS %.1f MiB\n",
		w.name, seed, n, len(m.segs), wall, percentile(reqP50, 0), percentile(reqP50, 1),
		chk.attempted, float64(chk.failed)/float64(chk.attempted), len(setup), maxRSSMiB())
	return res
}

// measureLibrary runs the workload's studies through study.Grid.Run in
// this process. The first pass fills the process-wide caches and
// becomes the reference; then each segment calls setUp and repeats
// whole passes until part has passed.
func measureLibrary(w *workload, seed int64, part float64, chk *checker, setUp func(int)) *measured {
	m := &measured{}
	ref := make([][]byte, len(w.specs))
	for i, spec := range w.specs {
		r, err := runStudy(spec, w.workers, false)
		if err != nil {
			chk.fail(1, err.Error())
			return m
		}
		ref[i] = r.records
	}
	chk.setReference(w, seed, ref)
	var ms0, ms1 runtime.MemStats
	for k := 0; k < segments; k++ {
		setUp(k)
		var sg segment
		start := time.Now()
		for pass := 0; pass == 0 || time.Since(start).Seconds() < part; pass++ {
			for i, spec := range w.specs {
				// Start each request from a collected heap, as a
				// fresh `fabricpower run` does, so no request pays
				// for the previous one's garbage.
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				r, err := runStudy(spec, w.workers, false)
				runtime.ReadMemStats(&ms1)
				if err != nil {
					chk.check(i, nil, err)
					continue
				}
				chk.check(i, r.records, nil)
				m.allocs += ms1.Mallocs - ms0.Mallocs
				m.bytes += ms1.TotalAlloc - ms0.TotalAlloc
				sg.samples = append(sg.samples, sample{wall: r.wall, first: r.first, routerSlots: r.routerSlots})
			}
		}
		sg.wall = time.Since(start)
		m.segs = append(m.segs, sg)
	}
	return m
}

// setupOnce times one set-up of the workload in a fresh process and
// returns it in seconds.
func setupOnce(exe string, w *workload, seed int64) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "setup", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var rep setupReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return 0, err
	}
	return rep.Seconds, nil
}

// setupReport is a set-up child's one output line.
type setupReport struct {
	Seconds float64 `json:"setup_s"`
	Points  int     `json:"points"`
}

// setupChild is the fresh process behind one set-up measurement: the
// workload's specs at warmupSlots 0 and measureSlots 1, through the
// same front door as the timed run, with every cache cold.
func setupChild(w *workload) (*setupReport, error) {
	specs, err := editBase(w.specs, func(base map[string]any) {
		sim := simBlock(base)
		sim["warmupSlots"] = 0
		sim["measureSlots"] = 1
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	points := 0
	for _, spec := range specs {
		r, err := runStudy(spec, w.workers, false)
		if err != nil {
			return nil, err
		}
		points += r.points
	}
	return &setupReport{Seconds: time.Since(start).Seconds(), Points: points}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rssEvery is how often the run samples its resident set.
const rssEvery = 5 * time.Millisecond

// rssSampler samples this process's resident set from /proc/self/statm
// on its own goroutine, which sleeps between samples.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSS() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("sampling the resident set: %w", err)
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		defer f.Close()
		page := float64(os.Getpagesize()) / (1 << 20)
		buf := make([]byte, 128)
		var mib []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			// statm is "size resident shared ...", in pages.
			if n, _ := f.ReadAt(buf, 0); n > 0 {
				fields := bytes.Fields(buf[:n])
				if len(fields) > 1 {
					if pages, err := strconv.ParseUint(string(fields[1]), 10, 64); err == nil {
						mib = append(mib, float64(pages)*page)
					}
				}
			}
			select {
			case <-s.stop:
				s.done <- mib
				return
			case <-tick.C:
			}
		}
	}()
	return s, nil
}

// finish stops the sampler and returns its samples in MiB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	return <-s.done
}

// maxRSSMiB is this process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
