package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fabricpower/study"
)

// studyRun is one study executed through study.Grid.Run: its records
// as `fabricpower run -json` renders them and the work it did.
type studyRun struct {
	records     []byte
	points      int
	routerSlots float64
	wall        time.Duration
	// first is the time from the start of the request to the first
	// completed point.
	first time.Duration
	// events are the grid's point_finish events with their arrival
	// time since the start of Grid.Run.
	events []timedEvent
	gridNS time.Duration
}

type timedEvent struct {
	at time.Duration
	ev study.Event
}

// runStudy decodes one spec and runs it on workers sweep goroutines:
// the whole request a library user makes, from bytes to records. With
// keepEvents the point_finish events are kept for the sweep metrics.
func runStudy(spec []byte, workers int, keepEvents bool) (*studyRun, error) {
	start := time.Now()
	sp, err := study.DecodeSpec(bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	out := &studyRun{}
	opt := study.RunOptions{Workers: workers}
	opt.OnPoint = func(int, int, study.Scenario, study.Result, study.PointInfo) {
		if out.first == 0 {
			out.first = time.Since(start)
		}
	}
	gridStart := time.Now()
	if keepEvents {
		opt.OnEvent = func(ev study.Event) {
			if ev.Kind == "point_finish" {
				out.events = append(out.events, timedEvent{time.Since(gridStart), ev})
			}
		}
	}
	gr, err := sp.Grid.Run(context.Background(), opt)
	out.gridNS = time.Since(gridStart)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := study.WriteResultRecords(&buf, gr.Points); err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	out.records = buf.Bytes()
	out.points = len(gr.Points)
	out.routerSlots = routerSlots(gr.Points)
	return out, nil
}

// routerSlots counts routers × (warmup+measure) over the points.
func routerSlots(points []study.GridPoint) float64 {
	var n float64
	for _, p := range points {
		n += pointRouterSlots(p.Scenario, p.Result)
	}
	return n
}

func pointRouterSlots(sc study.Scenario, r study.Result) float64 {
	slots := float64(sc.Sim.MeasureSlots)
	if sc.Sim.WarmupSlots != nil {
		slots += float64(*sc.Sim.WarmupSlots)
	}
	routers := 1.0
	if r.Net != nil {
		routers = float64(r.Net.Nodes)
	}
	return routers * slots
}

// recordsRouterSlots counts routers × (warmup+measure) over a record
// stream.
func recordsRouterSlots(records []byte) (float64, error) {
	var n float64
	dec := json.NewDecoder(bytes.NewReader(records))
	for dec.More() {
		var rec study.ResultRecord
		if err := dec.Decode(&rec); err != nil {
			return 0, err
		}
		n += pointRouterSlots(rec.Scenario, rec.Result)
	}
	return n, nil
}

// recordCount counts the lines of a record stream.
func recordCount(records []byte) int { return bytes.Count(records, []byte{'\n'}) }

// digest is the hex SHA-256 of the workload's records, spec by spec.
func digest(perSpec [][]byte) string {
	h := sha256.New()
	for _, r := range perSpec {
		h.Write(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedDigest reads the workload's record digest at defaultSeed from
// digests.json next to the benchmark's sources.
func pinnedDigest(name string) (string, error) {
	raw, err := os.ReadFile(filepath.Join("perfbench", "digests.json"))
	if err != nil {
		return "", err
	}
	var pins map[string]string
	if err := json.Unmarshal(raw, &pins); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	d, ok := pins[name]
	if !ok {
		return "", fmt.Errorf("digests.json pins no digest for %s", name)
	}
	return d, nil
}

// checker counts attempted and failed points against the workload's
// reference records: the first complete pass of each spec, itself
// checked against the pinned digest at the default seed.
type checker struct {
	ref       [][]byte
	attempted int
	failed    int
	notes     []string
}

func newChecker(specs int) *checker { return &checker{ref: make([][]byte, specs)} }

// setReference installs the first pass's records and, at the default
// seed, compares their digest with the pinned one. A mismatch fails
// every point of that pass.
func (c *checker) setReference(w *workload, seed int64, perSpec [][]byte) {
	copy(c.ref, perSpec)
	points := 0
	for _, r := range perSpec {
		points += recordCount(r)
	}
	c.attempted += points
	if seed != defaultSeed {
		return
	}
	got := digest(perSpec)
	want, err := pinnedDigest(w.name)
	if err != nil {
		c.fail(points, fmt.Sprintf("%v (records digest %s)", err, got))
		return
	}
	if got != want {
		c.fail(points, fmt.Sprintf("%s records digest %s, pinned %s", w.name, got, want))
	}
}

// check compares one request's records for spec with the reference;
// every point of a failed request counts as failed.
func (c *checker) check(spec int, records []byte, err error) {
	points := recordCount(c.ref[spec])
	c.attempted += points
	switch {
	case err != nil:
		c.fail(points, err.Error())
	case !bytes.Equal(records, c.ref[spec]):
		c.fail(points, fmt.Sprintf("spec %d: records differ from the reference pass", spec))
	}
}

func (c *checker) fail(points int, note string) {
	if points < 1 {
		points = 1
	}
	c.failed += points
	if len(c.notes) < 8 {
		c.notes = append(c.notes, note)
	}
}
