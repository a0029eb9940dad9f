package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"fabricpower/internal/telemetry"
	"fabricpower/internal/telemetry/trace"
	"fabricpower/study"
)

// archNames are the fabric architectures of the per-arch metrics.
var archNames = []string{"crossbar", "fullyconnected", "banyan", "batcherbanyan"}

// traceRun is the traced run. In order:
//
//	a. the workload's studies untraced, as configured: the reference
//	   records, the sweep and sim metrics and the GC share;
//	b. the same studies on one sweep worker and one shard, untraced;
//	c. the replica on one worker and one shard, with every layer timed;
//
// b and c alternate until seconds have passed, so the tracing overhead
// compares like with like. Then, once each:
//
//	d. the replica at each network's own shard count, for the shard
//	   metrics (only when some network has more than one shard);
//	e. the studies through a studyd server over loopback HTTP.
//
// Every pass's records must equal a's.
func traceRun(w *workload, seed int64, seconds float64) *result {
	chk := newChecker(len(w.specs))
	res := &result{Metrics: map[string]metric{}}
	m := res.Metrics
	rec := trace.NewRecorder(0)
	done := func() *result {
		res.Attempted, res.Failed = chk.attempted, chk.failed
		for _, n := range chk.notes {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
		}
		if chk.failed > 0 {
			res.Metrics = map[string]metric{}
			return res
		}
		res.Correct = true
		return res
	}

	// a. The workload as configured.
	ref, err := configuredPass(w, m)
	if err != nil {
		chk.fail(1, err.Error())
		return done()
	}
	chk.setReference(w, seed, ref)
	if chk.failed > 0 {
		return done()
	}

	// b and c, alternating.
	oneShard, err := editBase(w.specs, func(base map[string]any) {
		if net, _ := base["network"].(map[string]any); net != nil {
			net["shards"] = 1
		}
	})
	if err != nil {
		chk.fail(1, err.Error())
		return done()
	}
	var plainRate, tracedRate, coverage []float64
	var L *layers
	var decodeNS, renderNS int64
	reps := 0
	start := time.Now()
	for reps == 0 || time.Since(start).Seconds() < seconds {
		var slots float64
		t0 := time.Now()
		for i, spec := range oneShard {
			r, err := runStudy(spec, 1, false)
			if err != nil {
				chk.check(i, nil, err)
				return done()
			}
			chk.attempted += r.points
			if !sameResults(r.records, ref[i]) {
				chk.fail(r.points, fmt.Sprintf("spec %d: one worker and one shard change the results", i))
			}
			slots += r.routerSlots
		}
		plainRate = append(plainRate, slots/time.Since(t0).Seconds())

		pass := newLayers()
		rp := &replica{rec: rec}
		t1 := time.Now()
		slots = 0
		for i, spec := range w.specs {
			p, err := rp.run(spec, pass)
			if err != nil {
				chk.check(i, nil, err)
				return done()
			}
			chk.check(i, p.records, nil)
			slots += p.routerSlots
			decodeNS += p.decodeNS
			renderNS += p.renderNS
		}
		wall := time.Since(t1)
		tracedRate = append(tracedRate, slots/wall.Seconds())
		var self int64
		for _, v := range pass.self {
			self += v
		}
		coverage = append(coverage, float64(self)/float64(wall.Nanoseconds()))
		pass.wallNS = wall.Nanoseconds()
		if L == nil {
			L = pass
		} else {
			L.merge(pass)
		}
		reps++
	}
	if chk.failed > 0 {
		return done()
	}

	// d. Native shard counts, for the shard metrics.
	shardPIDs := L.netPIDs
	if sharded(w.specs) {
		d := newLayers()
		rp := &replica{rec: rec, nativeShards: true, pidBase: 100000}
		for i, spec := range w.specs {
			p, err := rp.run(spec, d)
			if err != nil {
				chk.check(i, nil, err)
				return done()
			}
			chk.check(i, p.records, nil)
		}
		shardPIDs = d.netPIDs
		L.imbalance = d.imbalance
	}

	// e. Through studyd.
	if err := serveOnce(w, chk, m); err != nil {
		chk.fail(1, err.Error())
	}
	if chk.failed > 0 {
		return done()
	}

	n := float64(reps)
	m["study.decode_ms"] = metric{float64(decodeNS) / 1e6 / n, "ms"}
	m["study.build_ms_per_point"] = metric{ratio(float64(L.buildNS)/1e6, float64(L.points)), "ms"}
	m["study.render_ms"] = metric{float64(renderNS) / 1e6 / n, "ms"}
	m["traffic.ns_per_cell"] = metric{ratio(float64(L.genNS), float64(L.cells)), "ns"}
	m["traffic.cells_per_slot"] = metric{ratio(float64(L.cells), float64(L.slots)), "count"}
	m["router.inject_ns_per_cell"] = metric{ratio(float64(L.injectNS), float64(L.cells)), "ns"}
	for _, a := range archNames {
		m["router.step_ns_per_slot."+a] = metric{ratio(float64(L.stepNS[a]), float64(L.archSlots[a])), "ns"}
	}
	m["router.delivered_cells"] = metric{float64(L.delivered) / n, "count"}
	m["dpm.gated_port_slot_frac"] = metric{ratio(float64(L.gatedPortSlots), float64(L.portSlots)), "ratio"}
	m["dpm.transitions"] = metric{float64(L.transitions) / n, "count"}
	m["dpm.dvfs_shifts"] = metric{float64(L.dvfsShifts) / n, "count"}
	m["netsim.build_ms"] = metric{ratio(float64(L.netBuildNS)/1e6, float64(L.netPoints)), "ms"}
	m["netsim.ns_per_node_slot"] = metric{ratio(float64(L.netRunNS), L.netNodeSlots), "ns"}
	m["netsim.spine_cost_frac"] = metric{ratio(float64(L.spineNS), float64(L.nodeNS)), "ratio"}
	m["netsim.cell_hops_per_slot"] = metric{ratio(L.netHops, L.netSlots), "count"}
	m["netsim.delivery_ratio"] = metric{ratio(float64(L.netDeliv), float64(L.netOffered)), "ratio"}
	imb := 0.0
	if len(L.imbalance) > 0 {
		imb = sum(L.imbalance) / float64(len(L.imbalance))
	}
	m["netsim.shard_imbalance"] = metric{imb, "ratio"}

	var doc bytes.Buffer
	if err := rec.WriteJSON(&doc); err != nil {
		chk.fail(1, err.Error())
		return done()
	}
	ph := kernelPhases(doc.Bytes(), shardPIDs)
	m["netsim.compute_frac"] = metric{ph.compute, "ratio"}
	m["netsim.exchange_frac"] = metric{ph.exchange, "ratio"}
	m["netsim.barrier_wait_frac"] = metric{ph.wait, "ratio"}

	reg := telemetry.Default()
	m["energy.papermux.hit_ratio"] = metric{hitRatio(reg, "energy.papermux"), "ratio"}
	m["thompson.stagegrid.hit_ratio"] = metric{hitRatio(reg, "thompson.stagegrid"), "ratio"}
	m["trace.overhead_frac"] = metric{1 - median(tracedRate)/median(plainRate), "ratio"}
	m["trace.coverage_frac"] = metric{median(coverage), "ratio"}

	path := filepath.Join(outDir(), fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	err = os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = os.WriteFile(path, doc.Bytes(), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing the trace:", err)
	}
	printLayers(w, seed, reps, L, path)
	return done()
}

// configuredPass runs the workload's studies untraced as configured
// and returns their records. It reports the sweep metrics from the
// point_finish events, the sim cost per slot of single-router points
// and the GC share of CPU time.
func configuredPass(w *workload, m map[string]metric) ([][]byte, error) {
	gc0 := readGC()
	var ref [][]byte
	var busy, capacity, tailMS float64
	simNS, simSlots := map[string]float64{}, map[string]float64{}
	for _, spec := range w.specs {
		r, err := runStudy(spec, w.workers, true)
		if err != nil {
			return nil, err
		}
		ref = append(ref, r.records)
		scs, err := resolve(spec)
		if err != nil {
			return nil, err
		}
		workers := w.workers
		if workers > len(scs) {
			workers = len(scs)
		}
		capacity += r.gridNS.Seconds() * float64(workers)
		lastByWorker := map[int]time.Duration{}
		for _, te := range r.events {
			busy += te.ev.DurationMS / 1e3
			lastByWorker[te.ev.Worker] = te.at
			sc := scs[te.ev.Index]
			if sc.Network == nil {
				simNS[sc.Fabric.Arch] += te.ev.DurationMS * 1e6
				simSlots[sc.Fabric.Arch] += float64(*sc.Sim.WarmupSlots + sc.Sim.MeasureSlots)
			}
		}
		// The tail runs from the first worker going idle for good to
		// the end of the sweep.
		var firstIdle, last time.Duration
		for _, at := range lastByWorker {
			if firstIdle == 0 || at < firstIdle {
				firstIdle = at
			}
			if at > last {
				last = at
			}
		}
		if len(lastByWorker) == workers {
			tailMS += ms(last - firstIdle)
		} else {
			tailMS += ms(last) // a worker never ran a point
		}
	}
	gc1 := readGC()
	m["sweep.busy_frac"] = metric{busy / capacity, "ratio"}
	m["sweep.tail_ms"] = metric{tailMS, "ms"}
	for _, a := range archNames {
		m["sim.ns_per_slot."+a] = metric{ratio(simNS[a], simSlots[a]), "ns"}
	}
	m["go.gc_cpu_frac"] = metric{ratio(gc1.gc-gc0.gc, gc1.total-gc0.total), "ratio"}
	return ref, nil
}

// replicaPass is the replica's run of one spec.
type replicaPass struct {
	records            []byte
	routerSlots        float64
	decodeNS, renderNS int64
}

// run decodes, enumerates and runs one spec through the replica, on
// one goroutine, and renders its records.
func (rp *replica) run(spec []byte, L *layers) (*replicaPass, error) {
	now := rp.rec.Now
	t0 := now()
	sp, err := study.DecodeSpec(bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	t1 := now()
	scs, err := sp.Grid.Enumerate()
	L.self["study"] += now() - t1
	if err != nil {
		return nil, err
	}
	points := make([]study.GridPoint, len(scs))
	out := &replicaPass{decodeNS: t1 - t0}
	for i, sc := range scs {
		a := now()
		sc = sc.Resolved()
		err := sc.Validate()
		L.self["study"] += now() - a
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		r, err := rp.point(sc, L)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		points[i] = study.GridPoint{Scenario: sc, Result: r, Done: true}
		out.routerSlots += pointRouterSlots(sc, r)
	}
	t2 := now()
	var buf bytes.Buffer
	if err := study.WriteResultRecords(&buf, points); err != nil {
		return nil, err
	}
	t3 := now()
	out.records = buf.Bytes()
	out.renderNS = t3 - t2
	L.self["study"] += (t3 - t2) + (t1 - t0)
	return out, nil
}

// merge folds another pass's timings into L. Counts stay those of the
// first pass: they repeat exactly.
func (L *layers) merge(o *layers) {
	for k, v := range o.self {
		L.self[k] += v
	}
	L.wallNS += o.wallNS
	L.buildNS += o.buildNS
	L.points += o.points
	L.netBuildNS += o.netBuildNS
	L.netPoints += o.netPoints
	L.netRunNS += o.netRunNS
	L.netNodeSlots += o.netNodeSlots
	L.genNS += o.genNS
	L.injectNS += o.injectNS
	L.cells += o.cells
	L.slots += o.slots
	L.delivered += o.delivered
	L.gatedPortSlots += o.gatedPortSlots
	L.portSlots += o.portSlots
	L.transitions += o.transitions
	L.dvfsShifts += o.dvfsShifts
	L.netHops += o.netHops
	L.netSlots += o.netSlots
	L.netOffered += o.netOffered
	L.netDeliv += o.netDeliv
	L.spineNS += o.spineNS
	L.nodeNS += o.nodeNS
	L.imbalance = append(L.imbalance, o.imbalance...)
	for k, v := range o.stepNS {
		L.stepNS[k] += v
	}
	for k, v := range o.archSlots {
		L.archSlots[k] += v
	}
}

// resolve enumerates a spec's points in resolved form, as Grid.Run
// runs them.
func resolve(spec []byte) ([]study.Scenario, error) {
	sp, err := study.DecodeSpec(bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	scs, err := sp.Grid.Enumerate()
	if err != nil {
		return nil, err
	}
	for i := range scs {
		scs[i] = scs[i].Resolved()
	}
	return scs, nil
}

// sharded reports whether any network point runs on several shards.
func sharded(specs [][]byte) bool {
	for _, spec := range specs {
		scs, err := resolve(spec)
		if err != nil {
			return false
		}
		for _, sc := range scs {
			if sc.Network != nil && sc.Network.Shards > 1 {
				return true
			}
		}
	}
	return false
}

// sameResults compares two record streams by index and result only:
// a run with a changed worker or shard count carries its own scenario
// but must measure identical results.
func sameResults(a, b []byte) bool {
	type rec struct {
		Index  int             `json:"index"`
		Result json.RawMessage `json:"result"`
	}
	decode := func(s []byte) ([]rec, bool) {
		var out []rec
		dec := json.NewDecoder(bytes.NewReader(s))
		for dec.More() {
			var r rec
			if err := dec.Decode(&r); err != nil {
				return nil, false
			}
			out = append(out, r)
		}
		return out, true
	}
	ra, ok1 := decode(a)
	rb, ok2 := decode(b)
	if !ok1 || !ok2 || len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i].Index != rb[i].Index || !bytes.Equal(ra[i].Result, rb[i].Result) {
			return false
		}
	}
	return true
}

// serveOnce submits each spec once to an in-process studyd server and
// reports the service layer's metrics.
func serveOnce(w *workload, chk *checker, m map[string]metric) error {
	s, err := startServer(w.workers)
	if err != nil {
		return err
	}
	defer s.stop()
	var admit, server, overhead []float64
	var bytes, records int
	for i, spec := range w.specs {
		r, err := s.submit(spec)
		if err != nil {
			chk.check(i, nil, fmt.Errorf("%s: %w", w.specNames[i], err))
			continue
		}
		chk.check(i, r.records, nil)
		admit = append(admit, ms(r.admit))
		server = append(server, r.serverMS)
		overhead = append(overhead, ms(r.total)-r.serverMS)
		bytes += r.bytes
		records += r.points
	}
	if len(admit) == 0 {
		return fmt.Errorf("no study completed through studyd")
	}
	m["studyd.admit_ms"] = metric{median(admit), "ms"}
	m["studyd.server_ms_p50"] = metric{median(server), "ms"}
	m["studyd.overhead_ms_p50"] = metric{median(overhead), "ms"}
	m["studyd.bytes_per_record"] = metric{ratio(float64(bytes), float64(records)), "B"}
	return nil
}

// phases are the network kernel's shard-time shares over its sampled
// slots: compute, exchange and the rest of each shard's slot (barrier
// wait and coordinator turnaround).
type phases struct{ compute, exchange, wait float64 }

// kernelPhases sums the netsim profiler's spans of the given Perfetto
// processes in a Chrome trace document.
func kernelPhases(doc []byte, pids []int) phases {
	var d struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			PID  int      `json:"pid"`
			TID  int      `json:"tid"`
			Dur  *float64 `json:"dur"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if json.Unmarshal(doc, &d) != nil {
		return phases{}
	}
	want := map[int]bool{}
	for _, p := range pids {
		want[p] = true
	}
	type key struct{ pid, tid int }
	shardTrack := map[key]bool{}
	shards := map[int]int{}
	for _, e := range d.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" && want[e.PID] && strings.Contains(e.Args.Name, "shard ") {
			shardTrack[key{e.PID, e.TID}] = true
			shards[e.PID]++
		}
	}
	slotUS := map[int]float64{}
	var compute, exchange float64
	for _, e := range d.TraceEvents {
		if e.Ph != "X" || e.Dur == nil || !want[e.PID] {
			continue
		}
		switch {
		case e.Name == "slot":
			slotUS[e.PID] += *e.Dur
		case e.Name == "compute" && shardTrack[key{e.PID, e.TID}]:
			compute += *e.Dur
		case e.Name == "exchange" && shardTrack[key{e.PID, e.TID}]:
			exchange += *e.Dur
		}
	}
	var capacity float64
	for pid, us := range slotUS {
		capacity += us * float64(shards[pid])
	}
	if capacity == 0 {
		return phases{}
	}
	return phases{compute / capacity, exchange / capacity, 1 - (compute+exchange)/capacity}
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
type gcCPU struct{ gc, total float64 }

func readGC() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

func hitRatio(reg *telemetry.Registry, prefix string) float64 {
	hits := float64(reg.Counter(prefix + ".hits").Load())
	misses := float64(reg.Counter(prefix + ".misses").Load())
	return ratio(hits, hits+misses)
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outDir holds what runs leave behind: the build, the Go cache and the
// traces, under CARGO_TARGET_DIR when that names a shared build
// directory (run.py builds there too).
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "perfbench")
	}
	return filepath.Join(".bench_build", "perfbench")
}

// printLayers prints the traced run's self time per layer and the
// replica time no layer explains, each as a share of the replica's wall
// time.
func printLayers(w *workload, seed int64, reps int, L *layers, path string) {
	var names []string
	uncovered := L.wallNS
	for k, v := range L.self {
		names = append(names, k)
		uncovered -= v
	}
	sort.Slice(names, func(i, j int) bool { return L.self[names[i]] > L.self[names[j]] })
	fmt.Printf("%s seed %d traced: %d replica passes; self time by layer:\n", w.name, seed, reps)
	line := func(k string, v int64) {
		fmt.Printf("  %-9s %9.1f ms  %5.1f%%\n", k, float64(v)/1e6/float64(reps), 100*ratio(float64(v), float64(L.wallNS)))
	}
	for _, k := range names {
		line(k, L.self[k])
	}
	line("uncovered", uncovered)
	fmt.Printf("spans: %s\n", path)
}
