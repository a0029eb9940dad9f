package main

import (
	"encoding/json"
	"fmt"
)

// defaultSeed is the seed the pinned digests in digests.json belong to.
const defaultSeed = 1

// workload is one benchmark input: the spec documents a user would
// submit, generated from the seed, and how they are run.
type workload struct {
	name string
	// specs are the JSON spec documents, in submission order. The
	// program receives only these bytes.
	specs [][]byte
	// specNames label the specs in reports.
	specNames []string
	// workers is the sweep worker count of every study.
	workers int
}

var workloadNames = []string{"fabric-sweep", "lowload-fattree"}

// makeWorkload builds the named workload's specs from seed.
func makeWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "fabric-sweep":
		return gridWorkload(name, 2, map[string]any{
			"version": 1,
			"base": map[string]any{
				"name":    name,
				"model":   map[string]any{},
				"fabric":  map[string]any{"cellBits": 1024},
				"traffic": map[string]any{"kind": "uniform"},
				"queue":   "fifo",
				"sim":     map[string]any{"warmupSlots": 300, "measureSlots": 4000, "seed": seed},
			},
			"axes": []any{
				map[string]any{"name": "ports", "ints": []int{4, 8, 16, 32}},
				map[string]any{"name": "arch", "strings": []string{"crossbar", "fullyconnected", "banyan", "batcherbanyan"}},
				map[string]any{"name": "load", "floats": []float64{0.1, 0.2, 0.3, 0.4, 0.5}},
			},
		})
	case "lowload-fattree":
		return gridWorkload(name, 2, map[string]any{
			"version": 1,
			"base": map[string]any{
				"name":    name,
				"model":   map[string]any{"static": true},
				"fabric":  map[string]any{"arch": "crossbar", "cellBits": 1024},
				"traffic": map[string]any{"kind": "bursty"},
				"queue":   "fifo",
				"dpm":     "idlegate",
				"sim":     map[string]any{"warmupSlots": 300, "measureSlots": 5700, "seed": seed},
				"network": map[string]any{
					"topology": "fattree", "nodes": 43, "routing": "consolidate",
					"matrix": "uniform", "shards": 1,
				},
			},
			"axes": []any{
				map[string]any{"name": "load", "floats": []float64{0.05, 0.1}},
			},
		})
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func gridWorkload(name string, workers int, doc map[string]any) (*workload, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return &workload{name: name, specs: [][]byte{b}, specNames: []string{name}, workers: workers}, nil
}

// simBlock returns a base scenario's sim block, adding an empty one.
func simBlock(base map[string]any) map[string]any {
	sim, _ := base["sim"].(map[string]any)
	if sim == nil {
		sim = map[string]any{}
		base["sim"] = sim
	}
	return sim
}

// editBase returns copies of the specs with edit applied to each base
// scenario.
func editBase(specs [][]byte, edit func(base map[string]any)) ([][]byte, error) {
	out := make([][]byte, len(specs))
	for i, raw := range specs {
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, err
		}
		base, _ := doc["base"].(map[string]any)
		if base == nil {
			return nil, fmt.Errorf("spec %d has no base scenario", i)
		}
		edit(base)
		b, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
