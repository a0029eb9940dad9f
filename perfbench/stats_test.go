package main

import "testing"

// The acceptance check reads spreads with Python's
// statistics.quantiles(xs, n=4); these expectations are its output.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{906, 943, 958, 1118, 1138, 1155}, 933.75, 1038, 1142.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSameResultsIgnoresScenario(t *testing.T) {
	a := []byte(`{"index":0,"scenario":{"network":{"shards":2}},"result":{"ports":4}}` + "\n")
	b := []byte(`{"index":0,"scenario":{"network":{"shards":1}},"result":{"ports":4}}` + "\n")
	c := []byte(`{"index":0,"scenario":{"network":{"shards":1}},"result":{"ports":5}}` + "\n")
	if !sameResults(a, b) {
		t.Error("records differing only in scenario compare unequal")
	}
	if sameResults(a, c) {
		t.Error("records with different results compare equal")
	}
}
