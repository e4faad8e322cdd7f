package main

import "testing"

func TestWins(t *testing.T) {
	base, change := []float64{10, 10, 10}, []float64{9, 10, 11}
	if w := wins(base, change, "lower"); w != 1 {
		t.Fatalf("lower: %d wins", w)
	}
	if w := wins(base, change, "higher"); w != 1 {
		t.Fatalf("higher: %d wins", w)
	}
}

func TestParseResult(t *testing.T) {
	out := []byte("progress\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"query_p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}\n")
	m, err := parseResult(out)
	if err != nil || m["query_p50_ms"] != 1.5 {
		t.Fatalf("%v, %v", m, err)
	}
	if _, err := parseResult([]byte(`{"correct":false,"failed":2,"metrics":{}}`)); err == nil {
		t.Fatal("a run with failed operations was accepted")
	}
}
