package gpmetis

import (
	"errors"
	"testing"
)

// TestSentinelErrors pins the public error contract: each class of bad
// input must surface an error matching the corresponding exported
// sentinel through errors.Is, so callers can branch on them without
// string matching.
func TestSentinelErrors(t *testing.T) {
	g, err := Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}

	wideWarp := DefaultMachine()
	wideWarp.GPU.WarpSize = 64

	cases := []struct {
		name string
		g    *Graph
		k    int
		o    Options
		want error
	}{
		{"k zero", g, 0, Options{}, ErrBadK},
		{"k negative", g, -3, Options{}, ErrBadK},
		{"k exceeds vertices", g, 101, Options{}, ErrBadK},
		{"imbalance below one", g, 4, Options{UBFactor: 0.9}, ErrBadImbalance},
		{"empty graph", &Graph{XAdj: []int{0}}, 1, Options{}, ErrEmptyGraph},
		{"unknown merge strategy", g, 4, Options{Merge: MergeStrategy(99)}, ErrBadOption},
		{"warp wider than the simulator", g, 4, Options{Machine: wideWarp}, ErrBadOption},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Partition(tc.g, tc.k, tc.o)
			if !errors.Is(err, tc.want) {
				t.Errorf("Partition() error = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestSentinelErrorsAcrossAlgorithms checks that k validation is uniform:
// every bundled partitioner rejects k=0 with ErrBadK.
func TestSentinelErrorsAcrossAlgorithms(t *testing.T) {
	g, err := Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{GPMetis, Metis, MtMetis, ParMetis, PTScotch, Gmetis, Jostle, Spectral} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			if _, err := Partition(g, 0, Options{Algorithm: algo}); !errors.Is(err, ErrBadK) {
				t.Errorf("k=0 error = %v, want ErrBadK", err)
			}
		})
	}
}

// TestCancelSentinel checks the cooperative cancellation contract:
// Options.Cancel returning a cause aborts the run with an error matching
// both ErrCanceled and the cause itself.
func TestCancelSentinel(t *testing.T) {
	g, err := Delaunay(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("caller gave up")
	_, err = Partition(g, 8, Options{Cancel: func() error { return cause }})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Partition() error = %v, want errors.Is(err, ErrCanceled)", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("Partition() error = %v, want it to wrap the cancellation cause", err)
	}

	// A Cancel hook that never fires must not perturb the run.
	calls := 0
	res, err := Partition(g, 8, Options{Cancel: func() error { calls++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("Cancel hook was never polled")
	}
	plain, err := Partition(g, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != plain.EdgeCut || res.ModeledSeconds != plain.ModeledSeconds {
		t.Errorf("non-firing Cancel changed the run: cut %d vs %d, modeled %v vs %v",
			res.EdgeCut, plain.EdgeCut, res.ModeledSeconds, plain.ModeledSeconds)
	}
}
