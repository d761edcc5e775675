package main

import (
	"errors"
	"flag"
	"io"
	"math"
	"testing"

	"indoorsq/internal/dataset"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/workload"
)

// TestAnswerRejectsInvalidOps pins the exit path of the inputs the server
// answers 400 to: k = 0 and a NaN radius fail with exec.ErrInvalidOp, and
// a floor outside int16 is a flag error rather than a wrapped floor.
func TestAnswerRejectsInvalidOps(t *testing.T) {
	info := dataset.Get("CPH")
	eng, err := bundle.NewEngine("IDModel", info.Space, bundle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetObjects(workload.New(info.Space, 1).Objects(50))
	p := indoor.At(1000, 300, 0)
	for _, op := range []exec.Op{
		{Kind: exec.KNNQ, P: p, K: 0},
		{Kind: exec.KNNQ, P: p, K: -3},
		{Kind: exec.RangeQ, P: p, R: math.NaN()},
		{Kind: exec.RangeQ, P: p, R: -5},
	} {
		if _, err := answer(eng, op); !errors.Is(err, exec.ErrInvalidOp) {
			t.Errorf("%s op %+v: err %v, want ErrInvalidOp", op.Kind, op, err)
		}
	}
	if _, err := answer(eng, exec.Op{Kind: exec.KNNQ, P: p, K: 5}); err != nil {
		t.Errorf("valid kNN: %v", err)
	}

	fs := flag.NewFlagSet("knn", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	pt := point(fs, "", "")
	if err := fs.Parse([]string{"-floor", "65536"}); err == nil {
		t.Errorf("-floor 65536 parsed as %v", pt())
	}
	if err := fs.Parse([]string{"-floor", "-2"}); err != nil || pt().Floor != -2 {
		t.Errorf("-floor -2: %v, floor %d", err, pt().Floor)
	}
}
