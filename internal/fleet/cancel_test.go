package fleet

// Cancellation and shared-pool regression suite for RunStream
// (StreamOptions.Context / StreamOptions.Pool): a cancelled run must
// return promptly with every shared worker-pool slot released, write
// a checkpoint whose frontier covers only whole committed chunks, and
// resume from that checkpoint to output byte-identical to an
// uninterrupted run's.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// cancelSource cycles the mixed test fleet out to n devices.
func cancelSource(t *testing.T, n int) Source {
	t.Helper()
	scenarios := testFleet(t, tinyModel(t))
	return FuncSource(n, func(i int) (Scenario, error) {
		s := scenarios[i%len(scenarios)]
		s.Name = s.Name + "x"
		return s, nil
	})
}

// TestRunStreamCancelResumesBitIdentical is the cancellation
// contract: cancel mid-run, then resume from the interrupt checkpoint
// and require rows and report bit-identical to the uninterrupted run.
// Along the way it pins the two invariants the fleet service depends
// on: the shared pool ends fully released, and the checkpoint
// frontier sits on a chunk boundary (no partial chunk leaks past it).
func TestRunStreamCancelResumesBitIdentical(t *testing.T) {
	const (
		n        = 400
		chunk    = 16
		cancelAt = 100
	)
	src := cancelSource(t, n)
	dir := t.TempDir()

	// Uninterrupted reference.
	refPath := filepath.Join(dir, "ref.ndjson")
	refSink, err := NewNDJSONFile(refPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := RunStream(src, StreamOptions{Workers: 4, ChunkSize: chunk, Sink: refSink})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSink.Close(); err != nil {
		t.Fatal(err)
	}
	refRows, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Cancelled run: a sink wrapper pulls the trigger once row
	// cancelAt has been delivered, while workers are still simulating.
	pool := NewWorkerPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rowsPath := filepath.Join(dir, "rows.ndjson")
	ckPath := filepath.Join(dir, "ck.ehdl")
	rowsSink, err := NewNDJSONFile(rowsPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := &CheckpointSpec{Path: ckPath, Every: 2 * chunk, Fingerprint: "cancel-test"}
	_, err = RunStream(src, StreamOptions{
		Workers:   4,
		ChunkSize: chunk,
		Pool:      pool,
		Context:   ctx,
		Sink: MultiSink(rowsSink, SinkFunc(func(i int, r Result) error {
			if i >= cancelAt {
				cancel()
			}
			return nil
		})),
		Checkpoint: spec,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want a context.Canceled wrap", err)
	}
	if err := rowsSink.Close(); err != nil {
		t.Fatal(err)
	}
	if held := pool.InUse(); held != 0 {
		t.Fatalf("cancelled run left %d pool slots held", held)
	}

	st, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("cancelled run left no loadable checkpoint: %v", err)
	}
	if st.Rows <= 0 || st.Rows >= n {
		t.Fatalf("interrupt checkpoint frontier %d, want inside (0, %d)", st.Rows, n)
	}
	if st.Rows%chunk != 0 {
		t.Fatalf("frontier %d is not a chunk boundary (chunk %d): a partial chunk leaked past it", st.Rows, chunk)
	}

	// Resume and require bit-identity with the uninterrupted run.
	resumeSink, err := ResumeNDJSONFile(rowsPath, st.Rows-st.Start, st.Rows)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunStream(src, StreamOptions{
		Workers:    4,
		ChunkSize:  chunk,
		Pool:       pool,
		Sink:       resumeSink,
		Checkpoint: spec,
		Resume:     st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumeSink.Close(); err != nil {
		t.Fatal(err)
	}
	gotRows, err := os.ReadFile(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRows, refRows) {
		t.Fatalf("cancel+resume rows differ from uninterrupted run (%d vs %d bytes)", len(gotRows), len(refRows))
	}
	if !reflect.DeepEqual(aggFields(rep), aggFields(refRep)) {
		t.Fatalf("cancel+resume report differs:\n%+v\nvs\n%+v", aggFields(rep), aggFields(refRep))
	}
}

// TestRunStreamPreCancelled: a context cancelled before the call
// fails fast without simulating anything or touching the pool.
func TestRunStreamPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := NewWorkerPool(2)
	var simulated atomic.Int64
	src := FuncSource(64, func(i int) (Scenario, error) {
		simulated.Add(1)
		return Scenario{}, nil
	})
	_, err := RunStream(src, StreamOptions{Workers: 2, Pool: pool, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pre-cancelled run left %d slots held", pool.InUse())
	}
	if simulated.Load() != 0 {
		t.Fatalf("pre-cancelled run simulated %d devices", simulated.Load())
	}
}

// TestWorkerPoolSharedAcrossRuns: concurrent RunStream calls over one
// tiny pool must all complete (no slot deadlock even while runs park
// chunks behind their frontiers and wait for in-flight credits) and
// produce the same bytes as solo runs.
func TestWorkerPoolSharedAcrossRuns(t *testing.T) {
	const runs = 3
	pool := NewWorkerPool(2)
	srcs := make([]Source, runs)
	for k := range srcs {
		srcs[k] = cancelSource(t, 60+10*k)
	}

	solo := make([][]byte, runs)
	for k, src := range srcs {
		var buf bytes.Buffer
		if _, err := RunStream(src, StreamOptions{Workers: 2, ChunkSize: 4, Sink: NewNDJSONSink(&buf)}); err != nil {
			t.Fatal(err)
		}
		solo[k] = append([]byte(nil), buf.Bytes()...)
	}

	type out struct {
		rows []byte
		err  error
	}
	results := make([]out, runs)
	done := make(chan int, runs)
	for k := range srcs {
		k := k
		go func() {
			var buf bytes.Buffer
			_, err := RunStream(srcs[k], StreamOptions{
				Workers:   4, // more goroutines than slots, deliberately
				ChunkSize: 4,
				Pool:      pool,
				Sink:      NewNDJSONSink(&buf),
			})
			results[k] = out{rows: buf.Bytes(), err: err}
			done <- k
		}()
	}
	deadline := time.After(2 * time.Minute)
	for i := 0; i < runs; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("shared-pool runs deadlocked (%d of %d finished)", i, runs)
		}
	}
	for k := range results {
		if results[k].err != nil {
			t.Fatalf("run %d: %v", k, results[k].err)
		}
		if !bytes.Equal(results[k].rows, solo[k]) {
			t.Fatalf("run %d rows differ between shared-pool and solo execution", k)
		}
	}
	if pool.InUse() != 0 {
		t.Fatalf("completed runs left %d slots held", pool.InUse())
	}
}
