package fleet

// This file is the streaming fleet core. Scenarios come from a lazy
// Source (so a million-device fleet is never materialized), workers
// claim deterministic contiguous chunks of devices and simulate each
// into its rows plus an aggregator shard, and a single committer
// restores scenario order: it parks chunks that finish early and,
// chunk by chunk in order, hands the rows to the optional Sink and
// folds the shard into the report. A fixed number of in-flight chunks
// per worker bounds what it parks behind a slow device. Its
// contiguous commit frontier — together with the aggregator snapshot
// and the sink's delivered-row index — is what
// StreamOptions.Checkpoint persists and StreamOptions.Resume restarts
// from. StreamOptions.Partition restricts a run to one device range
// of the fleet (global indices preserved), which is the multi-process
// sharding substrate (see checkpoint.go and merge.go). fleet.Run is a
// thin wrapper that attaches a collecting sink.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ehdl/internal/fleet/memo"
)

// Source lazily yields the fleet's scenarios. Len is the fleet size;
// At(i) builds scenario i and must be safe for concurrent calls with
// distinct (or equal) indices.
type Source interface {
	Len() int
	At(i int) (Scenario, error)
}

type sliceSource []Scenario

func (s sliceSource) Len() int                   { return len(s) }
func (s sliceSource) At(i int) (Scenario, error) { return s[i], nil }

// SliceSource adapts a materialized scenario slice.
func SliceSource(scenarios []Scenario) Source { return sliceSource(scenarios) }

type funcSource struct {
	n  int
	fn func(i int) (Scenario, error)
}

func (s funcSource) Len() int                   { return s.n }
func (s funcSource) At(i int) (Scenario, error) { return s.fn(i) }

// FuncSource adapts a generator function: n devices, scenario i built
// on demand by fn (which must be safe for concurrent calls).
func FuncSource(n int, fn func(i int) (Scenario, error)) Source {
	return funcSource{n: n, fn: fn}
}

// Sink consumes per-device rows as the fleet streams. Consume is
// called exactly once per scenario, in scenario order (i strictly
// increasing), never concurrently. A Consume error aborts the run.
type Sink interface {
	Consume(i int, r Result) error
}

// Flusher is the optional Sink upgrade checkpointing relies on: a
// sink that can force delivered rows to stable storage. When the
// run's Sink implements it, RunStream calls Flush immediately before
// every checkpoint write, so the persisted row frontier is always
// covered by durable sink output. Consume runs on the committer and
// checkpoint writes on an async writer, so Flush may run concurrently
// with Consume — implementations must serialize internally
// (NDJSONFile does; its fsync deliberately runs outside the lock so
// delivery never stalls behind the disk).
type Flusher interface {
	Flush() error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(i int, r Result) error

// Consume implements Sink.
func (f SinkFunc) Consume(i int, r Result) error { return f(i, r) }

// MultiSink fans rows out to several sinks in argument order. Its
// Flush flushes every constituent that implements Flusher, so
// checkpoint durability propagates through the fan-out.
func MultiSink(sinks ...Sink) Sink { return multiSink(sinks) }

type multiSink []Sink

// Consume implements Sink.
func (m multiSink) Consume(i int, r Result) error {
	for _, s := range m {
		if err := s.Consume(i, r); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Flusher.
func (m multiSink) Flush() error {
	for _, s := range m {
		if f, ok := s.(Flusher); ok {
			if err := f.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Collector is a Sink that materializes rows — what fleet.Run uses to
// keep its Report.Results contract. Only attach it to fleets you are
// willing to hold in memory. It enforces the Sink ordering contract:
// a row that is not exactly the next expected index is an error.
type Collector struct {
	// Start is the first expected row index: 0 for whole-fleet runs,
	// the partition's start for sharded ones.
	Start int
	Rows  []Result
}

// Consume implements Sink.
func (c *Collector) Consume(i int, r Result) error {
	if want := c.Start + len(c.Rows); i != want {
		return fmt.Errorf("fleet: collector got row %d, want %d", i, want)
	}
	c.Rows = append(c.Rows, r)
	return nil
}

// DefaultChunkSize is RunStream's dispatch granularity: workers claim
// this many consecutive devices at a time. Large enough to amortize
// the per-chunk aggregator shard, small enough that the commit
// frontier — and with it checkpoint coverage — advances promptly.
// Small fleets clamp it further so work still spreads across the
// pool.
const DefaultChunkSize = 256

// StreamOptions configures RunStream.
type StreamOptions struct {
	// Workers bounds the worker pool (<= 0: GOMAXPROCS).
	Workers int
	// ExactPercentiles is the fleet size up to which wall-time
	// percentiles are exact (<= 0: DefaultExactPercentiles). Larger
	// fleets switch to the histogram estimate.
	ExactPercentiles int
	// Sink, when set, receives every row in scenario order.
	Sink Sink
	// Progress, when set, is called from a ticker goroutine with the
	// number of finished devices (and once more on completion). Totals
	// are partition-relative: a resumed or sharded run reports
	// (committed-so-far, partition size), counting checkpoint-restored
	// rows as already done.
	Progress func(done, total int)
	// ProgressEvery is the ticker interval (<= 0: 2s).
	ProgressEvery time.Duration
	// Memo, when set, dedups identical device runs: workers consult
	// the content-addressed memo before simulating and replay cached
	// outcomes (see internal/fleet/memo). Rows and report are
	// bit-identical with or without it; its counters land in
	// Report.Memo. The same memo may be shared across RunStream calls
	// to carry warm state between sweeps.
	Memo *memo.Memo
	// Partition restricts the run to one contiguous device range of
	// the fleet (zero value: the whole fleet). Global indices are
	// preserved — the sink sees exactly the (i, row) pairs a
	// whole-fleet run would produce for the range — so k shards'
	// outputs concatenate and merge bit-identically (see MergeShards).
	Partition Partition
	// Checkpoint, when set, persists the commit frontier (aggregator
	// snapshot + delivered-row index) to Checkpoint.Path atomically
	// every Checkpoint.Every rows and once more, synchronously, on
	// completion. Periodic writes happen on an async writer that
	// overlaps disk latency with simulation (newest frontier wins if
	// writes fall behind), and if the Sink implements Flusher it is
	// flushed before every write — so a SIGKILL at any point leaves a
	// checkpoint whose frontier is covered by the sink's durable
	// output.
	Checkpoint *CheckpointSpec
	// Resume, when set, seeds the run from a loaded checkpoint:
	// simulation continues at its row frontier with its restored
	// aggregator state. The state must match this run — fleet size,
	// partition, exact-percentile threshold, and (when Checkpoint is
	// set) its fingerprint — or the run fails with
	// ErrCheckpointMismatch. The Sink must already be positioned at
	// the frontier (see ResumeNDJSONFile).
	Resume *CheckpointState
	// ChunkSize overrides DefaultChunkSize (<= 0: default).
	ChunkSize int
	// Context, when set, cancels an in-flight run: workers stop at the
	// next device boundary, no further chunks commit, and RunStream
	// returns an error wrapping ctx.Err(). A cancelled checkpointed run
	// still leaves one final checkpoint at its commit frontier — the
	// consistent (aggregator, delivered rows) prefix — so cancellation
	// (the fleet service's job abort and graceful drain) is resumable
	// exactly like a crash, minus the lost tail. nil: never cancelled.
	Context context.Context
	// Pool, when set, draws simulation slots from a WorkerPool shared
	// with other concurrent RunStream calls instead of giving this run
	// Workers unconditional goroutines: each worker holds a slot only
	// while simulating a chunk, so the pool bounds total simulation
	// concurrency across every run sharing it. Workers still bounds
	// this run's goroutine count (its maximum share of the pool).
	Pool *WorkerPool
	// Clock supplies the host time used for Report.HostSeconds and
	// progress pacing — nothing simulated reads it (nil: SystemClock).
	Clock Clock
}

// chunkDone is a worker's completion record for one contiguous chunk:
// its half-open device range, the aggregator shard over exactly those
// rows, and the rows themselves (nil when the run has no sink).
type chunkDone struct {
	start, end int
	agg        *Agg
	rows       []Result
}

// inflightPerWorker bounds how many chunks per worker may be
// dispatched but not yet committed. The dispatcher takes a credit
// before handing out a chunk and the committer returns it when the
// chunk commits, so one slow device parks at most
// inflightPerWorker × workers chunks behind it — memory stays
// O(workers × chunk), independent of fleet size.
const inflightPerWorker = 2

// ckptJob is one queued checkpoint write: a commit frontier and the
// aggregator snapshot taken at exactly that frontier.
type ckptJob struct {
	rows int
	snap []byte
}

// ckptWriter persists periodic checkpoints off the committer's
// critical path: the sink flush + fsync + atomic artifact write cost
// milliseconds of disk latency that would otherwise stall every
// chunk commit at the interval boundary. The committer snapshots the
// aggregator synchronously (the snapshot must capture the frontier
// state) and enqueues the write; at most one job is pending, and a
// newer frontier replaces an unstarted older one — every write is a
// full rewrite, so only the latest matters. RunStream drains the
// writer before returning and writes the final checkpoint
// synchronously, so a finished run's file always sits at the final
// frontier, and an interrupted run's file is deterministically at the
// last queued frontier.
type ckptWriter struct {
	ch    chan ckptJob
	done  chan struct{}
	mu    sync.Mutex
	last  int // frontier of the most recent successful write
	wrote bool
	err   error
}

func newCkptWriter() *ckptWriter {
	return &ckptWriter{ch: make(chan ckptJob, 1), done: make(chan struct{})}
}

func (w *ckptWriter) error() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// drain closes the queue and waits for pending writes to land. Safe
// to read the fields directly afterwards: the writer goroutine has
// exited (happens-before via done).
func (w *ckptWriter) drain() (last int, wrote bool, err error) {
	close(w.ch)
	<-w.done
	return w.last, w.wrote, w.err
}

// committer is the one place RunStream restores scenario order.
// Chunks complete out of order; the committer parks early arrivals,
// and whenever the chunk at its frontier is parked it hands that
// chunk's rows to the sink, merges its aggregator shard and advances
// the frontier. Delivery and commit happen in this one goroutine, so
// a frontier of R means the sink has consumed exactly rows [Start, R)
// and the committed aggregator holds exactly that multiset — the
// invariant that makes each CheckpointState consistent and resume
// exact. Every committed chunk returns its in-flight credit to the
// dispatcher, which is what bounds the parked chunks.
type committer struct {
	spec       *CheckpointSpec
	state      CheckpointState // identity template; Rows/AggSnap filled per write
	committed  *Agg
	rows       int               // commit frontier: rows [state.Start, rows) are committed
	lastQueued int               // frontier of the most recently queued checkpoint
	pending    map[int]chunkDone // parked chunks, keyed by start index
	sink       Sink
	flusher    Flusher
	credits    <-chan struct{} // one per dispatched, uncommitted chunk
	writer     *ckptWriter     // nil unless spec is set and work remains
	fail       func()          // aborts the run after a sink or checkpoint failure
	err        error
}

// run drains the commits channel until it closes. After a sink or
// checkpoint failure, or once ctx is done, it keeps draining (workers
// must never block on a full channel) but stops committing.
func (c *committer) run(ctx context.Context, commits <-chan chunkDone) {
	for cd := range commits {
		if c.err != nil {
			continue
		}
		c.pending[cd.start] = cd
		if err := c.advance(ctx); err != nil {
			c.err = err
			c.fail()
		}
	}
}

// advance commits every parked chunk that has become next in order —
// rows to the sink, shard into the committed aggregator, credit back
// to the dispatcher — and queues a checkpoint once the frontier has
// moved far enough past the last one.
func (c *committer) advance(ctx context.Context) error {
	for ctx.Err() == nil {
		cd, ok := c.pending[c.rows]
		if !ok {
			break
		}
		delete(c.pending, c.rows)
		for k, r := range cd.rows {
			if err := c.sink.Consume(cd.start+k, r); err != nil {
				return fmt.Errorf("fleet: sink at row %d: %w", cd.start+k, err)
			}
		}
		c.committed.Merge(cd.agg)
		c.rows = cd.end
		<-c.credits
	}
	if c.spec != nil && c.rows-c.lastQueued >= c.spec.every() {
		return c.queueCheckpoint()
	}
	return nil
}

// queueCheckpoint snapshots the committed aggregator at the current
// frontier and hands the write to the async writer, replacing an
// unstarted older job (single producer, so the replace never races
// another enqueue).
func (c *committer) queueCheckpoint() error {
	snap, err := c.committed.Snapshot()
	if err != nil {
		return err
	}
	job := ckptJob{rows: c.rows, snap: snap}
	select {
	case c.writer.ch <- job:
	default:
		select {
		case <-c.writer.ch:
		default:
		}
		c.writer.ch <- job
	}
	c.lastQueued = c.rows
	return nil
}

// writeLoop is the async writer goroutine: flush the sink, then land
// the checkpoint atomically. After a failure it keeps draining the
// queue (the committer must never block on a full one) but stops
// writing.
func (c *committer) writeLoop() {
	defer close(c.writer.done)
	for job := range c.writer.ch {
		if c.writer.error() != nil {
			continue
		}
		err := c.flushSink()
		if err == nil {
			st := c.state
			st.Rows = job.rows
			st.AggSnap = job.snap
			if werr := st.write(c.spec.Path); werr != nil {
				err = fmt.Errorf("fleet: write checkpoint %s: %w", c.spec.Path, werr)
			}
		}
		c.writer.mu.Lock()
		if err != nil {
			c.writer.err = err
		} else {
			c.writer.last, c.writer.wrote = job.rows, true
		}
		c.writer.mu.Unlock()
		if err != nil {
			c.fail()
		}
	}
}

// flushSink forces delivered rows to stable storage ahead of a
// checkpoint write. By the time a checkpoint at frontier R is queued,
// rows [Start, R) have all been handed to the sink, so a flush at any
// later moment covers them; rows past the frontier flushed along the
// way are harmless (resume truncates the sink back to the
// checkpointed boundary). Flush may run concurrently with delivery —
// see the Flusher contract.
func (c *committer) flushSink() error {
	if c.flusher == nil {
		return nil
	}
	if err := c.flusher.Flush(); err != nil {
		return fmt.Errorf("fleet: flush sink before checkpoint: %w", err)
	}
	return nil
}

// writeCheckpoint snapshots the committed aggregator and atomically
// rewrites the checkpoint file at the current frontier.
func (c *committer) writeCheckpoint() error {
	snap, err := c.committed.Snapshot()
	if err != nil {
		return err
	}
	st := c.state
	st.Rows = c.rows
	st.AggSnap = snap
	if err := st.write(c.spec.Path); err != nil {
		return fmt.Errorf("fleet: write checkpoint %s: %w", c.spec.Path, err)
	}
	return nil
}

// RunStream simulates the fleet without materializing it: scenarios
// are generated on demand, rows stream through the optional sink in
// scenario order, and the report is aggregated online — memory is
// O(workers × chunk size + exact-percentile threshold) worst case,
// independent of fleet size. Scenario-level failures (bad profile,
// missing model, DNF, a Source error for one index) land in that
// row's Err and do not abort the fleet; only a Sink or checkpoint
// error aborts, returning that error (the sink's takes precedence,
// also over a concurrent cancellation).
//
// The report is bit-identical for any worker count and chunk size,
// and — for fleets within the exact-percentile threshold —
// bit-identical to fleet.Run over the same scenarios. A partitioned
// run reports over its device range only; a resumed run's report
// covers restored and newly simulated rows alike, bit-identical to
// the uninterrupted run's.
func RunStream(src Source, opts StreamOptions) (Report, error) {
	clock := orClock(opts.Clock)
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	start := clock.Now()
	n := src.Len()
	part := opts.Partition.norm()
	if err := part.validate(); err != nil {
		return Report{}, err
	}
	pstart, pend := part.Range(n)
	threshold := opts.ExactPercentiles
	if threshold <= 0 {
		threshold = DefaultExactPercentiles
	}

	base := pstart
	committed := NewAgg(threshold)
	if st := opts.Resume; st != nil {
		fp := st.Fingerprint
		if opts.Checkpoint != nil {
			fp = opts.Checkpoint.Fingerprint
		}
		if err := st.compatible(fp, n, part, threshold); err != nil {
			return Report{}, err
		}
		restored, err := RestoreAgg(st.AggSnap)
		if err != nil {
			return Report{}, err
		}
		committed = restored
		base = st.Rows
	}
	span := pend - base

	var done atomic.Int64
	stopProgress := startProgress(&done, base-pstart, pend-pstart, opts)

	flusher, _ := opts.Sink.(Flusher)
	cm := &committer{
		spec:       opts.Checkpoint,
		committed:  committed,
		rows:       base,
		lastQueued: base,
		pending:    make(map[int]chunkDone),
		sink:       opts.Sink,
		flusher:    flusher,
	}
	cm.state = CheckpointState{
		Version:   checkpointVersion,
		Devices:   n,
		Part:      part,
		Start:     pstart,
		End:       pend,
		Threshold: threshold,
	}
	if opts.Checkpoint != nil {
		cm.state.Fingerprint = opts.Checkpoint.Fingerprint
	}

	if span > 0 {
		workers := opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > span {
			workers = span
		}
		chunk := opts.ChunkSize
		if chunk <= 0 {
			chunk = DefaultChunkSize
		}
		if per := (span + 4*workers - 1) / (4 * workers); per < chunk {
			chunk = per
		}
		if chunk < 1 {
			chunk = 1
		}

		// runCtx is done once the caller cancels or a sink or
		// checkpoint write fails; dispatch, pool waits, simulation and
		// commits all stop on it.
		runCtx, stop := context.WithCancel(ctx)
		defer stop()
		credits := make(chan struct{}, inflightPerWorker*workers)
		commits := make(chan chunkDone, workers)
		cm.credits, cm.fail = credits, stop

		if cm.spec != nil {
			cm.writer = newCkptWriter()
			go cm.writeLoop()
		}

		var cwg sync.WaitGroup
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			cm.run(runCtx, commits)
		}()

		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for cs := range jobs {
					ce := min(cs+chunk, pend)
					// A shared pool slot covers simulation only; it is
					// released before the chunk goes to the committer
					// (see WorkerPool).
					if opts.Pool != nil && !opts.Pool.acquire(runCtx) {
						return
					}
					shard := NewAgg(threshold)
					var rows []Result
					if opts.Sink != nil {
						rows = make([]Result, 0, ce-cs)
					}
					for i := cs; i < ce && runCtx.Err() == nil; i++ {
						s, err := src.At(i)
						var r Result
						if err != nil {
							// The scenario never existed, so label its breakdown
							// groups explicitly instead of leaving them blank.
							r = Result{
								Name:      fmt.Sprintf("dev%d", i),
								Engine:    "unknown",
								Profile:   "unknown",
								Predicted: -1,
								Diagnosis: SetupErrorDiagnosis,
								Err:       fmt.Errorf("fleet: scenario %d: %w", i, err),
							}
						} else if opts.Memo != nil {
							r = runMemoized(s, opts.Memo)
						} else {
							r = runOne(s)
						}
						shard.Observe(r)
						done.Add(1)
						if opts.Sink != nil {
							rows = append(rows, r)
						}
					}
					if opts.Pool != nil {
						opts.Pool.Release()
					}
					if runCtx.Err() != nil {
						// The chunk may be partial: never hand it over, so
						// the frontier never covers a half-simulated chunk.
						return
					}
					commits <- chunkDone{start: cs, end: ce, agg: shard, rows: rows}
				}
			}()
		}
	dispatch:
		for cs := base; cs < pend; cs += chunk {
			select {
			case credits <- struct{}{}:
			case <-runCtx.Done():
				break dispatch
			}
			select {
			case jobs <- cs:
			case <-runCtx.Done():
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
		close(commits)
		cwg.Wait()
	}
	stopProgress()

	var ckLast int
	var ckWrote bool
	var ckErr error
	if cm.writer != nil {
		ckLast, ckWrote, ckErr = cm.writer.drain()
	}
	if cm.err != nil {
		return Report{}, cm.err
	}
	if ckErr != nil {
		return Report{}, ckErr
	}
	if opts.Checkpoint != nil && !(ckWrote && ckLast == cm.rows) {
		// Final checkpoint, written synchronously at the commit
		// frontier (skipped when the writer's last landed write is
		// already there). On completion the frontier is the partition
		// end, so the file doubles as the shard artifact's meta and a
		// resume of a completed run is a no-op reproducing identical
		// output. On cancellation it is the consistent (aggregator,
		// delivered rows) prefix, so a cancelled run resumes exactly
		// like a crashed one.
		if err := cm.flushSink(); err != nil {
			return Report{}, err
		}
		if err := cm.writeCheckpoint(); err != nil {
			return Report{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return Report{}, fmt.Errorf("fleet: run cancelled: %w", err)
	}

	rep := committed.Report()
	if opts.Memo != nil {
		st := opts.Memo.Stats()
		rep.Memo = &st
	}
	rep.HostSeconds = clock.Now().Sub(start).Seconds()
	if opts.Progress != nil {
		opts.Progress(base-pstart+int(done.Load()), pend-pstart)
	}
	return rep, nil
}

// startProgress runs the optional progress ticker; the returned stop
// function is idempotent-enough for the single call RunStream makes.
// offset counts rows already committed before this run (a resumed
// checkpoint's frontier, partition-relative).
func startProgress(done *atomic.Int64, offset, total int, opts StreamOptions) func() {
	if opts.Progress == nil {
		return func() {}
	}
	every := opts.ProgressEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				opts.Progress(offset+int(done.Load()), total)
			case <-stop:
				return
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}
