// Package fleetd is the fleet-sweep service behind cmd/ehfleetd: a
// long-running daemon that accepts scenario documents over HTTP (the
// same strict schema as `ehfleet -scenarios`, via the shared
// internal/cli load path), runs each job through fleet.RunStream, and
// streams progress events and NDJSON rows back.
//
// Every job the daemon runs is exactly the sweep the one-shot CLI
// would have produced — byte for byte. What the service adds is
// multiplexing and survival: all jobs draw simulation slots from one
// bounded fleet.WorkerPool, share one content-addressed run memo and
// one model-artifact cache, checkpoint their commit frontiers so a
// restarted daemon resumes in-flight jobs, and cancel cleanly (a
// DELETE aborts the run at its frontier; a graceful drain re-queues
// running jobs for the next process). Partitioned jobs write shard
// artifacts, and the merge endpoint folds completed shard jobs back
// into the whole-fleet rows and report with fleet.MergeShards.
//
// Determinism discipline matches the rest of the repo: the only host
// clock is the injectable fleet.Clock (wall time never influences
// simulated results), job IDs are sequential, and every map iteration
// that could reorder output is collect-then-sorted.
package fleetd

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ehdl/internal/cli"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
)

// DefaultMaxActive is the default number of jobs simulating at once.
// More jobs than this queue FIFO; the worker pool additionally bounds
// their combined simulation concurrency.
const DefaultMaxActive = 4

// DefaultMaxBody caps POSTed request bodies (scenario documents are
// small; model artifacts live on the server's disk).
const DefaultMaxBody = 8 << 20

// Config configures a Server.
type Config struct {
	// Dir is the data directory; each job persists under Dir/jobs/<id>.
	Dir string
	// BaseDir resolves relative model/trace paths in submitted
	// scenarios (empty: Dir).
	BaseDir string
	// Pool is the shared simulation slot count (<= 0: GOMAXPROCS).
	Pool int
	// MaxActive bounds concurrently running jobs (<= 0: DefaultMaxActive).
	MaxActive int
	// MaxBody caps request bodies in bytes (<= 0: DefaultMaxBody).
	MaxBody int64
	// MemoCap sizes the shared run memo (<= 0: the memo default).
	MemoCap int
	// ArtifactCap sizes the shared model-artifact cache (<= 0: the cli
	// default).
	ArtifactCap int
	// CheckpointEvery is the default rows-between-checkpoints for jobs
	// that do not set their own (<= 0: fleet.DefaultCheckpointEvery).
	CheckpointEvery int
	// Clock supplies host time for progress events and report host
	// seconds (nil: fleet.SystemClock). Nothing simulated reads it.
	Clock fleet.Clock
	// ProgressEvery is the progress-event tick (<= 0: RunStream's 2s).
	ProgressEvery time.Duration
}

// Server is the fleet service: job store, scheduler and shared caches.
// Create one with New, serve its Handler, and Drain it on shutdown.
type Server struct {
	dir             string
	baseDir         string
	maxActive       int
	maxBody         int64
	checkpointEvery int
	progressEvery   time.Duration
	clock           fleet.Clock
	start           time.Time

	pool      *fleet.WorkerPool
	memo      *memo.Memo
	artifacts *cli.ArtifactCache

	// rowHook, when set (by tests, before any job is submitted), runs
	// after every row a job delivers, with the run's context and the
	// job's delivered-row count. A hook that blocks holds the run at
	// that row.
	rowHook func(ctx context.Context, j *Job, rows int)

	mu       sync.Mutex
	jobs     map[string]*Job
	nextID   int
	queue    []string // queued job IDs, FIFO
	active   int
	draining bool
	wg       sync.WaitGroup // running jobs
}

// New builds a Server over cfg.Dir, recovering every persisted job:
// terminal jobs load as history, and jobs a previous process left
// queued or running re-queue and resume from their checkpoints.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleetd: Config.Dir is required")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = fleet.SystemClock
	}
	s := &Server{
		dir:             cfg.Dir,
		baseDir:         cfg.BaseDir,
		maxActive:       cfg.MaxActive,
		maxBody:         cfg.MaxBody,
		checkpointEvery: cfg.CheckpointEvery,
		progressEvery:   cfg.ProgressEvery,
		clock:           clock,
		start:           clock.Now(),
		pool:            fleet.NewWorkerPool(cfg.Pool),
		memo:            memo.New(cfg.MemoCap),
		artifacts:       cli.NewArtifactCache(cfg.ArtifactCap),
		jobs:            map[string]*Job{},
	}
	if s.baseDir == "" {
		s.baseDir = cfg.Dir
	}
	if s.maxActive <= 0 {
		s.maxActive = DefaultMaxActive
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBody
	}
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("fleetd: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) jobsDir() string { return filepath.Join(s.dir, "jobs") }

// recover loads persisted jobs from the data dir. Interrupted jobs
// (queued, running, or cancelling at the time the last process died)
// become queued or cancelled; their checkpoints make re-running them
// a resume, not a restart.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return fmt.Errorf("fleetd: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := filepath.Join(s.jobsDir(), name)
		meta, err := readJobMeta(dir)
		if errors.Is(err, fs.ErrNotExist) {
			continue // a submit died between mkdir and its first meta write
		}
		if err != nil {
			return err
		}
		switch {
		case meta.Kind == kindMerge && !meta.State.Terminal():
			// Merges are synchronous; an unfinished one died with its
			// request and cannot resume.
			meta.State = StateFailed
			meta.Error = "merge interrupted by daemon shutdown"
			if err := writeJobMeta(dir, meta); err != nil {
				return err
			}
		case meta.State == StateQueued, meta.State == StateRunning:
			// Interrupted mid-flight (crash or drain): resume.
			meta.State = StateQueued
			if err := writeJobMeta(dir, meta); err != nil {
				return err
			}
		case meta.State == StateCancelling:
			// The user's cancel landed but the ack didn't: honor it.
			meta.State = StateCancelled
			if err := writeJobMeta(dir, meta); err != nil {
				return err
			}
		}
		j := newJob(meta.ID, dir, meta)
		s.jobs[meta.ID] = j
		if meta.State == StateQueued {
			s.queue = append(s.queue, meta.ID)
		}
		var n int
		if _, err := fmt.Sscanf(name, "j%06d", &n); err == nil && n >= s.nextID {
			s.nextID = n
		}
	}
	s.schedule()
	return nil
}

// newJobDir allocates the next sequential job ID and its directory.
// Callers hold s.mu.
func (s *Server) newJobDir() (string, string, error) {
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	dir := filepath.Join(s.jobsDir(), id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("fleetd: %w", err)
	}
	return id, dir, nil
}

// submit persists a validated request as a queued job and schedules.
// scenario is the submitted document, byte for byte.
func (s *Server) submit(req JobRequest, scenario []byte) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	id, dir, err := s.newJobDir()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, scenarioFile), scenario, 0o644); err != nil {
		return nil, fmt.Errorf("fleetd: %w", err)
	}
	meta := jobMeta{
		ID:              id,
		Kind:            kindSweep,
		State:           StateQueued,
		Seed:            req.seed(),
		Devices:         req.Devices,
		Workers:         req.Workers,
		ChunkSize:       req.ChunkSize,
		Partition:       req.Partition,
		Memo:            req.Memo,
		CheckpointEvery: req.CheckpointEvery,
	}
	if err := writeJobMeta(dir, meta); err != nil {
		return nil, err
	}
	j := newJob(id, dir, meta)
	s.jobs[id] = j
	s.queue = append(s.queue, id)
	s.schedule()
	return j, nil
}

// schedule starts queued jobs while run slots remain. Callers hold
// s.mu.
func (s *Server) schedule() {
	for !s.draining && s.active < s.maxActive && len(s.queue) > 0 {
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		ctx, cancel := context.WithCancel(context.Background())
		j.mu.Lock()
		j.cancel = cancel
		j.mu.Unlock()
		s.active++
		s.wg.Add(1)
		go s.runJob(j, ctx)
	}
}

// jobDone releases the job's run slot and schedules the next job.
func (s *Server) jobDone() {
	s.mu.Lock()
	s.active--
	s.schedule()
	s.mu.Unlock()
	s.wg.Done()
}

// runJob drives one job start (or resume) to a terminal state — or
// back to queued, when a drain interrupted it.
func (s *Server) runJob(j *Job, ctx context.Context) {
	defer s.jobDone()
	err := s.executeJob(j, ctx)
	if err == nil {
		return // executeJob persisted StateDone
	}
	if errors.Is(err, context.Canceled) {
		j.mu.Lock()
		user := j.userCancel
		j.mu.Unlock()
		if user {
			_ = j.setState(StateCancelled, nil)
		} else {
			// Drain: the run checkpointed its frontier; persist queued so
			// the next process resumes it.
			_ = j.setState(StateQueued, nil)
		}
		return
	}
	_ = j.setState(StateFailed, func(m *jobMeta) { m.Error = err.Error() })
}

// executeJob compiles the job's scenario against the shared caches
// and streams it through fleet.RunStream on the shared pool.
func (s *Server) executeJob(j *Job, ctx context.Context) error {
	meta, _ := j.snapshot()

	scenario, err := os.ReadFile(j.scenarioPath())
	if err != nil {
		return fmt.Errorf("fleetd: %w", err)
	}
	sf, err := cli.DecodeScenarioFile(bytes.NewReader(scenario))
	if err != nil {
		return fmt.Errorf("fleetd: scenario: %w", err)
	}
	src, err := cli.CompileFleetSource(sf, s.baseDir, meta.Seed, s.artifacts)
	if err != nil {
		return fmt.Errorf("fleetd: scenario: %w", err)
	}
	if meta.Devices > 0 {
		src = src.Resize(meta.Devices)
	}
	n := src.Len()

	part, err := ParsePartition(meta.Partition)
	if err != nil {
		return err
	}
	pstart, pend := part.Range(n)
	fingerprint := cli.ScenarioBytesFingerprint(scenario, meta.Seed, n)

	memoOn := false
	if ms := src.Memo(); ms != nil {
		memoOn = ms.Enabled
	}
	if meta.Memo != nil {
		memoOn = *meta.Memo
	}

	var resume *fleet.CheckpointState
	st, err := fleet.LoadCheckpoint(j.ckptPath())
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		resume = st
	}

	var sink *fleet.NDJSONFile
	if resume != nil {
		sink, err = fleet.ResumeNDJSONFile(j.rowsPath(), resume.Rows-resume.Start, resume.Rows)
	} else {
		sink, err = fleet.NewNDJSONFile(j.rowsPath(), pstart)
	}
	if err != nil {
		return err
	}

	resumed := 0
	if resume != nil {
		resumed = resume.Rows - resume.Start
	}
	if err := j.setState(StateRunning, func(m *jobMeta) {
		m.Fleet = n
		m.Start = pstart
		m.End = pend
		m.Resumed = resumed
		m.Fingerprint = fingerprint
	}); err != nil {
		sink.Close()
		return err
	}
	j.mu.Lock()
	j.sink = sink
	j.rows = resumed
	j.mu.Unlock()

	track := cli.ProgressTracker(s.clock, resumed)
	opts := fleet.StreamOptions{
		Workers:       meta.Workers,
		ChunkSize:     meta.ChunkSize,
		Partition:     part,
		Pool:          s.pool,
		Context:       ctx,
		Clock:         s.clock,
		ProgressEvery: s.progressEvery,
		Sink: fleet.MultiSink(sink, fleet.SinkFunc(func(i int, r fleet.Result) error {
			j.mu.Lock()
			j.rows++
			rows := j.rows
			j.bump()
			j.mu.Unlock()
			if s.rowHook != nil {
				s.rowHook(ctx, j, rows)
			}
			return nil
		})),
		Progress: func(done, total int) {
			ev := track(done, total)
			j.addEvent(Event{Type: "progress", Progress: &ev})
		},
		Checkpoint: &fleet.CheckpointSpec{
			Path:        j.ckptPath(),
			Every:       orInt(meta.CheckpointEvery, s.checkpointEvery),
			Fingerprint: fingerprint,
		},
		Resume: resume,
	}
	if memoOn {
		opts.Memo = s.memo
	}

	rep, runErr := fleet.RunStream(src, opts)
	// Detach the sink before closing it, so no row reader flushes a
	// closed file; Close flushes every row the run delivered.
	j.mu.Lock()
	j.sink = nil
	j.mu.Unlock()
	closeErr := sink.Close()
	if runErr != nil {
		return runErr
	}
	if closeErr != nil {
		return fmt.Errorf("fleetd: close rows: %w", closeErr)
	}
	return j.setState(StateDone, func(m *jobMeta) {
		m.Report = fleet.RenderReport(rep)
		m.Rows = pend - pstart
	})
}

// cancelErrs classify cancelJob failures for the HTTP layer.
var (
	errNotFound      = errors.New("no such job")
	errJobFinished   = errors.New("job already finished")
	errCancelPending = errors.New("cancel already pending")
	errNotDone       = errors.New("job has not finished")
	errDraining      = errors.New("server is draining")
)

// cancelJob cancels a queued or running job: queued jobs terminate
// immediately; running jobs transition to cancelling and reach
// cancelled when the run stops at its commit frontier.
func (s *Server) cancelJob(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, errNotFound
	}
	j.mu.Lock()
	st := j.meta.State
	switch {
	case st.Terminal():
		j.mu.Unlock()
		s.mu.Unlock()
		return nil, errJobFinished
	case st == StateCancelling:
		j.mu.Unlock()
		s.mu.Unlock()
		return nil, errCancelPending
	case st == StateQueued:
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
		s.mu.Unlock()
		return j, j.setState(StateCancelled, nil)
	default: // running
		j.userCancel = true
		cancel := j.cancel
		j.mu.Unlock()
		s.mu.Unlock()
		if err := j.setState(StateCancelling, nil); err != nil {
			return nil, err
		}
		cancel()
		return j, nil
	}
}

// job looks up a job by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// snapshotJobs returns every job sorted by ID.
func (s *Server) snapshotJobs() []*Job {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]*Job, len(ids))
	for i, id := range ids {
		out[i], _ = s.job(id)
	}
	return out
}

// merge folds the named completed jobs' shard artifacts into a new,
// immediately-terminal merge job whose row file is the whole-fleet
// NDJSON stream (fleet.MergeShards rejects mismatched or incomplete
// shard sets before a byte is written).
func (s *Server) merge(ids []string) (*Job, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	dirs := make([]string, 0, len(ids))
	for _, id := range ids {
		src, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", errNotFound, id)
		}
		srcMeta, _ := src.snapshot()
		if srcMeta.State != StateDone || srcMeta.Kind != kindSweep {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s is %s", errNotDone, id, srcMeta.State)
		}
		dirs = append(dirs, src.dir)
	}
	id, dir, err := s.newJobDir()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	meta := jobMeta{ID: id, Kind: kindMerge, State: StateRunning, Merged: append([]string(nil), ids...)}
	if err := writeJobMeta(dir, meta); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	j := newJob(id, dir, meta)
	s.jobs[id] = j
	s.mu.Unlock()

	rep, rows, err := mergeInto(dir, dirs, s.clock)
	if err != nil {
		if serr := j.setState(StateFailed, func(m *jobMeta) { m.Error = err.Error() }); serr != nil {
			return nil, serr
		}
		return j, nil
	}
	return j, j.setState(StateDone, func(m *jobMeta) {
		m.Report = fleet.RenderReport(rep)
		m.Rows = rows
	})
}

// mergeInto runs MergeShards over the shard dirs, writing the merged
// row file into dir.
func mergeInto(dir string, shardDirs []string, clock fleet.Clock) (fleet.Report, int, error) {
	f, err := os.Create(filepath.Join(dir, fleet.ShardRowsFile))
	if err != nil {
		return fleet.Report{}, 0, fmt.Errorf("fleetd: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	rep, err := fleet.MergeShardsWith(w, shardDirs, fleet.MergeOptions{Clock: clock})
	if err != nil {
		f.Close()
		return fleet.Report{}, 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fleet.Report{}, 0, fmt.Errorf("fleetd: merged rows: %w", err)
	}
	if err := f.Close(); err != nil {
		return fleet.Report{}, 0, fmt.Errorf("fleetd: merged rows: %w", err)
	}
	return rep, rep.Devices, nil
}

// Drain stops scheduling and cancels running jobs — each checkpoints
// its commit frontier and persists as queued, so the next process
// resumes it — then waits for them to stop. Queued jobs are already
// persisted as queued and need nothing. Call once, before exit.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	for _, j := range jobs {
		j.mu.Lock()
		if j.meta.State == StateRunning && j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	s.wg.Wait()
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// orInt returns a if positive, else b.
func orInt(a, b int) int {
	if a > 0 {
		return a
	}
	return b
}
