package fleetd

// HTTP surface. Every error response carries a machine-readable code
// next to the human message ({"code": ..., "error": ...}) so clients
// and the error-contract tests can dispatch without parsing prose.
// The rows and events endpoints stream NDJSON and hold the request
// open while the job runs: rows come straight off the job's durable
// row file (complete lines only — the tail of a partially-flushed
// line waits for its newline), events replay the bounded history and
// then follow live.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"strings"

	"ehdl/internal/cli"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
)

// DefaultSeed matches the CLI's -seed default for requests that omit
// the field.
const DefaultSeed = 1

// JobRequest is the POST /v1/jobs body: the scenario document (same
// strict schema as `ehfleet -scenarios`) plus the run knobs the CLI
// exposes as flags. Unknown fields anywhere are rejected.
type JobRequest struct {
	// Scenario is the scenario document, verbatim. The daemon persists
	// and fingerprints exactly these bytes.
	Scenario json.RawMessage `json:"scenario"`
	// Seed is the dataset/jitter seed (absent: DefaultSeed).
	Seed *int64 `json:"seed"`
	// Devices resizes the declared fleet (0: keep the declared size).
	Devices int `json:"devices"`
	// Workers caps this job's goroutines (0: the pool size). The
	// shared pool still bounds actual simulation concurrency.
	Workers int `json:"workers"`
	// ChunkSize overrides the dispatch granularity (0: default).
	ChunkSize int `json:"chunk_size"`
	// Partition restricts the job to shard "i/N" of the fleet; its
	// directory then doubles as a shard artifact for /v1/merge.
	Partition string `json:"partition"`
	// Memo overrides the scenario's memo block (absent: the block
	// decides; false with no block). Memoized jobs share the daemon's
	// process-wide run memo.
	Memo *bool `json:"memo"`
	// CheckpointEvery is the rows between checkpoint writes (0: the
	// server default).
	CheckpointEvery int `json:"checkpoint_every"`
}

// seed resolves the request's seed.
func (r *JobRequest) seed() int64 {
	if r.Seed != nil {
		return *r.Seed
	}
	return DefaultSeed
}

// MergeRequest is the POST /v1/merge body: completed partitioned jobs
// whose shard artifacts tile one fleet.
type MergeRequest struct {
	Jobs []string `json:"jobs"`
}

// JobStatus is the job representation every job endpoint returns.
type JobStatus struct {
	ID            string   `json:"id"`
	Kind          string   `json:"kind"`
	State         State    `json:"state"`
	Seed          int64    `json:"seed"`
	Devices       int      `json:"devices,omitempty"` // requested resize
	Partition     string   `json:"partition,omitempty"`
	Fleet         int      `json:"fleet,omitempty"` // resolved fleet size
	Start         int      `json:"start,omitempty"`
	End           int      `json:"end,omitempty"`
	Resumed       int      `json:"resumed,omitempty"` // checkpoint rows restored at the last (re)start
	Fingerprint   string   `json:"fingerprint,omitempty"`
	RowsDelivered int      `json:"rows_delivered"`
	Rows          int      `json:"rows,omitempty"` // row-file rows at completion
	Error         string   `json:"error,omitempty"`
	Merged        []string `json:"merged,omitempty"`
}

func statusOf(j *Job) JobStatus {
	meta, rows := j.snapshot()
	return JobStatus{
		ID:            meta.ID,
		Kind:          meta.Kind,
		State:         meta.State,
		Seed:          meta.Seed,
		Devices:       meta.Devices,
		Partition:     meta.Partition,
		Fleet:         meta.Fleet,
		Start:         meta.Start,
		End:           meta.End,
		Resumed:       meta.Resumed,
		Fingerprint:   meta.Fingerprint,
		RowsDelivered: rows,
		Rows:          meta.Rows,
		Error:         meta.Error,
		Merged:        meta.Merged,
	}
}

// Metrics is the GET /v1/metrics payload.
type Metrics struct {
	UptimeSeconds    float64        `json:"uptime_seconds"`
	Draining         bool           `json:"draining"`
	Jobs             map[string]int `json:"jobs"` // count per state
	QueueDepth       int            `json:"queue_depth"`
	Active           int            `json:"active"`
	PoolSize         int            `json:"pool_size"`
	PoolInUse        int            `json:"pool_in_use"`
	RowsDelivered    int            `json:"rows_delivered"`
	DevicesPerSecond float64        `json:"devices_per_second"`
	Memo             memo.Stats     `json:"memo"`
	ArtifactsCached  int            `json:"artifacts_cached"`
	ArtifactEvicts   uint64         `json:"artifact_evictions"`
}

// API error codes (the "code" field of error responses).
const (
	CodeBadJSON        = "bad_json"
	CodeUnknownField   = "unknown_field"
	CodeBadRequest     = "bad_request"
	CodeBadScenario    = "bad_scenario"
	CodeBadPartition   = "bad_partition"
	CodeBodyTooLarge   = "body_too_large"
	CodeJobNotFound    = "job_not_found"
	CodeJobFinished    = "job_finished"
	CodeCancelPending  = "cancel_pending"
	CodeJobNotFinished = "job_not_finished"
	CodeDraining       = "draining"
	CodeInternal       = "internal"
)

// apiErr is a typed handler failure: HTTP status + error code + text.
type apiErr struct {
	status int
	code   string
	msg    string
}

func (e *apiErr) Error() string { return e.msg }

func apiError(status int, code, format string, args ...any) *apiErr {
	return &apiErr{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, e *apiErr) {
	writeJSON(w, e.status, struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}{Code: e.code, Error: e.msg})
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/rows", s.handleRows)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("POST /v1/merge", s.handleMerge)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: status})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := Metrics{
		UptimeSeconds:   s.clock.Now().Sub(s.start).Seconds(),
		Draining:        s.Draining(),
		Jobs:            map[string]int{},
		PoolSize:        s.pool.Size(),
		PoolInUse:       s.pool.InUse(),
		Memo:            s.memo.Stats(),
		ArtifactsCached: s.artifacts.Len(),
		ArtifactEvicts:  s.artifacts.Evictions(),
	}
	for _, j := range s.snapshotJobs() {
		meta, rows := j.snapshot()
		m.Jobs[string(meta.State)]++
		m.RowsDelivered += rows
	}
	s.mu.Lock()
	m.QueueDepth = len(s.queue)
	m.Active = s.active
	s.mu.Unlock()
	if m.UptimeSeconds > 0 {
		m.DevicesPerSecond = float64(m.RowsDelivered) / m.UptimeSeconds
	}
	writeJSON(w, http.StatusOK, m)
}

// readBody reads a bounded request body, mapping the size cap to its
// typed error.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiErr) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, apiError(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		}
		return nil, apiError(http.StatusBadRequest, CodeBadRequest, "reading body: %v", err)
	}
	return data, nil
}

// decodeStrict decodes JSON into v, rejecting unknown fields and
// trailing data, and classifies the failure.
func decodeStrict(data []byte, v any) *apiErr {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if strings.Contains(err.Error(), "unknown field") {
			return apiError(http.StatusBadRequest, CodeUnknownField, "%v", err)
		}
		return apiError(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if dec.More() {
		return apiError(http.StatusBadRequest, CodeBadJSON, "trailing data after the document")
	}
	return nil
}

// decodeJobRequest validates a POST /v1/jobs body end to end: strict
// envelope, strict scenario schema, well-formed knobs.
func decodeJobRequest(data []byte) (JobRequest, *apiErr) {
	var req JobRequest
	if e := decodeStrict(data, &req); e != nil {
		return req, e
	}
	if len(req.Scenario) == 0 {
		return req, apiError(http.StatusBadRequest, CodeBadRequest, `"scenario" is required`)
	}
	if _, err := cli.DecodeScenarioFile(bytes.NewReader(req.Scenario)); err != nil {
		return req, apiError(http.StatusBadRequest, CodeBadScenario, "scenario: %v", err)
	}
	if _, err := ParsePartition(req.Partition); err != nil {
		return req, apiError(http.StatusBadRequest, CodeBadPartition, "%v", err)
	}
	if req.Devices < 0 || req.Workers < 0 || req.ChunkSize < 0 || req.CheckpointEvery < 0 {
		return req, apiError(http.StatusBadRequest, CodeBadRequest,
			"devices, workers, chunk_size and checkpoint_every must be >= 0")
	}
	return req, nil
}

// ParsePartition parses a "i/N" shard spec ("" is the whole fleet).
func ParsePartition(s string) (fleet.Partition, error) {
	var p fleet.Partition
	if s == "" {
		return p, nil
	}
	a, b, ok := strings.Cut(s, "/")
	if ok {
		var err1, err2 error
		p.Index, err1 = strconv.Atoi(a)
		p.Of, err2 = strconv.Atoi(b)
		ok = err1 == nil && err2 == nil
	}
	if !ok {
		return p, fmt.Errorf("partition must be i/N (e.g. 2/8), got %q", s)
	}
	if p.Of < 1 || p.Index < 0 || p.Index >= p.Of {
		return p, fmt.Errorf("partition %s out of range (want 0 <= i < N)", s)
	}
	return p, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, e := s.readBody(w, r)
	if e != nil {
		writeErr(w, e)
		return
	}
	req, e := decodeJobRequest(data)
	if e != nil {
		writeErr(w, e)
		return
	}
	j, err := s.submit(req, req.Scenario)
	switch {
	case errors.Is(err, errDraining):
		writeErr(w, apiError(http.StatusServiceUnavailable, CodeDraining, "server is draining"))
	case err != nil:
		writeErr(w, apiError(http.StatusInternalServerError, CodeInternal, "%v", err))
	default:
		writeJSON(w, http.StatusAccepted, statusOf(j))
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.snapshotJobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = statusOf(j)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: out})
}

// lookupJob resolves the {id} path value.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.job(id)
	if !ok {
		writeErr(w, apiError(http.StatusNotFound, CodeJobNotFound, "no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeJSON(w, http.StatusOK, statusOf(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.cancelJob(id)
	switch {
	case errors.Is(err, errNotFound):
		writeErr(w, apiError(http.StatusNotFound, CodeJobNotFound, "no job %q", id))
	case errors.Is(err, errJobFinished):
		writeErr(w, apiError(http.StatusConflict, CodeJobFinished, "job %s already finished", id))
	case errors.Is(err, errCancelPending):
		writeErr(w, apiError(http.StatusConflict, CodeCancelPending, "job %s cancel already pending", id))
	case err != nil:
		writeErr(w, apiError(http.StatusInternalServerError, CodeInternal, "%v", err))
	default:
		writeJSON(w, http.StatusOK, statusOf(j))
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	meta, _ := j.snapshot()
	if meta.State != StateDone {
		writeErr(w, apiError(http.StatusConflict, CodeJobNotFinished,
			"job %s is %s; the report exists once it is done", meta.ID, meta.State))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, meta.Report)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	data, e := s.readBody(w, r)
	if e != nil {
		writeErr(w, e)
		return
	}
	var req MergeRequest
	if e := decodeStrict(data, &req); e != nil {
		writeErr(w, e)
		return
	}
	if len(req.Jobs) == 0 {
		writeErr(w, apiError(http.StatusBadRequest, CodeBadRequest, `"jobs" must name at least one completed job`))
		return
	}
	j, err := s.merge(req.Jobs)
	switch {
	case errors.Is(err, errDraining):
		writeErr(w, apiError(http.StatusServiceUnavailable, CodeDraining, "server is draining"))
	case errors.Is(err, errNotFound):
		writeErr(w, apiError(http.StatusNotFound, CodeJobNotFound, "%v", err))
	case errors.Is(err, errNotDone):
		writeErr(w, apiError(http.StatusConflict, CodeJobNotFinished, "%v", err))
	case err != nil:
		writeErr(w, apiError(http.StatusInternalServerError, CodeInternal, "%v", err))
	default:
		writeJSON(w, http.StatusOK, statusOf(j))
	}
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var off int64
	buf := make([]byte, 1<<20)
	for {
		ch := j.changed()
		meta, _ := j.snapshot()
		// A flush that loses the race with the run closing its sink
		// fails ("file already closed"), but Close flushes every row
		// and the job turns terminal only after it, so keep following:
		// the terminal pass copies the tail. Any other flush failure
		// fails the run, which ends the stream the same way.
		_ = j.flushRows()
		n, err := copyNewRows(w, j.rowsPath(), &off, buf)
		if err != nil {
			return
		}
		if n > 0 && flusher != nil {
			flusher.Flush()
		}
		if meta.State.Terminal() {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// copyNewRows streams complete NDJSON lines appearing after *off into
// w through buf, advancing *off past what it wrote. A trailing partial
// line (the row file's writer buffers through bufio, which can flush
// mid-line) stays unread until its newline lands.
func copyNewRows(w io.Writer, path string, off *int64, buf []byte) (written int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil // the run has not opened its row file yet
	}
	if err != nil {
		return 0, fmt.Errorf("fleetd: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("fleetd: %w", err)
	}
	size := fi.Size()
	for *off < size {
		n := size - *off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if _, err := io.ReadFull(io.NewSectionReader(f, *off, n), buf[:n]); err != nil {
			return written, fmt.Errorf("fleetd: reading rows: %w", err)
		}
		cut := bytes.LastIndexByte(buf[:n], '\n')
		if cut < 0 {
			break // partial line: wait for the rest
		}
		m, err := w.Write(buf[:cut+1])
		written += int64(m)
		*off += int64(cut + 1)
		if err != nil {
			return written, err
		}
		if int64(cut+1) < n {
			break // stopped at a partial tail
		}
	}
	return written, nil
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		ch := j.changed()
		evs, next, terminal := j.eventsSince(cursor)
		cursor = next
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if len(evs) > 0 {
			if flusher != nil {
				flusher.Flush()
			}
			continue // re-check before sleeping: more may have landed
		}
		if terminal {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
