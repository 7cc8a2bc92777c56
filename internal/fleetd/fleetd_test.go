package fleetd

// Shared fixtures for the fleetd suites: a scenario bundle (model
// artifact + harvest trace + document), a frozen clock so reports and
// progress events carry no wall-clock bytes, an httptest harness over
// Server.Handler, and a reference runner that drives the exact
// library path cmd/ehfleet uses — the daemon's output must match it
// byte for byte.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ehdl/internal/cli"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
)

// frozenClock never advances: host-seconds render as 0.00 on every
// side of a comparison, so reports can be compared byte for byte.
type frozenClock struct{}

func (frozenClock) Now() time.Time { return time.Unix(1_700_000_000, 0) }

// testModel quantizes a randomly initialized model with the MNIST
// input geometry and name, so cli.DatasetFor resolves it.
func testModel(t *testing.T, seed int64) *quant.Model {
	t.Helper()
	arch := &nn.Arch{
		Name: "mnist", InShape: [3]int{1, 28, 28}, NumClasses: 10,
		Specs: []nn.LayerSpec{
			{Kind: "conv", InC: 1, InH: 28, InW: 28, OutC: 2, KH: 5, KW: 5},
			{Kind: "pool", InC: 2, InH: 24, InW: 24, PoolSize: 2},
			{Kind: "relu", N: 2 * 12 * 12},
			{Kind: "flatten", N: 288},
			{Kind: "bcm", In: 288, Out: 32, K: 16, WeightNorm: true},
			{Kind: "relu", N: 32},
			{Kind: "dense", In: 32, Out: 10},
		},
	}
	rng := rand.New(rand.NewSource(seed))
	net := arch.Build(rng)
	calib := make([][]float64, 4)
	for i := range calib {
		x := make([]float64, arch.InLen())
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		calib[i] = x
	}
	m, err := quant.Quantize(net, arch, calib)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scenarioDoc is the heterogeneous test scenario; relative paths
// resolve against the fixture dir the server gets as BaseDir.
const scenarioDoc = `{
  "defaults": { "model": "mnist.gob", "engine": "ace+flex" },
  "devices": [
    { "name": "bench", "count": 2, "jitter": 0.3 },
    { "name": "window", "engine": "tails", "cap_f": 220e-6,
      "profile": { "kind": "sine", "power_w": 6e-3, "period_s": 0.2 } },
    { "name": "solar", "cap_f": 150e-6, "sample": 5,
      "profile": { "kind": "trace", "trace": "solar.csv", "repeat": true } }
  ]
}`

// writeFixtures lays out the model artifact and trace the scenario
// references, returning the directory (the server's BaseDir).
func writeFixtures(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := cli.SaveModel(filepath.Join(dir, "mnist.gob"), testModel(t, 9)); err != nil {
		t.Fatal(err)
	}
	trace := "0,0.004\n0.05,0.006\n0.1,0.005\n"
	if err := os.WriteFile(filepath.Join(dir, "solar.csv"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// startServer builds a Server over dir and serves its Handler. The
// clock defaults to frozen so nothing in the output bytes depends on
// the host. Each setup runs on the Server before it serves (a row
// hook set there is in place before any request can start a run).
// Cleanup closes the listener, then drains.
func startServer(t *testing.T, dir string, cfg Config, setup ...func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Dir = dir
	if cfg.Clock == nil {
		cfg.Clock = frozenClock{}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range setup {
		f(srv)
	}
	t.Cleanup(srv.Drain)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// jobBody builds a POST /v1/jobs envelope around a scenario document.
func jobBody(t *testing.T, scenario string, fields map[string]any) []byte {
	t.Helper()
	m := map[string]any{"scenario": json.RawMessage(scenario)}
	for k, v := range fields {
		m[k] = v
	}
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// apiCall performs one request and returns (status, body).
func apiCall(t *testing.T, ts *httptest.Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// postJob submits a job and decodes the accepted status.
func postJob(t *testing.T, ts *httptest.Server, body []byte) JobStatus {
	t.Helper()
	status, data := apiCall(t, ts, http.MethodPost, "/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d %s", status, data)
	}
	var js JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatalf("job status: %v in %s", err, data)
	}
	return js
}

// getStatus fetches a job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	status, data := apiCall(t, ts, http.MethodGet, "/v1/jobs/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %d %s", id, status, data)
	}
	var js JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatalf("job status: %v in %s", err, data)
	}
	return js
}

// waitTerminal follows a job's event stream to its end and returns
// the final state, verifying every event decodes.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) State {
	t.Helper()
	last := followEvents(t, ts, id, "")
	if !last.Terminal() {
		t.Fatalf("event stream ended before a terminal state (last %q)", last)
	}
	return last
}

// waitState follows a job's event stream until it reports state want.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) {
	t.Helper()
	if last := followEvents(t, ts, id, want); last != want {
		t.Fatalf("job %s event stream ended at %q before reporting %q", id, last, want)
	}
}

// followEvents reads a job's event stream, verifying every event
// decodes, until the stream ends or (when stop is set) a state event
// reports stop, and returns the last state seen.
func followEvents(t *testing.T, ts *httptest.Server, id string, stop State) State {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	last := State("")
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err != io.EOF {
				t.Fatalf("event stream: %v", err)
			}
			break
		}
		switch ev.Type {
		case "state":
			last = ev.State
			if stop != "" && last == stop {
				return last
			}
		case "progress":
			if ev.Progress == nil || ev.Progress.Total <= 0 {
				t.Fatalf("malformed progress event: %+v", ev)
			}
		default:
			t.Fatalf("unknown event type %q", ev.Type)
		}
	}
	return last
}

// getRows streams a job's row endpoint to its end (the request stays
// open while the job runs) and returns every byte received.
func getRows(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	status, data := apiCall(t, ts, http.MethodGet, "/v1/jobs/"+id+"/rows", nil)
	if status != http.StatusOK {
		t.Fatalf("GET rows: %d %s", status, data)
	}
	return data
}

// getReport fetches a done job's rendered report.
func getReport(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	status, data := apiCall(t, ts, http.MethodGet, "/v1/jobs/"+id+"/report", nil)
	if status != http.StatusOK {
		t.Fatalf("GET report: %d %s", status, data)
	}
	return string(data)
}

// refOptions shapes a reference run.
type refOptions struct {
	seed      int64
	devices   int // resize (0: declared size)
	workers   int
	chunkSize int
	partition fleet.Partition
	memo      bool
}

// referenceRun drives the scenario through the same library path the
// ehfleet CLI uses — CompileFleetSource + RunStream into an
// NDJSONFile — and returns the row bytes and rendered report the
// daemon must reproduce exactly.
func referenceRun(t *testing.T, baseDir, scenario string, o refOptions) ([]byte, string) {
	t.Helper()
	sf, err := cli.DecodeScenarioFile(bytes.NewReader([]byte(scenario)))
	if err != nil {
		t.Fatal(err)
	}
	src, err := cli.CompileFleetSource(sf, baseDir, o.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.devices > 0 {
		src = src.Resize(o.devices)
	}
	pstart, _ := o.partition.Range(src.Len())
	rowsPath := filepath.Join(t.TempDir(), "rows.ndjson")
	sink, err := fleet.NewNDJSONFile(rowsPath, pstart)
	if err != nil {
		t.Fatal(err)
	}
	opts := fleet.StreamOptions{
		Workers:   o.workers,
		ChunkSize: o.chunkSize,
		Partition: o.partition,
		Clock:     frozenClock{},
		Sink:      sink,
	}
	if o.memo {
		opts.Memo = memo.New(0)
	}
	rep, err := fleet.RunStream(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := os.ReadFile(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	return rows, fleet.RenderReport(rep)
}

// parkAt is a startServer setup that holds every run at its want-th
// delivered row until the run is cancelled (a DELETE or a drain), so a
// test sees a job mid-run at a known row count however fast the
// simulation runs.
func parkAt(want int) func(*Server) {
	return func(srv *Server) {
		srv.rowHook = func(ctx context.Context, j *Job, rows int) {
			if rows == want {
				<-ctx.Done()
			}
		}
	}
}

// waitRows follows a job's row stream until want rows have arrived.
// It fails if the stream ends first — the job finished before it could
// be observed mid-run — or if the rows stall for a minute.
func waitRows(t *testing.T, ts *httptest.Server, id string, want int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/rows", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET rows: %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	rows := 0
	for rows < want && sc.Scan() {
		rows++
	}
	switch {
	case rows >= want:
		return
	case sc.Err() != nil:
		t.Fatalf("job %s stuck at %d rows, want %d: %v", id, rows, want, sc.Err())
	}
	js := getStatus(t, ts, id)
	t.Fatalf("job %s reached %s with %d rows, wanted to observe %d mid-run (park it with parkAt)",
		id, js.State, rows, want)
}

// jsonBody is a shorthand for error-payload decoding.
type errBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

func decodeErr(t *testing.T, data []byte) errBody {
	t.Helper()
	var eb errBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("error body: %v in %s", err, data)
	}
	return eb
}

// fmtJob builds a tiny valid envelope for tests that only need any
// acceptable job.
func fmtJob(t *testing.T, extra string) []byte {
	t.Helper()
	if extra != "" {
		extra = "," + extra
	}
	return []byte(fmt.Sprintf(`{"scenario":%s%s}`, scenarioDoc, extra))
}
