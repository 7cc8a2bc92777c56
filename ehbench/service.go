package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ehdl/internal/fleetd"
)

// daemon is an in-process fleetd.Server listening on loopback, over a
// data directory of its own that stop removes.
type daemon struct {
	srv    *fleetd.Server
	hs     *http.Server
	served chan error
	url    string
	dir    string
}

// startDaemon starts a fleet service over dataDir whose scenarios
// resolve model and trace paths against baseDir.
func startDaemon(dataDir, baseDir string, pool int) (*daemon, error) {
	srv, err := fleetd.New(fleetd.Config{Dir: dataDir, BaseDir: baseDir, Pool: pool})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		dir:    dataDir,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the service, shuts the listener down, waits for the
// serve loop to return and removes the data directory.
func (d *daemon) stop() error {
	d.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if err != nil {
		d.hs.Close()
	}
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// stopDaemon stops d at the end of a run, reporting a failure to stop
// cleanly on standard error.
func stopDaemon(d *daemon) {
	if err := d.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "ehbench: stopping the fleet service: %v\n", err)
	}
}

// jobBytes returns the bytes job id keeps on the daemon's disk.
func (d *daemon) jobBytes(id string) (int64, error) {
	var n int64
	err := filepath.WalkDir(filepath.Join(d.dir, "jobs", id), func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		fi, err := de.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// client submits jobs to a daemon and streams their rows back.
type client struct {
	hc  *http.Client
	url string
}

// newClient returns a client using at most conns connections.
func newClient(url string, conns int) *client {
	return &client{
		url: url,
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobRun is one job as a client saw it. Durations count from the
// moment the client started its submit request.
type jobRun struct {
	start  time.Time
	id     string
	state  fleetd.State
	submit time.Duration // POST round trip
	// queue, tail: submit → "running" event and "done" event → last
	// row; measured only when the client watches the event stream.
	queue    time.Duration
	tail     time.Duration
	firstRow time.Duration
	total    time.Duration // submit → last row received
	check    delivery
}

// runJob submits body as one job, streams its rows to the end and
// reads its final state from the event stream. With watch set it
// follows the event stream live, in parallel with the rows, to time
// the queue wait and the row tail; otherwise it reads the events once
// the rows have ended. Rows are checked against ref; rows is the
// client's reusable receive buffer.
func (c *client) runJob(body []byte, ref *reference, watch bool, rows *bytes.Buffer) (jobRun, error) {
	start := time.Now()
	resp, err := c.hc.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobRun{}, fmt.Errorf("submit: %w", err)
	}
	var st fleetd.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return jobRun{}, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return jobRun{}, fmt.Errorf("submit: status %s", resp.Status)
	}
	jr := jobRun{start: start, id: st.ID, submit: time.Since(start)}

	type watched struct {
		running, done time.Duration
		state         fleetd.State
		err           error
	}
	var (
		wg sync.WaitGroup
		ev watched
	)
	if watch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev.state, ev.running, ev.done, ev.err = c.events(st.ID, start)
		}()
	}

	resp, err = c.hc.Get(c.url + "/v1/jobs/" + st.ID + "/rows")
	if err != nil {
		wg.Wait()
		return jr, fmt.Errorf("rows: %w", err)
	}
	rows.Reset()
	fw := &firstWrite{w: rows, start: start}
	_, err = io.Copy(fw, resp.Body)
	resp.Body.Close()
	jr.total = time.Since(start)
	jr.firstRow = fw.first
	if err != nil {
		wg.Wait()
		return jr, fmt.Errorf("rows: %w", err)
	}

	if watch {
		wg.Wait()
		jr.queue = ev.running
		jr.tail = jr.total - ev.done
	} else {
		ev.state, _, _, ev.err = c.events(st.ID, start)
	}
	if ev.err != nil {
		return jr, ev.err
	}
	jr.state = ev.state
	jr.check = ref.check(rows.Bytes())
	if jr.state != fleetd.StateDone {
		jr.check.failed = jr.check.attempted
		jr.check.wrong = jr.check.attempted
		jr.check.diff = fmt.Sprintf("job %s ended %s", jr.id, jr.state)
	}
	return jr, nil
}

// events follows the job's event stream to its end and returns the
// final state and when (since start) the "running" and terminal state
// events arrived.
func (c *client) events(id string, start time.Time) (fleetd.State, time.Duration, time.Duration, error) {
	resp, err := c.hc.Get(c.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", 0, 0, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	var (
		state         fleetd.State
		running, done time.Duration
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		at := time.Since(start)
		var ev fleetd.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", 0, 0, fmt.Errorf("events: %w", err)
		}
		if ev.Type != "state" {
			continue
		}
		state = ev.State
		switch {
		case ev.State == fleetd.StateRunning:
			running = at
		case ev.State.Terminal():
			done = at
		}
	}
	if err := sc.Err(); err != nil {
		return "", 0, 0, fmt.Errorf("events: %w", err)
	}
	return state, running, done, nil
}

// firstWrite forwards writes to w and records when the first one came.
type firstWrite struct {
	w     io.Writer
	start time.Time
	first time.Duration
	seen  bool
}

func (f *firstWrite) Write(p []byte) (int, error) {
	if !f.seen && len(p) > 0 {
		f.first, f.seen = time.Since(f.start), true
	}
	return f.w.Write(p)
}

// closedLoop runs clients concurrent clients against the daemon, each
// submitting its next job as soon as its previous one has delivered
// every row, until deadline passes or maxJobs jobs have started
// (maxJobs <= 0: no limit). It returns the jobs in completion order.
func closedLoop(c *client, clients int, body []byte, ref *reference, deadline time.Time, maxJobs int, watch bool) ([]jobRun, error) {
	var (
		mu      sync.Mutex
		runs    []jobRun
		started int
		firstEr error
		wg      sync.WaitGroup
	)
	claim := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if firstEr != nil || !time.Now().Before(deadline) || (maxJobs > 0 && started >= maxJobs) {
			return false
		}
		started++
		return true
	}
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rows bytes.Buffer
			for claim() {
				jr, err := c.runJob(body, ref, watch, &rows)
				mu.Lock()
				if err != nil && firstEr == nil {
					firstEr = err
				}
				if err == nil {
					runs = append(runs, jr)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs, firstEr
}
