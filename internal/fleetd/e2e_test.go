package fleetd

// End-to-end bit-identity: everything the daemon streams back — the
// NDJSON rows and the rendered report — must be byte-identical to the
// one-shot CLI library path over the same scenario and seed, with the
// memo on or off, across a shard split and merge, and across a
// daemon kill mid-job (drain + restart + checkpoint resume).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"ehdl/internal/fleet"
)

func TestJobMatchesCLIRunByteForByte(t *testing.T) {
	for _, memoOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("memo=%t", memoOn), func(t *testing.T) {
			base := writeFixtures(t)
			// workers=1 when memoized: the report's memo counters are
			// scheduling-dependent under concurrency; rows never are.
			workers := 2
			if memoOn {
				workers = 1
			}
			_, ts := startServer(t, t.TempDir(), Config{BaseDir: base, Pool: 2})
			js := postJob(t, ts, jobBody(t, scenarioDoc, map[string]any{
				"seed": 3, "devices": 12, "workers": workers, "memo": memoOn,
			}))

			// Stream rows while the job runs; the request follows the run
			// and ends at its terminal state.
			rows := getRows(t, ts, js.ID)
			if st := waitTerminal(t, ts, js.ID); st != StateDone {
				t.Fatalf("job finished %s, want done", st)
			}
			report := getReport(t, ts, js.ID)

			refRows, refReport := referenceRun(t, base, scenarioDoc, refOptions{
				seed: 3, devices: 12, workers: workers, memo: memoOn,
			})
			if !bytes.Equal(rows, refRows) {
				t.Errorf("daemon rows diverge from the CLI run:\ndaemon %d bytes\nref    %d bytes", len(rows), len(refRows))
			}
			if report != refReport {
				t.Errorf("daemon report diverges from the CLI run:\n--- daemon\n%s--- ref\n%s", report, refReport)
			}

			final := getStatus(t, ts, js.ID)
			if final.Rows != 12 || final.RowsDelivered != 12 || final.Fleet != 12 {
				t.Errorf("final status rows=%d delivered=%d fleet=%d, want 12/12/12",
					final.Rows, final.RowsDelivered, final.Fleet)
			}
			if final.Fingerprint == "" {
				t.Error("done job has no fingerprint")
			}
		})
	}
}

// TestShardJobsMergeToWholeFleetBytes: three partitioned jobs tile
// the fleet; the merge endpoint folds their shard artifacts into the
// whole-fleet rows and report, byte-identical to one unsharded run.
func TestShardJobsMergeToWholeFleetBytes(t *testing.T) {
	base := writeFixtures(t)
	_, ts := startServer(t, t.TempDir(), Config{BaseDir: base, Pool: 2})

	const shards = 3
	ids := make([]string, shards)
	for i := 0; i < shards; i++ {
		js := postJob(t, ts, jobBody(t, scenarioDoc, map[string]any{
			"seed": 5, "devices": 9, "partition": fmt.Sprintf("%d/%d", i, shards),
		}))
		ids[i] = js.ID
	}
	for i, id := range ids {
		if st := waitTerminal(t, ts, id); st != StateDone {
			t.Fatalf("shard %d finished %s, want done", i, st)
		}
	}

	status, data := apiCall(t, ts, http.MethodPost, "/v1/merge",
		[]byte(fmt.Sprintf(`{"jobs":["%s","%s","%s"]}`, ids[0], ids[1], ids[2])))
	if status != http.StatusOK {
		t.Fatalf("POST /v1/merge: %d %s", status, data)
	}
	var merged JobStatus
	if err := json.Unmarshal(data, &merged); err != nil {
		t.Fatalf("merge status: %v in %s", err, data)
	}
	if merged.Kind != "merge" || merged.State != StateDone || merged.Rows != 9 {
		t.Fatalf("merge job = %+v, want done merge of 9 rows", merged)
	}

	rows := getRows(t, ts, merged.ID)
	report := getReport(t, ts, merged.ID)
	refRows, refReport := referenceRun(t, base, scenarioDoc, refOptions{seed: 5, devices: 9, workers: 2})
	if !bytes.Equal(rows, refRows) {
		t.Error("merged shard rows diverge from the single-process run")
	}
	if report != refReport {
		t.Errorf("merged report diverges:\n--- merged\n%s--- ref\n%s", report, refReport)
	}
}

// TestRestartResumesInFlightJobToIdenticalBytes: kill the daemon
// mid-job (drain persists the running job as queued at its checkpoint
// frontier), start a new daemon over the same data dir, and the
// resumed job's final rows and report are byte-identical to an
// uninterrupted run.
func TestRestartResumesInFlightJobToIdenticalBytes(t *testing.T) {
	base := writeFixtures(t)
	dir := t.TempDir()
	cfg := Config{BaseDir: base, Pool: 1}

	srv1, ts1 := startServer(t, dir, cfg, parkAt(256))
	const devices = 600
	js := postJob(t, ts1, jobBody(t, scenarioDoc, map[string]any{
		"seed": 2, "devices": devices, "workers": 1, "chunk_size": 32, "checkpoint_every": 64,
	}))

	// Let it get well into the fleet — it parks at row 256 until the
	// drain cancels it — then kill the daemon.
	waitRows(t, ts1, js.ID, 256)
	srv1.Drain()
	ts1.Close()

	jobDir := filepath.Join(dir, "jobs", js.ID)
	meta, err := readJobMeta(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != StateQueued {
		t.Fatalf("drained mid-job state = %s, want queued", meta.State)
	}
	ck, err := fleet.LoadCheckpoint(filepath.Join(jobDir, fleet.ShardMetaFile))
	if err != nil {
		t.Fatalf("no checkpoint after drain: %v", err)
	}
	if ck.Rows <= 0 || ck.Rows >= devices {
		t.Fatalf("checkpoint frontier %d not strictly mid-run", ck.Rows)
	}

	// A restarted daemon recovers the job as queued and resumes it
	// from the frontier without being asked.
	_, ts2 := startServer(t, dir, cfg)
	if st := waitTerminal(t, ts2, js.ID); st != StateDone {
		t.Fatalf("resumed job finished %s, want done", st)
	}

	rows := getRows(t, ts2, js.ID)
	report := getReport(t, ts2, js.ID)
	refRows, refReport := referenceRun(t, base, scenarioDoc, refOptions{
		seed: 2, devices: devices, workers: 1, chunkSize: 32,
	})
	if !bytes.Equal(rows, refRows) {
		t.Errorf("resumed rows diverge from an uninterrupted run (%d vs %d bytes)", len(rows), len(refRows))
	}
	if report != refReport {
		t.Errorf("resumed report diverges:\n--- resumed\n%s--- ref\n%s", report, refReport)
	}

	// The resumed process restored the drained frontier from the
	// checkpoint instead of re-simulating it.
	final := getStatus(t, ts2, js.ID)
	if final.Resumed != ck.Rows {
		t.Errorf("restart restored %d rows, want the checkpoint frontier %d", final.Resumed, ck.Rows)
	}
	if final.Rows != devices || final.RowsDelivered != devices {
		t.Errorf("final rows %d delivered %d, want %d", final.Rows, final.RowsDelivered, devices)
	}
}
