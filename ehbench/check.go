package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"ehdl/internal/fleet"
)

// reference is the expected output of one workload at one seed: the
// NDJSON rows of a workers=1, memo-off, uncheckpointed RunStream,
// computed once, outside every timing.
type reference struct {
	digest [32]byte
	lines  [][]byte
	report fleet.Report
	// setupErrors counts reference rows whose scenario never ran; they
	// count as failed in every delivery of the rows.
	setupErrors int
	// energyMean and wallMean are the mean simulated energy (mJ) and
	// wall time (s) per device.
	energyMean, wallMean float64
	// took is the reference sweep's host time.
	took time.Duration
}

func newReference(src fleet.Source) (*reference, error) {
	var buf bytes.Buffer
	start := time.Now()
	rep, err := fleet.RunStream(src, fleet.StreamOptions{Workers: 1, Sink: fleet.NewNDJSONSink(&buf)})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	r := &reference{digest: sha256.Sum256(buf.Bytes()), lines: splitRows(buf.Bytes()), report: rep, took: time.Since(start)}
	var energy, wall float64
	for i, line := range r.lines {
		var row fleet.NDJSONRow
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, fmt.Errorf("reference row %d: %w", i, err)
		}
		if row.Diag == fleet.SetupErrorDiagnosis {
			r.setupErrors++
		}
		energy += row.EnergyMJ
		wall += row.WallSec
	}
	if len(r.lines) != src.Len() {
		return nil, fmt.Errorf("reference run delivered %d rows for %d devices", len(r.lines), src.Len())
	}
	r.energyMean = energy / float64(len(r.lines))
	r.wallMean = wall / float64(len(r.lines))
	fmt.Fprintf(os.Stderr, "ehbench: reference run: %d rows in %.2fs\n", len(r.lines), r.took.Seconds())
	return r, nil
}

// delivery is the verdict on one delivery of the fleet's rows.
type delivery struct {
	tally
	// missing counts reference rows that were not delivered.
	missing int
	// wrong counts failures other than the reference's own setup-error
	// rows: missing, differing and surplus rows, or every row of a job
	// that did not end done. Any makes the run incorrect.
	wrong int
	// diff describes the first failure ("" when byte-identical).
	diff string
}

// delivered is the number of devices whose rows arrived.
func (d delivery) delivered() int { return d.attempted - d.missing }

// check compares one delivery of the fleet's rows with the reference.
// Every reference row that is missing, differs, or is a setup-error
// row counts as failed; all but the setup-error rows count as wrong.
func (r *reference) check(got []byte) delivery {
	d := delivery{tally: tally{attempted: len(r.lines), failed: r.setupErrors}}
	if sha256.Sum256(got) == r.digest {
		return d
	}
	d.failed = 0
	gl := splitRows(got)
	for i, want := range r.lines {
		switch {
		case i >= len(gl):
			d.failed++
			d.missing++
			d.wrong++
			if d.diff == "" {
				d.diff = fmt.Sprintf("rows %d.. missing (%d of %d delivered)", i, len(gl), len(r.lines))
			}
		case !bytes.Equal(gl[i], want):
			d.failed++
			d.wrong++
			if d.diff == "" {
				d.diff = fmt.Sprintf("row %d: got %s, want %s", i, gl[i], want)
			}
		case bytes.Contains(want, []byte(`"diag":"setup-error"`)):
			d.failed++
		}
	}
	if extra := len(gl) - len(r.lines); extra > 0 {
		d.wrong += extra
		if d.diff == "" {
			d.diff = fmt.Sprintf("%d rows delivered, want %d", len(gl), len(r.lines))
		}
	}
	return d
}

// simMetrics are the simulated results of the reference rows. They
// depend only on the workload and seed, so they repeat exactly and
// flag any change that moves the modelled device. Wall time is a mean,
// not a median: quantized jitter makes the fleet's median jump between
// a few class values from seed to seed.
func (r *reference) simMetrics(out *outcome) {
	n := len(r.lines)
	out.put("sim_completion_rate", r.report.CompletionRate, "ratio", n)
	out.put("sim_energy_mj_mean", r.energyMean, "sim_mJ", n)
	out.put("sim_wall_s_mean", r.wallMean, "sim_s", n)
}

// splitRows splits NDJSON bytes into lines without their newlines.
func splitRows(data []byte) [][]byte {
	lines := bytes.Split(data, []byte{'\n'})
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	return lines
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := int(float64(len(s))*q+0.5) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}
