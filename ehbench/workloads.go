package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ehdl/internal/cli"
)

// workload is one named input set: a scenario document (the bytes a
// user would hand ehfleet or POST to ehfleetd), the fleet size it is
// run at, and how it is driven.
type workload struct {
	name     string
	scenario []byte
	// resize is the -n / "devices" override (0 keeps the declared size).
	resize int
	// devices is the resolved fleet size.
	devices int
	// memo reports whether the pipeline consults the run memo.
	memo bool
	// service drives the end-to-end run as fleetd jobs instead of CLI
	// sweeps.
	service bool
	// jobs is how many jobs the traced run times on the fleet service.
	jobs int
}

// citywideDivisor scales the checked-in citywide fleet (10k devices,
// ~30 s per sweep on a 2-vCPU host) down so one run measures many
// sweeps. Every spec keeps its share, so the engine, capacitor and
// waveform mix is the file's.
const citywideDivisor = 20

// slowharvestDevices cycles the four-device slowharvest file to a
// fleet large enough to time.
const slowharvestDevices = 200

// replayDevices is the size of one replay job.
const replayDevices = 2000

// replayScenario is the benchmark's class-heavy fleet: every spec pins
// its test sample and quantizes its jitter, so 2000 devices collapse
// into 25 harvest equivalence classes across all five runtimes, and a
// warm memo answers every device.
//
// replay is driven as fleetd jobs from nproc closed-loop clients. It is
// not among BENCHMARK.json's workloads: its memo-hit path is bound by
// allocation and memory, and on a 2-vCPU host its throughput moved
// between 55k and 158k devices/s from one run of a seed to the next,
// more than any regression bound could absorb. Use it for paired runs.
const replayScenario = `{
  "defaults": { "model": "mnist.gob", "sample": 7, "jitter": 0.2, "jitter_steps": 6 },
  "memo": { "enabled": true },
  "devices": [
    { "name": "roof", "count": 400, "engine": "ace+flex" },
    { "name": "window", "count": 400, "engine": "tails", "cap_f": 220e-6,
      "profile": { "kind": "sine", "power_w": 6e-3, "period_s": 0.2 } },
    { "name": "farm", "count": 400, "engine": "ace", "cap_f": 150e-6,
      "profile": { "kind": "trace", "trace": "solar.csv", "repeat": true } },
    { "name": "cellar", "count": 400, "engine": "sonic",
      "profile": { "kind": "const", "power_w": 2.5e-3 } },
    { "name": "bench", "count": 400, "engine": "base", "jitter": 0,
      "profile": { "kind": "const", "power_w": 5e-3 } }
  ]
}
`

// loadWorkload builds the named workload from the checked-in scenario
// files under repo.
func loadWorkload(repo, name string) (*workload, error) {
	switch name {
	case "citywide":
		data, err := os.ReadFile(filepath.Join(repo, scenariosDir, "citywide.json"))
		if err != nil {
			return nil, err
		}
		scaled, err := scaleCounts(data, citywideDivisor)
		if err != nil {
			return nil, fmt.Errorf("citywide.json: %w", err)
		}
		return newWorkload(name, scaled, 0, false, 4)
	case "slowharvest":
		data, err := os.ReadFile(filepath.Join(repo, scenariosDir, "slowharvest.json"))
		if err != nil {
			return nil, err
		}
		return newWorkload(name, data, slowharvestDevices, false, 4)
	case "replay":
		w, err := newWorkload(name, []byte(replayScenario), 0, true, 40)
		if err != nil {
			return nil, err
		}
		w.service = true
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want citywide, slowharvest or replay)", name)
}

// scaleCounts divides every declared count of a scenario document by
// div, keeping at least one device per spec, and re-encodes it.
func scaleCounts(data []byte, div int) ([]byte, error) {
	sf, err := cli.DecodeScenarioFile(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	for i := range sf.Devices {
		if c := sf.Devices[i].Count; c != nil {
			n := max(1, *c/div)
			sf.Devices[i].Count = &n
		}
	}
	return json.MarshalIndent(sf, "", "  ")
}

func newWorkload(name string, scenario []byte, resize int, memo bool, jobs int) (*workload, error) {
	sf, err := cli.DecodeScenarioFile(bytes.NewReader(scenario))
	if err != nil {
		return nil, fmt.Errorf("%s scenario: %w", name, err)
	}
	n := 0
	for _, d := range sf.Devices {
		if d.Count != nil {
			n += *d.Count
		} else {
			n++
		}
	}
	if resize > 0 {
		n = resize
	}
	return &workload{name: name, scenario: scenario, resize: resize, devices: n, memo: memo, jobs: jobs}, nil
}

// compile decodes and compiles the scenario against the fixture
// directory (a private artifact cache, so the model artifact is loaded
// and the test inputs synthesized afresh) — the set-up a sweep pays
// before its first device.
func (w *workload) compile(fixtureDir string, seed int64) (*cli.FleetSource, error) {
	sf, err := cli.DecodeScenarioFile(bytes.NewReader(w.scenario))
	if err != nil {
		return nil, err
	}
	src, err := cli.CompileFleetSource(sf, fixtureDir, seed, nil)
	if err != nil {
		return nil, err
	}
	if w.resize > 0 {
		src = src.Resize(w.resize)
	}
	if src.Len() != w.devices {
		return nil, fmt.Errorf("%s: compiled %d devices, want %d", w.name, src.Len(), w.devices)
	}
	return src, nil
}

// fingerprint is the run identity fleet checkpoints embed.
func (w *workload) fingerprint(seed int64) string {
	return cli.ScenarioBytesFingerprint(w.scenario, seed, w.devices)
}

// jobRequest is the fleetd submission body for one job of w.
func (w *workload) jobRequest(seed int64) ([]byte, error) {
	return json.Marshal(struct {
		Scenario json.RawMessage `json:"scenario"`
		Seed     int64           `json:"seed"`
		Devices  int             `json:"devices,omitempty"`
	}{Scenario: w.scenario, Seed: seed, Devices: w.resize})
}
