package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"ehdl/internal/cli"
	"ehdl/internal/dataset"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
	"ehdl/internal/rad"
)

// scenariosDir holds the checked-in scenario bundle, relative to the
// repository root.
const scenariosDir = "examples/scenarios"

// fixture is the deployed-model bundle every workload runs against:
// a directory holding the trained MNIST artifact and the harvesting
// trace, which scenario documents name by relative path.
type fixture struct {
	dir    string
	model  *quant.Model
	digest string
}

// newFixture trains the MNIST model with the budget of
// `radtrain -task mnist -samples 300 -epochs 2` (seed 1), writes it
// and a copy of the bundled solar trace into dir, and returns the
// bundle. Training is deterministic, so every run deploys the same
// model; its content digest goes into the provenance line.
func newFixture(repo, dir string) (*fixture, error) {
	m, err := trainMNIST(300, 2, 1)
	if err != nil {
		return nil, fmt.Errorf("training the fixture: %w", err)
	}
	if err := cli.SaveModel(filepath.Join(dir, "mnist.gob"), m); err != nil {
		return nil, err
	}
	trace, err := os.ReadFile(filepath.Join(repo, scenariosDir, "solar.csv"))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "solar.csv"), trace, 0o644); err != nil {
		return nil, err
	}
	d := m.ContentDigest()
	return &fixture{dir: dir, model: m, digest: hex.EncodeToString(d[:])}, nil
}

// trainMNIST mirrors cmd/radtrain's mnist path.
func trainMNIST(samples, epochs int, seed int64) (*quant.Model, error) {
	set := dataset.MNIST(samples, samples/5, seed)
	cfg := rad.DefaultPipelineConfig()
	cfg.Train.Epochs = epochs
	cfg.Train.Seed = seed
	cfg.Seed = seed + 1
	res, err := rad.Train(nn.MNISTArch(128, true), set, cfg)
	if err != nil {
		return nil, err
	}
	return res.Model, nil
}
