package quant

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Model artifacts serialize through internal/artifact's checksummed,
// versioned container so the CLI tools can train once (radtrain) and
// deploy many times (aceinfer, ehsim, ehfleet): files go through
// artifact.WriteFile/ReadFile plus Validate (cli.SaveModel and
// cli.LoadModel wrap exactly that). Save/Load here are the raw gob
// stream codec — the container's payload format.

// Save writes the model's raw gob payload to w (no container framing:
// no magic, version or checksum — prefer cli.SaveModel or
// artifact.WriteFile for anything that touches a file system).
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("quant: encode model: %w", err)
	}
	return nil
}

// Load reads a raw gob model payload from r (see Save).
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("quant: decode model: %w", err)
	}
	return &m, nil
}

// Validate checks the structural consistency a deployable model must
// have: non-degenerate metadata, known layer kinds, weight/bias
// lengths matching every layer spec, and a coherent activation chain
// from InShape to NumClasses. It is the defense against an artifact
// that decodes "successfully" into zeroed or half-filled fields after
// a schema drift.
func (m *Model) Validate() error {
	if m == nil {
		return fmt.Errorf("quant: nil model")
	}
	if m.Name == "" {
		return fmt.Errorf("quant: model has no name (zeroed artifact?)")
	}
	if m.InShape[0] <= 0 || m.InShape[1] <= 0 || m.InShape[2] <= 0 {
		return fmt.Errorf("quant: model %q has invalid input shape %v", m.Name, m.InShape)
	}
	if m.NumClasses <= 0 {
		return fmt.Errorf("quant: model %q has %d classes", m.Name, m.NumClasses)
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("quant: model %q has no layers", m.Name)
	}
	prev := m.InShape[0] * m.InShape[1] * m.InShape[2]
	for li := range m.Layers {
		l := &m.Layers[li]
		if err := validateLayer(l, prev); err != nil {
			return fmt.Errorf("quant: model %q layer %d (%s): %w", m.Name, li, l.Spec.Kind, err)
		}
		prev = LayerOutLen(l.Spec)
	}
	if prev != m.NumClasses {
		return fmt.Errorf("quant: model %q ends with %d outputs for %d classes", m.Name, prev, m.NumClasses)
	}
	return nil
}

// validateLayer checks one quantized layer against its spec and the
// activation length feeding it.
func validateLayer(l *QLayer, inLen int) error {
	s := l.Spec
	switch s.Kind {
	case "conv":
		if s.InC <= 0 || s.InH <= 0 || s.InW <= 0 || s.OutC <= 0 ||
			s.KH <= 0 || s.KW <= 0 || s.KH > s.InH || s.KW > s.InW {
			return fmt.Errorf("bad geometry %+v", s)
		}
		if got := s.InC * s.InH * s.InW; got != inLen {
			return fmt.Errorf("expects %d inputs, previous layer provides %d", got, inLen)
		}
		positions := s.InC * s.KH * s.KW
		if want := s.OutC * positions; len(l.W) != want {
			return fmt.Errorf("%d weights, want %d", len(l.W), want)
		}
		if len(l.B) != s.OutC {
			return fmt.Errorf("%d biases, want %d", len(l.B), s.OutC)
		}
		for _, p := range l.Kept {
			if p < 0 || p >= positions {
				return fmt.Errorf("kept position %d outside kernel grid of %d", p, positions)
			}
		}
	case "dense":
		if s.In <= 0 || s.Out <= 0 {
			return fmt.Errorf("bad shape %dx%d", s.In, s.Out)
		}
		if s.In != inLen {
			return fmt.Errorf("expects %d inputs, previous layer provides %d", s.In, inLen)
		}
		if len(l.W) != s.In*s.Out {
			return fmt.Errorf("%d weights, want %d", len(l.W), s.In*s.Out)
		}
		if len(l.B) != s.Out {
			return fmt.Errorf("%d biases, want %d", len(l.B), s.Out)
		}
	case "bcm":
		if s.In <= 0 || s.Out <= 0 {
			return fmt.Errorf("bad shape %dx%d", s.In, s.Out)
		}
		if s.K <= 0 || s.K&(s.K-1) != 0 {
			return fmt.Errorf("block size %d is not a positive power of two", s.K)
		}
		if s.In != inLen {
			return fmt.Errorf("expects %d inputs, previous layer provides %d", s.In, inLen)
		}
		p := (s.Out + s.K - 1) / s.K
		q := (s.In + s.K - 1) / s.K
		if want := p * q * s.K; len(l.W) != want {
			return fmt.Errorf("%d block weights, want %d (P=%d Q=%d K=%d)", len(l.W), want, p, q, s.K)
		}
		if len(l.B) != s.Out {
			return fmt.Errorf("%d biases, want %d", len(l.B), s.Out)
		}
	case "pool":
		if s.PoolSize <= 0 || s.InC <= 0 || s.InH <= 0 || s.InW <= 0 ||
			s.InH%s.PoolSize != 0 || s.InW%s.PoolSize != 0 {
			return fmt.Errorf("bad pool geometry %+v", s)
		}
		if got := s.InC * s.InH * s.InW; got != inLen {
			return fmt.Errorf("expects %d inputs, previous layer provides %d", got, inLen)
		}
		if len(l.W) != 0 || len(l.B) != 0 {
			return fmt.Errorf("stateless layer carries %d weights / %d biases", len(l.W), len(l.B))
		}
	case "relu", "flatten":
		if s.N <= 0 {
			return fmt.Errorf("bad length %d", s.N)
		}
		if s.N != inLen {
			return fmt.Errorf("expects %d inputs, previous layer provides %d", s.N, inLen)
		}
		if len(l.W) != 0 || len(l.B) != 0 {
			return fmt.Errorf("stateless layer carries %d weights / %d biases", len(l.W), len(l.B))
		}
	default:
		return fmt.Errorf("unknown kind %q", s.Kind)
	}
	return nil
}
