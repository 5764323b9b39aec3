package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"cachebox/internal/nn"
)

// FuzzReadHeader fuzzes the .cbgan architecture header that serve,
// traind and the CLIs vet model files with. Every input must either be
// rejected with an error that unwraps to ErrBadHeader, or yield a
// Config that passes Validate and has a positive codec gamma (the
// codec reads gamma <= 0 as linear, which such a header would not
// say). Nothing may panic.
func FuzzReadHeader(f *testing.F) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		f.Fatal(err)
	}
	encode := func(h modelHeader, weights bool) []byte {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(h); err != nil {
			f.Fatal(err)
		}
		if weights {
			if err := enc.Encode(nn.Snapshot(m.allState())); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	withGamma := func(g float64) []byte {
		cfg := m.Cfg
		cfg.Gamma = g
		return encode(modelHeader{Magic: "cbgan", Version: 1, Cfg: cfg}, true)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		f.Fatal(err)
	}
	header := encode(modelHeader{Magic: "cbgan", Version: 1, Cfg: m.Cfg}, false)
	f.Add(saved.Bytes())
	f.Add(withGamma(0))
	f.Add(withGamma(-2))
	f.Add(header[:len(header)/2]) // truncated inside the header
	f.Add(encode(modelHeader{Magic: "cbgam", Version: 1, Cfg: m.Cfg}, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ReadHeader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadHeader) {
				t.Fatalf("rejection does not unwrap to ErrBadHeader: %v", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted header fails Validate: %v", err)
		}
		if !(cfg.Gamma > 0) {
			t.Fatalf("accepted header has codec gamma %v", cfg.Gamma)
		}
	})
}
