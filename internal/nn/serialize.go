package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// ParamBlob is the gob wire form of one parameter tensor.
type ParamBlob struct {
	Name  string
	Shape []int
	Data  []float32
}

// Snapshot captures the current values of params for serialisation.
func Snapshot(params []*Param) []ParamBlob {
	blobs := make([]ParamBlob, len(params))
	for i, p := range params {
		blobs[i] = ParamBlob{
			Name:  p.Name,
			Shape: append([]int(nil), p.Value.Shape...),
			Data:  append([]float32(nil), p.Value.Data...),
		}
	}
	return blobs
}

// Restore copies blob values into params. The architecture must match:
// same parameter count, order and sizes.
func Restore(blobs []ParamBlob, params []*Param) error {
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: restore: %d stored params, model has %d", len(blobs), len(params))
	}
	for i, b := range blobs {
		p := params[i]
		if len(b.Data) != p.Value.Len() {
			return fmt.Errorf("nn: restore: param %d (%s) has %d values, model expects %d",
				i, b.Name, len(b.Data), p.Value.Len())
		}
		copy(p.Value.Data, b.Data)
		p.version++
	}
	return nil
}

// Save writes params to w with gob encoding. Callers embedding the
// weights in a larger gob stream should Snapshot/Restore with their
// own encoder instead (a gob decoder buffers, so two decoders cannot
// share one stream).
func Save(w io.Writer, params []*Param) error {
	if err := gob.NewEncoder(w).Encode(Snapshot(params)); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load reads parameters written by Save into params.
func Load(r io.Reader, params []*Param) error {
	var blobs []ParamBlob
	if err := gob.NewDecoder(r).Decode(&blobs); err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	return Restore(blobs, params)
}
