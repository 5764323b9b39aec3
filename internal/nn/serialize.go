package nn

import "fmt"

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
