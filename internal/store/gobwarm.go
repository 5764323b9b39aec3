package store

import (
	"encoding/gob"
	"io"
)

// init pins the gob type ID block for the pairs artifact; see
// internal/nn/gobwarm.go for why first-encode order must not depend on
// the runtime path. Without this, a run that saves a model before any
// pairs artifact and a run that saves pairs first would interleave the
// global ID allocations differently and write byte-different .cbgan
// files for identical weights.
func init() {
	enc := gob.NewEncoder(io.Discard)
	//lint:ignore unchecked-error warming the global gob type registry; encoding a zero value of a concrete wire type cannot fail
	enc.Encode(PairsArtifact{})
}
